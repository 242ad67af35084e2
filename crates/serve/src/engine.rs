//! The epoch-based engine: one writer, many readers, no torn state.
//!
//! All mutable state lives behind two locks with a strict order
//! (`writer` before `shared`, never the reverse):
//!
//! * `writer` — the working copy of the competitor set: the append-only
//!   point store (tombstoned rows included), the id-sorted skyline of
//!   the live rows, and each row's stable competitor id. There is no
//!   index: readers see only the skyline, and the one writer step that
//!   needs more — finding what a removed skyline member exposes — is a
//!   linear scan of the live rows. Mutations are applied here one at a
//!   time.
//! * [`Published`] — what queries see: the current [`Snapshot`] (an
//!   `Arc` cloned per request; only the skyline rows and their ids,
//!   copied in O(|skyline|)) plus the [`ResultCache`]. The writer
//!   publishes a new epoch by swapping the snapshot and running the
//!   selective cache invalidation for the mutation *under the same
//!   lock*, so a reader can never pair a new snapshot with
//!   not-yet-invalidated cache entries or vice versa. A coordinator
//!   publishes its replicated global skyline into the same type, so
//!   both topologies answer through one reader path.
//!
//! Competitor ids are stable `u64`s decoupled from [`PointId`]s: a
//! rebuild compacts tombstones out of the store and renumbers rows, but
//! client handles speak cids and cached answers hold no ids at all, so
//! nothing they hold goes stale — which is why a rebuild publishes a
//! new epoch without flushing the cache. Ids are strictly increasing
//! in row order (seeding enforces it, assigned ids may not fall behind
//! `next_cid`, and compaction keeps row order), so a binary search over
//! the row ids finds a competitor's row.

use crate::cache::{CacheKey, CostTag, ResultCache};
use crate::snapshot::{Answer, Snapshot};
use crate::wal::{self, RecoveryReport, Wal, WalConfig};
use crate::CompetitorId;
use skyup_core::cost::CostFunction;
use skyup_core::{SkyupError, UpgradeConfig};
use skyup_geom::dominance::dominates;
use skyup_geom::{ColumnarPoints, PointId, PointStore};
use skyup_obs::{Counter, QueryMetrics, Recorder};
use skyup_skyline::skyline_sfs;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// A competitor-set mutation, the unit of the writer's log.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Add a competitor at these coordinates.
    AddCompetitor(Vec<f64>),
    /// Add a competitor under a pre-assigned id. Used by shards, where
    /// the coordinator owns the global id sequence: each shard only
    /// sees the adds it owns, so its local `next_cid` lags the global
    /// counter and ids arrive with gaps. The id must not be behind the
    /// engine's own counter (ids stay strictly increasing in row
    /// order — the invariant the scatter/gather merge relies on).
    AddCompetitorWithCid(CompetitorId, Vec<f64>),
    /// Remove the competitor with this id.
    RemoveCompetitor(CompetitorId),
}

/// What a mutation did, as observed at its publication epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The epoch the mutation was published at (unchanged when the
    /// mutation was a no-op, e.g. removing an unknown cid).
    pub epoch: u64,
    /// The id assigned to an added competitor.
    pub cid: Option<CompetitorId>,
    /// Whether a removal actually removed a live competitor.
    pub removed: bool,
    /// Whether the mutation left enough tombstones to compact the
    /// writer's store.
    pub rebuilt: bool,
    /// Cache entries evicted by selective invalidation.
    pub evicted: u64,
}

/// Tuning knobs for the engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Rebuild (compact the tombstones out of the store) when at least
    /// this many have accumulated and they outnumber half the live set.
    pub rebuild_min_dead: usize,
    /// Maximum cached answers.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            rebuild_min_dead: 32,
            cache_capacity: 1 << 16,
        }
    }
}

struct Writer {
    store: PointStore,
    skyline: Vec<PointId>,
    /// Scratch columnar copy of `skyline`, gathered once per mutation
    /// for the dominance filters (the allocation is reused).
    cols: ColumnarPoints,
    live: Vec<bool>,
    /// Row `i`'s competitor id, strictly increasing in row order.
    cid_of: Vec<CompetitorId>,
    next_cid: CompetitorId,
    epoch: u64,
    live_count: usize,
    dead: usize,
    rebuilds: u64,
}

impl Writer {
    /// The live row holding `cid`, if any: ids ascend with rows, so a
    /// binary search finds it (a removed id may still sit on a
    /// tombstoned row until the next compaction).
    fn live_row(&self, cid: CompetitorId) -> Option<PointId> {
        let row = self.cid_of.binary_search(&cid).ok()?;
        self.live[row].then_some(PointId(row as u32))
    }

    /// The live rows as `(cid, coordinates)`, ascending by cid.
    fn live_rows(&self) -> impl Iterator<Item = (CompetitorId, &[f64])> + Clone {
        self.live
            .iter()
            .enumerate()
            .filter(|&(_, &live)| live)
            .map(|(row, _)| (self.cid_of[row], self.store.point(PointId(row as u32))))
    }
}

struct Shared {
    snapshot: Arc<Snapshot>,
    cache: ResultCache,
}

/// The cache invalidation a published mutation runs.
pub(crate) enum Evict {
    /// An added competitor's coordinates.
    Inserted(Vec<f64>),
    /// A removed competitor's coordinates, present only when it was a
    /// skyline member (no cached answer depends on a non-member).
    Removed(Option<Vec<f64>>),
}

/// The reader half of a serving topology: the published [`Snapshot`],
/// the [`ResultCache`] kept consistent with it, and the serving
/// counters. A single engine's writer publishes into one; a
/// coordinator publishes its replicated global skyline into another.
/// Queries read only this, so both topologies run the same reader path.
pub struct Published {
    shared: Mutex<Shared>,
    metrics: Mutex<QueryMetrics>,
}

impl Published {
    pub(crate) fn new(snapshot: Snapshot, cache_capacity: usize) -> Published {
        Published {
            shared: Mutex::new(Shared {
                snapshot: Arc::new(snapshot),
                cache: ResultCache::new(cache_capacity),
            }),
            metrics: Mutex::new(QueryMetrics::new()),
        }
    }

    /// Dimensionality of the competitor space.
    pub fn dims(&self) -> usize {
        self.shared.lock().unwrap().snapshot.dims()
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.shared.lock().unwrap().snapshot)
    }

    /// Serving counters accumulated so far.
    pub fn metrics(&self) -> QueryMetrics {
        self.metrics.lock().unwrap().clone()
    }

    /// Folds a per-request metrics object into the tally.
    pub fn absorb_metrics(&self, m: &QueryMetrics) {
        self.metrics.lock().unwrap().absorb(m);
    }

    /// Bumps one counter (front-end shed accounting).
    pub fn bump(&self, c: Counter) {
        self.incr(c, 1);
    }

    /// Adds `n` to one counter.
    pub(crate) fn incr(&self, c: Counter, n: u64) {
        self.metrics.lock().unwrap().incr(c, n);
    }

    /// Answers currently cached.
    pub fn cached(&self) -> usize {
        self.shared.lock().unwrap().cache.len()
    }

    /// Answers one product against the pinned snapshot `snap`, going
    /// through the result cache when the published epoch still matches.
    /// Cache hits and misses are recorded on `rec`.
    pub fn answer_product<C: CostFunction + ?Sized>(
        &self,
        snap: &Snapshot,
        t: &[f64],
        cost_fn: &C,
        tag: CostTag,
        cfg: &UpgradeConfig,
        rec: &mut QueryMetrics,
    ) -> Answer {
        let key = CacheKey::new(t, tag);
        {
            let sh = self.shared.lock().unwrap();
            if sh.snapshot.epoch == snap.epoch {
                if let Some(a) = sh.cache.get(&key) {
                    rec.bump(Counter::CacheHit);
                    return a.clone();
                }
            }
        }
        rec.bump(Counter::CacheMiss);
        let answer = snap.answer(t, cost_fn, cfg, rec);
        let mut sh = self.shared.lock().unwrap();
        let current = sh.snapshot.epoch;
        sh.cache
            .insert_if_current(key, answer.clone(), snap.epoch, current);
        answer
    }

    /// Publishes `snapshot` as the new epoch: runs each mutation's
    /// selective invalidation and swaps the snapshot in one indivisible
    /// step. Returns the entries evicted.
    pub(crate) fn publish(
        &self,
        snapshot: Snapshot,
        evictions: impl IntoIterator<Item = Evict>,
    ) -> u64 {
        let snapshot = Arc::new(snapshot);
        let evicted = {
            let mut sh = self.shared.lock().unwrap();
            let evicted = evictions
                .into_iter()
                .map(|evict| match evict {
                    Evict::Inserted(coords) => sh.cache.evict_dominated_by(&coords),
                    Evict::Removed(Some(coords)) => sh.cache.evict_strictly_dominated_by(&coords),
                    Evict::Removed(None) => 0,
                })
                .sum();
            sh.snapshot = snapshot;
            evicted
        };
        let mut m = self.metrics.lock().unwrap();
        m.bump(Counter::EpochSwaps);
        m.incr(Counter::CacheEvictions, evicted);
        evicted
    }
}

/// A point-in-time view of the engine for `stats` requests.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Current published epoch.
    pub epoch: u64,
    /// Live competitors.
    pub live: usize,
    /// Size of the live-set skyline.
    pub skyline_len: usize,
    /// Tombstoned store rows awaiting compaction.
    pub dead: usize,
    /// Compactions (rebuilds) performed so far.
    pub rebuilds: u64,
    /// Answers currently cached.
    pub cached: usize,
}

/// Durability state as seen by the `health` verb and the chaos tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Sequence number of the last record appended (or replayed).
    pub last_seq: u64,
    /// The failure that degraded the engine to read-only, if any.
    pub read_only: Option<String>,
    /// What recovery did when this engine started.
    pub recovery: RecoveryReport,
}

/// The epoch-based serving engine. Shared across worker threads via
/// `Arc`; see the module docs for the locking protocol.
pub struct Engine {
    writer: Mutex<Writer>,
    published: Published,
    cfg: EngineConfig,
    /// The write-ahead log, when durability is on. Locked strictly
    /// after `writer` (appends happen inside `apply`'s critical
    /// section) and never together with the published snapshot.
    wal: Option<Mutex<Wal>>,
    /// What recovery did when this engine was constructed.
    recovery: RecoveryReport,
}

/// An engine is its reader half plus the writer that publishes into it:
/// snapshots, the cache and the counters are reached through this.
impl Deref for Engine {
    type Target = Published;

    fn deref(&self) -> &Published {
        &self.published
    }
}

impl Engine {
    /// An engine over an empty `dims`-dimensional competitor set.
    pub fn new(dims: usize, cfg: EngineConfig) -> Engine {
        Self::from_parts(PointStore::new(dims), cfg)
    }

    /// An engine seeded with an initial competitor set. Competitor ids
    /// `0..n` are assigned in store order.
    pub fn with_competitors(store: PointStore, cfg: EngineConfig) -> Engine {
        Self::from_parts(store, cfg)
    }

    /// An engine seeded with competitors that already carry ids —
    /// a shard holding its slice of a globally partitioned set, where
    /// `cid_of[i]` is store row `i`'s global id. Ids must be strictly
    /// increasing in row order (the merge path depends on it) and
    /// `next_cid` must clear the highest one.
    pub fn with_identified_competitors(
        store: PointStore,
        cid_of: Vec<CompetitorId>,
        next_cid: CompetitorId,
        cfg: EngineConfig,
    ) -> Result<Engine, SkyupError> {
        if cid_of.len() != store.len() {
            return Err(SkyupError::InvalidInput(format!(
                "cid_of has {} entries for {} store rows",
                cid_of.len(),
                store.len()
            )));
        }
        if cid_of.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SkyupError::InvalidInput(
                "competitor ids must be strictly increasing in row order".into(),
            ));
        }
        if let Some(&last) = cid_of.last() {
            if next_cid <= last {
                return Err(SkyupError::InvalidInput(format!(
                    "next_cid {next_cid} does not clear the highest seeded id {last}"
                )));
            }
        }
        Ok(Self::from_id_parts(store, cid_of, next_cid, 0, cfg))
    }

    /// Warm start: restores the competitor set from a snapshot file
    /// written by [`Engine::save_snapshot_bytes`] — rows, competitor
    /// ids, next id and epoch, as `--wal` recovery restores a
    /// checkpoint — or from a SKUPSNAP container as older builds wrote
    /// it (its tree is skipped), whose rows get ids `0..n` at epoch 0,
    /// as a cold start over them would. Corruption is reported as
    /// [`SkyupError::InvalidInput`], never a panic.
    pub fn from_snapshot_bytes(buf: &[u8], cfg: EngineConfig) -> Result<Engine, SkyupError> {
        let ck = wal::decode_snapshot(buf)
            .map_err(|e| SkyupError::InvalidInput(format!("snapshot file rejected: {e}")))?;
        Ok(Self::from_id_parts(
            ck.store,
            ck.cid_of,
            ck.next_cid,
            ck.epoch,
            cfg,
        ))
    }

    fn from_parts(store: PointStore, cfg: EngineConfig) -> Engine {
        let n = store.len();
        let cid_of: Vec<CompetitorId> = (0..n as u64).collect();
        Self::from_id_parts(store, cid_of, n as u64, 0, cfg)
    }

    /// The general constructor: explicit competitor-id state and epoch,
    /// as needed when rebuilding a writer from a durable checkpoint.
    /// `cid_of[i]` is the id of store row `i` (strictly increasing, all
    /// below `next_cid`); all rows are live.
    fn from_id_parts(
        store: PointStore,
        cid_of: Vec<CompetitorId>,
        next_cid: CompetitorId,
        epoch: u64,
        cfg: EngineConfig,
    ) -> Engine {
        let n = store.len();
        debug_assert_eq!(cid_of.len(), n);
        debug_assert!(cid_of.windows(2).all(|w| w[0] < w[1]));
        let all: Vec<PointId> = store.ids().collect();
        let mut skyline = skyline_sfs(&store, &all);
        skyline.sort_unstable();
        let writer = Writer {
            skyline,
            cols: ColumnarPoints::new(store.dims()),
            live: vec![true; n],
            cid_of,
            next_cid,
            epoch,
            live_count: n,
            dead: 0,
            rebuilds: 0,
            store,
        };
        let snapshot = Self::snapshot_of(&writer);
        Engine {
            writer: Mutex::new(writer),
            published: Published::new(snapshot, cfg.cache_capacity),
            cfg,
            wal: None,
            recovery: RecoveryReport::default(),
        }
    }

    /// An engine seeded with `store` whose mutations are made durable
    /// under `wal.dir` before they are acknowledged. Writes the initial
    /// checkpoint so the directory is recoverable from the first
    /// moment. Fails if the directory already holds durable state —
    /// use [`Engine::recover`] for that.
    pub fn with_durability(
        store: PointStore,
        cfg: EngineConfig,
        wal_cfg: WalConfig,
    ) -> Result<Engine, SkyupError> {
        Self::with_competitors(store, cfg).into_durable(wal_cfg)
    }

    /// Attaches durability to a freshly seeded engine (any of the
    /// seeding constructors; the engine must not have served mutations
    /// yet): writes the initial checkpoint under `wal.dir` so the
    /// directory is recoverable from the first moment. Fails if the
    /// directory already holds durable state — use [`Engine::recover`]
    /// for that.
    pub fn into_durable(self, wal_cfg: WalConfig) -> Result<Engine, SkyupError> {
        if wal::has_state(&wal_cfg.dir) {
            return Err(SkyupError::InvalidConfig(format!(
                "wal directory {} already holds durable state; recover from it \
                 or point --wal at an empty directory",
                wal_cfg.dir.display()
            )));
        }
        let mut engine = self;
        let mut w = Wal::open(wal_cfg, 1, 0, 0).map_err(|e| e.into_skyup("wal open failed"))?;
        let bytes = Self::checkpoint_bytes(&engine.writer.lock().unwrap(), 0);
        w.write_checkpoint(&bytes)
            .map_err(|reason| SkyupError::ReadOnly { reason })?;
        engine.bump(Counter::CheckpointsWritten);
        engine.wal = Some(Mutex::new(w));
        Ok(engine)
    }

    /// Rebuilds an engine from the durable state under `wal.dir`:
    /// checkpoint first, then every log record with a newer sequence
    /// number, truncating a torn tail left by a crash mid-append.
    /// Corruption anywhere *before* the tail aborts with an error —
    /// silently dropping acknowledged history would be worse.
    pub fn recover(cfg: EngineConfig, wal_cfg: WalConfig) -> Result<Engine, SkyupError> {
        let ckpt_bytes = std::fs::read(wal::checkpoint_path(&wal_cfg.dir)).map_err(|e| {
            SkyupError::InvalidInput(format!(
                "cannot read checkpoint in {}: {e}",
                wal_cfg.dir.display()
            ))
        })?;
        let ckpt =
            wal::decode_checkpoint(&ckpt_bytes).map_err(|e| e.into_skyup("checkpoint rejected"))?;

        let log_bytes = match std::fs::read(wal::wal_path(&wal_cfg.dir)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(SkyupError::InvalidInput(format!(
                    "cannot read wal in {}: {e}",
                    wal_cfg.dir.display()
                )))
            }
        };
        let (records, valid_len) =
            wal::decode_log(&log_bytes).map_err(|e| e.into_skyup("wal rejected"))?;
        let torn = u64::from(valid_len < log_bytes.len());

        let mut engine =
            Self::from_id_parts(ckpt.store, ckpt.cid_of, ckpt.next_cid, ckpt.epoch, cfg);
        let mut last_seq = ckpt.seq;
        let mut replayed = 0u64;
        let mut all_covered = true;
        for rec in records {
            if rec.seq <= ckpt.seq {
                // The checkpoint already covers this record: a crash
                // landed between the checkpoint rename and the log
                // truncation.
                continue;
            }
            all_covered = false;
            if rec.seq != last_seq + 1 {
                return Err(SkyupError::InvalidInput(format!(
                    "wal rejected: record seq {} does not continue checkpoint seq {}",
                    rec.seq, last_seq
                )));
            }
            let outcome = engine.apply(rec.mutation)?;
            if outcome.epoch != rec.epoch || (outcome.cid.is_none() && !outcome.removed) {
                return Err(SkyupError::InvalidInput(format!(
                    "wal rejected: record seq {} diverges from engine state \
                     (logged epoch {}, replayed epoch {})",
                    rec.seq, rec.epoch, outcome.epoch
                )));
            }
            last_seq = rec.seq;
            replayed += 1;
        }
        // Finish an interrupted post-checkpoint truncation: when every
        // surviving record is covered by the checkpoint, the log can
        // restart empty.
        let keep_len = if all_covered { 0 } else { valid_len as u64 };
        let since_checkpoint = replayed;
        let w = Wal::open(wal_cfg, last_seq + 1, since_checkpoint, keep_len)
            .map_err(|e| e.into_skyup("wal open failed"))?;
        engine.recovery = RecoveryReport {
            checkpoint_seq: ckpt.seq,
            replayed,
            torn_truncated: torn,
        };
        {
            let mut m = engine.published.metrics.lock().unwrap();
            m.incr(Counter::RecoveryReplayedRecords, replayed);
            m.incr(Counter::TornTailTruncated, torn);
        }
        engine.wal = Some(Mutex::new(w));
        Ok(engine)
    }

    /// Builds the checkpoint image for the writer's current state — the
    /// live rows and the id state, stamped with the WAL sequence number
    /// it covers — encoded straight from the working set.
    fn checkpoint_bytes(w: &Writer, seq: u64) -> Vec<u8> {
        wal::encode_checkpoint(seq, w.epoch, w.next_cid, w.store.dims(), w.live_rows())
    }

    /// Durability state for the `health` verb; `None` without `--wal`.
    pub fn durability(&self) -> Option<DurabilityStatus> {
        let wal = self.wal.as_ref()?;
        let w = wal.lock().unwrap();
        Some(DurabilityStatus {
            last_seq: w.last_seq(),
            read_only: w.read_only.clone(),
            recovery: self.recovery,
        })
    }

    /// Forces buffered WAL records to stable storage (clean-shutdown
    /// path, so `--fsync interval`/`never` lose nothing when the
    /// process exits on purpose). A failure degrades to read-only like
    /// any other durability failure.
    pub fn flush_wal(&self) -> Result<(), SkyupError> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let mut w = wal.lock().unwrap();
        if let Some(reason) = &w.read_only {
            return Err(SkyupError::ReadOnly {
                reason: reason.clone(),
            });
        }
        if let Err(reason) = w.sync() {
            let reason = format!("wal fsync failed: {reason}");
            w.read_only = Some(reason.clone());
            return Err(SkyupError::ReadOnly { reason });
        }
        self.bump(Counter::WalFsyncs);
        Ok(())
    }

    /// Serializes the *live* competitor set (tombstones dropped), its
    /// ids and the epoch as a checkpoint image at seq 0: a snapshot
    /// file belongs to no log. For a freshly seeded engine this is
    /// byte for byte the initial checkpoint [`Engine::into_durable`]
    /// writes.
    pub fn save_snapshot_bytes(&self) -> Vec<u8> {
        Self::checkpoint_bytes(&self.writer.lock().unwrap(), 0)
    }

    /// Current stats for the `stats` request.
    pub fn stats(&self) -> EngineStats {
        let w = self.writer.lock().unwrap();
        EngineStats {
            epoch: w.epoch,
            live: w.live_count,
            skyline_len: w.skyline.len(),
            dead: w.dead,
            rebuilds: w.rebuilds,
            cached: self.cached(),
        }
    }

    /// Applies one mutation and publishes the resulting epoch. Removing
    /// an unknown or already-removed cid is a no-op: no epoch is
    /// published, `removed` is `false`, and nothing reaches the WAL.
    ///
    /// With durability on, the record is appended (and synced, per
    /// policy) *before* any in-memory state changes — a crash after the
    /// ack can always be replayed, and a crash before the append never
    /// shows the mutation. A WAL failure flips the engine read-only and
    /// surfaces [`SkyupError::ReadOnly`]; the in-memory state is
    /// untouched, so queries keep serving the published snapshot.
    pub fn apply(&self, m: Mutation) -> Result<MutationOutcome, SkyupError> {
        let mut guard = self.writer.lock().unwrap();
        let w = &mut *guard;
        // Validate (and detect no-ops) before the mutation is logged or
        // applied anywhere.
        match &m {
            Mutation::AddCompetitor(coords) => {
                Self::validate_coords(coords, w.store.dims())?;
            }
            Mutation::AddCompetitorWithCid(cid, coords) => {
                Self::validate_coords(coords, w.store.dims())?;
                if *cid < w.next_cid {
                    return Err(SkyupError::InvalidInput(format!(
                        "assigned competitor id {cid} is already spent (next unassigned id \
                         is {})",
                        w.next_cid
                    )));
                }
            }
            Mutation::RemoveCompetitor(cid) => {
                if w.live_row(*cid).is_none() {
                    return Ok(MutationOutcome {
                        epoch: w.epoch,
                        cid: None,
                        removed: false,
                        rebuilt: false,
                        evicted: 0,
                    });
                }
            }
        }
        self.log_mutation(w.epoch + 1, &m)?;
        let (evict, cid, removed) = match m {
            Mutation::AddCompetitor(coords) => {
                let cid = w.next_cid;
                let evict = Self::insert_competitor(w, cid, coords);
                (evict, Some(cid), false)
            }
            Mutation::AddCompetitorWithCid(cid, coords) => {
                let evict = Self::insert_competitor(w, cid, coords);
                (evict, Some(cid), false)
            }
            Mutation::RemoveCompetitor(cid) => {
                let pid = w.live_row(cid).expect("validated live cid");
                w.live[pid.index()] = false;
                w.live_count -= 1;
                w.dead += 1;
                (Evict::Removed(Self::skyline_remove(w, pid)), None, true)
            }
        };
        let rebuilt = self.maybe_rebuild(w);
        w.epoch += 1;
        let evicted = self.published.publish(Self::snapshot_of(w), [evict]);
        self.maybe_checkpoint(w);
        Ok(MutationOutcome {
            epoch: w.epoch,
            cid,
            removed,
            rebuilt,
            evicted,
        })
    }

    fn validate_coords(coords: &[f64], dims: usize) -> Result<(), SkyupError> {
        if coords.len() != dims {
            return Err(SkyupError::InvalidInput(format!(
                "competitor has {} coordinates, expected {dims}",
                coords.len()
            )));
        }
        if coords.iter().any(|v| !v.is_finite()) {
            return Err(SkyupError::InvalidInput(
                "competitor coordinates must be finite".into(),
            ));
        }
        Ok(())
    }

    /// Inserts a validated competitor under `cid` (>= `next_cid`) and
    /// advances the id counter past it, preserving the strictly
    /// increasing cid-per-row order.
    fn insert_competitor(w: &mut Writer, cid: CompetitorId, coords: Vec<f64>) -> Evict {
        w.next_cid = cid + 1;
        let pid = w.store.push(&coords);
        w.live.push(true);
        w.cid_of.push(cid);
        w.live_count += 1;
        Self::skyline_insert(w, pid, &coords);
        Evict::Inserted(coords)
    }

    /// Appends the record for a validated, non-no-op mutation; a no-op
    /// without durability configured. Any I/O failure (including an
    /// injected one) degrades the engine to read-only.
    fn log_mutation(&self, epoch: u64, m: &Mutation) -> Result<(), SkyupError> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let mut wal = wal.lock().unwrap();
        if let Some(reason) = &wal.read_only {
            return Err(SkyupError::ReadOnly {
                reason: reason.clone(),
            });
        }
        match wal.append(epoch, m) {
            Ok((bytes, synced)) => {
                let mut metrics = self.published.metrics.lock().unwrap();
                metrics.bump(Counter::WalAppends);
                metrics.incr(Counter::WalBytes, bytes);
                if synced {
                    metrics.bump(Counter::WalFsyncs);
                }
                Ok(())
            }
            Err(reason) => {
                wal.read_only = Some(reason.clone());
                Err(SkyupError::ReadOnly { reason })
            }
        }
    }

    /// Writes a periodic checkpoint when one is due. Runs after the
    /// epoch is published: the triggering mutation is already durable
    /// in the log, so a checkpoint failure costs no acknowledged data —
    /// it only degrades the engine to read-only for *future* mutations.
    fn maybe_checkpoint(&self, w: &Writer) {
        let Some(wal) = &self.wal else { return };
        let mut wal = wal.lock().unwrap();
        if wal.read_only.is_some() || !wal.checkpoint_due() {
            return;
        }
        let bytes = Self::checkpoint_bytes(w, wal.last_seq());
        match wal.write_checkpoint(&bytes) {
            Ok(()) => self.bump(Counter::CheckpointsWritten),
            Err(reason) => wal.read_only = Some(reason),
        }
    }

    /// Incremental skyline maintenance for an insert. The new point
    /// joins iff no skyline point dominates it (checking the skyline
    /// suffices: any dominator of `coords` is itself on the skyline or
    /// dominated by a skyline point, which then dominates `coords` by
    /// transitivity); joining, it evicts the members it dominates.
    fn skyline_insert(w: &mut Writer, pid: PointId, coords: &[f64]) {
        w.cols.gather(&w.store, &w.skyline);
        if w.cols.dominated_by_any(coords).dominated {
            return;
        }
        let store = &w.store;
        w.skyline.retain(|&s| !dominates(coords, store.point(s)));
        let pos = w.skyline.binary_search(&pid).unwrap_err();
        w.skyline.insert(pos, pid);
    }

    /// Incremental skyline maintenance for a delete. Removing a
    /// non-skyline point changes nothing (whatever dominated it still
    /// does). Removing a skyline point exposes exactly the live points
    /// inside its dominance region that no surviving skyline point
    /// dominates; their own skyline is merged in. Returns the removed
    /// point's coordinates when it was a skyline member.
    fn skyline_remove(w: &mut Writer, pid: PointId) -> Option<Vec<f64>> {
        let Ok(pos) = w.skyline.binary_search(&pid) else {
            return None;
        };
        w.skyline.remove(pos);
        let lo = w.store.point(pid).to_vec();
        w.cols.gather(&w.store, &w.skyline);
        let (store, live, skyline, cols) = (&w.store, &w.live, &w.skyline, &w.cols);
        // The candidates are the live rows in the boundary-inclusive
        // region `[lo, +inf)`; `pid` is already tombstoned, so it is not
        // among them. That region can hold surviving skyline members
        // (e.g. a duplicate-coordinate twin of `pid`, which nothing
        // strictly dominates); they are already present, so only points
        // off the skyline are candidates for exposure.
        let exposed: Vec<PointId> = store
            .iter()
            .filter(|&(q, coords)| live[q.index()] && coords.iter().zip(&lo).all(|(c, l)| c >= l))
            .filter(|&(q, _)| skyline.binary_search(&q).is_err())
            .filter(|&(_, coords)| !cols.dominated_by_any(coords).dominated)
            .map(|(q, _)| q)
            .collect();
        let mut sub = skyline_sfs(store, &exposed);
        w.skyline.append(&mut sub);
        w.skyline.sort_unstable();
        debug_assert!(
            w.skyline.windows(2).all(|p| p[0] != p[1]),
            "skyline must stay duplicate-free"
        );
        Some(lo)
    }

    /// Compacts the store once tombstones pile up: the dead rows go, the
    /// live ones keep their relative order (and so their ascending ids),
    /// and the maintained skyline is renumbered to the new rows — it is
    /// the same set of points, so nothing is recomputed.
    fn maybe_rebuild(&self, w: &mut Writer) -> bool {
        if !(w.dead >= self.cfg.rebuild_min_dead && w.dead * 2 > w.live_count) {
            return false;
        }
        let Writer {
            store,
            skyline,
            live,
            cid_of,
            ..
        } = w;
        // Skyline members are live and id-sorted, so one walk in row
        // order gives each its rank among the live rows.
        let (mut kept, mut next) = (0u32, 0);
        store.retain(|pid| {
            if !live[pid.index()] {
                return false;
            }
            if skyline.get(next) == Some(&pid) {
                skyline[next] = PointId(kept);
                next += 1;
            }
            kept += 1;
            true
        });
        debug_assert_eq!(next, skyline.len(), "every skyline member is live");
        let mut row = 0;
        cid_of.retain(|_| {
            row += 1;
            live[row - 1]
        });
        live.clear();
        live.resize(store.len(), true);
        w.live_count = store.len();
        w.dead = 0;
        w.rebuilds += 1;
        true
    }

    /// Copies what readers use — the skyline rows, in `PointId` (and so
    /// cid) order, with their competitor ids — so a publish costs
    /// O(|skyline|).
    fn snapshot_of(w: &Writer) -> Snapshot {
        let rows = w
            .skyline
            .iter()
            .map(|&pid| (w.cid_of[pid.index()], w.store.point(pid)));
        Snapshot::from_rows(w.epoch, w.store.dims(), rows, w.live_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row `i`: even rows lie on the anti-diagonal (all skyline), odd
    /// rows sit just behind their even neighbour (all dominated), so
    /// the skyline and the rows interleave.
    fn row(i: usize) -> [f64; 2] {
        let x = i as f64 / 40.0;
        if i % 2 == 0 {
            [x, 1.0 - x]
        } else {
            [x + 0.01, 1.0 - x + 0.05]
        }
    }

    fn remove(engine: &Engine, cid: CompetitorId) -> MutationOutcome {
        engine.apply(Mutation::RemoveCompetitor(cid)).unwrap()
    }

    /// `(cid, coordinate bits)` of the published skyline.
    fn skyline(engine: &Engine) -> Vec<(CompetitorId, Vec<u64>)> {
        let snap = engine.snapshot();
        snap.rows()
            .map(|(cid, p)| (cid, p.iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn ids_resolve_across_tombstones_and_compaction() {
        let engine = Engine::with_competitors(
            PointStore::from_rows(2, (0..40).map(row)),
            EngineConfig::default(),
        );
        assert!(remove(&engine, 6).removed);
        // Tombstoned but not compacted: the id still sits on its row.
        let epoch = engine.stats().epoch;
        for cid in [6, 40, u64::MAX] {
            let out = remove(&engine, cid);
            assert!(!out.removed && out.epoch == epoch, "cid {cid}: {out:?}");
        }
        // Cids 9..=39 bring the tombstones to 32 against 8 live rows; the
        // last of them compacts. Cid 8 then leaves a tombstone behind the
        // compaction.
        let rebuilt: Vec<CompetitorId> = (9..40)
            .filter(|&cid| remove(&engine, cid).rebuilt)
            .collect();
        assert_eq!(rebuilt, vec![39]);
        assert!(remove(&engine, 8).removed);
        assert_eq!((engine.stats().live, engine.stats().dead), (7, 1));
        for cid in [6, 8, 38, 39] {
            assert!(!remove(&engine, cid).removed, "cid {cid} is gone");
        }
        // The renumbered skyline is the one a cold engine computes over
        // the surviving rows.
        let survivors: Vec<CompetitorId> = vec![0, 1, 2, 3, 4, 5, 7];
        let cold = Engine::with_identified_competitors(
            PointStore::from_rows(2, survivors.iter().map(|&cid| row(cid as usize))),
            survivors.clone(),
            40,
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(skyline(&engine), skyline(&cold));
        for cid in survivors {
            assert!(
                remove(&engine, cid).removed,
                "cid {cid} resolves to its row"
            );
        }
        assert_eq!(engine.stats().live, 0);
        assert!(skyline(&engine).is_empty());
    }
}
