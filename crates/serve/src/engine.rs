//! The epoch-based engine: one writer, many readers, no torn state.
//!
//! All mutable state lives behind two locks with a strict order
//! (`writer` before `shared`, never the reverse):
//!
//! * `writer` — the working copy of the competitor set: the append-only
//!   point store (tombstoned rows included), the R-tree and id-sorted
//!   skyline over the live rows, and the stable competitor-id maps.
//!   Mutations are applied here one at a time.
//! * `shared` — what queries see: the current [`Snapshot`] (an `Arc`
//!   cloned per request; only the skyline rows and their ids, copied in
//!   O(|skyline|)) plus the [`ResultCache`]. The writer publishes a new
//!   epoch by swapping the snapshot and running the selective cache
//!   invalidation for the mutation *under the same lock*, so a reader
//!   can never pair a new snapshot with not-yet-invalidated cache
//!   entries or vice versa.
//!
//! Competitor ids are stable `u64`s decoupled from [`PointId`]s: an
//! index rebuild compacts the store and renumbers points, but client
//! handles speak cids and cached answers hold no ids at all, so nothing
//! they hold goes stale — which is why a rebuild publishes a new epoch
//! without flushing the cache.

use crate::cache::{CacheKey, CostTag, ResultCache};
use crate::snapshot::{Answer, Snapshot};
use crate::wal::{self, RecoveryReport, Wal, WalConfig};
use crate::CompetitorId;
use skyup_core::cost::CostFunction;
use skyup_core::upgrade::dominated_by_any;
use skyup_core::{SkyupError, UpgradeConfig};
use skyup_geom::dominance::dominates;
use skyup_geom::{PointId, PointStore, Rect};
use skyup_obs::{Counter, QueryMetrics, Recorder};
use skyup_rtree::persist::{snapshot_from_bytes, snapshot_to_bytes};
use skyup_rtree::{RTree, RTreeParams};
use skyup_skyline::skyline_sfs;
use std::collections::HashMap;
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
    /// Whether the degradation heuristic triggered an STR rebuild.
    pub rebuilt: bool,
    /// Cache entries evicted by selective invalidation.
    pub evicted: u64,
}

/// Tuning knobs for the engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Rebuild when at least this many tombstones have accumulated and
    /// they outnumber half the live set.
    pub rebuild_min_dead: usize,
    /// Rebuild when the tree's average leaf fill drops below this
    /// fraction (insertion splits degrade the STR packing over time).
    pub min_leaf_fill: f64,
    /// Maximum cached answers.
    pub cache_capacity: usize,
    /// R-tree fanout used for builds and rebuilds.
    pub tree_params: RTreeParams,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            rebuild_min_dead: 32,
            min_leaf_fill: 0.35,
            cache_capacity: 1 << 16,
            tree_params: RTreeParams::default(),
        }
    }
}

struct Writer {
    store: PointStore,
    tree: RTree,
    skyline: Vec<PointId>,
    live: Vec<bool>,
    cid_of: Vec<CompetitorId>,
    pid_of: HashMap<CompetitorId, PointId>,
    next_cid: CompetitorId,
    epoch: u64,
    live_count: usize,
    dead: usize,
    rebuilds: u64,
}

struct Shared {
    snapshot: Arc<Snapshot>,
    cache: ResultCache,
}

enum Evict {
    /// An added competitor's coordinates.
    Inserted(Vec<f64>),
    /// A removed competitor's coordinates, present only when it was a
    /// skyline member (no cached answer depends on a non-member).
    Removed(Option<Vec<f64>>),
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
    /// STR rebuilds performed so far.
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
    shared: Mutex<Shared>,
    metrics: Mutex<QueryMetrics>,
    cfg: EngineConfig,
    /// The write-ahead log, when durability is on. Locked strictly
    /// after `writer` (appends happen inside `apply`'s critical
    /// section) and never together with `shared`.
    wal: Option<Mutex<Wal>>,
    /// What recovery did when this engine was constructed.
    recovery: RecoveryReport,
}

impl Engine {
    /// An engine over an empty `dims`-dimensional competitor set.
    pub fn new(dims: usize, cfg: EngineConfig) -> Engine {
        Self::from_parts(PointStore::new(dims), None, cfg)
    }

    /// An engine seeded with an initial competitor set. Competitor ids
    /// `0..n` are assigned in store order.
    pub fn with_competitors(store: PointStore, cfg: EngineConfig) -> Engine {
        Self::from_parts(store, None, cfg)
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
        Ok(Self::from_id_parts(store, None, cid_of, next_cid, 0, cfg))
    }

    /// Warm start: restores the competitor set from a combined snapshot
    /// file written by [`Engine::save_snapshot_bytes`]. Corruption is
    /// reported as [`SkyupError::InvalidInput`], never a panic.
    pub fn from_snapshot_bytes(buf: &[u8], cfg: EngineConfig) -> Result<Engine, SkyupError> {
        let (store, tree) = snapshot_from_bytes(buf)
            .map_err(|e| SkyupError::InvalidInput(format!("snapshot file rejected: {e}")))?;
        Ok(Self::from_parts(store, Some(tree), cfg))
    }

    fn from_parts(store: PointStore, tree: Option<RTree>, cfg: EngineConfig) -> Engine {
        let n = store.len();
        let cid_of: Vec<CompetitorId> = (0..n as u64).collect();
        Self::from_id_parts(store, tree, cid_of, n as u64, 0, cfg)
    }

    /// The general constructor: explicit competitor-id state and epoch,
    /// as needed when rebuilding a writer from a durable checkpoint.
    /// `cid_of[i]` is the id of store row `i`; all rows are live.
    fn from_id_parts(
        store: PointStore,
        tree: Option<RTree>,
        cid_of: Vec<CompetitorId>,
        next_cid: CompetitorId,
        epoch: u64,
        cfg: EngineConfig,
    ) -> Engine {
        let n = store.len();
        debug_assert_eq!(cid_of.len(), n);
        let tree = tree.unwrap_or_else(|| RTree::bulk_load(&store, cfg.tree_params));
        let all: Vec<PointId> = store.ids().collect();
        let mut skyline = skyline_sfs(&store, &all);
        skyline.sort_unstable();
        let pid_of = store
            .ids()
            .map(|pid| (cid_of[pid.index()], pid))
            .collect::<HashMap<_, _>>();
        let writer = Writer {
            tree,
            skyline,
            live: vec![true; n],
            cid_of,
            pid_of,
            next_cid,
            epoch,
            live_count: n,
            dead: 0,
            rebuilds: 0,
            store,
        };
        let snapshot = Arc::new(Self::snapshot_of(&writer));
        Engine {
            writer: Mutex::new(writer),
            shared: Mutex::new(Shared {
                snapshot,
                cache: ResultCache::new(cfg.cache_capacity),
            }),
            metrics: Mutex::new(QueryMetrics::new()),
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
        let bytes = {
            let writer = engine.writer.lock().unwrap();
            Self::checkpoint_bytes(&writer, 0, engine.cfg.tree_params)
        };
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

        let mut engine = Self::from_id_parts(
            ckpt.store,
            Some(ckpt.tree),
            ckpt.cid_of,
            ckpt.next_cid,
            ckpt.epoch,
            cfg,
        );
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
            let mut m = engine.metrics.lock().unwrap();
            m.incr(Counter::RecoveryReplayedRecords, replayed);
            m.incr(Counter::TornTailTruncated, torn);
        }
        engine.wal = Some(Mutex::new(w));
        Ok(engine)
    }

    /// Builds the checkpoint image for the writer's current state: the
    /// compacted live set plus the id state a plain snapshot cannot
    /// carry, stamped with the WAL sequence number it covers.
    fn checkpoint_bytes(w: &Writer, seq: u64, params: RTreeParams) -> Vec<u8> {
        let (store, cid_of, _) = Self::compact(w);
        let tree = RTree::bulk_load(&store, params);
        wal::encode_checkpoint(seq, w.epoch, w.next_cid, &cid_of, &store, &tree)
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

    /// Serializes the *live* competitor set (compacted: tombstones
    /// dropped, tree rebuilt) into the combined snapshot format.
    pub fn save_snapshot_bytes(&self) -> Vec<u8> {
        let w = self.writer.lock().unwrap();
        let (store, _, _) = Self::compact(&w);
        let tree = RTree::bulk_load(&store, self.cfg.tree_params);
        snapshot_to_bytes(&store, &tree)
    }

    /// Dimensionality of the competitor space.
    pub fn dims(&self) -> usize {
        self.shared.lock().unwrap().snapshot.dims()
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.shared.lock().unwrap().snapshot)
    }

    /// Engine-wide serving counters accumulated so far.
    pub fn metrics(&self) -> QueryMetrics {
        self.metrics.lock().unwrap().clone()
    }

    /// Folds a per-request metrics object into the engine-wide tally.
    pub fn absorb_metrics(&self, m: &QueryMetrics) {
        self.metrics.lock().unwrap().absorb(m);
    }

    /// Bumps one engine-wide counter (front-end shed accounting).
    pub fn bump(&self, c: Counter) {
        self.metrics.lock().unwrap().bump(c);
    }

    /// Current stats for the `stats` request.
    pub fn stats(&self) -> EngineStats {
        let w = self.writer.lock().unwrap();
        let sh = self.shared.lock().unwrap();
        EngineStats {
            epoch: w.epoch,
            live: w.live_count,
            skyline_len: w.skyline.len(),
            dead: w.dead,
            rebuilds: w.rebuilds,
            cached: sh.cache.len(),
        }
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

    /// Runs `f` with the result cache and the currently published epoch
    /// under one shared-lock acquisition. The batch pipeline assembles a
    /// whole admission window's cache lookups in a single critical
    /// section, so every lookup sees the same epoch.
    pub(crate) fn with_cache<T>(&self, f: impl FnOnce(&ResultCache, u64) -> T) -> T {
        let sh = self.shared.lock().unwrap();
        let epoch = sh.snapshot.epoch;
        f(&sh.cache, epoch)
    }

    /// Inserts a batch of computed answers under one shared-lock
    /// acquisition. Each entry is epoch-gated exactly like
    /// [`Engine::answer_product`]'s fill: it only lands while
    /// `computed_at` is still the published epoch.
    pub(crate) fn fill_cache<I>(&self, entries: I, computed_at: u64)
    where
        I: IntoIterator<Item = (CacheKey, Answer)>,
    {
        let mut sh = self.shared.lock().unwrap();
        let current = sh.snapshot.epoch;
        for (key, answer) in entries {
            sh.cache
                .insert_if_current(key, answer, computed_at, current);
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
                if !w.pid_of.contains_key(cid) {
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
                let pid = w.pid_of.remove(&cid).expect("validated live cid");
                w.tree.remove(&w.store, pid);
                w.live[pid.index()] = false;
                w.live_count -= 1;
                w.dead += 1;
                (Evict::Removed(Self::skyline_remove(w, pid)), None, true)
            }
        };
        let rebuilt = self.maybe_rebuild(w);
        w.epoch += 1;
        let evicted = self.publish(w, evict);
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
        w.tree.insert(&w.store, pid);
        w.live.push(true);
        w.cid_of.push(cid);
        w.pid_of.insert(cid, pid);
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
                let mut metrics = self.metrics.lock().unwrap();
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
        let bytes = Self::checkpoint_bytes(w, wal.last_seq(), self.cfg.tree_params);
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
        if dominated_by_any(&w.store, &w.skyline, coords) {
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
        let hi = vec![f64::MAX; w.store.dims()];
        let region = Rect::new(&lo, &hi);
        // `pid` is already out of the tree, so the query returns only
        // other live points.
        let candidates = w.tree.range_query(&w.store, &region);
        let store = &w.store;
        let skyline = &w.skyline;
        // The boundary-inclusive range query can return surviving
        // skyline members (e.g. a duplicate-coordinate twin of `pid`,
        // which nothing strictly dominates); they are already present,
        // so only points off the skyline are candidates for exposure.
        let exposed: Vec<PointId> = candidates
            .into_iter()
            .filter(|&q| skyline.binary_search(&q).is_err())
            .filter(|&q| !dominated_by_any(store, skyline, store.point(q)))
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

    /// The degradation heuristic: compact when tombstones pile up or
    /// the tree's leaf packing has decayed well below STR quality.
    fn maybe_rebuild(&self, w: &mut Writer) -> bool {
        let tombstones_heavy = w.dead >= self.cfg.rebuild_min_dead && w.dead * 2 > w.live_count;
        let packing_decayed =
            w.live_count > 256 && w.tree.stats().avg_leaf_fill < self.cfg.min_leaf_fill;
        if !(tombstones_heavy || packing_decayed) {
            return false;
        }
        let (store, cid_of, pid_of) = Self::compact(w);
        let all: Vec<PointId> = store.ids().collect();
        let mut skyline = skyline_sfs(&store, &all);
        skyline.sort_unstable();
        w.tree = RTree::bulk_load(&store, self.cfg.tree_params);
        w.live = vec![true; store.len()];
        w.live_count = store.len();
        w.dead = 0;
        w.rebuilds += 1;
        w.skyline = skyline;
        w.cid_of = cid_of;
        w.pid_of = pid_of;
        w.store = store;
        true
    }

    /// Copies the live rows into a fresh store, preserving relative
    /// order; competitor ids follow their rows, so nothing a client
    /// holds is invalidated.
    fn compact(
        w: &Writer,
    ) -> (
        PointStore,
        Vec<CompetitorId>,
        HashMap<CompetitorId, PointId>,
    ) {
        let mut store = PointStore::with_capacity(w.store.dims(), w.live_count);
        let mut cid_of = Vec::with_capacity(w.live_count);
        let mut pid_of = HashMap::with_capacity(w.live_count);
        for (pid, coords) in w.store.iter() {
            if w.live[pid.index()] {
                let cid = w.cid_of[pid.index()];
                let new_pid = store.push(coords);
                cid_of.push(cid);
                pid_of.insert(cid, new_pid);
            }
        }
        (store, cid_of, pid_of)
    }

    /// Copies what readers use — the skyline rows, in `PointId` order,
    /// with their competitor ids — so a publish costs O(|skyline|).
    fn snapshot_of(w: &Writer) -> Snapshot {
        let mut store = PointStore::with_capacity(w.store.dims(), w.skyline.len());
        let mut cid_of = Vec::with_capacity(w.skyline.len());
        for &pid in &w.skyline {
            store.push(w.store.point(pid));
            cid_of.push(w.cid_of[pid.index()]);
        }
        Snapshot {
            epoch: w.epoch,
            skyline: store.ids().collect(),
            store,
            cid_of,
            live_count: w.live_count,
        }
    }

    /// Publishes the writer's state as a new epoch: build the snapshot,
    /// then — under the shared lock — run the mutation's selective
    /// invalidation and swap the snapshot in one indivisible step.
    fn publish(&self, w: &Writer, evict: Evict) -> u64 {
        let snapshot = Arc::new(Self::snapshot_of(w));
        let evicted = {
            let mut sh = self.shared.lock().unwrap();
            let evicted = match evict {
                Evict::Inserted(coords) => sh.cache.evict_dominated_by(&coords),
                Evict::Removed(Some(coords)) => sh.cache.evict_strictly_dominated_by(&coords),
                Evict::Removed(None) => 0,
            };
            sh.snapshot = snapshot;
            evicted
        };
        let mut m = self.metrics.lock().unwrap();
        m.bump(Counter::EpochSwaps);
        m.incr(Counter::CacheEvictions, evicted);
        evicted
    }
}
