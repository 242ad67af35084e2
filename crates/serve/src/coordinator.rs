//! The coordinator over a partitioned competitor set.
//!
//! The coordinator owns the global state a sharded topology needs — the
//! epoch counter, the competitor-id sequence, and the cid→shard
//! ownership map — and drives N shards that each hold one
//! [`crate::shard::Partition`] slab of `P` behind a full epoch engine.
//!
//! **Queries** never reach a shard. The coordinator replicates U, the
//! union of the shards' local skylines, ordered by cid, and maintains
//! skyline(U), which is the global skyline: a point no competitor
//! dominates is undominated in its own slab too, so it is in U; and a
//! dominated point is dominated by some global skyline member, which is
//! in U. An answer for `t` depends only on the global skyline members
//! that dominate `t`, so the coordinator publishes skyline(U) as an
//! epoch [`Snapshot`] — rows in cid order, which is a single engine's
//! row order, because cids are assigned in insertion order and every
//! store keeps relative row order across compaction — next to a
//! [`crate::ResultCache`] run under the single engine's two eviction
//! rules. Queries then take the single engine's reader path
//! ([`execute_query`]) over it, so an answer is byte-identical to one
//! engine holding all of `P` at the same epoch by construction. A query
//! neither contacts a shard nor waits for a publish in flight; only the
//! first query or mutation bootstraps the replica, with one
//! `local_skyline` call per shard.
//!
//! **Mutations** run a two-phase epoch publish: stage epoch `E` on
//! *every* shard (the owner's stage carries the op and the assigned
//! cid; the rest are pure bumps), collect all stage acks — the commit
//! point — then flip. The owner's flip ack carries its local-skyline
//! delta: the rows that entered and the cids that left. The coordinator
//! folds the delta into U and skyline(U), then publishes epoch `E` with
//! the mutation's cache invalidation. Failure handling, by phase:
//!
//! * **Stage fails** (shard down, timeout): the publish aborts before
//!   the commit point with an error naming the shard; nothing flipped,
//!   the epoch is unchanged, and the epoch left staged on other shards
//!   is overwritten by the next publish of the same epoch.
//! * **A non-owner's flip fails** (after all stages acked): the
//!   mutation is committed and published — a pure bump changes no local
//!   skyline. The shard's label lags, and it is re-flipped before the
//!   next stage round.
//! * **The owner's flip-ack is lost**: the mutation is committed and
//!   acked, but its delta is unknown, so the epoch is not published yet
//!   (the ack reports `evicted: 0`; the held-back invalidation runs when
//!   it is). The next query re-flips the owner and resyncs its whole
//!   local skyline before it answers; while that fails, queries return
//!   an empty `Completion::Partial(Interrupt::Overloaded)` — never a
//!   wrong exact answer.
//! * **A shard is unreachable**: reads are unaffected once the replica
//!   is bootstrapped (before that, queries return the same empty
//!   partial until every shard answered once); every mutation aborts at
//!   its stage round (or at the repair of a lagging shard) with an
//!   error, leaving the epoch unchanged.

use crate::engine::{EngineConfig, Evict, Mutation, MutationOutcome, Published};
use crate::net::{ClientPool, Dispatch};
use crate::proto::{
    parse_flip_ack, parse_local_skyline, parse_stage_ack, render_error, render_flip_request,
    render_health, render_mutation_outcome, render_query_response, render_skyup_error,
    render_stage_request, Request, Topology,
};
use crate::server::{execute_query, validate_request, QueryRequest, QueryResponse};
use crate::shard::{FlipAck, Partition, ShardState, SkylineRows, StagedOp};
use crate::snapshot::Snapshot;
use crate::CompetitorId;
use skyup_core::SkyupError;
use skyup_geom::dominance::dominates;
use skyup_geom::PointStore;
use skyup_obs::json::Json;
use skyup_obs::{Completion, Counter, Interrupt, QueryMetrics};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Flip attempts per shard before a committed publish gives up and
/// leaves the shard to be repaired.
const FLIP_ATTEMPTS: u32 = 3;

/// A coordinator's channel to one shard. Implemented over TCP
/// ([`TcpLink`]) for real topologies and in-process ([`LocalLink`]) for
/// the property suite and benches, where determinism and fault
/// injection matter more than sockets.
pub trait ShardLink: Send + Sync {
    /// Stages `epoch` with this shard's op slice; returns the shard's
    /// staged (or already-published) epoch.
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String>;
    /// Flips the staged `epoch`; idempotent on retries.
    fn flip(&self, epoch: u64) -> Result<FlipAck, String>;
    /// The shard's published label and its whole local skyline, for
    /// bootstrap and resync.
    fn local_skyline(&self) -> Result<(u64, SkylineRows), String>;
    /// Cheap reachability check for the health report.
    fn reachable(&self) -> bool;
    /// Human-readable target (address or in-process tag).
    fn describe(&self) -> String;
}

/// An in-process link to a [`ShardState`] — the deterministic backend
/// for the property suite and the shard-axis bench.
#[derive(Clone)]
pub struct LocalLink(pub Arc<ShardState>);

impl ShardLink for LocalLink {
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String> {
        self.0.stage(epoch, op.cloned()).map_err(|e| e.to_string())
    }

    fn flip(&self, epoch: u64) -> Result<FlipAck, String> {
        self.0.flip(epoch).map_err(|e| e.to_string())
    }

    fn local_skyline(&self) -> Result<(u64, SkylineRows), String> {
        Ok(self.0.local_skyline())
    }

    fn reachable(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!("local:{}", self.0.shard_id())
    }
}

/// A pooled NDJSON-over-TCP link to a shard process, speaking the
/// `stage`/`flip`/`local_skyline` protocol verbs.
pub struct TcpLink {
    pool: ClientPool,
}

impl TcpLink {
    /// A link to the shard server at `addr` (connections open lazily).
    pub fn new(addr: &str) -> TcpLink {
        TcpLink {
            pool: ClientPool::new(addr),
        }
    }
}

impl ShardLink for TcpLink {
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String> {
        let line = render_stage_request(epoch, op);
        self.pool.with(|c| {
            let resp = c.request(&line)?;
            parse_stage_ack(&resp)
        })
    }

    fn flip(&self, epoch: u64) -> Result<FlipAck, String> {
        let line = render_flip_request(epoch);
        self.pool.with(|c| {
            let resp = c.request(&line)?;
            parse_flip_ack(&resp)
        })
    }

    fn local_skyline(&self) -> Result<(u64, SkylineRows), String> {
        self.pool.with(|c| {
            let resp = c.request("{\"op\":\"local_skyline\"}")?;
            parse_local_skyline(&resp)
        })
    }

    fn reachable(&self) -> bool {
        self.pool
            .with(|c| c.request("{\"op\":\"health\"}"))
            .map(|resp| resp.contains("\"ok\": true") || resp.contains("\"ok\":true"))
            .unwrap_or(false)
    }

    fn describe(&self) -> String {
        self.pool.addr().to_string()
    }
}

/// Global topology state, guarded by one mutex that publishes and
/// repairs hold; healthy queries never take it.
struct CoordState {
    /// The committed global epoch.
    epoch: u64,
    /// The next competitor id to assign.
    next_cid: CompetitorId,
    /// Owning shard of every live competitor.
    owner_of: HashMap<CompetitorId, u32>,
    /// U: the union of the shards' local skylines, by cid. A row's
    /// shard is the partition's `shard_of` its coordinates.
    union: BTreeMap<CompetitorId, Vec<f64>>,
    /// skyline(U): the global skyline.
    skyline: BTreeSet<CompetitorId>,
    /// Shards whose label is behind `epoch` (they missed a flip).
    lagging: Vec<bool>,
    /// Shards whose rows in `union` are unknown until a resync: all of
    /// them before the bootstrap, then the owner of a lost flip-ack.
    unsynced: Vec<bool>,
    /// The committed cache invalidation not yet published. At most one:
    /// a mutation aborts unless its repair published the previous one.
    pending: Option<Evict>,
}

/// Folds `candidates` (cids of `union` rows) into the skyline `sky`: a
/// candidate joins unless a member dominates it, and evicts the members
/// it dominates, so `sky` ends as the skyline of its old members plus
/// the candidates, whatever their order.
fn admit(
    union: &BTreeMap<CompetitorId, Vec<f64>>,
    sky: &mut BTreeSet<CompetitorId>,
    candidates: impl IntoIterator<Item = CompetitorId>,
) {
    for c in candidates {
        let p = &union[&c];
        if sky.iter().any(|s| dominates(&union[s], p)) {
            continue;
        }
        sky.retain(|s| !dominates(p, &union[s]));
        sky.insert(c);
    }
}

/// Folds an owner's local-skyline delta into U and skyline(U). Rows
/// only a dropped global-skyline member dominated may be exposed, so
/// they are re-admitted along with the entered rows; every other row of
/// U stays dominated by a surviving member.
fn apply_delta(st: &mut CoordState, entered: SkylineRows, left: &[CompetitorId]) {
    let mut dropped = Vec::new();
    for cid in left {
        if let Some(coords) = st.union.remove(cid) {
            if st.skyline.remove(cid) {
                dropped.push(coords);
            }
        }
    }
    let mut candidates: Vec<CompetitorId> = Vec::new();
    if !dropped.is_empty() {
        candidates.extend(
            st.union
                .iter()
                .filter(|(cid, coords)| {
                    !st.skyline.contains(cid) && dropped.iter().any(|d| dominates(d, coords))
                })
                .map(|(&cid, _)| cid),
        );
    }
    for (cid, coords) in entered {
        st.union.insert(cid, coords);
        candidates.push(cid);
    }
    admit(&st.union, &mut st.skyline, candidates);
}

/// The front-end over `L`-linked shards: answers queries from its
/// replicated global skyline and drives the two-phase publish.
pub struct Coordinator<L> {
    links: Vec<L>,
    partition: Partition,
    dims: usize,
    state: Mutex<CoordState>,
    /// Set while a shard is unsynced: the published epoch trails the
    /// committed one, and a query repairs before it answers.
    degraded: AtomicBool,
    published: Published,
}

impl<L: ShardLink> Coordinator<L> {
    /// A coordinator over `links` (one per partition slab, in shard-id
    /// order) fronting a fresh topology seeded with `seed`: competitor
    /// ids `0..seed.len()` in row order, exactly the ids the shards
    /// were seeded with via [`Partition::shard_seed`], and epoch 0.
    /// Contacts no shard: the replica starts unsynced, and the first
    /// query or mutation bootstraps it with one `local_skyline` call
    /// per shard.
    pub fn new(links: Vec<L>, partition: Partition, seed: &PointStore) -> Result<Self, SkyupError> {
        if links.len() != partition.shards() as usize {
            return Err(SkyupError::InvalidConfig(format!(
                "{} shard links for a {}-shard partition",
                links.len(),
                partition.shards()
            )));
        }
        let owner_of = seed
            .ids()
            .map(|pid| {
                (
                    pid.index() as CompetitorId,
                    partition.shard_of(seed.point(pid)),
                )
            })
            .collect();
        let shards = links.len();
        let empty = Snapshot::from_rows(0, seed.dims(), std::iter::empty(), seed.len());
        Ok(Coordinator {
            links,
            partition,
            dims: seed.dims(),
            state: Mutex::new(CoordState {
                epoch: 0,
                next_cid: seed.len() as CompetitorId,
                owner_of,
                union: BTreeMap::new(),
                skyline: BTreeSet::new(),
                lagging: vec![false; shards],
                unsynced: vec![true; shards],
                pending: None,
            }),
            degraded: AtomicBool::new(true),
            published: Published::new(empty, EngineConfig::default().cache_capacity),
        })
    }

    /// The committed global epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().unwrap().epoch
    }

    /// Product dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.links.len()
    }

    /// The coordinator's counters accumulated so far.
    pub fn metrics(&self) -> QueryMetrics {
        self.published.metrics()
    }

    /// The published snapshot: the global skyline rows, in cid order, at
    /// the published epoch.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published.snapshot()
    }

    /// Answers `req` from the published global skyline, bit-identically
    /// to a single engine at the same epoch. See the module docs for the
    /// exactness argument and the one case that degrades.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryResponse, SkyupError> {
        if self.degraded.load(Ordering::SeqCst) {
            let mut st = self.state.lock().unwrap();
            // Reads need only the unsynced shards back, not every one.
            let _ = self.repair(&mut st);
            if self.degraded.load(Ordering::SeqCst) {
                validate_request(req, self.dims)?;
                self.published.bump(Counter::LimitInterrupts);
                return Ok(QueryResponse {
                    epoch: st.epoch,
                    completion: Completion::Partial(Interrupt::Overloaded),
                    evaluated: 0,
                    results: Vec::new(),
                });
            }
        }
        execute_query(&self.published, req)
    }

    fn shard_error(&self, verb: &str, epoch: u64, k: usize, err: &str) -> SkyupError {
        SkyupError::InvalidInput(format!(
            "{verb} epoch {epoch} on shard {k} ({}): {err}",
            self.links[k].describe()
        ))
    }

    /// Repairs every shard; once none is unsynced, publishes skyline(U)
    /// at the committed epoch with the held-back invalidation. Returns
    /// the first shard it could not repair — a lagging shard that stays
    /// unreachable fails a write but does not hold the publish back.
    fn repair(&self, st: &mut CoordState) -> Result<(), SkyupError> {
        let mut failed = None;
        for k in 0..self.links.len() {
            if let Err(e) = self.repair_shard(st, k) {
                failed.get_or_insert(e);
            }
        }
        if self.degraded.load(Ordering::SeqCst) && !st.unsynced.contains(&true) {
            st.skyline.clear();
            admit(&st.union, &mut st.skyline, st.union.keys().copied());
            self.publish(st);
            self.degraded.store(false, Ordering::SeqCst);
        }
        failed.map_or(Ok(()), Err)
    }

    /// Re-flips shard `k` to the committed epoch if it lags, then
    /// replaces its rows of U with its whole local skyline if it is
    /// unsynced.
    fn repair_shard(&self, st: &mut CoordState, k: usize) -> Result<(), SkyupError> {
        let link = &self.links[k];
        if st.lagging[k] {
            link.flip(st.epoch)
                .map_err(|e| self.shard_error("flip", st.epoch, k, &e))?;
            st.lagging[k] = false;
        }
        if !st.unsynced[k] {
            return Ok(());
        }
        let (label, rows) = link
            .local_skyline()
            .map_err(|e| self.shard_error("resync", st.epoch, k, &e))?;
        if label != st.epoch {
            let err = format!("the shard is at label {label}");
            return Err(self.shard_error("resync", st.epoch, k, &err));
        }
        self.published.bump(Counter::ShardResyncs);
        self.published
            .incr(Counter::SkylineRowsSynced, rows.len() as u64);
        st.union
            .retain(|_, coords| self.partition.shard_of(coords) != k as u32);
        st.union.extend(rows);
        st.unsynced[k] = false;
        Ok(())
    }

    /// Publishes skyline(U) at the committed epoch, running the
    /// held-back invalidation under the same lock as the swap. Returns
    /// the entries evicted.
    fn publish(&self, st: &mut CoordState) -> u64 {
        let rows = st
            .skyline
            .iter()
            .map(|cid| (*cid, st.union[cid].as_slice()));
        let snapshot = Snapshot::from_rows(st.epoch, self.dims, rows, st.owner_of.len());
        self.published.publish(snapshot, st.pending.take())
    }

    /// Flips `epoch` on shard `k`, retrying; `None` once every attempt
    /// failed.
    fn flip(&self, k: usize, epoch: u64) -> Option<FlipAck> {
        let link = &self.links[k];
        for attempt in 1..=FLIP_ATTEMPTS {
            match link.flip(epoch) {
                Ok(ack) => return Some(ack),
                Err(e) if attempt == FLIP_ATTEMPTS => eprintln!(
                    "flip epoch {epoch} on shard {k} ({}) failed after {FLIP_ATTEMPTS} \
                     attempts: {e}; deferring to repair",
                    link.describe()
                ),
                Err(_) => {}
            }
        }
        None
    }

    /// Routes a client mutation through the two-phase publish. Returns
    /// an outcome under the *global* epoch whose `evicted` counts this
    /// coordinator's cache; `rebuilt` is the owning shard's.
    pub fn mutate(&self, m: Mutation) -> Result<MutationOutcome, SkyupError> {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        let (owner, op) = match m {
            Mutation::AddCompetitor(point) => {
                if point.len() != self.dims {
                    return Err(SkyupError::InvalidInput(format!(
                        "competitor has {} coordinates, expected {}",
                        point.len(),
                        self.dims
                    )));
                }
                if point.iter().any(|v| !v.is_finite()) {
                    return Err(SkyupError::InvalidInput(
                        "competitor coordinates must be finite".into(),
                    ));
                }
                let cid = st.next_cid;
                (
                    self.partition.shard_of(&point),
                    StagedOp::Add { cid, point },
                )
            }
            Mutation::RemoveCompetitor(cid) => {
                let Some(&owner) = st.owner_of.get(&cid) else {
                    // A no-op remove publishes nothing, exactly like a
                    // single engine: the epoch does not advance.
                    return Ok(MutationOutcome {
                        epoch: st.epoch,
                        cid: None,
                        removed: false,
                        rebuilt: false,
                        evicted: 0,
                    });
                };
                (owner, StagedOp::Remove { cid })
            }
            Mutation::AddCompetitorWithCid(..) => {
                return Err(SkyupError::InvalidInput(
                    "the coordinator owns the competitor id sequence; use a plain add".into(),
                ))
            }
        };
        // A lagging shard cannot stage the next epoch, and an unsynced
        // one leaves skyline(U) — and so the eviction below — unknown.
        self.repair(st)?;
        let evict = match &op {
            StagedOp::Add { point, .. } => Evict::Inserted(point.clone()),
            StagedOp::Remove { cid } => {
                Evict::Removed(st.skyline.contains(cid).then(|| st.union[cid].clone()))
            }
        };

        let epoch = st.epoch + 1;
        for (k, link) in self.links.iter().enumerate() {
            let slice = (k as u32 == owner).then_some(&op);
            link.stage(epoch, slice)
                .map_err(|e| self.shard_error("stage", epoch, k, &e))?;
        }
        // Commit point: every shard staged `epoch`.
        st.epoch = epoch;
        let cid = match &op {
            StagedOp::Add { cid, .. } => {
                st.next_cid = cid + 1;
                st.owner_of.insert(*cid, owner);
                Some(*cid)
            }
            StagedOp::Remove { cid } => {
                st.owner_of.remove(cid);
                None
            }
        };
        self.published
            .incr(Counter::StageAcks, self.links.len() as u64);
        self.published.bump(Counter::EpochFlips);

        let mut owner_ack = None;
        for k in 0..self.links.len() {
            match self.flip(k, epoch) {
                Some(ack) if k as u32 == owner => owner_ack = Some(ack),
                Some(_) => {}
                None => st.lagging[k] = true,
            }
        }
        let rebuilt = match owner_ack {
            Some(FlipAck {
                outcome: Some(out),
                entered,
                left,
                ..
            }) => {
                self.published
                    .incr(Counter::SkylineRowsSynced, entered.len() as u64);
                apply_delta(st, entered, &left);
                out.rebuilt
            }
            // The owner applied the op (or will, on its re-flip) but its
            // delta never arrived.
            _ => {
                st.unsynced[owner as usize] = true;
                self.degraded.store(true, Ordering::SeqCst);
                false
            }
        };
        debug_assert!(st.pending.is_none(), "the repair published it");
        st.pending = Some(evict);
        let evicted = if self.degraded.load(Ordering::SeqCst) {
            0
        } else {
            self.publish(st)
        };
        Ok(MutationOutcome {
            epoch,
            cid,
            removed: cid.is_none(),
            rebuilt,
            evicted,
        })
    }

    /// The health line: committed epoch plus per-shard reachability.
    pub fn health_json(&self) -> String {
        let epoch = self.epoch();
        let shards = self
            .links
            .iter()
            .map(|l| (l.describe(), l.reachable()))
            .collect();
        render_health(epoch, 0, None, &Topology::Coordinator { shards })
    }

    /// The stats line: topology shape, replica sizes (|U| and the
    /// global skyline), the dominance kernel's compiled copy, and the
    /// coordinator's counters.
    pub fn stats_json(&self) -> String {
        let st = self.state.lock().unwrap();
        let m = self.published.metrics();
        let counters = Json::obj(
            [
                Counter::StageAcks,
                Counter::EpochFlips,
                Counter::SkylineRowsSynced,
                Counter::ShardResyncs,
                Counter::EpochSwaps,
                Counter::CacheHit,
                Counter::CacheMiss,
                Counter::CacheEvictions,
                Counter::ResultsEmitted,
                Counter::LimitInterrupts,
            ]
            .iter()
            .map(|&c| (c.name(), Json::Uint(m.get(c))))
            .collect(),
        );
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("epoch", Json::Uint(st.epoch)),
            ("shards", Json::Uint(self.links.len() as u64)),
            ("next_cid", Json::Uint(st.next_cid)),
            ("live", Json::Uint(st.owner_of.len() as u64)),
            ("union", Json::Uint(st.union.len() as u64)),
            ("skyline", Json::Uint(st.skyline.len() as u64)),
            ("cached", Json::Uint(self.published.cached() as u64)),
            ("kernel_isa", Json::Str(skyup_geom::kernel_isa().into())),
            ("counters", counters),
        ])
        .render()
    }

    /// The metrics line: every non-zero counter.
    pub fn metrics_json(&self) -> String {
        let m = self.published.metrics();
        let counters = Json::obj(
            Counter::ALL
                .iter()
                .filter(|&&c| m.get(c) > 0)
                .map(|&c| (c.name(), Json::Uint(m.get(c))))
                .collect(),
        );
        Json::obj(vec![("ok", Json::Bool(true)), ("counters", counters)]).render()
    }
}

/// The coordinator role behind the NDJSON front door: clients speak the
/// exact same `query`/`add`/`remove`/`stats`/`health`/`metrics` verbs a
/// single server answers, so pointing `skyup query --connect` at a
/// coordinator Just Works.
#[derive(Clone)]
pub struct CoordinatorDispatch(pub Arc<Coordinator<TcpLink>>);

impl Dispatch for CoordinatorDispatch {
    fn dispatch(&self, req: Request) -> String {
        match req {
            Request::Query(q) => match self.0.query(&q) {
                Ok(resp) => render_query_response(&resp),
                Err(err) => render_skyup_error(&err),
            },
            Request::Add(point) => match self.0.mutate(Mutation::AddCompetitor(point)) {
                Ok(out) => render_mutation_outcome(&out),
                Err(err) => render_skyup_error(&err),
            },
            Request::Remove(cid) => match self.0.mutate(Mutation::RemoveCompetitor(cid)) {
                Ok(out) => render_mutation_outcome(&out),
                Err(err) => render_skyup_error(&err),
            },
            Request::Stats => self.0.stats_json(),
            Request::Health => self.0.health_json(),
            Request::Metrics => self.0.metrics_json(),
            Request::Trace(_) => render_error("tracing is shard-local; ask a shard directly"),
            Request::Stage { .. } | Request::Flip { .. } | Request::LocalSkyline => {
                render_error("the coordinator issues shard verbs; it does not serve them")
            }
            Request::Shutdown => unreachable!("the line loop handles shutdown"),
        }
    }

    fn on_stop(&self) {
        // Shards are separate processes with their own lifecycles; a
        // coordinator shutdown deliberately leaves them serving.
    }
}
