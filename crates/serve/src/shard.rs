//! One shard of a partitioned competitor set.
//!
//! A shard is a full epoch engine (cache, WAL, telemetry — everything a
//! single-engine server has) that owns the competitors whose
//! coordinates fall in its [`Partition`] slab, under *global*
//! competitor ids assigned by the coordinator. On top of the engine it
//! keeps one extra piece of state: the **published epoch label** — the
//! global epoch this shard's store is consistent with, advanced by the
//! two-phase `stage`/`flip` protocol:
//!
//! 1. `stage(E, op)` buffers epoch `E` (with the shard's slice of the
//!    mutation: the owning shard gets the op, every other shard gets a
//!    pure epoch bump) without touching the engine.
//! 2. `flip(E)` applies the buffered op to the engine, publishes label
//!    `E`, and acks with the op's **local-skyline delta**: the rows that
//!    entered the shard's skyline and the ids that left it.
//!
//! The coordinator replicates every shard's local skyline from those
//! deltas and answers queries itself; `local_skyline` returns the whole
//! local skyline with its label, for bootstrap and resync. It pins
//! `(label, snapshot)` under the lock the flip holds while applying, so
//! the rows always belong to exactly that label. Both publish verbs are
//! idempotent against coordinator retries: re-staging the pending epoch
//! overwrites it, and flipping an already-published epoch is an ack
//! (without a delta — the coordinator resyncs instead).
//!
//! The label is *coordinator* state: it starts at 0 for a fresh
//! topology and is not persisted in the shard's WAL (recovery restores
//! the competitor set; the coordinator re-drives labels — see DESIGN.md
//! §18 for the restart story).

use crate::engine::{Mutation, MutationOutcome};
use crate::net::Dispatch;
use crate::proto::{
    render_error, render_flip_ack, render_health, render_local_skyline, render_skyup_error,
    render_stage_ack, Request, Topology,
};
use crate::server::ServeHandle;
use crate::snapshot::Snapshot;
use crate::CompetitorId;
use skyup_core::SkyupError;
use skyup_geom::PointStore;
use std::sync::{Arc, Mutex};

/// The stateless partitioning function: `shards` equal-width slabs over
/// dimension 0 of the unit cube (the degenerate first level of an STR
/// tiling — sort on one dimension, cut into equal runs). Any finite
/// coordinate routes somewhere: values outside `[0,1)` clamp to the
/// edge slabs, so the partition is total over everything the engine's
/// input validation admits.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    shards: u32,
}

impl Partition {
    /// A partition over `shards` slabs (at least one).
    pub fn new(shards: u32) -> Result<Partition, SkyupError> {
        if shards == 0 {
            return Err(SkyupError::InvalidConfig(
                "a partition needs at least one shard".into(),
            ));
        }
        Ok(Partition { shards })
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning a point at `coords`.
    pub fn shard_of(&self, coords: &[f64]) -> u32 {
        let first = coords.first().copied().unwrap_or(0.0);
        let slab = (first * self.shards as f64).floor();
        if slab.is_nan() {
            return 0;
        }
        (slab as i64).clamp(0, i64::from(self.shards) - 1) as u32
    }

    /// Splits a seed set into shard `shard_id`'s slice, preserving
    /// global ids: row `i` of the seed carries cid `i`, exactly the ids
    /// [`crate::engine::Engine::with_competitors`] would assign to the
    /// full set. Feed the result to
    /// [`crate::engine::Engine::with_identified_competitors`] with
    /// `next_cid = store.len()` of the *full* seed.
    pub fn shard_seed(&self, seed: &PointStore, shard_id: u32) -> (PointStore, Vec<CompetitorId>) {
        let mut store = PointStore::new(seed.dims());
        let mut cid_of = Vec::new();
        for pid in seed.ids() {
            let coords = seed.point(pid);
            if self.shard_of(coords) == shard_id {
                store.push(coords);
                cid_of.push(pid.index() as CompetitorId);
            }
        }
        (store, cid_of)
    }
}

/// The owning shard's slice of a staged mutation. Non-owners stage
/// `None`: a pure epoch bump.
#[derive(Clone, Debug, PartialEq)]
pub enum StagedOp {
    /// Add a competitor under its coordinator-assigned global id.
    Add {
        /// The global competitor id.
        cid: CompetitorId,
        /// Its coordinates.
        point: Vec<f64>,
    },
    /// Remove the competitor with this global id.
    Remove {
        /// The global competitor id.
        cid: CompetitorId,
    },
}

/// Local-skyline rows as the coordinator replicates them:
/// `(cid, coordinates)`, ascending by cid.
pub type SkylineRows = Vec<(CompetitorId, Vec<f64>)>;

/// A flip acknowledgement: the published label, plus the engine outcome
/// and local-skyline delta when this shard owned the staged op.
#[derive(Clone, Debug, PartialEq)]
pub struct FlipAck {
    /// The shard's published label after the flip.
    pub epoch: u64,
    /// The owning shard's mutation outcome (`None` for pure bumps and
    /// idempotent re-flips).
    pub outcome: Option<MutationOutcome>,
    /// Rows the applied op brought into the local skyline.
    pub entered: SkylineRows,
    /// Ids of the rows it took out of the local skyline.
    pub left: Vec<CompetitorId>,
}

/// The rows of `after`'s skyline that `before` lacks and the ids of
/// `before`'s rows that `after` lacks, by binary search in the other
/// snapshot's cid-sorted id list.
fn skyline_delta(before: &Snapshot, after: &Snapshot) -> (SkylineRows, Vec<CompetitorId>) {
    let has = |snap: &Snapshot, cid: CompetitorId| snap.cid_of.binary_search(&cid).is_ok();
    let entered = after
        .rows()
        .filter(|&(cid, _)| !has(before, cid))
        .map(|(cid, coords)| (cid, coords.to_vec()))
        .collect();
    let left = before
        .rows()
        .map(|(cid, _)| cid)
        .filter(|&cid| !has(after, cid))
        .collect();
    (entered, left)
}

struct ShardEpoch {
    /// The published global epoch label.
    label: u64,
    /// A staged-but-not-flipped epoch and its op slice.
    staged: Option<(u64, Option<StagedOp>)>,
}

/// A shard: an engine's [`ServeHandle`] plus the two-phase epoch state.
pub struct ShardState {
    handle: ServeHandle,
    shard_id: u32,
    shards: u32,
    epoch: Mutex<ShardEpoch>,
}

impl ShardState {
    /// Wraps a seeded engine handle as shard `shard_id` of `shards`.
    /// The label starts at 0 — a fresh topology; the coordinator drives
    /// it forward from there.
    pub fn new(handle: ServeHandle, shard_id: u32, shards: u32) -> ShardState {
        ShardState {
            handle,
            shard_id,
            shards,
            epoch: Mutex::new(ShardEpoch {
                label: 0,
                staged: None,
            }),
        }
    }

    /// The underlying engine handle (local queries, stats, telemetry).
    pub fn handle(&self) -> &ServeHandle {
        &self.handle
    }

    /// This shard's id.
    pub fn shard_id(&self) -> u32 {
        self.shard_id
    }

    /// The topology's shard count.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The published epoch label.
    pub fn label(&self) -> u64 {
        self.epoch.lock().unwrap().label
    }

    /// This shard's health topology fields.
    pub fn topology(&self) -> Topology {
        Topology::Shard {
            shard_id: self.shard_id,
            shards: self.shards,
        }
    }

    /// Phase one: buffers epoch `epoch` with this shard's op slice.
    /// Nothing touches the engine. Idempotent against coordinator
    /// retries: re-staging the pending epoch overwrites its op (the
    /// coordinator is the only writer, and an aborted publish may retry
    /// the same epoch with a different mutation); staging an
    /// already-published epoch is an ack. Staging anything but
    /// `label + 1` is an error — the coordinator serializes publishes,
    /// so a gap means a protocol bug or a stale coordinator.
    pub fn stage(&self, epoch: u64, op: Option<StagedOp>) -> Result<u64, SkyupError> {
        let mut e = self.epoch.lock().unwrap();
        if epoch <= e.label {
            return Ok(e.label);
        }
        if epoch != e.label + 1 {
            return Err(SkyupError::InvalidInput(format!(
                "cannot stage epoch {epoch} over published label {}",
                e.label
            )));
        }
        e.staged = Some((epoch, op));
        Ok(epoch)
    }

    /// Phase two: applies the staged op to the engine and publishes
    /// label `epoch`, atomically with respect to
    /// [`ShardState::local_skyline`]; the ack carries the op's
    /// local-skyline delta. Flipping an already-published epoch is an
    /// idempotent ack without a delta (the retry path for a lost
    /// flip-ack); flipping an unstaged epoch is an error. An engine
    /// failure (e.g. a read-only WAL) leaves the epoch staged so a later
    /// retry can still complete the publish.
    pub fn flip(&self, epoch: u64) -> Result<FlipAck, SkyupError> {
        let mut e = self.epoch.lock().unwrap();
        if epoch <= e.label {
            return Ok(FlipAck {
                epoch: e.label,
                outcome: None,
                entered: Vec::new(),
                left: Vec::new(),
            });
        }
        match &e.staged {
            Some((staged, op)) if *staged == epoch => {
                let before = self.handle.engine().snapshot();
                let outcome = match op.clone() {
                    None => None,
                    Some(StagedOp::Add { cid, point }) => Some(
                        self.handle
                            .apply_mutation(Mutation::AddCompetitorWithCid(cid, point))?,
                    ),
                    Some(StagedOp::Remove { cid }) => Some(
                        self.handle
                            .apply_mutation(Mutation::RemoveCompetitor(cid))?,
                    ),
                };
                e.staged = None;
                e.label = epoch;
                // A pure bump leaves the engine, and so the skyline, as is.
                let (entered, left) = match outcome {
                    Some(_) => skyline_delta(&before, &self.handle.engine().snapshot()),
                    None => (Vec::new(), Vec::new()),
                };
                Ok(FlipAck {
                    epoch,
                    outcome,
                    entered,
                    left,
                })
            }
            _ => Err(SkyupError::InvalidInput(format!(
                "epoch {epoch} is not staged on shard {} (label {})",
                self.shard_id, e.label
            ))),
        }
    }

    /// The published label and the whole local skyline at that label:
    /// what a coordinator bootstraps and resyncs its replica from.
    pub fn local_skyline(&self) -> (u64, SkylineRows) {
        let (label, snap) = {
            let e = self.epoch.lock().unwrap();
            (e.label, self.handle.engine().snapshot())
        };
        let rows = snap.rows().map(|(cid, p)| (cid, p.to_vec())).collect();
        (label, rows)
    }
}

/// The shard role behind the NDJSON front door. Shard verbs
/// (`stage`/`flip`/`local_skyline`) hit the two-phase state; direct
/// mutations are rejected (they must route through the coordinator, the
/// sole owner of the global id and epoch sequences); queries and the
/// observability verbs serve shard-locally off the underlying engine.
#[derive(Clone)]
pub struct ShardDispatch(pub Arc<ShardState>);

impl Dispatch for ShardDispatch {
    fn dispatch(&self, req: Request) -> String {
        let state = &*self.0;
        match req {
            Request::Stage { epoch, op } => match state.stage(epoch, op) {
                Ok(staged) => render_stage_ack(staged),
                Err(err) => render_skyup_error(&err),
            },
            Request::Flip { epoch } => match state.flip(epoch) {
                Ok(ack) => render_flip_ack(&ack),
                Err(err) => render_skyup_error(&err),
            },
            Request::LocalSkyline => {
                let (label, rows) = state.local_skyline();
                render_local_skyline(label, &rows)
            }
            Request::Add(_) | Request::Remove(_) => render_error(&format!(
                "shard {} does not accept direct mutations; route them through the coordinator",
                state.shard_id
            )),
            Request::Health => {
                let durability = state.handle.durability();
                render_health(
                    state.label(),
                    state.handle.queue_depth(),
                    durability.as_ref(),
                    &state.topology(),
                )
            }
            // Queries answer shard-locally (this shard's slice only,
            // under its *engine* epoch) — a debugging view, not the
            // global answer. Stats/metrics/traces read the engine's
            // telemetry exactly like a single server.
            other => state.handle.dispatch(other),
        }
    }

    fn on_stop(&self) {
        self.0.handle.shutdown();
    }
}
