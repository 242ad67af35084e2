//! Immutable epoch snapshots: the unit of publication between the
//! single writer and the query workers.
//!
//! A snapshot freezes exactly what a query reads: the skyline of the
//! live competitor set, copied in the writer's [`PointId`] order into a
//! compact store of its own, plus each row's competitor id. Workers
//! answer requests with zero coordination beyond one `Arc` clone.
//!
//! Nothing more is needed because per-product answering is tree-free:
//! the skyline of a product's dominators is a linear filter of the
//! live-set skyline ([`skyup_core::dominators_from_skyline`]). The
//! writer's full store, R-tree and tombstones never leave it, so a
//! publish costs O(|skyline|), not O(|P|).

use crate::CompetitorId;
use skyup_core::cost::CostFunction;
use skyup_core::{dominators_from_skyline, upgrade_single, UpgradeConfig};
use skyup_geom::{PointId, PointStore};
use skyup_obs::Recorder;

/// One fully evaluated per-product answer. It depends only on the
/// product's dominator skyline, so it stays valid across epochs until a
/// mutation changes that skyline (see [`crate::cache`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Minimal upgrade cost (0.0 when already competitive).
    pub cost: f64,
    /// The upgraded coordinates achieving that cost.
    pub upgraded: Vec<f64>,
}

/// An immutable view of the competitor set at one epoch.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) epoch: u64,
    /// The live-set skyline rows, in the writer's `PointId` order.
    pub(crate) store: PointStore,
    /// Every row of `store`, in id order.
    pub(crate) skyline: Vec<PointId>,
    pub(crate) cid_of: Vec<CompetitorId>,
    pub(crate) live_count: usize,
}

impl Snapshot {
    /// A snapshot of the skyline `rows` — `(cid, coordinates)` in
    /// ascending cid order, the writer's row order — at `epoch`.
    pub(crate) fn from_rows<'a>(
        epoch: u64,
        dims: usize,
        rows: impl ExactSizeIterator<Item = (CompetitorId, &'a [f64])>,
        live_count: usize,
    ) -> Snapshot {
        let mut store = PointStore::with_capacity(dims, rows.len());
        let mut cid_of = Vec::with_capacity(rows.len());
        for (cid, coords) in rows {
            store.push(coords);
            cid_of.push(cid);
        }
        debug_assert!(cid_of.windows(2).all(|w| w[0] < w[1]), "rows in cid order");
        Snapshot {
            epoch,
            skyline: store.ids().collect(),
            store,
            cid_of,
            live_count,
        }
    }

    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The skyline rows of the live competitor set, in the same relative
    /// order as the writer's store (so filters over it visit points in
    /// one canonical order). Non-skyline and tombstoned competitors are
    /// not copied.
    pub fn store(&self) -> &PointStore {
        &self.store
    }

    /// The id-sorted skyline of the live competitor set: every row of
    /// [`Snapshot::store`].
    pub fn skyline(&self) -> &[PointId] {
        &self.skyline
    }

    /// Number of live competitors.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Dimensionality of the competitor space.
    pub fn dims(&self) -> usize {
        self.store.dims()
    }

    /// The stable competitor id of a store row.
    pub fn cid(&self, pid: PointId) -> CompetitorId {
        self.cid_of[pid.index()]
    }

    /// The skyline rows as `(cid, coordinates)`, ascending by cid.
    pub fn rows(&self) -> impl Iterator<Item = (CompetitorId, &[f64])> {
        self.cid_of
            .iter()
            .copied()
            .zip(self.store.iter().map(|(_, coords)| coords))
    }

    /// Computes product `t`'s answer against this snapshot: filter the
    /// live-set skyline down to `t`'s dominators and run Algorithm 1.
    pub fn answer<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
        &self,
        t: &[f64],
        cost_fn: &C,
        cfg: &UpgradeConfig,
        rec: &mut R,
    ) -> Answer {
        let dominators = dominators_from_skyline(&self.store, &self.skyline, t, rec);
        let (cost, upgraded) = upgrade_single(&self.store, &dominators, t, cost_fn, cfg);
        Answer { cost, upgraded }
    }
}
