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
//! writer's full store and tombstones never leave it, so a publish
//! costs O(|skyline|), not O(|P|) — and since nothing downstream needs
//! more than the skyline, the writer keeps no index either.
//!
//! Every answer goes through the snapshot's [`SkylineView`]: the
//! skyline's columnar copy, Algorithm 1's hoisted sorts and the
//! dominator memo, shared by every query of the epoch. The first query
//! that needs it builds it, so a publish stays a row copy and an epoch
//! no query reads never pays for one.

use crate::CompetitorId;
use skyup_core::cost::CostFunction;
use skyup_core::{SkylineView, UpgradeConfig};
use skyup_geom::{PointId, PointStore};
use skyup_obs::Recorder;
use std::sync::OnceLock;

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
#[derive(Debug)]
pub struct Snapshot {
    pub(crate) epoch: u64,
    /// The live-set skyline rows, in the writer's `PointId` order.
    pub(crate) store: PointStore,
    /// Every row of `store`, in id order.
    pub(crate) skyline: Vec<PointId>,
    pub(crate) cid_of: Vec<CompetitorId>,
    pub(crate) live_count: usize,
    /// Built by the first answer of the epoch.
    view: OnceLock<SkylineView>,
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
            view: OnceLock::new(),
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

    /// Computes product `t`'s answer against this snapshot: the skyline
    /// members that dominate `t`, then Algorithm 1 over them, both
    /// through the epoch's [`SkylineView`] (built here on first use).
    pub fn answer<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
        &self,
        t: &[f64],
        cost_fn: &C,
        cfg: &UpgradeConfig,
        rec: &mut R,
    ) -> Answer {
        let view = self
            .view
            .get_or_init(|| SkylineView::new(&self.store, &self.skyline));
        let (cost, upgraded) = view.answer(&self.store, &self.skyline, t, cost_fn, cfg, rec);
        Answer { cost, upgraded }
    }
}
