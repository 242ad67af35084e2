//! Top-k product upgrading (Lu & Jensen, *Upgrading Uncompetitive
//! Products Economically*, ICDE 2012).
//!
//! Given a competitor set `P`, an own-product set `T`, and a monotone
//! product cost function, find the `k` products of `T` that can be
//! upgraded most cheaply so that no competitor dominates them.
//!
//! # Modules
//!
//! * [`cost`] — attribute cost functions and integration into product
//!   cost functions (Definitions 4–6).
//! * [`upgrade`] — Algorithm 1: the cheapest way to lift a single
//!   product above a skyline of dominators.
//! * [`probing`] — Algorithm 2 (basic probing) and its improved variant
//!   built on `getDominatingSky` (Algorithm 3), each with one probe loop
//!   behind its plain / `_rec` / `try_` entry points; the multi-threaded
//!   probe scheduler (`WorkStealing` or `BoundSorted`); and the
//!   per-skyline view every `skyup-serve` query is answered through.
//! * [`join`] — Algorithm 4: the progressive R-tree × R-tree join with
//!   the NLB / CLB / ALB lower-bound strategies (Section III-B).
//! * [`single_set`] — the future-work variant where uncompetitive
//!   products and competitors live in one catalog (Section VI).
//! * [`error`] — structured errors for the fallible `try_*` entry
//!   points, which validate their inputs and run under
//!   [`skyup_obs::ExecutionLimits`] with anytime degradation: when a
//!   wall-clock deadline, node-visit budget, heap budget, or external
//!   cancellation fires, they return the best answer computed so far
//!   tagged [`skyup_obs::Completion::Partial`] instead of panicking or
//!   running unbounded.
//!
//! # Quick start
//!
//! ```
//! use skyup_core::cost::SumCost;
//! use skyup_core::join::{JoinUpgrader, LowerBound};
//! use skyup_core::UpgradeConfig;
//! use skyup_geom::PointStore;
//! use skyup_rtree::{RTree, RTreeParams};
//!
//! // Competitors (smaller is better on both dimensions).
//! let p = PointStore::from_rows(2, vec![[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]]);
//! // Our uncompetitive products.
//! let t = PointStore::from_rows(2, vec![[0.9, 0.9], [0.6, 0.7]]);
//!
//! let rp = RTree::bulk_load(&p, RTreeParams::default());
//! let rt = RTree::bulk_load(&t, RTreeParams::default());
//! let cost = SumCost::reciprocal(2, 1e-3);
//!
//! let mut join = JoinUpgrader::new(
//!     &p, &rp, &t, &rt, &cost, UpgradeConfig::default(), LowerBound::Conservative,
//! );
//! let best = join.next().expect("a cheapest upgrade exists");
//! assert!(best.cost >= 0.0);
//! ```

pub mod config;
pub mod constrained;
pub mod cost;
pub mod discrete;
pub mod error;
pub mod join;
pub mod optimal;
pub mod probing;
pub mod result;
pub mod single_set;
pub mod topk;
pub mod upgrade;

pub use config::UpgradeConfig;
pub use constrained::{upgrade_single_with_floors, ConstrainedUpgrade};
pub use cost::{
    AttributeCost, CostFunction, LinearCost, PowerCost, ReciprocalCost, SumCost, WeightedSumCost,
};
pub use discrete::{upgrade_single_discrete, DiscreteDomains};
pub use error::SkyupError;
pub use join::{try_join_topk, BoundMode, JoinStats, JoinUpgrader, LowerBound};
pub use optimal::optimal_upgrade;
pub use probing::{
    basic_probing_topk, basic_probing_topk_rec, improved_probing_topk, improved_probing_topk_rec,
    improved_probing_topk_scheduled_rec, try_basic_probing_topk, try_improved_probing_topk,
    try_improved_probing_topk_scheduled, ProbeStrategy, PruningStats, SkylineView,
};
pub use result::{AnytimeTopK, UpgradeResult};
pub use single_set::single_set_topk;
pub use topk::{SharedThreshold, TopK};
pub use upgrade::{
    dominators_from_skyline, try_upgrade_single, upgrade_single, upgrade_single_into,
    upgrade_single_presorted_into, DimOrders, UpgradeScratch,
};

// Guard types re-exported so `try_*` callers need only this crate.
pub use skyup_obs::{CancellationToken, Completion, ExecutionLimits, Interrupt};
