//! The probing algorithms (paper Section III-A).
//!
//! Both probe every product `t ∈ T` in isolation against the competitor
//! R-tree `R_P`, compute the skyline of `t`'s dominators, upgrade `t`
//! with Algorithm 1, and keep the `k` cheapest upgrades.
//!
//! * [`basic_probing_topk`] — Algorithm 2: a plain range query over
//!   `ADR(t)` fetches *all* dominators, then their skyline is computed
//!   in memory. The paper's brute-force baseline.
//! * [`improved_probing_topk`] — replaces the range query + skyline pair
//!   with `getDominatingSky` (Algorithm 3), which prunes R-tree nodes
//!   dominated by already-found skyline points.
//!
//! Neither algorithm is progressive: no result can be reported until all
//! of `T` has been processed (Section IV-B notes this).
//!
//! Each algorithm comes as a plain / `_rec` (instrumented) / `try_`
//! (validated, guarded) triplet, and all three run one private probe
//! loop under an [`skyup_obs::ExecGuard`]: the unguarded entry points
//! pass [`skyup_obs::ExecGuard::unlimited`], so they are bit-identical
//! to an unlimited `try_` run by construction. When a budget of
//! [`skyup_obs::ExecutionLimits`] fires, a `try_` call returns the exact
//! top-k over the products it fully evaluated, tagged
//! [`crate::AnytimeTopK`] partial; invalid inputs return
//! [`crate::SkyupError`] instead of panicking.
//!
//! Library extensions, each with its own loop:
//!
//! * [`improved_probing_topk_scheduled_rec`] /
//!   [`try_improved_probing_topk_scheduled`] — improved probing across
//!   worker threads under a [`ProbeStrategy`]: `WorkStealing` claims
//!   products in id order, `BoundSorted` claims them in ascending order
//!   of an admissible lower bound and prunes against a shared top-k
//!   threshold. Results are bit-identical to [`improved_probing_topk`].
//! * [`SkylineView`] prepares one skyline once — a columnar copy with
//!   zone maps, Algorithm 1's hoisted sorts, and a dominator memo — and
//!   answers any number of products against it from any thread (the
//!   engine every `skyup-serve` query runs on).

mod basic;
mod improved;
mod scheduler;
mod view;

pub use basic::{basic_probing_topk, basic_probing_topk_rec, try_basic_probing_topk};
pub use improved::{improved_probing_topk, improved_probing_topk_rec, try_improved_probing_topk};
pub use scheduler::{
    improved_probing_topk_scheduled_rec, try_improved_probing_topk_scheduled, ProbeStrategy,
    PruningStats,
};
pub use view::{SkylineView, MEMO_MIN_SKYLINE};

use skyup_obs::{Completion, Counter, Recorder};

/// The guard summary every guarded probe reports once it is done: the
/// node visits it charged and, if a limit fired, one interrupt.
fn record_guard<R: Recorder + ?Sized>(rec: &mut R, visits: u64, completion: Completion) {
    rec.incr(Counter::GuardedNodeVisits, visits);
    if !completion.is_exact() {
        rec.bump(Counter::LimitInterrupts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;
    use crate::upgrade::{dominators_from_skyline, upgrade_single};
    use crate::UpgradeConfig;
    use skyup_geom::PointStore;
    use skyup_obs::NullRecorder;
    use skyup_rtree::{RTree, RTreeParams};

    fn pseudo_random_store(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> PointStore {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut s = PointStore::new(dims);
        for _ in 0..n {
            let row: Vec<f64> = (0..dims).map(|_| lo + (hi - lo) * next()).collect();
            s.push(&row);
        }
        s
    }

    #[test]
    fn basic_and_improved_agree() {
        for dims in [2, 3] {
            let p = pseudo_random_store(400, dims, 0.0, 1.0, 0xaa + dims as u64);
            let t = pseudo_random_store(60, dims, 0.5, 1.5, 0xbb + dims as u64);
            let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
            let cost = SumCost::reciprocal(dims, 1e-3);
            let cfg = UpgradeConfig::default();
            let a = basic_probing_topk(&p, &rp, &t, 5, &cost, &cfg);
            let b = improved_probing_topk(&p, &rp, &t, 5, &cost, &cfg);
            assert_eq!(a.len(), 5);
            let ca: Vec<f64> = a.iter().map(|r| r.cost).collect();
            let cb: Vec<f64> = b.iter().map(|r| r.cost).collect();
            for (x, y) in ca.iter().zip(&cb) {
                assert!((x - y).abs() < 1e-9, "cost mismatch: {ca:?} vs {cb:?}");
            }
            // With distinct costs, the chosen products agree too.
            let ia: Vec<u32> = a.iter().map(|r| r.product.0).collect();
            let ib: Vec<u32> = b.iter().map(|r| r.product.0).collect();
            assert_eq!(ia, ib);
        }
    }

    /// The identity a serving snapshot relies on: filtering the full
    /// skyline down to `t`'s dominators and running Algorithm 1 gives
    /// improved probing's answer bit for bit.
    #[test]
    fn with_skyline_matches_self_computed_path() {
        for dims in [2, 3] {
            let p = pseudo_random_store(400, dims, 0.0, 1.0, 0xc1 + dims as u64);
            let t = pseudo_random_store(60, dims, 0.5, 1.5, 0xd2 + dims as u64);
            let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
            let cost = SumCost::reciprocal(dims, 1e-3);
            let cfg = UpgradeConfig::default();
            let all: Vec<_> = p.iter().map(|(id, _)| id).collect();
            let mut sky = skyup_skyline::skyline_sfs(&p, &all);
            sky.sort();
            let a = improved_probing_topk(&p, &rp, &t, 10, &cost, &cfg);
            let mut topk = crate::TopK::new(10);
            for (tid, tp) in t.iter() {
                let dominators = dominators_from_skyline(&p, &sky, tp, &mut NullRecorder);
                let (c, upgraded) = upgrade_single(&p, &dominators, tp, &cost, &cfg);
                topk.offer(crate::UpgradeResult {
                    product: tid,
                    original: tp.to_vec(),
                    upgraded,
                    cost: c,
                });
            }
            let b = topk.into_sorted();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.product, y.product);
                assert_eq!(x.cost.to_bits(), y.cost.to_bits());
                let xb: Vec<u64> = x.upgraded.iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u64> = y.upgraded.iter().map(|v| v.to_bits()).collect();
                assert_eq!(xb, yb);
            }
        }
    }

    #[test]
    fn k_larger_than_t_returns_everything() {
        let p = pseudo_random_store(100, 2, 0.0, 1.0, 0x1);
        let t = pseudo_random_store(7, 2, 0.5, 1.5, 0x2);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = improved_probing_topk(&p, &rp, &t, 50, &cost, &UpgradeConfig::default());
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn results_sorted_by_cost() {
        let p = pseudo_random_store(300, 2, 0.0, 1.0, 0x3);
        let t = pseudo_random_store(40, 2, 0.8, 1.8, 0x4);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = basic_probing_topk(&p, &rp, &t, 10, &cost, &UpgradeConfig::default());
        assert!(out.windows(2).all(|w| w[0].cost <= w[1].cost));
    }

    #[test]
    fn already_competitive_products_cost_zero() {
        // T products strictly better than every competitor.
        let p = pseudo_random_store(100, 2, 0.5, 1.0, 0x5);
        let t = pseudo_random_store(5, 2, 0.0, 0.2, 0x6);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = improved_probing_topk(&p, &rp, &t, 5, &cost, &UpgradeConfig::default());
        assert!(out.iter().all(|r| r.cost == 0.0 && r.already_competitive()));
    }

    #[test]
    fn empty_competitor_set() {
        let p = PointStore::new(2);
        let t = pseudo_random_store(5, 2, 0.0, 1.0, 0x7);
        let rp = RTree::bulk_load(&p, RTreeParams::default());
        let cost = SumCost::reciprocal(2, 1e-3);
        for algo in [basic_probing_topk, improved_probing_topk] {
            let out = algo(&p, &rp, &t, 3, &cost, &UpgradeConfig::default());
            assert_eq!(out.len(), 3);
            assert!(out.iter().all(|r| r.cost == 0.0));
        }
    }

    #[test]
    fn empty_product_set() {
        let p = pseudo_random_store(50, 2, 0.0, 1.0, 0x8);
        let t = PointStore::new(2);
        let rp = RTree::bulk_load(&p, RTreeParams::default());
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = basic_probing_topk(&p, &rp, &t, 3, &cost, &UpgradeConfig::default());
        assert!(out.is_empty());
    }
}
