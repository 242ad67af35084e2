//! The join-based approach (paper Section III-B).
//!
//! Requires both the competitor set `P` and the product set `T` to be
//! indexed by R-trees. Entries of `R_T` are processed best-first by
//! their lower-bound upgrading cost; join lists track which parts of
//! `R_P` can still dominate the products below an entry. The approach is
//! *progressive*: results stream out in ascending cost order and the
//! join can stop as soon as `k` products have been reported.

mod algorithm;
mod bounds;
mod heap;
mod lbc;

pub use algorithm::{JoinStats, JoinUpgrader};
pub use bounds::{list_bound, BoundMode, LowerBound};
pub use lbc::{lbc_entry, lbc_entry_admissible, EntryLbc};

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use crate::error::SkyupError;
use crate::result::{AnytimeTopK, UpgradeResult};
use skyup_geom::PointStore;
use skyup_obs::{ExecutionLimits, Recorder};
use skyup_rtree::RTree;

/// Convenience wrapper: run the join and collect the `k` cheapest
/// upgrades (fewer if `|T| < k`).
#[allow(clippy::too_many_arguments)]
pub fn join_topk<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    t_tree: &RTree,
    k: usize,
    cost_fn: &C,
    cfg: UpgradeConfig,
    bound: LowerBound,
) -> Vec<UpgradeResult> {
    JoinUpgrader::new(p_store, p_tree, t_store, t_tree, cost_fn, cfg, bound)
        .take(k)
        .collect()
}

/// Fallible, guarded twin of [`join_topk`]: validates the inputs via
/// [`JoinUpgrader::try_new`] (plus `k >= 1`), runs the progressive join
/// under `limits`, and folds the join's metrics into `rec`. When a
/// limit fires mid-join the results collected so far — an exact prefix
/// of the unlimited emission sequence — come back tagged
/// [`skyup_obs::Completion::Partial`].
#[allow(clippy::too_many_arguments)]
pub fn try_join_topk<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    t_tree: &RTree,
    k: usize,
    cost_fn: &C,
    cfg: UpgradeConfig,
    bound: LowerBound,
    limits: &ExecutionLimits,
    rec: &mut R,
) -> Result<AnytimeTopK, SkyupError> {
    if k == 0 {
        return Err(SkyupError::InvalidConfig("k must be at least 1".into()));
    }
    let mut join = JoinUpgrader::try_new(p_store, p_tree, t_store, t_tree, cost_fn, cfg, bound)?
        .with_limits(limits);
    let out = join.collect_topk(k);
    rec.absorb(join.metrics());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;
    use crate::probing::improved_probing_topk;
    use skyup_rtree::RTreeParams;

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

    fn check_against_probing(
        p: &PointStore,
        t: &PointStore,
        k: usize,
        dims: usize,
        bound: LowerBound,
        mode: BoundMode,
    ) {
        let rp = RTree::bulk_load(p, RTreeParams::with_max_entries(8));
        let rt = RTree::bulk_load(t, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(dims, 1e-3);
        let cfg = UpgradeConfig::default();
        let join: Vec<_> = JoinUpgrader::new(p, &rp, t, &rt, &cost, cfg, bound)
            .with_bound_mode(mode)
            .take(k)
            .collect();
        let probe = improved_probing_topk(p, &rp, t, k, &cost, &cfg);
        assert_eq!(join.len(), probe.len(), "{bound:?}");
        for (a, b) in join.iter().zip(&probe) {
            assert!(
                (a.cost - b.cost).abs() < 1e-9,
                "{bound:?}: join cost {} vs probing cost {} (products {:?}/{:?})",
                a.cost,
                b.cost,
                a.product,
                b.product
            );
        }
        // Join emits in ascending cost order.
        assert!(join.windows(2).all(|w| w[0].cost <= w[1].cost + 1e-12));
    }

    #[test]
    fn join_with_skyline_matches_self_computed_path() {
        for dims in [2, 3] {
            let p = pseudo_random_store(300, dims, 0.0, 1.0, 0x91 + dims as u64);
            let t = pseudo_random_store(40, dims, 0.5, 1.5, 0x92 + dims as u64);
            let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
            let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
            let cost = SumCost::reciprocal(dims, 1e-3);
            let cfg = UpgradeConfig::default();
            let all: Vec<_> = p.iter().map(|(id, _)| id).collect();
            let mut sky = skyup_skyline::skyline_sfs(&p, &all);
            sky.sort();
            let plain: Vec<_> =
                JoinUpgrader::new(&p, &rp, &t, &rt, &cost, cfg, LowerBound::Conservative)
                    .take(8)
                    .collect();
            let seeded: Vec<_> =
                JoinUpgrader::new(&p, &rp, &t, &rt, &cost, cfg, LowerBound::Conservative)
                    .with_skyline(&sky)
                    .take(8)
                    .collect();
            assert_eq!(plain.len(), seeded.len());
            for (a, b) in plain.iter().zip(&seeded) {
                assert_eq!(a.product, b.product);
                assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            }
        }
    }

    #[test]
    fn join_matches_probing_all_bounds_admissible_mode() {
        // With the admissible per-entry bound the join's emission order
        // is exactly ascending in true cost even on interleaved domains,
        // so it must agree with probing everywhere.
        for dims in [2, 3] {
            let p = pseudo_random_store(500, dims, 0.0, 1.0, 0x10 + dims as u64);
            let t = pseudo_random_store(80, dims, 0.6, 1.6, 0x20 + dims as u64);
            for bound in LowerBound::ALL {
                check_against_probing(&p, &t, 10, dims, bound, BoundMode::Admissible);
            }
        }
    }

    #[test]
    fn paper_bounds_exact_costs_approximate_order() {
        // The paper's LBC is not admissible (DESIGN.md §3), so on
        // interleaved domains the emission order is only approximately
        // ascending. What must still hold: every product is emitted
        // exactly once, with exactly the cost probing computes for it —
        // the approximation is purely a reordering.
        let dims = 2;
        let p = pseudo_random_store(500, dims, 0.0, 1.0, 0x12);
        let t = pseudo_random_store(80, dims, 0.6, 1.6, 0x22);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(dims, 1e-3);
        let cfg = UpgradeConfig::default();
        let truth = improved_probing_topk(&p, &rp, &t, 80, &cost, &cfg);
        let by_id: std::collections::HashMap<u32, f64> =
            truth.iter().map(|r| (r.product.0, r.cost)).collect();
        for bound in LowerBound::ALL {
            let join: Vec<_> = JoinUpgrader::new(&p, &rp, &t, &rt, &cost, cfg, bound).collect();
            assert_eq!(join.len(), truth.len());
            let mut seen = std::collections::HashSet::new();
            let mut inversions = 0usize;
            for (i, r) in join.iter().enumerate() {
                assert!(seen.insert(r.product.0), "{bound:?}: duplicate emission");
                let exact = by_id[&r.product.0];
                assert!(
                    (r.cost - exact).abs() < 1e-9,
                    "{bound:?}: per-product cost differs from probing"
                );
                if i > 0 && join[i - 1].cost > r.cost + 1e-9 {
                    inversions += 1;
                }
            }
            // The reordering is mild: the bulk of the stream is sorted.
            assert!(
                inversions < join.len() / 4,
                "{bound:?}: {} inversions in {} emissions",
                inversions,
                join.len()
            );
        }
    }

    #[test]
    fn join_matches_probing_paper_domains() {
        // The paper's synthetic setup: P in [0,1]^c, T in (1,2]^c — every
        // T product is dominated by essentially all of P.
        let dims = 2;
        let p = pseudo_random_store(400, dims, 0.0, 1.0, 0x31);
        let t = pseudo_random_store(50, dims, 1.0, 2.0, 0x32);
        for bound in LowerBound::ALL {
            // The paper's own setup: its (non-admissible) bounds behave
            // exactly here.
            check_against_probing(&p, &t, 5, dims, bound, BoundMode::Paper);
        }
    }

    #[test]
    fn join_with_competitive_products() {
        // Some T products already escape P: zero-cost results come first.
        let dims = 2;
        let p = pseudo_random_store(300, dims, 0.4, 1.0, 0x41);
        let mut t = pseudo_random_store(30, dims, 0.6, 1.6, 0x42);
        t.push(&[0.0, 0.0]); // unbeatable product
        for bound in LowerBound::ALL {
            let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
            let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
            let cost = SumCost::reciprocal(dims, 1e-3);
            let first = join_topk(&p, &rp, &t, &rt, 1, &cost, UpgradeConfig::default(), bound);
            assert_eq!(first[0].cost, 0.0, "{bound:?}");
        }
    }

    #[test]
    fn exhausting_the_join_returns_all_of_t() {
        let p = pseudo_random_store(200, 2, 0.0, 1.0, 0x51);
        let t = pseudo_random_store(40, 2, 0.5, 1.5, 0x52);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        let all: Vec<_> = JoinUpgrader::new(
            &p,
            &rp,
            &t,
            &rt,
            &cost,
            UpgradeConfig::default(),
            LowerBound::Conservative,
        )
        .collect();
        assert_eq!(all.len(), 40);
        let mut ids: Vec<u32> = all.iter().map(|r| r.product.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn empty_t_yields_no_results() {
        let p = pseudo_random_store(100, 2, 0.0, 1.0, 0x61);
        let t = PointStore::new(2);
        let rp = RTree::bulk_load(&p, RTreeParams::default());
        let rt = RTree::bulk_load(&t, RTreeParams::default());
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = join_topk(
            &p,
            &rp,
            &t,
            &rt,
            5,
            &cost,
            UpgradeConfig::default(),
            LowerBound::Naive,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn empty_p_makes_everything_free() {
        let p = PointStore::new(2);
        let t = pseudo_random_store(10, 2, 0.0, 1.0, 0x71);
        let rp = RTree::bulk_load(&p, RTreeParams::default());
        let rt = RTree::bulk_load(&t, RTreeParams::default());
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = join_topk(
            &p,
            &rp,
            &t,
            &rt,
            10,
            &cost,
            UpgradeConfig::default(),
            LowerBound::Aggressive,
        );
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|r| r.cost == 0.0));
    }

    #[test]
    fn stats_are_populated() {
        let p = pseudo_random_store(300, 2, 0.0, 1.0, 0x81);
        let t = pseudo_random_store(50, 2, 0.8, 1.8, 0x82);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        let mut join = JoinUpgrader::new(
            &p,
            &rp,
            &t,
            &rt,
            &cost,
            UpgradeConfig::default(),
            LowerBound::Conservative,
        );
        let _ = join.next();
        let stats = join.stats();
        assert_eq!(stats.results_emitted, 1);
        assert!(stats.heap_pushes > 0);
        assert!(stats.exact_upgrades >= 1);
    }

    /// What a join run must produce however its products are resolved:
    /// the emitted (product, cost bits, upgraded bits) and every counter.
    #[derive(Debug, PartialEq)]
    struct Run {
        emitted: Vec<(u32, u64, Vec<u64>)>,
        counters: Vec<(&'static str, u64)>,
    }

    /// Runs the join for `k` results with `helpers` helper threads (`0`
    /// resolves one product at a time); also returns how many look-ahead
    /// resolutions were left unconsumed.
    #[allow(clippy::too_many_arguments)]
    fn run_join<C: CostFunction + ?Sized>(
        (p, rp): (&PointStore, &RTree),
        (t, rt): (&PointStore, &RTree),
        cost: &C,
        bound: LowerBound,
        mode: BoundMode,
        sky: Option<&[skyup_geom::PointId]>,
        k: usize,
        helpers: usize,
    ) -> (Run, usize) {
        let mut join = JoinUpgrader::new(p, rp, t, rt, cost, UpgradeConfig::default(), bound)
            .with_bound_mode(mode)
            .with_helpers(helpers);
        if let Some(sky) = sky {
            join = join.with_skyline(sky);
        }
        let emitted = join
            .by_ref()
            .take(k)
            .map(|r| {
                let bits = r.upgraded.iter().map(|v| v.to_bits()).collect();
                (r.product.0, r.cost.to_bits(), bits)
            })
            .collect();
        let counters = skyup_obs::Counter::ALL
            .iter()
            .map(|&c| (c.name(), join.metrics().get(c)))
            .collect();
        (Run { emitted, counters }, join.parked())
    }

    #[test]
    fn lookahead_matches_one_at_a_time_resolution() {
        let mut configs = 0;
        let mut parked = 0;
        for (seed, dims) in [
            (0xA1, 2),
            (0xA2, 2),
            (0xA3, 2),
            (0xB1, 3),
            (0xB2, 3),
            (0xB3, 3),
        ] {
            let p = pseudo_random_store(300, dims, 0.0, 1.0, seed);
            let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
            let all: Vec<_> = p.ids().collect();
            let mut sky = skyup_skyline::skyline_sfs(&p, &all);
            sky.sort_unstable();
            // The paper's domain (every product dominated by most of P)
            // and an interleaved one, under the ledger's linear cost.
            for (lo, hi) in [(1.0, 2.0), (0.3, 1.3)] {
                let t = pseudo_random_store(40, dims, lo, hi, seed ^ 0x5eed);
                let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
                let cost = SumCost::new(
                    (0..dims)
                        .map(|_| {
                            Box::new(crate::cost::LinearCost::new(2.0, 1.0))
                                as Box<dyn crate::cost::AttributeCost>
                        })
                        .collect(),
                );
                for bound in LowerBound::ALL {
                    for mode in [BoundMode::Paper, BoundMode::Admissible] {
                        for seeded in [None, Some(&sky[..])] {
                            for k in [1, 10, t.len()] {
                                let run = |helpers| {
                                    run_join(
                                        (&p, &rp),
                                        (&t, &rt),
                                        &cost,
                                        bound,
                                        mode,
                                        seeded,
                                        k,
                                        helpers,
                                    )
                                };
                                let (one, _) = run(0);
                                let (ahead, left) = run(2);
                                assert_eq!(
                                    one,
                                    ahead,
                                    "seed {seed:#x} T in [{lo}, {hi}] {bound:?} {mode:?} \
                                     skyline {} k {k}",
                                    seeded.is_some()
                                );
                                parked += left;
                                configs += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(configs, 432);
        // Some run stopped with look-ahead work unconsumed, so the lift
        // and the helpers really ran.
        assert!(parked > 0, "no look-ahead resolution was ever parked");
    }

    /// A cost function whose `product_cost` (Algorithm 1's first call,
    /// never a bound's) panics off the thread that built it. Its first
    /// call on the builder's thread waits, bounded, for a helper's call
    /// to arrive on `arrived`, so a helper surely takes part in the
    /// first batch.
    struct PanicsOffThread {
        inner: SumCost,
        owner: std::thread::ThreadId,
        arrived: (
            std::sync::mpsc::SyncSender<()>,
            std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        ),
        waited: std::sync::Once,
    }

    impl CostFunction for PanicsOffThread {
        fn dims(&self) -> usize {
            self.inner.dims()
        }
        fn attr_cost(&self, dim: usize, v: f64) -> f64 {
            self.inner.attr_cost(dim, v)
        }
        fn product_cost(&self, p: &[f64]) -> f64 {
            if std::thread::current().id() != self.owner {
                let _ = self.arrived.0.try_send(());
                panic!("injected helper panic");
            }
            self.waited.call_once(|| {
                let rx = self.arrived.1.lock().unwrap();
                let _ = rx.recv_timeout(std::time::Duration::from_secs(10));
            });
            self.inner.product_cost(p)
        }
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller() {
        let p = pseudo_random_store(300, 2, 0.0, 1.0, 0xC1);
        let t = pseudo_random_store(40, 2, 1.0, 2.0, 0xC2);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let cost = PanicsOffThread {
            inner: SumCost::reciprocal(2, 1e-3),
            owner: std::thread::current().id(),
            arrived: (tx, std::sync::Mutex::new(rx)),
            waited: std::sync::Once::new(),
        };
        let mut join = JoinUpgrader::new(
            &p,
            &rp,
            &t,
            &rt,
            &cost,
            UpgradeConfig::default(),
            LowerBound::Conservative,
        )
        .with_helpers(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| join.next()))
            .expect_err("the helper's panic must reach the caller");
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"injected helper panic")
        );
    }

    #[test]
    fn armed_limits_resolve_one_product_at_a_time() {
        let p = pseudo_random_store(300, 2, 0.0, 1.0, 0xD1);
        let t = pseudo_random_store(40, 2, 1.0, 2.0, 0xD2);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        // Look-ahead resolutions left parked after the first result.
        let parked = |limits: &ExecutionLimits| {
            let mut join = JoinUpgrader::new(
                &p,
                &rp,
                &t,
                &rt,
                &cost,
                UpgradeConfig::default(),
                LowerBound::Conservative,
            )
            .with_helpers(3)
            .with_limits(limits);
            assert!(join.next().is_some());
            join.parked()
        };
        assert!(parked(&ExecutionLimits::none()) > 0);
        for limits in [
            ExecutionLimits::none().with_max_node_visits(u64::MAX),
            ExecutionLimits::none().with_deadline(std::time::Duration::from_secs(60)),
            ExecutionLimits::none().with_faults(skyup_obs::FaultPlan::new()),
        ] {
            assert_eq!(parked(&limits), 0, "{limits:?}");
        }
    }

    #[test]
    fn progressive_prefix_property() {
        // The first k results of a fresh join equal the first k of a
        // longer run: consuming more never changes earlier answers.
        let p = pseudo_random_store(300, 3, 0.0, 1.0, 0x91);
        let t = pseudo_random_store(60, 3, 0.5, 1.5, 0x92);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(3, 1e-3);
        let cfg = UpgradeConfig::default();
        let five = join_topk(&p, &rp, &t, &rt, 5, &cost, cfg, LowerBound::Aggressive);
        let twenty = join_topk(&p, &rp, &t, &rt, 20, &cost, cfg, LowerBound::Aggressive);
        assert_eq!(&twenty[..5], &five[..]);
    }
}
