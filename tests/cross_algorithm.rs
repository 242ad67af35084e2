//! Cross-algorithm oracles: the three top-k approaches must agree on
//! upgrade costs across distributions, dimensionalities, and domain
//! layouts (using the admissible bound mode where exact ordering is
//! required; see DESIGN.md §3).

use skyup::core::cost::{AttributeCost, LinearCost, SumCost};
use skyup::core::join::{BoundMode, JoinUpgrader, LowerBound};
use skyup::core::{
    basic_probing_topk, basic_probing_topk_rec, improved_probing_topk, improved_probing_topk_rec,
    improved_probing_topk_scheduled_rec, single_set_topk, ProbeStrategy, SkylineView,
    UpgradeConfig,
};
use skyup::data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup::geom::PointStore;
use skyup::obs::{Counter, QueryMetrics, Recorder};
use skyup::rtree::{RTree, RTreeParams};
use skyup::skyline::dominating_skyline_rec;

fn costs(rs: &[skyup::core::UpgradeResult]) -> Vec<f64> {
    rs.iter().map(|r| r.cost).collect()
}

fn assert_costs_eq(a: &[f64], b: &[f64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < 1e-9, "{label}: rank {i}: {x} vs {y}");
    }
}

fn run_case(dist: Distribution, dims: usize, p_lo: f64, p_hi: f64, t_lo: f64, t_hi: f64) {
    let p = generate(
        800,
        &SyntheticConfig {
            dims,
            distribution: dist,
            lo: p_lo,
            hi: p_hi,
            seed: 100 + dims as u64,
        },
    );
    let t = generate(
        150,
        &SyntheticConfig {
            dims,
            distribution: dist,
            lo: t_lo,
            hi: t_hi,
            seed: 200 + dims as u64,
        },
    );
    let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(16));
    let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(16));
    let cost_fn = SumCost::reciprocal(dims, 1e-2);
    let cfg = UpgradeConfig::default();
    let k = 12;

    let basic = basic_probing_topk(&p, &rp, &t, k, &cost_fn, &cfg);
    let improved = improved_probing_topk(&p, &rp, &t, k, &cost_fn, &cfg);
    assert_costs_eq(
        &costs(&basic),
        &costs(&improved),
        &format!("{dist:?} d={dims} basic vs improved"),
    );
    // Identical tie-breaking: same products chosen, not just same costs.
    let ids_basic: Vec<_> = basic.iter().map(|r| r.product).collect();
    let ids_improved: Vec<_> = improved.iter().map(|r| r.product).collect();
    assert_eq!(ids_basic, ids_improved);

    for bound in LowerBound::ALL {
        let join: Vec<_> = JoinUpgrader::new(&p, &rp, &t, &rt, &cost_fn, cfg, bound)
            .with_bound_mode(BoundMode::Admissible)
            .take(k)
            .collect();
        assert_costs_eq(
            &costs(&join),
            &costs(&improved),
            &format!("{dist:?} d={dims} join-{bound:?} vs probing"),
        );
    }
}

/// The work scheduled probing does beside its probe loop, measured
/// through the public pieces it is built from: one pass of Algorithm 3
/// for a product every point dominates, which returns `skyline(P)` in
/// BBS emission order, and a memo-less view over that skyline scanned
/// once per product of `t`.
fn skyline_pass_and_view_scans(
    p: &PointStore,
    rp: &RTree,
    t: &PointStore,
) -> (QueryMetrics, QueryMetrics) {
    let mut pass = QueryMetrics::new();
    let top = vec![f64::INFINITY; p.dims()];
    let sky = dominating_skyline_rec(p, rp, &top, &mut pass);
    let view = SkylineView::without_memo(p, &sky);
    let mut scans = QueryMetrics::new();
    for (_, tp) in t.iter() {
        view.dominators(p, &sky, tp, &mut scans);
    }
    (pass, scans)
}

#[test]
fn agreement_on_paper_domains() {
    for dist in [
        Distribution::Independent,
        Distribution::AntiCorrelated,
        Distribution::Correlated,
    ] {
        for dims in [2, 4] {
            run_case(dist, dims, 0.0, 1.0, 1.0001, 2.0);
        }
    }
}

#[test]
fn agreement_on_interleaved_domains() {
    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        for dims in [2, 3] {
            run_case(dist, dims, 0.0, 1.0, 0.3, 1.3);
        }
    }
}

/// The counters must tell the same story as the paper's Figure 2 and
/// Section V: improved probing reads strictly fewer R-tree entries than
/// basic probing (that is the whole point of `getDominatingSky`), while
/// the four probing variants return identical top-k answers and agree
/// on the workload-shape counters.
#[test]
fn counter_consistency_across_algorithms() {
    let p = generate(
        1200,
        &SyntheticConfig::unit(3, Distribution::AntiCorrelated, 31),
    );
    let t = generate(
        180,
        &SyntheticConfig {
            dims: 3,
            distribution: Distribution::Independent,
            lo: 0.4,
            hi: 1.4,
            seed: 32,
        },
    );
    let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(16));
    let cost_fn = SumCost::reciprocal(3, 1e-2);
    let cfg = UpgradeConfig::default();
    let k = 10;

    let mut mb = QueryMetrics::new();
    let basic = basic_probing_topk_rec(&p, &rp, &t, k, &cost_fn, &cfg, &mut mb);
    let mut mi = QueryMetrics::new();
    let improved = improved_probing_topk_rec(&p, &rp, &t, k, &cost_fn, &cfg, &mut mi);
    let mut mp = QueryMetrics::new();
    let (stealing, _) = improved_probing_topk_scheduled_rec(
        &p,
        &rp,
        &t,
        k,
        &cost_fn,
        &cfg,
        4,
        ProbeStrategy::WorkStealing,
        &mut mp,
    );
    let mut mq = QueryMetrics::new();
    let (sorted, _) = improved_probing_topk_scheduled_rec(
        &p,
        &rp,
        &t,
        k,
        &cost_fn,
        &cfg,
        1,
        ProbeStrategy::BoundSorted,
        &mut mq,
    );

    // All four runs produce the identical top-k plan.
    for (label, other) in [
        ("improved", &improved),
        ("work stealing", &stealing),
        ("bound sorted", &sorted),
    ] {
        assert_eq!(basic.len(), other.len(), "{label}");
        for (a, b) in basic.iter().zip(other.iter()) {
            assert_eq!(a.product, b.product, "{label}");
            assert!((a.cost - b.cost).abs() < 1e-9, "{label}");
            assert_eq!(a.upgraded, b.upgraded, "{label}");
        }
    }

    // getDominatingSky's node pruning must beat the ADR range scan.
    assert!(
        mi.get(Counter::RtreeEntryAccesses) < mb.get(Counter::RtreeEntryAccesses),
        "improved probing should access strictly fewer R-tree entries: {} vs {}",
        mi.get(Counter::RtreeEntryAccesses),
        mb.get(Counter::RtreeEntryAccesses),
    );
    assert!(mi.get(Counter::RtreeNodeAccesses) < mb.get(Counter::RtreeNodeAccesses));
    // (Dominance tests are NOT asserted: the constrained BBS re-checks
    // heap entries against the growing skyline, so it can run more
    // point-level tests even while touching far fewer R-tree entries.)

    // Workload-shape counters agree everywhere they are comparable.
    for m in [&mb, &mi, &mp] {
        assert_eq!(m.get(Counter::ProductsEvaluated), t.len() as u64);
        assert_eq!(m.get(Counter::ResultsEmitted), k as u64);
    }
    // Work stealing walks R_P once, for skyline(P), and answers every
    // product with a kernel scan of a memo-less view over it: its R-tree
    // and heap counters equal that one pass, and its point and block
    // work equal the pass plus the scans.
    let (pass, scans) = skyline_pass_and_view_scans(&p, &rp, &t);
    for c in [
        Counter::RtreeNodeAccesses,
        Counter::RtreeEntryAccesses,
        Counter::SkylinePointsRetained,
        Counter::HeapPushes,
        Counter::HeapPops,
    ] {
        assert_eq!(mp.get(c), pass.get(c), "stealing vs one pass {}", c.name());
    }
    for c in [
        Counter::DominanceTests,
        Counter::KernelBlockScans,
        Counter::KernelBlocksSkipped,
    ] {
        assert_eq!(
            mp.get(c),
            pass.get(c) + scans.get(c),
            "stealing vs one pass plus the view scans {}",
            c.name()
        );
    }
    assert!(mp.get(Counter::RtreeNodeAccesses) < mi.get(Counter::RtreeNodeAccesses));
    // Both skyline strategies retain the same dominator skylines.
    assert_eq!(
        mb.get(Counter::SkylinePointsRetained),
        mi.get(Counter::SkylinePointsRetained)
    );
    // The screen only ever skips products, never evaluates more.
    assert!(mq.get(Counter::ProductsEvaluated) <= t.len() as u64);
    assert_eq!(
        mq.get(Counter::ProductsEvaluated) + mq.get(Counter::ThresholdPrunes),
        t.len() as u64
    );
}

/// Competitors and products on coarse grids, with duplicated rows on
/// both sides. The skyline holds every point of the plane
/// `x + y + z = 1.5` on the grid of step 1/16 (217 points, every third
/// one twice), so dominators tie on every dimension; dominated grid
/// points on `x + y + z = 1.875` fill the rest of `P`. Products sit on
/// the grid of step 1/4 in `[0.25, 1.25]³` (every seventh twice), so
/// they share coordinates with their dominators and tie on cost; those
/// on or below the plane cost nothing, which lets the screen fire.
fn tie_heavy_instance() -> (PointStore, PointStore) {
    let mut p = PointStore::new(3);
    for sum in [24u32, 30] {
        let mut n = 0;
        for i in 0..=16u32 {
            for j in 0..=16u32 {
                let Some(l) = sum.checked_sub(i + j).filter(|&l| l <= 16) else {
                    continue;
                };
                let row = [i, j, l].map(|c| f64::from(c) / 16.0);
                p.push(&row);
                if sum == 24 && n % 3 == 0 {
                    p.push(&row);
                }
                n += 1;
            }
        }
    }
    let mut t = PointStore::new(3);
    let grid =
        (1..=5u32).flat_map(|a| (1..=5u32).flat_map(move |b| (1..=5).map(move |c| [a, b, c])));
    for (n, row) in grid.enumerate() {
        let row = row.map(|v| f64::from(v) / 4.0);
        t.push(&row);
        if n % 7 == 0 {
            t.push(&row);
        }
    }
    (p, t)
}

/// The probe scheduler's counter contract: work stealing merges to
/// fully deterministic metrics at every thread count (each product is
/// claimed and evaluated exactly once), and the bound-sorted pruning
/// path keeps the exact accounting `ProductsEvaluated + ThresholdPrunes
/// == |T|` while returning the bit-identical sequential answer — on an
/// interleaved instance and on a tie-heavy grid.
#[test]
fn scheduled_probing_counter_contract() {
    let interleaved = (
        generate(
            800,
            &SyntheticConfig::unit(3, Distribution::Independent, 41),
        ),
        generate(
            150,
            &SyntheticConfig {
                dims: 3,
                distribution: Distribution::Independent,
                lo: 0.3,
                hi: 1.3,
                seed: 42,
            },
        ),
    );
    let (grid_p, grid_t) = tie_heavy_instance();
    let grid_sky = skyup::skyline::skyline_naive(&grid_p, &grid_p.ids().collect::<Vec<_>>());
    assert!(
        grid_sky.len() >= 128,
        "skyline of {} points",
        grid_sky.len()
    );
    assert!(grid_sky.len() > 217, "the skyline must hold twins");

    // Linear costs keep the admissible list bounds informative, so the
    // shared-threshold screen actually fires on these layouts.
    let cost_fn = SumCost::new(
        (0..3)
            .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
            .collect(),
    );
    let cfg = UpgradeConfig::default();
    for (name, (p, t), k) in [
        ("interleaved", interleaved, 8),
        ("tie-heavy grid", (grid_p, grid_t), 40),
    ] {
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(16));
        let seq = improved_probing_topk(&p, &rp, &t, k, &cost_fn, &cfg);

        let assert_bit_identical = |out: &[skyup::core::UpgradeResult], label: &str| {
            assert_eq!(seq.len(), out.len(), "{name}: {label}");
            for (a, b) in seq.iter().zip(out) {
                assert_eq!(a.product, b.product, "{name}: {label}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{name}: {label}");
                let bits = |r: &skyup::core::UpgradeResult| -> Vec<u64> {
                    r.upgraded.iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(a), bits(b), "{name}: {label}");
            }
        };

        // Work stealing: same counters no matter how the claims interleave.
        let mut baseline: Option<Vec<u64>> = None;
        for threads in [1, 2, 4, 8] {
            let mut m = QueryMetrics::new();
            let (out, stats) = improved_probing_topk_scheduled_rec(
                &p,
                &rp,
                &t,
                k,
                &cost_fn,
                &cfg,
                threads,
                ProbeStrategy::WorkStealing,
                &mut m,
            );
            assert_bit_identical(&out, &format!("stealing threads={threads}"));
            assert_eq!(m.get(Counter::StealEvents), t.len() as u64);
            assert_eq!(m.get(Counter::ProductsEvaluated), t.len() as u64);
            assert_eq!(stats.pruned, 0);
            let snap: Vec<u64> = Counter::ALL.iter().map(|&c| m.get(c)).collect();
            match &baseline {
                None => baseline = Some(snap),
                Some(b) => assert_eq!(
                    b, &snap,
                    "{name}: stealing counters differ at threads={threads}"
                ),
            }
        }

        // Bound-sorted pruning: exact results plus exact accounting.
        // Which products get pruned is timing-dependent, but every
        // product is either evaluated or pruned — never both, never
        // neither.
        for threads in [1, 2, 4, 8] {
            let mut m = QueryMetrics::new();
            let (out, stats) = improved_probing_topk_scheduled_rec(
                &p,
                &rp,
                &t,
                k,
                &cost_fn,
                &cfg,
                threads,
                ProbeStrategy::BoundSorted,
                &mut m,
            );
            assert_bit_identical(&out, &format!("bound-sorted threads={threads}"));
            assert_eq!(
                m.get(Counter::ProductsEvaluated) + m.get(Counter::ThresholdPrunes),
                t.len() as u64,
                "{name}: threads={threads}"
            );
            assert_eq!(m.get(Counter::ProductsEvaluated), stats.evaluated);
            assert_eq!(m.get(Counter::ThresholdPrunes), stats.pruned);
            assert_eq!(m.get(Counter::LowerBoundEvals), t.len() as u64);
            if threads == 1 {
                assert!(
                    stats.pruned > 0,
                    "{name}: the screen must fire on this workload: {stats:?}"
                );
            }
        }
    }
}

/// Zone-map accounting composes with a shared skyline view: every
/// product answered by a full skyline scan covers the skyline's block
/// count exactly once — as scanned plus skipped, never lost or
/// double-counted — whether 1, 2 or 4 threads answer through one view.
/// Memo hits run no kernel scan, so `KernelBlockScans +
/// KernelBlocksSkipped` is an exact function of the full-scan count even
/// though *which* products the memo answers is timing-dependent above
/// one thread.
#[test]
fn view_kernel_block_conservation() {
    use skyup::geom::DOM_BLOCK;
    use skyup::skyline::skyline_bnl;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let p = generate(
        900,
        &SyntheticConfig::unit(3, Distribution::AntiCorrelated, 51),
    );
    let t = generate(
        120,
        &SyntheticConfig {
            dims: 3,
            distribution: Distribution::Independent,
            lo: 0.4,
            hi: 1.4,
            seed: 52,
        },
    );
    let ids: Vec<_> = p.ids().collect();
    let mut sky = skyline_bnl(&p, &ids);
    sky.sort(); // a view requires an id-sorted skyline
    let sky_blocks = sky.len().div_ceil(DOM_BLOCK) as u64;
    let cost_fn = SumCost::reciprocal(3, 1e-2);
    let cfg = UpgradeConfig::default();

    for threads in [1, 2, 4] {
        let view = SkylineView::new(&p, &sky);
        let next = AtomicUsize::new(0);
        let mut m = QueryMetrics::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = QueryMetrics::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= t.len() {
                                break local;
                            }
                            let tp = t.point(skyup::geom::PointId(i as u32));
                            view.answer(&p, &sky, tp, &cost_fn, &cfg, &mut local);
                        }
                    })
                })
                .collect();
            for w in workers {
                m.absorb(&w.join().expect("view worker"));
            }
        });
        let full_scans = t.len() as u64 - m.get(Counter::DominatorMemoHits);
        assert_eq!(
            m.get(Counter::KernelBlockScans) + m.get(Counter::KernelBlocksSkipped),
            full_scans * sky_blocks,
            "threads={threads}: kernel blocks lost or double-counted"
        );
        // Every full scan is a collect pass over the gathered skyline,
        // and a memo hit filters a list no longer than the skyline, so
        // the points compared never exceed one skyline sweep per product.
        assert!(m.get(Counter::DominanceTests) <= t.len() as u64 * sky.len() as u64);
    }
}

#[test]
fn single_set_agrees_with_probing_against_self() {
    // Splitting a catalog into {t} vs rest, probing each singleton,
    // must equal the single-set sweep.
    let store = generate(
        300,
        &SyntheticConfig::unit(3, Distribution::Independent, 77),
    );
    let tree = RTree::bulk_load(&store, RTreeParams::with_max_entries(16));
    let cost_fn = SumCost::reciprocal(3, 1e-2);
    let cfg = UpgradeConfig::default();

    let sweep = single_set_topk(&store, &tree, None, 300, &cost_fn, &cfg);
    assert_eq!(sweep.len(), 300);

    // Reference: per-product dominator skyline via scan + Algorithm 1.
    use skyup::core::upgrade_single;
    use skyup::geom::dominance::dominates;
    use skyup::skyline::skyline_naive;
    for r in sweep.iter().take(40) {
        let t = store.point(r.product);
        let dominators: Vec<_> = store
            .iter()
            .filter(|(id, c)| *id != r.product && dominates(c, t))
            .map(|(id, _)| id)
            .collect();
        let sky = skyline_naive(&store, &dominators);
        let (cost, _) = upgrade_single(&store, &sky, t, &cost_fn, &cfg);
        assert!((cost - r.cost).abs() < 1e-9, "product {:?}", r.product);
    }
}

#[test]
fn extreme_k_values() {
    let p = generate(400, &SyntheticConfig::unit(2, Distribution::Independent, 5));
    let t = generate(
        50,
        &SyntheticConfig {
            dims: 2,
            distribution: Distribution::Independent,
            lo: 1.0,
            hi: 2.0,
            seed: 6,
        },
    );
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let rt = RTree::bulk_load(&t, RTreeParams::default());
    let cost_fn = SumCost::reciprocal(2, 1e-2);
    let cfg = UpgradeConfig::default();

    // k = 1.
    let one = improved_probing_topk(&p, &rp, &t, 1, &cost_fn, &cfg);
    assert_eq!(one.len(), 1);
    // k > |T|: everything returned, still sorted.
    let all = improved_probing_topk(&p, &rp, &t, 1000, &cost_fn, &cfg);
    assert_eq!(all.len(), 50);
    assert!(all.windows(2).all(|w| w[0].cost <= w[1].cost));
    assert!((one[0].cost - all[0].cost).abs() < 1e-12);
    // Join agrees on the full ranking.
    let join: Vec<_> = JoinUpgrader::new(&p, &rp, &t, &rt, &cost_fn, cfg, LowerBound::Conservative)
        .with_bound_mode(BoundMode::Admissible)
        .collect();
    assert_eq!(join.len(), 50);
    for (a, b) in join.iter().zip(&all) {
        assert!((a.cost - b.cost).abs() < 1e-9);
    }
}

#[test]
fn one_dimensional_space() {
    // Degenerate but legal: upgrades must undercut the global minimum.
    let p = PointStore::from_rows(1, vec![vec![0.5], vec![0.3], vec![0.9]]);
    let t = PointStore::from_rows(1, vec![vec![0.7], vec![0.95]]);
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let cost_fn = SumCost::reciprocal(1, 1e-2);
    let cfg = UpgradeConfig::with_epsilon(1e-3);
    let out = improved_probing_topk(&p, &rp, &t, 2, &cost_fn, &cfg);
    assert_eq!(out.len(), 2);
    for r in &out {
        assert!(r.upgraded[0] < 0.3, "must beat the best competitor");
    }
    // The closer product is cheaper to upgrade.
    assert_eq!(out[0].product, skyup::geom::PointId(0));
}
