//! Integration tests for the library extensions: floors, discrete
//! domains, skybands, the probe scheduler, the single-set
//! variant, and the optimal-upgrade oracle — exercised through the
//! facade crate the way a downstream user would.

use skyup::core::cost::SumCost;
use skyup::core::{
    improved_probing_topk, improved_probing_topk_scheduled_rec, optimal_upgrade, single_set_topk,
    upgrade_single, upgrade_single_discrete, upgrade_single_with_floors, DiscreteDomains,
    ProbeStrategy, UpgradeConfig,
};
use skyup::data::synthetic::{
    generate, paper_competitors, paper_products, Distribution, SyntheticConfig,
};
use skyup::geom::dominance::dominates;
use skyup::geom::{PointId, PointStore};
use skyup::rtree::{RTree, RTreeParams};
use skyup::skyline::{dominating_skyline, dominator_count, skyband, skyline_sfs};

fn cost2() -> SumCost {
    SumCost::reciprocal(2, 1e-2)
}

#[test]
fn skyband_ranks_upgrade_candidates() {
    // Products in low skybands (few dominators) are the cheap upgrades
    // the top-k query surfaces: verify the correlation on real output.
    let p = paper_competitors(2000, 2, Distribution::Independent, 21);
    let t = generate(
        200,
        &SyntheticConfig {
            dims: 2,
            distribution: Distribution::Independent,
            lo: 0.2,
            hi: 1.2,
            seed: 22,
        },
    );
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let cfg = UpgradeConfig::default();
    let cost = cost2();
    let ranking = improved_probing_topk(&p, &rp, &t, 200, &cost, &cfg);

    let p_ids: Vec<PointId> = p.ids().collect();
    let counts: Vec<usize> = ranking
        .iter()
        .map(|r| dominator_count(&p, &p_ids, &r.original))
        .collect();
    // The cheapest quartile should average far fewer dominators than
    // the most expensive quartile.
    let q = counts.len() / 4;
    let cheap: f64 = counts[..q].iter().sum::<usize>() as f64 / q as f64;
    let dear: f64 = counts[counts.len() - q..].iter().sum::<usize>() as f64 / q as f64;
    assert!(
        cheap < dear,
        "cheap quartile has {cheap} dominators on average vs {dear}"
    );
}

#[test]
fn skyband_of_catalog_contains_all_zero_cost_products() {
    let store = generate(
        300,
        &SyntheticConfig::unit(3, Distribution::Independent, 23),
    );
    let tree = RTree::bulk_load(&store, RTreeParams::default());
    let cost = SumCost::reciprocal(3, 1e-2);
    let plan = single_set_topk(&store, &tree, None, 300, &cost, &UpgradeConfig::default());
    let ids: Vec<PointId> = store.ids().collect();
    let band1: std::collections::HashSet<PointId> = skyband(&store, &ids, 1)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    for r in &plan {
        assert_eq!(
            r.cost == 0.0,
            band1.contains(&r.product),
            "zero-cost products are exactly the skyline (product {:?})",
            r.product
        );
    }
}

#[test]
fn floors_interpolate_between_free_and_infeasible() {
    let p = paper_competitors(500, 2, Distribution::Independent, 31);
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let t = [1.1, 1.1];
    let sky = dominating_skyline(&p, &rp, &t);
    let cost = cost2();
    let cfg = UpgradeConfig::default();

    let (unconstrained, _) = upgrade_single(&p, &sky, &t, &cost, &cfg);
    // No floors: matches Algorithm 1.
    let loose =
        upgrade_single_with_floors(&p, &sky, &t, &[f64::NEG_INFINITY; 2], &cost, &cfg).unwrap();
    assert!((loose.cost - unconstrained).abs() < 1e-9);

    // Progressively raising floors only raises costs, until infeasible.
    let mut last = loose.cost;
    let mut became_infeasible = false;
    for floor in [0.0, 0.2, 0.4, 0.6, 0.9] {
        match upgrade_single_with_floors(&p, &sky, &t, &[floor, floor], &cost, &cfg) {
            Some(out) => {
                assert!(
                    out.cost + 1e-9 >= last,
                    "floor {floor}: cost decreased {last} -> {}",
                    out.cost
                );
                assert!(out.upgraded.iter().all(|&v| v >= floor));
                last = out.cost;
            }
            None => {
                became_infeasible = true;
                break;
            }
        }
    }
    assert!(became_infeasible, "high floors must eventually trap t");
}

#[test]
fn discrete_grid_results_live_on_the_grid_and_cost_more() {
    let p = paper_competitors(400, 2, Distribution::AntiCorrelated, 41);
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let cost = cost2();
    let cfg = UpgradeConfig::default();
    let domains = DiscreteDomains::uniform(2, 0.0, 0.05, 41); // 0.00..2.00

    for seed in 0..10u64 {
        // Products on the grid inside (1, 2]^2 — taken straight from the
        // level lists so membership is bit-exact.
        let t = [
            domains.levels(0)[21 + (seed % 7) as usize],
            domains.levels(1)[23 + (seed % 5) as usize],
        ];
        let sky = dominating_skyline(&p, &rp, &t);
        if sky.is_empty() {
            continue;
        }
        let (cont, _) = upgrade_single(&p, &sky, &t, &cost, &cfg);
        if let Some((disc, up)) = upgrade_single_discrete(&p, &sky, &t, &domains, &cost, &cfg) {
            assert!(domains.contains(&up));
            assert!(
                disc + 1e-9 >= cont,
                "discrete cost {disc} below continuous {cont}"
            );
            assert!(!sky.iter().any(|&s| dominates(p.point(s), &up)));
        }
    }
}

#[test]
fn parallel_and_pruned_probing_match_baseline() {
    let p = paper_competitors(3000, 3, Distribution::Independent, 51);
    let t = paper_products(400, 3, Distribution::Independent, 52);
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let cost = SumCost::reciprocal(3, 1e-3);
    let cfg = UpgradeConfig::default();

    let baseline = improved_probing_topk(&p, &rp, &t, 7, &cost, &cfg);
    // "Parallel" is work stealing across 4 threads; "pruned" is the
    // bound-sorted screen at 1 thread.
    let scheduled = |threads, strategy| {
        improved_probing_topk_scheduled_rec(
            &p,
            &rp,
            &t,
            7,
            &cost,
            &cfg,
            threads,
            strategy,
            &mut skyup::obs::NullRecorder,
        )
    };
    let (parallel, _) = scheduled(4, ProbeStrategy::WorkStealing);
    let (pruned, stats) = scheduled(1, ProbeStrategy::BoundSorted);

    for (a, b) in baseline.iter().zip(&parallel) {
        assert_eq!(a.product, b.product);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }
    for (a, b) in baseline.iter().zip(&pruned) {
        assert_eq!(a.product, b.product);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }
    assert_eq!(stats.evaluated + stats.pruned, 400);
}

#[test]
fn optimal_oracle_bounds_all_heuristics() {
    let p = generate(
        100,
        &SyntheticConfig::unit(2, Distribution::AntiCorrelated, 61),
    );
    let ids: Vec<PointId> = p.ids().collect();
    let cost = cost2();
    let cfg = UpgradeConfig::default();
    for seed in 0..10 {
        let t = [0.9 + 0.01 * seed as f64, 0.95 + 0.005 * seed as f64];
        let dominators: Vec<PointId> = ids
            .iter()
            .copied()
            .filter(|&id| dominates(p.point(id), &t))
            .collect();
        let sky = skyline_sfs(&p, &dominators);
        if sky.is_empty() {
            continue;
        }
        let (opt, opt_up) = optimal_upgrade(&p, &sky, &t, &cost, &cfg);
        let (alg, _) = upgrade_single(&p, &sky, &t, &cost, &cfg);
        assert!(opt <= alg + 1e-9);
        assert!(!sky.iter().any(|&s| dominates(p.point(s), &opt_up)));
        // The floors version with no floors also respects the oracle.
        let floors =
            upgrade_single_with_floors(&p, &sky, &t, &[f64::NEG_INFINITY; 2], &cost, &cfg).unwrap();
        assert!(opt <= floors.cost + 1e-9);
    }
}

#[test]
fn monotonicity_diagnostics_pass_on_experiment_configuration() {
    use skyup::core::cost::{verify_monotone_axes, verify_monotone_on};
    let store = generate(
        200,
        &SyntheticConfig::unit(3, Distribution::Independent, 71),
    );
    let cost = SumCost::reciprocal(3, 1e-3);
    assert!(verify_monotone_on(&cost, &store, usize::MAX).is_ok());
    assert!(verify_monotone_axes(&cost, 0.0, 2.0, 128).is_ok());
}

#[test]
fn cli_module_reachable_from_facade() {
    let err = skyup::cli::Config::parse(&["--help".to_string()]).unwrap_err();
    assert!(err.contains("usage:"));
}

#[test]
fn deleted_competitors_reopen_the_market() {
    // Remove the strongest competitors and watch upgrade costs drop.
    let mut p = PointStore::new(2);
    for i in 0..50 {
        let v = 0.3 + 0.01 * i as f64;
        p.push(&[v, 0.8 - 0.01 * i as f64]);
    }
    let strong = p.push(&[0.05, 0.05]); // dominates everything below
    let mut rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
    let t = PointStore::from_rows(2, vec![vec![0.9, 0.9]]);
    let cost = cost2();
    let cfg = UpgradeConfig::default();

    let before = improved_probing_topk(&p, &rp, &t, 1, &cost, &cfg)[0].cost;
    assert!(rp.remove(&p, strong));
    let after = improved_probing_topk(&p, &rp, &t, 1, &cost, &cfg)[0].cost;
    assert!(
        after < before,
        "removing the dominant competitor must cheapen upgrades ({before} -> {after})"
    );
}
