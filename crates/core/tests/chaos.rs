//! Chaos and anytime-degradation suite for the guarded `try_*` APIs.
//!
//! Three families of properties:
//!
//! 1. **Anytime soundness** — under any node-visit / heap / deadline
//!    budget, every variant returns `Ok` with a tagged best-so-far
//!    answer whose per-product upgrades are *exact* (identical to the
//!    unlimited run's), never a panic and never a garbage result.
//! 2. **Fault containment** — deterministically injected worker panics
//!    are caught at the unwind barrier and surfaced as structured
//!    errors; injected stalls and spurious cancellations degrade to
//!    `Partial` instead of hanging or crashing.
//! 3. **Bit-identity** — with no limits, the `try_*` twins reproduce
//!    the historical infallible outputs exactly.

use skyup_core::cost::SumCost;
use skyup_core::join::join_topk;
use skyup_core::{
    basic_probing_topk, improved_probing_topk, improved_probing_topk_scheduled_rec,
    try_basic_probing_topk, try_improved_probing_topk, try_improved_probing_topk_scheduled,
    try_join_topk, try_upgrade_single, upgrade_single, AnytimeTopK, JoinUpgrader, ProbeStrategy,
    SkyupError, UpgradeConfig, UpgradeResult,
};
use skyup_core::{CancellationToken, Completion, ExecutionLimits, Interrupt};
use skyup_data::synthetic::{paper_competitors, paper_products, Distribution};
use skyup_geom::{PointId, PointStore};
use skyup_obs::{Counter, FaultPlan, NullRecorder, QueryMetrics};
use skyup_rtree::{RTree, RTreeParams};
use std::time::Duration;

use skyup_core::join::LowerBound;

const DIMS: usize = 3;

fn setup(n_p: usize, n_t: usize, seed: u64) -> (PointStore, RTree, PointStore) {
    let p = paper_competitors(n_p, DIMS, Distribution::Independent, seed);
    let t = paper_products(n_t, DIMS, Distribution::Independent, seed ^ 0xfeed);
    let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
    (p, rp, t)
}

fn cost() -> SumCost {
    SumCost::reciprocal(DIMS, 1e-3)
}

/// Guarded scheduled probing with default config and no recorder; the
/// evaluated/pruned split is dropped.
fn try_scheduled(
    p: &PointStore,
    rp: &RTree,
    t: &PointStore,
    k: usize,
    threads: usize,
    strategy: ProbeStrategy,
    limits: &ExecutionLimits,
) -> Result<AnytimeTopK, SkyupError> {
    let cfg = UpgradeConfig::default();
    try_improved_probing_topk_scheduled(
        p,
        rp,
        t,
        k,
        &cost(),
        &cfg,
        threads,
        strategy,
        limits,
        &mut NullRecorder,
    )
    .map(|(any, _)| any)
}

/// The unlimited run's exact upgrade for every product, by id.
fn full_ranking(p: &PointStore, rp: &RTree, t: &PointStore) -> Vec<UpgradeResult> {
    improved_probing_topk(p, rp, t, t.len(), &cost(), &UpgradeConfig::default())
}

/// The exact top-k over the first `prefix` products of `T`, derived
/// from the full ranking — what a sequential anytime run interrupted
/// after `prefix` products must return.
fn expected_prefix_topk(full: &[UpgradeResult], prefix: usize, k: usize) -> Vec<UpgradeResult> {
    let mut sub: Vec<UpgradeResult> = full
        .iter()
        .filter(|r| (r.product.0 as usize) < prefix)
        .cloned()
        .collect();
    sub.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(a.product.0.cmp(&b.product.0))
    });
    sub.truncate(k);
    sub
}

/// Asserts every returned result carries the exact unlimited upgrade
/// for its product and that the list is sorted the way `TopK` sorts.
fn assert_results_exact_and_sorted(out: &AnytimeTopK, full: &[UpgradeResult]) {
    for r in &out.results {
        let truth = full
            .iter()
            .find(|f| f.product == r.product)
            .expect("unknown product in partial answer");
        assert_eq!(r, truth, "partial answer altered a per-product upgrade");
    }
    assert!(out
        .results
        .windows(2)
        .all(|w| w[0].cost < w[1].cost
            || (w[0].cost == w[1].cost && w[0].product.0 < w[1].product.0)));
}

#[test]
fn budget_sweep_sequential_variants_degrade_to_exact_prefix_topk() {
    let (p, rp, t) = setup(1200, 150, 0xc0de);
    let k = 10;
    let cfg = UpgradeConfig::default();
    let full = full_ranking(&p, &rp, &t);
    let exact_basic = basic_probing_topk(&p, &rp, &t, k, &cost(), &cfg);
    let exact_improved = improved_probing_topk(&p, &rp, &t, k, &cost(), &cfg);

    let mut saw_partial = 0usize;
    for budget in [1u64, 3, 10, 30, 100, 300, 1000, 3000, 10_000, u64::MAX / 2] {
        let limits = ExecutionLimits::none().with_max_node_visits(budget);

        let basic =
            try_basic_probing_topk(&p, &rp, &t, k, &cost(), &cfg, &limits, &mut NullRecorder)
                .expect("budget exhaustion is a degradation, not an error");
        assert_results_exact_and_sorted(&basic, &full);
        match basic.completion {
            Completion::Exact => assert_eq!(basic.results, exact_basic),
            Completion::Partial(i) => {
                assert_eq!(i, Interrupt::NodeVisitBudget);
                assert_eq!(
                    basic.results,
                    expected_prefix_topk(&full, basic.evaluated, k)
                );
                saw_partial += 1;
            }
        }

        let improved =
            try_improved_probing_topk(&p, &rp, &t, k, &cost(), &cfg, &limits, &mut NullRecorder)
                .expect("budget exhaustion is a degradation, not an error");
        assert_results_exact_and_sorted(&improved, &full);
        match improved.completion {
            Completion::Exact => assert_eq!(improved.results, exact_improved),
            Completion::Partial(_) => {
                assert_eq!(
                    improved.results,
                    expected_prefix_topk(&full, improved.evaluated, k)
                );
                saw_partial += 1;
            }
        }

        // The bound-sorted scheduler walks T in bound order, not id
        // order, so its partial answer is no id prefix; the contract is
        // exact per-product upgrades, sorted, at most min(k, evaluated).
        let sorted = try_scheduled(&p, &rp, &t, k, 1, ProbeStrategy::BoundSorted, &limits)
            .expect("budget exhaustion is a degradation, not an error");
        assert_results_exact_and_sorted(&sorted, &full);
        assert!(sorted.results.len() <= k.min(sorted.evaluated));
        match sorted.completion {
            Completion::Exact => assert_eq!(sorted.results, exact_improved),
            Completion::Partial(_) => saw_partial += 1,
        }
    }
    // The sweep's small budgets must actually have exercised the
    // degradation path.
    assert!(saw_partial >= 6, "only {saw_partial} partial completions");
}

#[test]
fn budget_sweep_work_stealing_results_stay_exact_per_product() {
    let (p, rp, t) = setup(1000, 120, 0xbead);
    let k = 8;
    let cfg = UpgradeConfig::default();
    let full = full_ranking(&p, &rp, &t);
    let exact = improved_probing_topk(&p, &rp, &t, k, &cost(), &cfg);

    let mut saw_partial = false;
    for budget in [1u64, 20, 200, 2000, 20_000, u64::MAX / 2] {
        for threads in [1usize, 3, 8] {
            let limits = ExecutionLimits::none().with_max_node_visits(budget);
            let out = try_scheduled(
                &p,
                &rp,
                &t,
                k,
                threads,
                ProbeStrategy::WorkStealing,
                &limits,
            )
            .expect("budget exhaustion is a degradation, not an error");
            // The merged answer is the exact top-k over the union of
            // per-worker prefixes: every entry is an exact per-product
            // upgrade and the list is sorted. With an exhausted budget
            // of 1 it may be empty; it is never garbage.
            assert_results_exact_and_sorted(&out, &full);
            assert!(out.results.len() <= k.min(out.evaluated));
            if out.is_exact() {
                assert_eq!(out.results, exact, "threads={threads} budget={budget}");
            } else {
                saw_partial = true;
            }
        }
    }
    assert!(saw_partial);
}

#[test]
fn join_partial_is_exact_prefix_of_unlimited_emission() {
    let (p, rp, t) = setup(900, 80, 0x901e);
    let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
    let cfg = UpgradeConfig::default();
    let unlimited: Vec<UpgradeResult> =
        JoinUpgrader::new(&p, &rp, &t, &rt, &cost(), cfg, LowerBound::Conservative).collect();
    assert_eq!(unlimited.len(), t.len());

    let mut saw_partial = false;
    for budget in [1u64, 5, 25, 125, 625, 5000, 50_000] {
        let limits = ExecutionLimits::none().with_max_node_visits(budget);
        let out = try_join_topk(
            &p,
            &rp,
            &t,
            &rt,
            t.len(),
            &cost(),
            cfg,
            LowerBound::Conservative,
            &limits,
            &mut NullRecorder,
        )
        .expect("budget exhaustion is a degradation, not an error");
        assert_eq!(
            out.results,
            unlimited[..out.results.len()],
            "budget={budget}: partial join output is not a prefix of the \
             unlimited emission sequence"
        );
        if out.is_exact() {
            assert_eq!(out.results.len(), unlimited.len());
        } else {
            saw_partial = true;
        }
    }
    assert!(saw_partial);

    // The heap budget degrades the same way, tagged with its own reason.
    let limits = ExecutionLimits::none().with_max_heap_entries(8);
    let out = try_join_topk(
        &p,
        &rp,
        &t,
        &rt,
        t.len(),
        &cost(),
        cfg,
        LowerBound::Conservative,
        &limits,
        &mut NullRecorder,
    )
    .unwrap();
    assert_eq!(out.completion, Completion::Partial(Interrupt::HeapBudget));
    assert_eq!(out.results, unlimited[..out.results.len()]);
}

#[test]
fn injected_worker_panic_is_contained_and_reported() {
    let (p, rp, t) = setup(1500, 160, 0xdead);
    let cfg = UpgradeConfig::default();
    // Panic at the 25th global node visit: with 4 workers racing, some
    // worker trips it early in the run.
    let limits = ExecutionLimits::none().with_faults(FaultPlan::new().panic_at_visit(25));
    let mut metrics = QueryMetrics::new();
    let err = try_improved_probing_topk_scheduled(
        &p,
        &rp,
        &t,
        10,
        &cost(),
        &cfg,
        4,
        ProbeStrategy::WorkStealing,
        &limits,
        &mut metrics,
    )
    .expect_err("the injected panic must surface as an error");
    match err {
        SkyupError::WorkerPanicked {
            worker,
            ref message,
        } => {
            assert!(worker < 4, "worker index out of range: {worker}");
            assert!(
                message.contains("fault injection"),
                "panic payload lost: {message}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(err.to_string().contains("panicked"));
    assert_eq!(metrics.get(Counter::WorkerPanics), 1);
    // Containment: the surviving workers' output was dropped, nothing
    // was merged, and — crucially — the process is still alive to run
    // this assertion.
}

#[test]
fn injected_stall_burns_the_deadline_to_partial() {
    let (p, rp, t) = setup(600, 60, 0x51a1);
    let cfg = UpgradeConfig::default();
    let limits = ExecutionLimits::none()
        .with_deadline(Duration::from_millis(20))
        .with_faults(FaultPlan::new().stall_at_visit(1, Duration::from_millis(60)));
    let out = try_improved_probing_topk(&p, &rp, &t, 5, &cost(), &cfg, &limits, &mut NullRecorder)
        .expect("a stall is a degradation, not an error");
    assert_eq!(
        out.completion,
        Completion::Partial(Interrupt::DeadlineExceeded)
    );
    // The stall hit the very first traversal: nothing was evaluated.
    assert_eq!(out.evaluated, 0);
    assert!(out.results.is_empty());
}

#[test]
fn injected_cancellation_yields_partial_cancelled() {
    let (p, rp, t) = setup(600, 60, 0xca9c);
    let cfg = UpgradeConfig::default();
    let full = full_ranking(&p, &rp, &t);
    let limits = ExecutionLimits::none().with_faults(FaultPlan::new().cancel_at_visit(40));
    let mut metrics = QueryMetrics::new();
    let out = try_basic_probing_topk(&p, &rp, &t, 5, &cost(), &cfg, &limits, &mut metrics)
        .expect("cancellation is a degradation, not an error");
    assert_eq!(out.completion, Completion::Partial(Interrupt::Cancelled));
    assert_eq!(out.results, expected_prefix_topk(&full, out.evaluated, 5));
    assert_eq!(metrics.get(Counter::LimitInterrupts), 1);
    assert!(metrics.get(Counter::GuardedNodeVisits) >= 40);
}

#[test]
fn external_token_cancels_before_any_work() {
    let (p, rp, t) = setup(400, 40, 0x70ce);
    let token = CancellationToken::new();
    token.cancel();
    let limits = ExecutionLimits::none().with_token(token);
    let out = try_improved_probing_topk(
        &p,
        &rp,
        &t,
        5,
        &cost(),
        &UpgradeConfig::default(),
        &limits,
        &mut NullRecorder,
    )
    .unwrap();
    assert_eq!(out.completion, Completion::Partial(Interrupt::Cancelled));
    assert!(out.results.is_empty());
    assert_eq!(out.evaluated, 0);
}

#[test]
fn unlimited_try_twins_are_bit_identical_to_infallible() {
    let (p, rp, t) = setup(800, 90, 0xb17);
    let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
    let cfg = UpgradeConfig::default();
    let k = 12;
    let none = ExecutionLimits::none();

    let basic =
        try_basic_probing_topk(&p, &rp, &t, k, &cost(), &cfg, &none, &mut NullRecorder).unwrap();
    assert!(basic.is_exact());
    assert_eq!(
        basic.results,
        basic_probing_topk(&p, &rp, &t, k, &cost(), &cfg)
    );

    let improved =
        try_improved_probing_topk(&p, &rp, &t, k, &cost(), &cfg, &none, &mut NullRecorder).unwrap();
    assert!(improved.is_exact());
    assert_eq!(
        improved.results,
        improved_probing_topk(&p, &rp, &t, k, &cost(), &cfg)
    );

    for (strategy, threads) in [
        (ProbeStrategy::BoundSorted, 1),
        (ProbeStrategy::WorkStealing, 4),
    ] {
        let (guarded, stats) = try_improved_probing_topk_scheduled(
            &p,
            &rp,
            &t,
            k,
            &cost(),
            &cfg,
            threads,
            strategy,
            &none,
            &mut NullRecorder,
        )
        .unwrap();
        let (plain, plain_stats) = improved_probing_topk_scheduled_rec(
            &p,
            &rp,
            &t,
            k,
            &cost(),
            &cfg,
            threads,
            strategy,
            &mut NullRecorder,
        );
        assert!(guarded.is_exact());
        assert_eq!(guarded.results, plain, "{strategy:?} threads={threads}");
        assert_eq!(stats, plain_stats, "{strategy:?} threads={threads}");
    }

    let join = try_join_topk(
        &p,
        &rp,
        &t,
        &rt,
        k,
        &cost(),
        cfg,
        LowerBound::Aggressive,
        &none,
        &mut NullRecorder,
    )
    .unwrap();
    assert!(join.is_exact());
    assert_eq!(
        join.results,
        join_topk(&p, &rp, &t, &rt, k, &cost(), cfg, LowerBound::Aggressive)
    );
}

#[test]
fn invalid_inputs_are_structured_errors_not_panics() {
    let (p, rp, t) = setup(100, 10, 0xbad);
    let cfg = UpgradeConfig::default();
    let none = ExecutionLimits::none();

    // k == 0.
    assert!(matches!(
        try_improved_probing_topk(&p, &rp, &t, 0, &cost(), &cfg, &none, &mut NullRecorder),
        Err(SkyupError::InvalidConfig(_))
    ));

    // Empty competitor set.
    let empty = PointStore::new(DIMS);
    let r_empty = RTree::bulk_load(&empty, RTreeParams::default());
    assert!(matches!(
        try_basic_probing_topk(
            &empty,
            &r_empty,
            &t,
            3,
            &cost(),
            &cfg,
            &none,
            &mut NullRecorder
        ),
        Err(SkyupError::EmptyCompetitorSet)
    ));

    // Dimensionality mismatch.
    let t2 = PointStore::new(2);
    assert!(matches!(
        try_improved_probing_topk(&p, &rp, &t2, 3, &cost(), &cfg, &none, &mut NullRecorder),
        Err(SkyupError::DimensionMismatch {
            p_dims: 3,
            t_dims: 2
        })
    ));

    // Stale index.
    assert!(matches!(
        try_improved_probing_topk(&p, &r_empty, &t, 3, &cost(), &cfg, &none, &mut NullRecorder),
        Err(SkyupError::IndexMismatch { tree: "R_P", .. })
    ));

    // Zero worker threads.
    assert!(matches!(
        try_scheduled(&p, &rp, &t, 3, 0, ProbeStrategy::WorkStealing, &none),
        Err(SkyupError::InvalidConfig(_))
    ));

    // Non-monotone cost function, caught by the sampler.
    use skyup_core::cost::AttributeCost;
    struct Increasing;
    impl AttributeCost for Increasing {
        fn eval(&self, v: f64) -> f64 {
            v
        }
    }
    let broken = SumCost::new(vec![
        Box::new(Increasing),
        Box::new(Increasing),
        Box::new(Increasing),
    ]);
    assert!(matches!(
        try_improved_probing_topk(&p, &rp, &t, 3, &broken, &cfg, &none, &mut NullRecorder),
        Err(SkyupError::NonMonotoneCost(_))
    ));

    // The join validates both indexes.
    let rt = RTree::bulk_load(&t, RTreeParams::default());
    assert!(matches!(
        try_join_topk(
            &p,
            &rp,
            &t,
            &r_empty,
            3,
            &cost(),
            cfg,
            LowerBound::Conservative,
            &none,
            &mut NullRecorder
        ),
        Err(SkyupError::IndexMismatch { tree: "R_T", .. })
    ));
    let _ = rt;
}

#[test]
fn try_upgrade_single_checks_the_contract() {
    let mut p = PointStore::new(2);
    let s1 = p.push(&[0.2, 0.6]);
    let s2 = p.push(&[0.5, 0.3]);
    let far = p.push(&[0.9, 0.9]); // does not dominate t
    let t = [0.7, 0.8];
    let cost2 = SumCost::reciprocal(2, 1e-2);
    let cfg = UpgradeConfig::default();

    // Happy path matches the panicking entry point exactly.
    let fallible = try_upgrade_single(&p, &[s1, s2], &t, &cost2, &cfg).unwrap();
    assert_eq!(fallible, upgrade_single(&p, &[s1, s2], &t, &cost2, &cfg));

    // Dimensionality mismatch.
    assert!(matches!(
        try_upgrade_single(&p, &[s1], &[0.7, 0.8, 0.9], &cost2, &cfg),
        Err(SkyupError::DimensionMismatch { .. })
    ));

    // Non-finite product coordinate.
    let err = try_upgrade_single(&p, &[s1], &[f64::NAN, 0.8], &cost2, &cfg).unwrap_err();
    assert!(matches!(err, SkyupError::InvalidInput(_)));
    assert!(err.to_string().contains("finite"));

    // Out-of-bounds skyline id.
    assert!(matches!(
        try_upgrade_single(&p, &[PointId(99)], &t, &cost2, &cfg),
        Err(SkyupError::InvalidInput(_))
    ));

    // A "skyline" point that does not dominate the product.
    let err = try_upgrade_single(&p, &[far], &t, &cost2, &cfg).unwrap_err();
    assert!(err.to_string().contains("does not dominate"));
}

#[test]
fn tiny_deadline_never_panics_and_tags_partial() {
    let (p, rp, t) = setup(500, 50, 0x717e);
    let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(8));
    let cfg = UpgradeConfig::default();
    let limits = ExecutionLimits::none().with_deadline(Duration::ZERO);

    let b =
        try_basic_probing_topk(&p, &rp, &t, 5, &cost(), &cfg, &limits, &mut NullRecorder).unwrap();
    let i = try_improved_probing_topk(&p, &rp, &t, 5, &cost(), &cfg, &limits, &mut NullRecorder)
        .unwrap();
    let bs = try_scheduled(&p, &rp, &t, 5, 1, ProbeStrategy::BoundSorted, &limits).unwrap();
    let ws = try_scheduled(&p, &rp, &t, 5, 3, ProbeStrategy::WorkStealing, &limits).unwrap();
    let j = try_join_topk(
        &p,
        &rp,
        &t,
        &rt,
        5,
        &cost(),
        cfg,
        LowerBound::Conservative,
        &limits,
        &mut NullRecorder,
    )
    .unwrap();
    for out in [&b, &i, &bs, &ws, &j] {
        assert_eq!(
            out.completion,
            Completion::Partial(Interrupt::DeadlineExceeded)
        );
        assert!(out.results.is_empty());
    }
}
