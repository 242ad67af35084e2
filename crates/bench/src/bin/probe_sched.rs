//! Probe-scheduler shoot-out: work stealing vs. bound-sorted work
//! stealing at 1/2/4/8 threads, plus the paper's join on the same
//! instance, as JSON.
//!
//! The workload is a fig8-scale synthetic: anti-correlated `P` on the
//! unit cube (many skyline points, so `getDominatingSky` has real work
//! to do) and uncompetitive `T` shifted to `[0.3, 1.3]` under a linear
//! per-attribute cost — the regime where the admissible list bound is
//! positive and the shared-threshold screen actually fires. Every
//! scheduled run is checked bit-for-bit against the sequential
//! `improved_probing_topk` oracle before its timing is trusted.
//!
//! The join row (`join_runs`, path `paper`) runs `JoinUpgrader::new`
//! with CLB and the paper bound mode, as the ledger's `paper_topk` does.
//! Its results and every counter but `guarded_node_visits` must equal
//! the same join under a node budget of `u64::MAX`: armed limits
//! resolve one product at a time, so this checks the look-ahead
//! resolution against the sequential join on every run, smoke scale
//! included — on a host with more than one CPU; on one CPU both sides
//! resolve one product at a time. The header and the join row record
//! `available_parallelism`, which decides how many threads the join
//! resolves on.
//!
//! A second join row (path `paper_domain`) runs the same join on the
//! paper's own domain: `P` from `paper_competitors` and `T` from
//! `paper_products` on `(1, 2]³`, where every product is dominated by
//! all of `skyline(P)` and a top-k query resolves about k products. It
//! records the time to the first result and to the k-th, with the
//! look-ahead and one product at a time, and asserts the same equality.
//! Its timings are reported, not gated; its counts are pinned.
//!
//! The `runs` rows carry a `domain`: `interleaved` for the strategy ×
//! thread grid above, and one `paper` row running 2-thread bound-sorted
//! probing on that same `(1, 2]³` instance, as the ledger's
//! `paper_topk` runs the scheduler, checked bit for bit against
//! sequential `improved_probing_topk` like every other row. Its
//! `sequential_wall_us` times that oracle on the paper's domain.
//!
//! `index_build_us` is the median time of the bench's own `R_P` plus
//! `R_T` bulk loads and of one 100k-point anti-correlated tree
//! (reported, not gated).
//!
//! Wall-clock is the machine-dependent half of the output; the counter
//! snapshot (`ProductsEvaluated`, `ThresholdPrunes`, `StealEvents`, …)
//! is the machine-independent half, so scheduler regressions show up as
//! diffs of `bench_results/BENCH_probing.json` even when timings drift.
//! Set `SKYUP_BENCH_OUT` to redirect the report (CI smoke runs do).

use std::time::{Duration, Instant};

use skyup_bench::runner::build_trees;
use skyup_bench::{fmt_duration, parse_args, time};
use skyup_core::cost::{AttributeCost, LinearCost, SumCost};
use skyup_core::{
    improved_probing_topk, improved_probing_topk_scheduled_rec, BoundMode, ExecutionLimits,
    JoinUpgrader, LowerBound, ProbeStrategy, UpgradeConfig, UpgradeResult,
};
use skyup_data::synthetic::{
    generate, paper_competitors, paper_products, Distribution, SyntheticConfig,
};
use skyup_geom::kernel_isa;
use skyup_obs::json::Json;
use skyup_obs::{Counter, QueryMetrics, Recorder};
use skyup_rtree::{RTree, RTreeParams};

/// Timed calls per configuration, at least; the median is reported.
const SAMPLES: usize = 5;
/// Calls continue until this much time is timed, so a configuration
/// that runs in a few milliseconds reports the median of dozens of
/// calls: on a shared 2-vCPU host about one multi-threaded call in ten
/// waits milliseconds for a worker to be scheduled.
const MIN_TIMED: Duration = Duration::from_millis(100);
/// Top-k size — small enough that the threshold tightens early.
const K: usize = 10;
const DIMS: usize = 3;
/// Points in the anti-correlated tree `index_build_us` times, at every
/// scale.
const INDEX_BUILD_POINTS: usize = 100_000;
/// Threads of the paper-domain probing row, as the ledger's
/// `paper_topk` runs the scheduler.
const PAPER_THREADS: usize = 2;

fn linear_cost(dims: usize) -> SumCost {
    SumCost::new(
        (0..dims)
            .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
            .collect(),
    )
}

fn counters_json(m: &QueryMetrics) -> Json {
    Json::obj(
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), Json::Num(m.get(c) as f64)))
            .collect(),
    )
}

/// Bit-level equality: same products in the same order with identical
/// cost and coordinate bits.
fn bit_identical(a: &[UpgradeResult], b: &[UpgradeResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.product == y.product
                && x.cost.to_bits() == y.cost.to_bits()
                && x.original.len() == y.original.len()
                && x.upgraded.len() == y.upgraded.len()
                && (x.original.iter().zip(&y.original)).all(|(u, v)| u.to_bits() == v.to_bits())
                && (x.upgraded.iter().zip(&y.upgraded)).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// Same emissions bit for bit, and every counter equal but
/// `guarded_node_visits`, which only armed limits charge.
fn same_join(
    a: &[UpgradeResult],
    a_metrics: &QueryMetrics,
    b: &[UpgradeResult],
    b_metrics: &QueryMetrics,
) -> bool {
    bit_identical(a, b)
        && Counter::ALL
            .iter()
            .filter(|&&c| c != Counter::GuardedNodeVisits)
            .all(|&c| a_metrics.get(c) == b_metrics.get(c))
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The median time of one call of `f`, over at least [`SAMPLES`] calls
/// and [`MIN_TIMED`] of calls.
fn median_wall(mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < SAMPLES || start.elapsed() < MIN_TIMED {
        calls.push(time(&mut f).0);
    }
    median(calls)
}

fn micros(d: Duration) -> Json {
    Json::Num(d.as_micros() as f64)
}

fn main() {
    let args = parse_args(0.02);
    let p_size = args.scaled(100_000);
    let t_size = args.scaled(20_000);

    let p = paper_competitors(p_size, DIMS, Distribution::AntiCorrelated, args.seed);
    let t = generate(
        t_size,
        &SyntheticConfig {
            dims: DIMS,
            distribution: Distribution::Independent,
            lo: 0.3,
            hi: 1.3,
            seed: args.seed ^ 0x5eed,
        },
    );
    let (rp, rt) = build_trees(&p, &t);
    let cost = linear_cost(DIMS);
    let cfg = UpgradeConfig::default();

    println!(
        "probe scheduler bench: |P|={p_size} |T|={t_size} d={DIMS} k={K} seed={}",
        args.seed
    );

    // Sequential oracle: result reference and the wall-clock baseline.
    let reference = improved_probing_topk(&p, &rp, &t, K, &cost, &cfg);
    let seq_wall = median_wall(|| {
        std::hint::black_box(improved_probing_topk(&p, &rp, &t, K, &cost, &cfg));
    });
    println!("  sequential improved probing: {}", fmt_duration(seq_wall));

    let strategies = [ProbeStrategy::WorkStealing, ProbeStrategy::BoundSorted];
    let thread_counts = [1usize, 2, 4, 8];

    let mut runs = Vec::new();
    let mut all_identical = true;
    // (wall, evaluated) at 4 threads, indexed by strategy, for the
    // acceptance comparison.
    let mut at4: Vec<(&'static str, Duration, u64)> = Vec::new();

    for strategy in strategies {
        for threads in thread_counts {
            let mut metrics = QueryMetrics::default();
            let (results, stats) = improved_probing_topk_scheduled_rec(
                &p,
                &rp,
                &t,
                K,
                &cost,
                &cfg,
                threads,
                strategy,
                &mut metrics,
            );
            let identical = bit_identical(&results, &reference);
            all_identical &= identical;

            let wall = median_wall(|| {
                std::hint::black_box(improved_probing_topk_scheduled_rec(
                    &p,
                    &rp,
                    &t,
                    K,
                    &cost,
                    &cfg,
                    threads,
                    strategy,
                    &mut skyup_obs::NullRecorder,
                ));
            });
            println!(
                "  {:<13} threads={threads}: {}  evaluated={} pruned={}{}",
                strategy.name(),
                fmt_duration(wall),
                stats.evaluated,
                stats.pruned,
                if identical { "" } else { "  MISMATCH" },
            );
            if threads == 4 {
                at4.push((strategy.name(), wall, stats.evaluated));
            }
            runs.push(Json::obj(vec![
                ("domain", Json::Str("interleaved".into())),
                ("strategy", Json::Str(strategy.name().into())),
                ("threads", Json::Num(threads as f64)),
                ("wall_us", Json::Num(wall.as_micros() as f64)),
                (
                    "speedup_vs_sequential",
                    Json::Num(seq_wall.as_secs_f64() / wall.as_secs_f64()),
                ),
                ("bit_identical_to_sequential", Json::Bool(identical)),
                ("evaluated", Json::Num(stats.evaluated as f64)),
                ("pruned", Json::Num(stats.pruned as f64)),
                ("counters", counters_json(&metrics)),
            ]));
        }
    }

    // The paper's join, as the ledger runs it, against the same join
    // resolving one product at a time (armed limits, no budget hit).
    let join = |limits: Option<&ExecutionLimits>| {
        let mut join = JoinUpgrader::new(&p, &rp, &t, &rt, &cost, cfg, LowerBound::Conservative)
            .with_bound_mode(BoundMode::Paper);
        if let Some(limits) = limits {
            join = join.with_limits(limits);
        }
        let results: Vec<UpgradeResult> = join.by_ref().take(K).collect();
        (results, join.metrics().clone())
    };
    let unhit = ExecutionLimits::none().with_max_node_visits(u64::MAX);
    let (joined, join_metrics) = join(None);
    let (one_at_a_time, guarded_metrics) = join(Some(&unhit));
    let join_identical = same_join(&joined, &join_metrics, &one_at_a_time, &guarded_metrics);
    let join_wall = median_wall(|| {
        std::hint::black_box(join(None));
    });
    let one_at_a_time_wall = median_wall(|| {
        std::hint::black_box(join(Some(&unhit)));
    });
    println!(
        "  paper join (CLB, paper bounds): {} (one product at a time: {})  exact_upgrades={}{}",
        fmt_duration(join_wall),
        fmt_duration(one_at_a_time_wall),
        join_metrics.get(Counter::ExactUpgrades),
        if join_identical { "" } else { "  MISMATCH" },
    );

    // The same join on the paper's own domain, timed to its first and
    // to its K-th result (the progressiveness figures' measurement).
    let paper_t = paper_products(t_size, DIMS, Distribution::Independent, args.seed ^ 0x5eed);
    let paper_rt = RTree::bulk_load(&paper_t, RTreeParams::default());

    // 2-thread bound-sorted probing on the paper's own domain, where
    // Algorithm 3 returns the whole of skyline(P) for every product.
    let paper_probe = |rec: &mut dyn Recorder| {
        improved_probing_topk_scheduled_rec(
            &p,
            &rp,
            &paper_t,
            K,
            &cost,
            &cfg,
            PAPER_THREADS,
            ProbeStrategy::BoundSorted,
            rec,
        )
    };
    let paper_reference = improved_probing_topk(&p, &rp, &paper_t, K, &cost, &cfg);
    let mut paper_probe_metrics = QueryMetrics::default();
    let (paper_probed, paper_stats) = paper_probe(&mut paper_probe_metrics);
    let paper_probe_identical = bit_identical(&paper_probed, &paper_reference);
    all_identical &= paper_probe_identical;
    let paper_seq_wall = median_wall(|| {
        std::hint::black_box(improved_probing_topk(&p, &rp, &paper_t, K, &cost, &cfg));
    });
    let paper_probe_wall = median_wall(|| {
        std::hint::black_box(paper_probe(&mut skyup_obs::NullRecorder));
    });
    println!(
        "  bound_sorted on (1, 2]^{DIMS} threads={PAPER_THREADS}: {} (sequential {})  \
         evaluated={} pruned={}{}",
        fmt_duration(paper_probe_wall),
        fmt_duration(paper_seq_wall),
        paper_stats.evaluated,
        paper_stats.pruned,
        if paper_probe_identical {
            ""
        } else {
            "  MISMATCH"
        },
    );
    runs.push(Json::obj(vec![
        ("domain", Json::Str("paper".into())),
        ("t_domain", Json::Str("independent (1, 2]".into())),
        (
            "strategy",
            Json::Str(ProbeStrategy::BoundSorted.name().into()),
        ),
        ("threads", Json::Num(PAPER_THREADS as f64)),
        ("wall_us", micros(paper_probe_wall)),
        ("sequential_wall_us", micros(paper_seq_wall)),
        (
            "bit_identical_to_sequential",
            Json::Bool(paper_probe_identical),
        ),
        ("evaluated", Json::Num(paper_stats.evaluated as f64)),
        ("pruned", Json::Num(paper_stats.pruned as f64)),
        ("counters", counters_json(&paper_probe_metrics)),
    ]));
    let progressive = |limits: Option<&ExecutionLimits>| {
        let start = Instant::now();
        let mut join = JoinUpgrader::new(
            &p,
            &rp,
            &paper_t,
            &paper_rt,
            &cost,
            cfg,
            LowerBound::Conservative,
        )
        .with_bound_mode(BoundMode::Paper);
        if let Some(limits) = limits {
            join = join.with_limits(limits);
        }
        let mut results: Vec<UpgradeResult> = join.next().into_iter().collect();
        let first = start.elapsed();
        results.extend(join.by_ref().take(K - 1));
        let top_k = start.elapsed();
        ((first, top_k), results, join.metrics().clone())
    };
    let median_progress = |limits: Option<&ExecutionLimits>| {
        let (firsts, top_ks) = (0..SAMPLES).map(|_| progressive(limits).0).unzip();
        (median(firsts), median(top_ks))
    };
    let (_, paper_joined, paper_metrics) = progressive(None);
    let (_, paper_one_at_a_time, paper_guarded) = progressive(Some(&unhit));
    let paper_identical = same_join(
        &paper_joined,
        &paper_metrics,
        &paper_one_at_a_time,
        &paper_guarded,
    );
    let (paper_first, paper_top_k) = median_progress(None);
    let (paper_first_1, paper_top_k_1) = median_progress(Some(&unhit));
    println!(
        "  paper join on (1, 2]^{DIMS}: first result {} / top-{K} {} \
         (one product at a time: {} / {})  exact_upgrades={}{}",
        fmt_duration(paper_first),
        fmt_duration(paper_top_k),
        fmt_duration(paper_first_1),
        fmt_duration(paper_top_k_1),
        paper_metrics.get(Counter::ExactUpgrades),
        if paper_identical { "" } else { "  MISMATCH" },
    );

    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let join_runs = vec![
        Json::obj(vec![
            ("path", Json::Str("paper".into())),
            ("bound", Json::Str("conservative".into())),
            ("bound_mode", Json::Str("paper".into())),
            ("available_parallelism", Json::Num(parallelism as f64)),
            ("wall_us", micros(join_wall)),
            ("one_at_a_time_wall_us", micros(one_at_a_time_wall)),
            ("identical_to_one_at_a_time", Json::Bool(join_identical)),
            ("counters", counters_json(&join_metrics)),
        ]),
        Json::obj(vec![
            ("path", Json::Str("paper_domain".into())),
            ("t_domain", Json::Str("independent (1, 2]".into())),
            ("bound", Json::Str("conservative".into())),
            ("bound_mode", Json::Str("paper".into())),
            ("available_parallelism", Json::Num(parallelism as f64)),
            ("first_result_us", micros(paper_first)),
            ("top_k_us", micros(paper_top_k)),
            ("one_at_a_time_first_result_us", micros(paper_first_1)),
            ("one_at_a_time_top_k_us", micros(paper_top_k_1)),
            ("identical_to_one_at_a_time", Json::Bool(paper_identical)),
            ("counters", counters_json(&paper_metrics)),
        ]),
    ];

    // Index build: this bench's own R_P and R_T, and one large tree.
    let big = generate(
        INDEX_BUILD_POINTS,
        &SyntheticConfig::unit(DIMS, Distribution::AntiCorrelated, args.seed ^ 0xb0_1d),
    );
    let build_p_t = median_wall(|| {
        std::hint::black_box(build_trees(&p, &t));
    });
    let build_big = median_wall(|| {
        std::hint::black_box(RTree::bulk_load(&big, RTreeParams::default()));
    });
    println!(
        "  index build: R_P + R_T {}, {INDEX_BUILD_POINTS} anti-correlated points {}",
        fmt_duration(build_p_t),
        fmt_duration(build_big),
    );

    // Acceptance: at 4 threads the bound-sorted prober must beat plain
    // work stealing on both wall-clock and products evaluated.
    let steal4 = at4.iter().find(|(n, ..)| *n == "work_stealing").unwrap();
    let sorted4 = at4.iter().find(|(n, ..)| *n == "bound_sorted").unwrap();
    let wall_win = sorted4.1 < steal4.1;
    let eval_win = sorted4.2 < steal4.2;
    println!(
        "  acceptance @4 threads: wall {} vs {} ({}), evaluated {} vs {} ({})",
        fmt_duration(sorted4.1),
        fmt_duration(steal4.1),
        if wall_win { "win" } else { "LOSS" },
        sorted4.2,
        steal4.2,
        if eval_win { "win" } else { "LOSS" },
    );

    let doc = Json::obj(vec![
        ("schema", Json::Str("skyup-bench-probing/1".into())),
        (
            "workload",
            Json::obj(vec![
                ("p_size", Json::Num(p_size as f64)),
                ("t_size", Json::Num(t_size as f64)),
                ("dims", Json::Num(DIMS as f64)),
                ("k", Json::Num(K as f64)),
                ("seed", Json::Num(args.seed as f64)),
                ("p_distribution", Json::Str("anti_correlated_unit".into())),
                ("t_domain", Json::Str("independent [0.3, 1.3]".into())),
                ("cost", Json::Str("sum of linear(2.0, 1.0) per dim".into())),
            ]),
        ),
        ("kernel_isa", Json::Str(kernel_isa().into())),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("samples_per_config", Json::Num(SAMPLES as f64)),
        ("sequential_wall_us", Json::Num(seq_wall.as_micros() as f64)),
        (
            "index_build_us",
            Json::obj(vec![
                ("r_p_and_r_t", micros(build_p_t)),
                ("anti_correlated_100k", micros(build_big)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
        ("join_runs", Json::Arr(join_runs)),
        (
            "acceptance",
            Json::obj(vec![
                ("threads", Json::Num(4.0)),
                (
                    "work_stealing_wall_us",
                    Json::Num(steal4.1.as_micros() as f64),
                ),
                (
                    "bound_sorted_wall_us",
                    Json::Num(sorted4.1.as_micros() as f64),
                ),
                ("wall_clock_win", Json::Bool(wall_win)),
                ("work_stealing_evaluated", Json::Num(steal4.2 as f64)),
                ("bound_sorted_evaluated", Json::Num(sorted4.2 as f64)),
                ("evaluated_win", Json::Bool(eval_win)),
                ("all_runs_bit_identical", Json::Bool(all_identical)),
            ]),
        ),
    ]);

    let path = std::env::var("SKYUP_BENCH_OUT")
        .unwrap_or_else(|_| "bench_results/BENCH_probing.json".into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&path, format!("{}\n", doc.render_pretty()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");

    assert!(
        all_identical,
        "scheduled probing diverged from the sequential oracle"
    );
    assert!(
        join_identical,
        "the join's look-ahead diverged from resolving one product at a time"
    );
    assert!(
        paper_identical,
        "on the paper's domain the join's look-ahead diverged from resolving one product at a time"
    );
}
