//! Probe-scheduler shoot-out: work stealing vs. bound-sorted work
//! stealing at 1/2/4/8 threads, as JSON.
//!
//! The workload is a fig8-scale synthetic: anti-correlated `P` on the
//! unit cube (many skyline points, so `getDominatingSky` has real work
//! to do) and uncompetitive `T` shifted to `[0.3, 1.3]` under a linear
//! per-attribute cost — the regime where the admissible list bound is
//! positive and the shared-threshold screen actually fires. Every
//! scheduled run is checked bit-for-bit against the sequential
//! `improved_probing_topk` oracle before its timing is trusted.
//!
//! Wall-clock is the machine-dependent half of the output; the counter
//! snapshot (`ProductsEvaluated`, `ThresholdPrunes`, `StealEvents`, …)
//! is the machine-independent half, so scheduler regressions show up as
//! diffs of `bench_results/BENCH_probing.json` even when timings drift.
//! Set `SKYUP_BENCH_OUT` to redirect the report (CI smoke runs do).

use std::time::Duration;

use skyup_bench::runner::build_trees;
use skyup_bench::{fmt_duration, parse_args, time};
use skyup_core::cost::{AttributeCost, LinearCost, SumCost};
use skyup_core::{
    improved_probing_topk, improved_probing_topk_scheduled_rec, ProbeStrategy, UpgradeConfig,
    UpgradeResult,
};
use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_geom::kernel_isa;
use skyup_obs::json::Json;
use skyup_obs::{Counter, QueryMetrics};

/// Timing samples per configuration; the median is reported.
const SAMPLES: usize = 5;
/// Top-k size — small enough that the threshold tightens early.
const K: usize = 10;
const DIMS: usize = 3;

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

fn median_wall(mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..SAMPLES).map(|_| time(&mut f).0).collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let args = parse_args(0.02);
    let p_size = args.scaled(100_000);
    let t_size = args.scaled(20_000);

    let p = generate(
        p_size,
        &SyntheticConfig::unit(DIMS, Distribution::AntiCorrelated, args.seed),
    );
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
    let (rp, _rt) = build_trees(&p, &t);
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
        ("samples_per_config", Json::Num(SAMPLES as f64)),
        ("sequential_wall_us", Json::Num(seq_wall.as_micros() as f64)),
        ("runs", Json::Arr(runs)),
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
}
