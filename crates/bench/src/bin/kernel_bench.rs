//! Dominance-kernel shoot-out: scalar row loop vs. branch-free columnar
//! kernel vs. zone-mapped columnar scan, as JSON.
//!
//! Two datasets isolate the two tentpole wins:
//!
//! * `uniform` — independent points on the unit cube, stored in arrival
//!   order. Block MBRs all hug the origin, so zone maps barely fire and
//!   the columnar-vs-scalar gap measures the autovectorized mask loop
//!   alone: the AVX2 copy when the CPU has AVX2, else the portable body.
//!   The report's `kernel_isa` names which one ran, so a baseline and a
//!   fresh run can be read against the kernel each timed.
//! * `skewed` — correlated points sorted by coordinate sum before
//!   insertion, probed with targets from the lower half of that order.
//!   Blocks are coherent (all-good or all-bad products together), so
//!   trailing blocks have min corners above the targets and the zone
//!   maps skip them wholesale — the BBS-style pruning win, compounding
//!   the vectorization win.
//!
//! Timing covers the *collect* scan (enumerate every dominator — the
//! scan a serving snapshot's `SkylineView` runs on a memo miss, no
//! early exit, so the conservation law `blocks + skipped == total
//! blocks` is exact) and
//! the *membership* scan (first-dominator early exit). The counts —
//! dominated targets, dominator totals, blocks scanned and skipped —
//! are single-threaded and deterministic, so the gate pins them
//! exactly; only wall-clock gets the one-sided tolerance. Every variant
//! is checked position-for-position against the scalar oracle before
//! its timing is trusted. Set `SKYUP_BENCH_OUT` to redirect the report
//! (CI smoke runs do).

use std::time::Duration;

use skyup_bench::{fmt_duration, parse_args, time};
use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_geom::dominance::dominates;
use skyup_geom::{
    collect_dominators_cols, dominated_by_any_cols, kernel_isa, ColumnarPoints, DOM_BLOCK,
};
use skyup_obs::json::Json;

/// Timing samples per (dataset, variant, operation); the median is
/// reported.
const SAMPLES: usize = 5;
const DIMS: usize = 4;

fn median_wall(mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..SAMPLES).map(|_| time(&mut f).0).collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One committed workload: a window of stored points and the probe
/// targets scanned against it.
struct Dataset {
    name: &'static str,
    window: Vec<Vec<f64>>,
    targets: Vec<Vec<f64>>,
}

fn rows_of(points: &skyup_geom::PointStore) -> Vec<Vec<f64>> {
    points.iter().map(|(_, c)| c.to_vec()).collect()
}

fn build_datasets(n: usize, m: usize, seed: u64) -> Vec<Dataset> {
    // Uniform: arrival order, independent targets.
    let window = rows_of(&generate(
        n,
        &SyntheticConfig::unit(DIMS, Distribution::Independent, seed),
    ));
    let targets = rows_of(&generate(
        m,
        &SyntheticConfig::unit(DIMS, Distribution::Independent, seed ^ 0x7a17),
    ));
    let uniform = Dataset {
        name: "uniform",
        window,
        targets,
    };

    // Skewed: correlated points sorted by coordinate sum, so blocks are
    // coherent; targets sampled from the lower half of the same order
    // (real window points, duplicates included) leave the trailing
    // blocks provably dominator-free.
    let mut window = rows_of(&generate(
        n,
        &SyntheticConfig::unit(DIMS, Distribution::Correlated, seed ^ 0x51),
    ));
    window.sort_by(|a, b| {
        let (sa, sb) = (a.iter().sum::<f64>(), b.iter().sum::<f64>());
        sa.total_cmp(&sb)
    });
    let step = (n / 2).max(1).div_ceil(m).max(1);
    let targets: Vec<Vec<f64>> = window.iter().take(n / 2).step_by(step).cloned().collect();
    let skewed = Dataset {
        name: "skewed",
        window,
        targets,
    };

    vec![uniform, skewed]
}

/// Per-variant outcome: the timings plus the machine-independent counts
/// and the full dominator position lists (for the oracle comparison).
struct VariantOut {
    variant: &'static str,
    membership_wall: Duration,
    collect_wall: Duration,
    dominated_targets: u64,
    dominators_total: u64,
    /// Blocks scanned / skipped across the collect pass (full
    /// enumeration, so the conservation law applies per target).
    blocks_scanned: u64,
    blocks_skipped: u64,
    conservation_ok: bool,
    positions: Vec<Vec<u32>>,
}

/// Scalar oracle: plain row loop, `dominates` per point. Charged the
/// full block count so the report rows stay uniform.
fn run_scalar(ds: &Dataset) -> VariantOut {
    let blocks_per_scan = ds.window.len().div_ceil(DOM_BLOCK) as u64;
    let positions: Vec<Vec<u32>> = ds
        .targets
        .iter()
        .map(|t| {
            ds.window
                .iter()
                .enumerate()
                .filter(|(_, p)| dominates(p, t))
                .map(|(i, _)| i as u32)
                .collect()
        })
        .collect();
    let membership_wall = median_wall(|| {
        let mut n = 0u64;
        for t in &ds.targets {
            n += u64::from(ds.window.iter().any(|p| dominates(p, t)));
        }
        std::hint::black_box(n);
    });
    let mut scratch: Vec<u32> = Vec::new();
    let collect_wall = median_wall(|| {
        let mut n = 0u64;
        for t in &ds.targets {
            scratch.clear();
            scratch.extend(
                ds.window
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| dominates(p, t))
                    .map(|(i, _)| i as u32),
            );
            n += scratch.len() as u64;
        }
        std::hint::black_box(n);
    });
    VariantOut {
        variant: "scalar",
        membership_wall,
        collect_wall,
        dominated_targets: positions.iter().filter(|p| !p.is_empty()).count() as u64,
        dominators_total: positions.iter().map(|p| p.len() as u64).sum(),
        blocks_scanned: blocks_per_scan * ds.targets.len() as u64,
        blocks_skipped: 0,
        conservation_ok: true,
        positions,
    }
}

/// The branch-free columnar kernel with no zone maps: the raw
/// autovectorized mask loop over a dims-major buffer.
fn run_columnar(ds: &Dataset) -> VariantOut {
    let n = ds.window.len();
    let stride = n;
    let mut cols = vec![0.0f64; DIMS * stride];
    for (i, p) in ds.window.iter().enumerate() {
        for (d, &x) in p.iter().enumerate() {
            cols[d * stride + i] = x;
        }
    }
    let mut positions: Vec<Vec<u32>> = Vec::with_capacity(ds.targets.len());
    let (mut blocks_scanned, mut skipped) = (0u64, 0u64);
    let total_blocks = n.div_ceil(DOM_BLOCK) as u64;
    let mut conservation_ok = true;
    for t in &ds.targets {
        let mut out = Vec::new();
        let scan = collect_dominators_cols(&cols, stride, n, t, &mut out);
        blocks_scanned += scan.blocks;
        skipped += scan.skipped;
        conservation_ok &= scan.blocks + scan.skipped == total_blocks;
        positions.push(out);
    }
    let membership_wall = median_wall(|| {
        let mut hits = 0u64;
        for t in &ds.targets {
            hits += u64::from(dominated_by_any_cols(&cols, stride, n, t).dominated);
        }
        std::hint::black_box(hits);
    });
    let mut scratch: Vec<u32> = Vec::new();
    let collect_wall = median_wall(|| {
        let mut found = 0u64;
        for t in &ds.targets {
            scratch.clear();
            collect_dominators_cols(&cols, stride, n, t, &mut scratch);
            found += scratch.len() as u64;
        }
        std::hint::black_box(found);
    });
    VariantOut {
        variant: "columnar",
        membership_wall,
        collect_wall,
        dominated_targets: positions.iter().filter(|p| !p.is_empty()).count() as u64,
        dominators_total: positions.iter().map(|p| p.len() as u64).sum(),
        blocks_scanned,
        blocks_skipped: skipped,
        conservation_ok,
        positions,
    }
}

/// The full [`ColumnarPoints`] scan: the same vectorized kernel behind
/// per-block zone maps.
fn run_zoned(ds: &Dataset) -> VariantOut {
    let mut cols = ColumnarPoints::new(DIMS);
    for p in &ds.window {
        cols.push(p);
    }
    let total_blocks = cols.blocks() as u64;
    let mut positions: Vec<Vec<u32>> = Vec::with_capacity(ds.targets.len());
    let (mut blocks_scanned, mut skipped) = (0u64, 0u64);
    let mut conservation_ok = true;
    for t in &ds.targets {
        let mut out = Vec::new();
        let scan = cols.collect_dominators(t, &mut out);
        blocks_scanned += scan.blocks;
        skipped += scan.skipped;
        conservation_ok &= scan.blocks + scan.skipped == total_blocks;
        positions.push(out);
    }
    let membership_wall = median_wall(|| {
        let mut hits = 0u64;
        for t in &ds.targets {
            hits += u64::from(cols.dominated_by_any(t).dominated);
        }
        std::hint::black_box(hits);
    });
    let mut scratch: Vec<u32> = Vec::new();
    let collect_wall = median_wall(|| {
        let mut found = 0u64;
        for t in &ds.targets {
            scratch.clear();
            cols.collect_dominators(t, &mut scratch);
            found += scratch.len() as u64;
        }
        std::hint::black_box(found);
    });
    VariantOut {
        variant: "zoned",
        membership_wall,
        collect_wall,
        dominated_targets: positions.iter().filter(|p| !p.is_empty()).count() as u64,
        dominators_total: positions.iter().map(|p| p.len() as u64).sum(),
        blocks_scanned,
        blocks_skipped: skipped,
        conservation_ok,
        positions,
    }
}

fn main() {
    let args = parse_args(0.05);
    let n = args.scaled(800_000);
    let m = args.scaled(10_000);

    println!(
        "dominance kernel bench: |window|={n} |targets|={m} d={DIMS} seed={}",
        args.seed
    );

    let datasets = build_datasets(n, m, args.seed);
    let mut dataset_docs = Vec::new();
    let mut all_identical = true;
    let mut all_conserved = true;
    let mut skewed_skipped = 0u64;
    // (scalar, zoned) collect walls on the skewed dataset and
    // (scalar, columnar) on uniform, for the acceptance block.
    let mut skewed_walls = (Duration::ZERO, Duration::ZERO);
    let mut uniform_walls = (Duration::ZERO, Duration::ZERO);

    for ds in &datasets {
        let total_blocks = ds.window.len().div_ceil(DOM_BLOCK) as u64 * ds.targets.len() as u64;
        let scalar = run_scalar(ds);
        let variants = [scalar, run_columnar(ds), run_zoned(ds)];
        println!(
            "  {} ({} targets, {} blocks per scan):",
            ds.name,
            ds.targets.len(),
            ds.window.len().div_ceil(DOM_BLOCK)
        );
        let mut rows = Vec::new();
        for v in &variants {
            let identical = v.positions == variants[0].positions;
            all_identical &= identical;
            all_conserved &= v.conservation_ok;
            if ds.name == "skewed" && v.variant == "zoned" {
                skewed_skipped = v.blocks_skipped;
                skewed_walls.1 = v.collect_wall;
            }
            if ds.name == "skewed" && v.variant == "scalar" {
                skewed_walls.0 = v.collect_wall;
            }
            if ds.name == "uniform" && v.variant == "scalar" {
                uniform_walls.0 = v.collect_wall;
            }
            if ds.name == "uniform" && v.variant == "columnar" {
                uniform_walls.1 = v.collect_wall;
            }
            println!(
                "    {:<9} membership {:>10}  collect {:>10}  dominated={} dominators={} \
                 blocks={} skipped={}{}",
                v.variant,
                fmt_duration(v.membership_wall),
                fmt_duration(v.collect_wall),
                v.dominated_targets,
                v.dominators_total,
                v.blocks_scanned,
                v.blocks_skipped,
                if identical { "" } else { "  MISMATCH" },
            );
            rows.push(Json::obj(vec![
                ("variant", Json::Str(v.variant.into())),
                (
                    "membership_wall_us",
                    Json::Num(v.membership_wall.as_micros() as f64),
                ),
                (
                    "collect_wall_us",
                    Json::Num(v.collect_wall.as_micros() as f64),
                ),
                ("dominated_targets", Json::Num(v.dominated_targets as f64)),
                ("dominators_total", Json::Num(v.dominators_total as f64)),
                ("blocks_scanned", Json::Num(v.blocks_scanned as f64)),
                ("blocks_skipped", Json::Num(v.blocks_skipped as f64)),
                ("conservation_ok", Json::Bool(v.conservation_ok)),
                ("identical_to_scalar", Json::Bool(identical)),
            ]));
        }
        dataset_docs.push(Json::obj(vec![
            ("dataset", Json::Str(ds.name.into())),
            ("targets", Json::Num(ds.targets.len() as f64)),
            ("total_blocks", Json::Num(total_blocks as f64)),
            ("runs", Json::Arr(rows)),
        ]));
    }

    let zoned_speedup_skewed = skewed_walls.0.as_secs_f64() / skewed_walls.1.as_secs_f64();
    let columnar_speedup_uniform = uniform_walls.0.as_secs_f64() / uniform_walls.1.as_secs_f64();
    println!(
        "  acceptance: identical={all_identical} conserved={all_conserved} \
         skewed_skipped={skewed_skipped} zoned_speedup_skewed={zoned_speedup_skewed:.2}x \
         columnar_speedup_uniform={columnar_speedup_uniform:.2}x",
    );

    let doc = Json::obj(vec![
        ("schema", Json::Str("skyup-bench-kernel/1".into())),
        (
            "workload",
            Json::obj(vec![
                ("n_points", Json::Num(n as f64)),
                ("n_targets", Json::Num(m as f64)),
                ("dims", Json::Num(DIMS as f64)),
                ("seed", Json::Num(args.seed as f64)),
                (
                    "uniform",
                    Json::Str("independent unit cube, arrival order".into()),
                ),
                (
                    "skewed",
                    Json::Str("correlated, sorted by coord sum; targets from lower half".into()),
                ),
            ]),
        ),
        ("kernel_isa", Json::Str(kernel_isa().into())),
        ("samples_per_config", Json::Num(SAMPLES as f64)),
        ("datasets", Json::Arr(dataset_docs)),
        (
            "acceptance",
            Json::obj(vec![
                ("all_identical_to_scalar", Json::Bool(all_identical)),
                ("conservation_ok", Json::Bool(all_conserved)),
                ("skewed_blocks_skipped", Json::Num(skewed_skipped as f64)),
                (
                    "zoned_collect_beats_scalar_skewed",
                    Json::Bool(skewed_walls.1 < skewed_walls.0),
                ),
                ("zoned_speedup_skewed", Json::Num(zoned_speedup_skewed)),
                (
                    "columnar_speedup_uniform",
                    Json::Num(columnar_speedup_uniform),
                ),
            ]),
        ),
    ]);

    let path = std::env::var("SKYUP_BENCH_OUT")
        .unwrap_or_else(|_| "bench_results/BENCH_kernel.json".into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&path, format!("{}\n", doc.render_pretty()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");

    // Self-asserts: CI smoke runs rely on these even without a gate.
    assert!(
        all_identical,
        "columnar or zoned dominator lists diverged from the scalar oracle"
    );
    assert!(
        all_conserved,
        "zone-map accounting broke the blocks + skipped == total conservation law"
    );
    assert!(
        skewed_skipped > 0,
        "zone maps skipped nothing on the skewed dataset — the pruning path is dead"
    );
}
