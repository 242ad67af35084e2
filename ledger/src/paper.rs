//! `paper_topk`: the CLI's two product paths over the same data, in
//! process. Each query draws a seeded competitor set `P` and product
//! set `T` from the run's pools and answers it with the join
//! (`JoinUpgrader`, CLB bound, paper bound mode) and with 2-thread
//! bound-sorted improved probing, and checks both answers.

use crate::ops::{competitors, products, sub_seed, DIMS};
use crate::stats::{median, put_work, quantile, ratio, Metrics};
use crate::{Config, Outcome, Scale};
use skyup_core::cost::{AttributeCost, LinearCost, SumCost};
use skyup_core::{
    dominators_from_skyline, improved_probing_topk_scheduled_rec, upgrade_single, JoinUpgrader,
    LowerBound, ProbeStrategy, UpgradeConfig, UpgradeResult,
};
use skyup_geom::{PointId, PointStore};
use skyup_obs::{clocked, Counter, NullRecorder, Phase, QueryMetrics, Recorder};
use skyup_rtree::{RTree, RTreeParams};
use skyup_skyline::skyline_sfs;
use std::time::{Duration, Instant};

const K: usize = 10;
const THREADS: usize = 2;
const SETUPS: usize = 7;

struct Spec {
    p: usize,
    t: usize,
    /// Competitor sets and product sets the queries cycle through. Each
    /// run averages over many instances: the join's cost depends
    /// strongly on the particular sets, so one pair per seed would make
    /// the seed, not the code, decide the numbers.
    p_sets: usize,
    t_sets: usize,
}

impl Spec {
    fn new(scale: Scale) -> Spec {
        Spec {
            p: scale.pick(5_000, 500),
            t: scale.pick(1_000, 100),
            p_sets: scale.pick(32, 2),
            t_sets: scale.pick(32, 2),
        }
    }
}

/// The per-attribute linear cost the probe-scheduler bench uses.
fn linear_cost(dims: usize) -> SumCost {
    SumCost::new(
        (0..dims)
            .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
            .collect(),
    )
}

/// The correctness gate for one query. The paper bound mode only
/// reorders the join's output (DESIGN.md §3): every product it emits
/// carries its exact cost, but when the `P` and `T` domains interleave
/// its top-k may hold a product probing ranks later. So each path's
/// costs must equal an independent recomputation for the products it
/// reports (within 1e-9), and probing — the exact top-k — must be at
/// least as cheap as the join rank by rank. When the two sets agree,
/// as they almost always do, this is rank-by-rank agreement within 1e-9.
fn gate(
    p: &PointStore,
    sky: &[PointId],
    cost: &SumCost,
    joined: &[UpgradeResult],
    probed: &[UpgradeResult],
) -> bool {
    let exact = |r: &UpgradeResult| {
        let doms = dominators_from_skyline(p, sky, &r.original, &mut NullRecorder);
        let (c, _) = upgrade_single(p, &doms, &r.original, cost, &UpgradeConfig::default());
        (c - r.cost).abs() < 1e-9
    };
    let mut join_costs: Vec<f64> = joined.iter().map(|r| r.cost).collect();
    join_costs.sort_by(f64::total_cmp);
    joined.len() == probed.len()
        && joined.iter().chain(probed).all(exact)
        && probed
            .iter()
            .zip(&join_costs)
            .all(|(best, &j)| best.cost <= j + 1e-9)
}

/// The seeded input sets and their R-trees.
struct Instances {
    ps: Vec<PointStore>,
    /// Id-sorted skyline of each competitor set, for the gate.
    skys: Vec<Vec<PointId>>,
    ts: Vec<PointStore>,
    rps: Vec<RTree>,
    rts: Vec<RTree>,
}

/// Builds every index the queries need; returns the total time and the
/// median time of one competitor tree.
fn build(inst: &mut Instances) -> (f64, f64) {
    let start = Instant::now();
    let mut rp_ms = Vec::new();
    inst.rps = inst
        .ps
        .iter()
        .map(|p| {
            let (ns, tree) = clocked(|| RTree::bulk_load(p, RTreeParams::default()));
            rp_ms.push(ns as f64 / 1e6);
            tree
        })
        .collect();
    inst.rts = inst
        .ts
        .iter()
        .map(|t| RTree::bulk_load(t, RTreeParams::default()))
        .collect();
    (start.elapsed().as_secs_f64(), median(&rp_ms))
}

#[derive(Default)]
struct Pass {
    join_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    query_us: Vec<f64>,
    window_s: f64,
    failed: u64,
    join_work: QueryMetrics,
    probe_work: QueryMetrics,
}

fn pass(cfg: &Config, inst: &Instances, traced: bool) -> Pass {
    let cost = linear_cost(DIMS);
    let ucfg = UpgradeConfig::default();
    let mut out = Pass::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let (np, nt) = (inst.ps.len(), inst.ts.len());
    let mut q = 0;
    // At least one query, however short the window. Queries cycle
    // through the competitor sets in turn, shifting the product set
    // each round, so every run weighs each set equally instead of
    // sampling a mix that differs from run to run.
    while q == 0 || Instant::now() < deadline {
        let (a, b) = (q % np, (q + q / np) % nt);
        let (p, rp, t, rt) = (&inst.ps[a], &inst.rps[a], &inst.ts[b], &inst.rts[b]);
        let (join_ns, mut joined) = clocked(|| {
            let mut join = JoinUpgrader::new(p, rp, t, rt, &cost, ucfg, LowerBound::Conservative);
            let results: Vec<UpgradeResult> = join.by_ref().take(K).collect();
            if traced {
                out.join_work.absorb(join.metrics());
            }
            results
        });
        let mut null = NullRecorder;
        let rec: &mut dyn Recorder = if traced {
            &mut out.probe_work
        } else {
            &mut null
        };
        let (probe_ns, (probed, _)) = clocked(|| {
            improved_probing_topk_scheduled_rec(
                p,
                rp,
                t,
                K,
                &cost,
                &ucfg,
                THREADS,
                ProbeStrategy::BoundSorted,
                rec,
            )
        });
        if cfg.corrupt_answer && q == 0 {
            if let Some(r) = joined.first_mut() {
                r.cost += 1e-6;
            }
        }
        if !gate(p, &inst.skys[a], &cost, &joined, &probed) {
            out.failed += 1;
        }
        out.join_ms.push(join_ns as f64 / 1e6);
        out.probe_ms.push(probe_ns as f64 / 1e6);
        out.query_us.push((join_ns + probe_ns) as f64 / 1e3);
        q += 1;
    }
    out.window_s = start.elapsed().as_secs_f64();
    out
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let spec = Spec::new(cfg.scale);
    let ps: Vec<PointStore> = (0..spec.p_sets)
        .map(|i| competitors(spec.p, sub_seed(cfg.seed, &format!("competitors-{i}"))))
        .collect();
    let skys = ps
        .iter()
        .map(|p| {
            let mut sky = skyline_sfs(p, &p.ids().collect::<Vec<_>>());
            sky.sort_unstable();
            sky
        })
        .collect();
    let mut inst = Instances {
        ps,
        skys,
        ts: (0..spec.t_sets)
            .map(|i| products(spec.t, sub_seed(cfg.seed, &format!("products-{i}"))))
            .collect(),
        rps: Vec::new(),
        rts: Vec::new(),
    };

    let mut setup_s = Vec::new();
    let mut bulk_ms = Vec::new();
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        let (total, rp_ms) = build(&mut inst);
        setup_s.push(total);
        bulk_ms.push(rp_ms);
    }

    let plain = pass(cfg, &inst, false);
    let queries = plain.query_us.len() as u64;
    let mut m = Metrics::default();
    let mut notes = vec![format!(
        "{queries} queries (join + probe) in {:.2} s; join p50 {:.1} ms, probe p50 {:.1} ms",
        plain.window_s,
        median(&plain.join_ms),
        median(&plain.probe_ms)
    )];
    if !cfg.trace {
        m.put("setup_s", median(&setup_s), "s");
        m.put(
            "peak_rss_mb",
            crate::procs::peak_rss_mb("/proc/self/status"),
            "MB",
        );
        m.put(
            "ops_per_s",
            ratio((queries - plain.failed) as f64, plain.window_s),
            "1/s",
        );
        m.put("query_p50_us", median(&plain.query_us), "us");
        m.put("query_p90_us", quantile(&plain.query_us, 0.90), "us");
        return Ok(Outcome::new(queries, plain.failed, m, notes));
    }

    let traced = pass(cfg, &inst, true);
    let n = traced.query_us.len() as f64;
    let attempted = queries + n as u64;
    let failed = plain.failed + traced.failed;
    let mut work = traced.join_work.clone();
    work.absorb(&traced.probe_work);
    let phase_ms = |ph: Phase| ratio(work.phase_nanos(ph) as f64 / 1e6, n);

    m.put("query_p99_us", quantile(&traced.query_us, 0.99), "us");
    m.put("join_p50_ms", median(&traced.join_ms), "ms");
    m.put("probe_p50_ms", median(&traced.probe_ms), "ms");
    m.put(
        "failed_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    m.put(
        "core.join_expansion_ms",
        phase_ms(Phase::JoinExpansion),
        "ms",
    );
    m.put(
        "core.dominating_sky_ms",
        phase_ms(Phase::DominatingSky),
        "ms",
    );
    m.put("core.bound_sort_ms", phase_ms(Phase::BoundSort), "ms");
    m.put("core.probe_loop_ms", phase_ms(Phase::ProbeLoop), "ms");
    m.put(
        "core.evaluated_ratio",
        ratio(
            traced.probe_work.get(Counter::ProductsEvaluated) as f64,
            n * spec.t as f64,
        ),
        "ratio",
    );
    m.put("rtree.bulk_load_ms", median(&bulk_ms), "ms");
    put_work(&mut m, &work, n);
    m.put(
        "trace.overhead_query_p50_us",
        median(&traced.query_us) - median(&plain.query_us),
        "us",
    );
    notes.push(format!("traced: {n} queries"));
    Ok(Outcome::new(attempted, failed, m, notes))
}
