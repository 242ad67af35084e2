//! Serving throughput: queries per second through `skyup-serve` at 1
//! and 4 worker threads, cold cache vs warm, as JSON.
//!
//! The workload is a fig8-style synthetic: anti-correlated competitors
//! on the unit cube — the paper's hardest setting, with a large skyline
//! that makes each answer genuinely expensive — and a fixed pool of
//! uncompetitive products shifted to `[0.3, 1.3]`. A cold pass queries
//! every pool product exactly once (all misses, each answer computed
//! through the epoch snapshot's skyline view); a warm pass re-queries
//! the same pool (all hits). Each client keeps a window of requests in
//! flight, and as many clients run as the pool has workers. Each phase
//! is measured min-of-N ([`COLD_REPS`] / [`WARM_PASSES`]) to reject
//! scheduler noise on shared hardware.
//!
//! Correctness is part of the bench contract: every warm answer and
//! every 4-thread answer is checked bit-for-bit against the 1-thread
//! cold computation before any timing is trusted — a scheduler that
//! changes a single bit fails the bench, it does not get a throughput
//! number.
//!
//! Wall-clock qps is the machine-dependent half of the output; the
//! cache and kernel counters are the machine-independent half. With
//! one worker the queue is FIFO, so the 1-thread cold pass answers the
//! pool in order and its memo hits, dominance tests and kernel block
//! counts are exact functions of the workload. Set `SKYUP_BENCH_OUT` to
//! redirect the report (CI smoke runs do).
//!
//! Request tracing is **enabled** throughout: every qps figure already
//! includes the telemetry layer's per-request overhead (one histogram
//! lock, one flight-recorder slot, two counter bumps), so the gate's
//! qps floor holds with observability on, not in a stripped build. The
//! report's `latency` rows snapshot each configuration's per-class
//! histograms; their class counts are exact functions of the workload
//! (`1` cold pass + [`WARM_PASSES`] warm passes over the pool on the
//! surviving engine) and the gate checks them exactly, alongside the
//! structural invariants (bucket-count conservation, trace count ==
//! requests served). The slow-query threshold is 0 here so slow-log
//! contents stay machine-independent (empty: nothing sheds or cuts).
//!
//! Durability is **on** for every query engine (`--fsync interval:64`
//! against a throwaway directory), so the qps floors hold with the WAL
//! attached. A separate `durability` section measures acked-mutation
//! throughput under each fsync policy and the recovery replay rate,
//! with the machine-independent invariants (appends == acked
//! mutations, recovered-state checksum equality, zero torn tail after
//! a clean shutdown) emitted for the gate to pin.
//!
//! A `mutation_storm` section times every single mutation of a
//! delete-heavy stream against a durable engine at |P| = 20,000 and
//! 200,000 (scaled by `SKYUP_SCALE`) and reports p50/p99/p99.9/max for
//! adds, removes and skyline-member removes. Its compaction and
//! checkpoint counts and final live/skyline sizes are exact and pinned;
//! its pool answers must match a cold engine over the final live set
//! bit for bit.

use skyup_bench::parse_args;
use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_data::Rng;
use skyup_geom::{kernel_isa, PointStore};
use skyup_obs::json::{parse, Json};
use skyup_obs::{Completion, Counter};
use skyup_rtree::persist::fnv1a;
use skyup_serve::proto::render_query_response;
use skyup_serve::{
    execute_query, CompetitorId, Coordinator, CostSpec, Engine, EngineConfig, FlipAck, FsyncPolicy,
    LocalLink, Mutation, Partition, QueryRequest, QueryResponse, ServeConfig, ServeHandle,
    ShardLink, ShardState, SkylineRows, StagedOp, WalConfig,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const DIMS: usize = 3;
/// Cold repetitions per configuration, each against a fresh engine; the
/// reported cold figure is the fastest repetition. A single cold pass
/// is a few milliseconds — too short to survive scheduler noise on a
/// shared box — and min-of-N is the standard noise rejection: external
/// interference only ever slows a run down.
const COLD_REPS: usize = 3;
/// Warm passes over the product pool per configuration; the reported
/// warm figure is the fastest pass, for the same reason.
const WARM_PASSES: usize = 4;
/// Requests each client keeps in flight, so a worker never waits on a
/// client's round trip.
const PIPELINE: usize = 64;

/// Uniform adds in the mutation storm's interleaved phase (scaled).
const STORM_ADDS: usize = 2000;

/// Root for the run's throwaway WAL directories (one per engine).
fn wal_root() -> PathBuf {
    std::env::temp_dir().join(format!("skyup-bench-wal-{}", std::process::id()))
}

/// A query-workload engine with the WAL attached at `--fsync
/// interval:64` — the recommended serving configuration — so every qps
/// figure is measured with durability on, not in a stripped build. Each engine gets a fresh
/// subdirectory; the workload is query-only, so the log stays empty,
/// but the durable checkpoint write and the WAL lock are in place.
fn durable_engine(competitors: &PointStore, tag: String) -> Engine {
    let dir = wal_root().join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let wal_cfg = WalConfig {
        fsync: FsyncPolicy::Interval(64),
        ..WalConfig::new(dir)
    };
    Engine::with_durability(competitors.clone(), EngineConfig::default(), wal_cfg)
        .expect("fresh bench wal directory")
}

/// A [`LocalLink`] that counts every call and the skyline rows it
/// delivers, so the report can pin the coordinator's sync accounting.
struct CountingLink {
    inner: LocalLink,
    calls: Arc<AtomicU64>,
    rows: Arc<AtomicU64>,
}

impl ShardLink for CountingLink {
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.stage(epoch, op)
    }

    fn flip(&self, epoch: u64) -> Result<FlipAck, String> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let ack = self.inner.flip(epoch)?;
        self.rows
            .fetch_add(ack.entered.len() as u64, Ordering::Relaxed);
        Ok(ack)
    }

    fn local_skyline(&self) -> Result<(u64, SkylineRows), String> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let (label, rows) = self.inner.local_skyline()?;
        self.rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok((label, rows))
    }

    fn reachable(&self) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.reachable()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

fn product_pool(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut cfg = SyntheticConfig::unit(DIMS, Distribution::Independent, seed);
    cfg.lo = 0.3;
    cfg.hi = 1.3;
    let store = generate(n, &cfg);
    store.ids().map(|id| store.point(id).to_vec()).collect()
}

/// Runs one timed pass: `threads` clients split the pool's products
/// (each product queried exactly once per pass) and push them through
/// the server with up to [`PIPELINE`] requests in flight each. Returns
/// (elapsed_seconds, per-product cost bits).
fn timed_pass(handle: &ServeHandle, pool: &Arc<Vec<Vec<f64>>>, threads: usize) -> (f64, Vec<u64>) {
    let start = Instant::now();
    let mut joins = Vec::new();
    for c in 0..threads {
        let handle = handle.clone();
        let pool = Arc::clone(pool);
        joins.push(std::thread::spawn(move || {
            let mut costs = Vec::new();
            let mut inflight = std::collections::VecDeque::new();
            let drain = |q: &mut std::collections::VecDeque<(usize, _)>| {
                let (i, ticket): (usize, skyup_serve::QueryTicket) =
                    q.pop_front().expect("non-empty pipeline");
                let resp = ticket.wait().expect("valid query");
                assert!(
                    matches!(resp.completion, Completion::Exact),
                    "unlimited query came back partial"
                );
                (i, resp.results[0].cost.to_bits())
            };
            let mut i = c;
            while i < pool.len() {
                if inflight.len() >= PIPELINE {
                    costs.push(drain(&mut inflight));
                }
                let ticket = handle
                    .query_async(QueryRequest {
                        products: vec![pool[i].clone()],
                        k: 1,
                        cost: CostSpec::Reciprocal(1e-3),
                        max_products: None,
                        deadline: None,
                    })
                    .expect("valid query");
                inflight.push_back((i, ticket));
                i += threads;
            }
            while !inflight.is_empty() {
                costs.push(drain(&mut inflight));
            }
            costs
        }));
    }
    let mut costs = vec![0u64; pool.len()];
    for join in joins {
        for (i, bits) in join.join().expect("client thread") {
            costs[i] = bits;
        }
    }
    (start.elapsed().as_secs_f64(), costs)
}

/// Per-class latency summary in microseconds: sample count, p50, p99,
/// p99.9 and max.
fn tail_us(mut ns: Vec<u64>) -> Json {
    ns.sort_unstable();
    let at = |per_mille: usize| {
        let i = (ns.len() * per_mille / 1000).min(ns.len().saturating_sub(1));
        Json::Num(ns.get(i).copied().unwrap_or(0) as f64 / 1e3)
    };
    Json::obj(vec![
        ("count", Json::Uint(ns.len() as u64)),
        ("p50", at(500)),
        ("p99", at(990)),
        ("p999", at(999)),
        ("max", at(1000)),
    ])
}

/// A durable engine under a mutation storm, with a shadow of its live
/// set (cid -> coordinates) and every mutation's own latency.
struct Storm {
    engine: Engine,
    live: BTreeMap<CompetitorId, Vec<f64>>,
    add_ns: Vec<u64>,
    remove_ns: Vec<u64>,
    skyline_remove_ns: Vec<u64>,
    /// Mutations that also ran a WAL fsync or wrote a checkpoint (each
    /// is in its add or remove class too), so a tail can be told apart
    /// from the device's.
    io_ns: Vec<u64>,
}

impl Storm {
    fn apply(&mut self, m: Mutation) -> (skyup_serve::MutationOutcome, u64) {
        let io = |e: &Engine| {
            let m = e.metrics();
            m.get(Counter::WalFsyncs) + m.get(Counter::CheckpointsWritten)
        };
        let before = io(&self.engine);
        let t0 = Instant::now();
        let out = self.engine.apply(m).expect("acked mutation");
        let ns = t0.elapsed().as_nanos() as u64;
        if io(&self.engine) != before {
            self.io_ns.push(ns);
        }
        (out, ns)
    }

    fn add(&mut self, coords: Vec<f64>) -> CompetitorId {
        let (out, ns) = self.apply(Mutation::AddCompetitor(coords.clone()));
        let cid = out.cid.expect("an add assigns an id");
        self.live.insert(cid, coords);
        self.add_ns.push(ns);
        cid
    }

    fn remove(&mut self, cid: CompetitorId) {
        let on_skyline = {
            let snap = self.engine.snapshot();
            snap.skyline()
                .binary_search_by_key(&cid, |&p| snap.cid(p))
                .is_ok()
        };
        let (out, ns) = self.apply(Mutation::RemoveCompetitor(cid));
        assert!(out.removed, "cid {cid} was live");
        self.live.remove(&cid);
        self.remove_ns.push(ns);
        if on_skyline {
            self.skyline_remove_ns.push(ns);
        }
    }
}

/// The bit pattern of a response's answers (its epoch left out).
fn answer_bits(resp: &QueryResponse) -> Vec<(usize, u64, Vec<u64>)> {
    resp.results
        .iter()
        .map(|a| {
            let upgraded = a.upgraded.iter().map(|v| v.to_bits()).collect();
            (a.index, a.cost.to_bits(), upgraded)
        })
        .collect()
}

/// One mutation storm over `n` anti-correlated competitors with the WAL
/// attached (`interval:64` fsync, a checkpoint every 1,024 appends):
/// `adds` uniform adds interleaved with removes of the oldest add still
/// live — strictly alternating, so each add is removed right after it
/// lands (a uniform point often joins the skyline, so that remove is
/// often a skyline-member remove) — then random removes of 75% of the
/// seeded set, which crosses the compaction threshold several times.
/// Every apply is timed alone, so WAL appends, fsyncs, compactions and
/// checkpoints land in the tail of the mutation that paid for them; the
/// ones that paid for an fsync or a checkpoint are also reported as a
/// class of their own. Returns the report row and whether the storm
/// engine's skyline and pool answers match a cold engine over the final
/// live set bit for bit.
fn mutation_storm(n: usize, adds: usize, seed: u64, pool: &[Vec<f64>]) -> (Json, bool) {
    let seeded = generate(
        n,
        &SyntheticConfig::unit(DIMS, Distribution::AntiCorrelated, seed),
    );
    let dir = wal_root().join(format!("storm-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_cfg = WalConfig {
        fsync: FsyncPolicy::Interval(64),
        checkpoint_every: 1024,
        ..WalConfig::new(dir)
    };
    let mut storm = Storm {
        engine: Engine::with_durability(seeded.clone(), EngineConfig::default(), wal_cfg)
            .expect("fresh bench wal directory"),
        live: seeded
            .iter()
            .map(|(pid, coords)| (pid.0 as CompetitorId, coords.to_vec()))
            .collect(),
        add_ns: Vec::with_capacity(adds),
        remove_ns: Vec::with_capacity(adds + n),
        skyline_remove_ns: Vec::new(),
        io_ns: Vec::new(),
    };

    let start = Instant::now();
    let mut rng = Rng::seed_from_u64(seed ^ 0x5702);
    for _ in 0..adds {
        let cid = storm.add((0..DIMS).map(|_| rng.next_f64()).collect());
        storm.remove(cid);
    }
    let mut victims: Vec<CompetitorId> = (0..n as CompetitorId).collect();
    rng.shuffle(&mut victims);
    for &cid in &victims[..n * 3 / 4] {
        storm.remove(cid);
    }
    let elapsed = start.elapsed().as_secs_f64();

    let Storm {
        engine,
        live,
        add_ns,
        remove_ns,
        skyline_remove_ns,
        io_ns,
    } = storm;
    let stats = engine.stats();
    let cold = Engine::with_identified_competitors(
        PointStore::from_rows(DIMS, live.values()),
        live.keys().copied().collect(),
        (n + adds) as CompetitorId,
        EngineConfig::default(),
    )
    .expect("live ids ascend");
    let rows = |e: &Engine| -> Vec<(CompetitorId, Vec<u64>)> {
        e.snapshot()
            .rows()
            .map(|(cid, p)| (cid, p.iter().map(|v| v.to_bits()).collect()))
            .collect()
    };
    let mut identical = stats.live == live.len() && rows(&engine) == rows(&cold);
    for t in pool {
        let req = QueryRequest {
            products: vec![t.clone()],
            k: 1,
            cost: CostSpec::Reciprocal(1e-3),
            max_products: None,
            deadline: None,
        };
        let got = execute_query(&engine, &req).expect("storm engine answers");
        let want = execute_query(&cold, &req).expect("cold engine answers");
        identical &= answer_bits(&got) == answer_bits(&want);
    }
    let row = Json::obj(vec![
        ("competitors", Json::Uint(n as u64)),
        ("adds", Json::Uint(add_ns.len() as u64)),
        ("removes", Json::Uint(remove_ns.len() as u64)),
        (
            "skyline_removes",
            Json::Uint(skyline_remove_ns.len() as u64),
        ),
        ("rebuilds", Json::Uint(stats.rebuilds)),
        (
            "checkpoints_written",
            Json::Uint(engine.metrics().get(Counter::CheckpointsWritten)),
        ),
        ("final_live", Json::Uint(stats.live as u64)),
        ("final_skyline", Json::Uint(stats.skyline_len as u64)),
        ("identity_checks", Json::Uint(pool.len() as u64)),
        ("elapsed_ms", Json::Num(elapsed * 1e3)),
        ("add_us", tail_us(add_ns)),
        ("remove_us", tail_us(remove_ns)),
        ("skyline_remove_us", tail_us(skyline_remove_ns)),
        ("io_us", tail_us(io_ns)),
    ]);
    (row, identical)
}

fn main() {
    let args = parse_args(1.0);
    let n_comp = ((4000.0 * args.scale) as usize).max(64);
    let n_pool = ((1024.0 * args.scale) as usize).max(16);
    let competitors = generate(
        n_comp,
        &SyntheticConfig::unit(DIMS, Distribution::AntiCorrelated, args.seed),
    );
    let pool = Arc::new(product_pool(n_pool, args.seed ^ 0x7007));

    let mut runs = Vec::new();
    let mut latency = Vec::new();
    let mut all_identical = true;
    // The 1-thread cold bits are the reference every other
    // configuration must reproduce exactly.
    let mut reference_bits: Option<Vec<u64>> = None;
    for threads in [1usize, 4] {
        let serve_cfg = ServeConfig {
            threads,
            // Room for every client's full pipeline: shedding would
            // fail the Exact assertion, not skew timing.
            queue_cap: threads * PIPELINE + 8,
            // No latency threshold: the slow log would otherwise depend
            // on machine speed, and nothing here sheds or runs partial,
            // so it stays deterministically empty.
            slow_ms: 0,
            trace_buffer: 256,
        };

        // `passes` divides the counter deltas when the window spans
        // several identical passes, so every row's counters describe
        // one pass over the pool.
        let phase_row = |phase: &str,
                         elapsed: f64,
                         requests: usize,
                         passes: u64,
                         before: &skyup_obs::QueryMetrics,
                         after: &skyup_obs::QueryMetrics| {
            let delta = |c: Counter| (after.get(c) - before.get(c)) / passes;
            let hit = delta(Counter::CacheHit);
            let miss = delta(Counter::CacheMiss);
            let total = (hit + miss).max(1);
            let mut fields = vec![
                ("threads", Json::Num(threads as f64)),
                ("phase", Json::Str(phase.into())),
                ("requests", Json::Num(requests as f64)),
                ("elapsed_ms", Json::Num(elapsed * 1e3)),
                ("qps", Json::Num(requests as f64 / elapsed.max(1e-9))),
                ("cache_hit", Json::Num(hit as f64)),
                ("cache_miss", Json::Num(miss as f64)),
                ("hit_rate", Json::Num(hit as f64 / total as f64)),
            ];
            for c in [
                Counter::DominatorMemoHits,
                Counter::DominanceTests,
                Counter::KernelBlockScans,
                Counter::KernelBlocksSkipped,
            ] {
                fields.push((c.name(), Json::Uint(delta(c))));
            }
            Json::obj(fields)
        };

        // Cold: [`COLD_REPS`] repetitions, each against a fresh engine
        // so every pass really is cold; keep the fastest. The last
        // repetition's engine stays up for the warm phase.
        let mut cold_best = f64::INFINITY;
        let mut cold_costs: Vec<u64> = Vec::new();
        let mut cold_metrics = None;
        let mut warm_setup = None;
        for rep in 0..COLD_REPS {
            let engine = Arc::new(durable_engine(&competitors, format!("{threads}t-rep{rep}")));
            let handle = ServeHandle::start(Arc::clone(&engine), serve_cfg);
            let before = engine.metrics();
            let (s, costs) = timed_pass(&handle, &pool, threads);
            let after = engine.metrics();
            cold_best = cold_best.min(s);
            match &reference_bits {
                None => reference_bits = Some(costs.clone()),
                Some(reference) => all_identical &= &costs == reference,
            }
            if rep + 1 == COLD_REPS {
                cold_costs = costs;
                cold_metrics = Some((before, after));
                warm_setup = Some((engine, handle));
            } else {
                handle.shutdown();
            }
        }
        let (before, after) = cold_metrics.expect("at least one cold repetition");
        runs.push(phase_row("cold", cold_best, pool.len(), 1, &before, &after));

        // Warm: every pass re-queries the now-cached pool; keep the
        // fastest pass.
        let (engine, handle) = warm_setup.expect("warm engine");
        let before = engine.metrics();
        let mut warm_best = f64::INFINITY;
        for _ in 0..WARM_PASSES {
            let (s, warm_costs) = timed_pass(&handle, &pool, threads);
            warm_best = warm_best.min(s);
            all_identical &= warm_costs == cold_costs;
        }
        let after = engine.metrics();
        runs.push(phase_row(
            "warm",
            warm_best,
            pool.len(),
            WARM_PASSES as u64,
            &before,
            &after,
        ));
        handle.shutdown();

        // Telemetry snapshot of the surviving engine's handle: it
        // served exactly one cold pass plus the warm passes, so the
        // per-class trace counts are pure functions of the workload and
        // the gate can check them exactly.
        latency.push(Json::obj(vec![
            ("threads", Json::Num(threads as f64)),
            (
                "requests_served",
                Json::Uint(((1 + WARM_PASSES) * pool.len()) as u64),
            ),
            (
                "metrics",
                handle.telemetry().metrics_json(handle.queue_depth()),
            ),
        ]));
    }

    // Durability: acked-mutation throughput under each fsync policy,
    // then the recovery replay rate over the interval policy's log.
    // The timing is the machine-dependent half; the counters and the
    // recovered-state checksum are machine-independent and the gate
    // pins them exactly: WalAppends == acked mutations, fsync counts
    // are pure functions of the policy, the recovered snapshot hashes
    // identically to the pre-crash engine, and a clean shutdown leaves
    // no torn tail.
    let n_base = ((512.0 * args.scale) as usize).max(32);
    let durable_base = generate(
        n_base,
        &SyntheticConfig::unit(DIMS, Distribution::AntiCorrelated, args.seed ^ 0xBA5E),
    );
    let mut durability = Vec::new();
    let mut recovery_replay = None;
    let policies: [(&str, FsyncPolicy, usize); 3] = [
        ("always", FsyncPolicy::Always, 512),
        ("interval:64", FsyncPolicy::Interval(64), 2048),
        ("never", FsyncPolicy::Never, 2048),
    ];
    for (name, policy, muts) in policies {
        let muts = ((muts as f64 * args.scale) as usize).max(64);
        let dir = wal_root().join(format!("policy-{}", name.replace(':', "-")));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_cfg = WalConfig {
            fsync: policy,
            // Keep the whole history in the log: the recovery benchmark
            // below replays every record instead of a checkpoint tail.
            checkpoint_every: 0,
            ..WalConfig::new(dir)
        };
        let engine = Engine::with_durability(
            durable_base.clone(),
            EngineConfig::default(),
            wal_cfg.clone(),
        )
        .expect("fresh bench wal directory");
        let mut rng = Rng::seed_from_u64(args.seed ^ 0xF00D);
        let adds: Vec<Mutation> = (0..muts)
            .map(|_| Mutation::AddCompetitor((0..DIMS).map(|_| rng.next_f64()).collect()))
            .collect();
        let start = Instant::now();
        for m in adds {
            engine.apply(m).expect("acked mutation");
        }
        let elapsed = start.elapsed().as_secs_f64();
        engine.flush_wal().expect("clean shutdown flush");
        let m = engine.metrics();
        durability.push(Json::obj(vec![
            ("policy", Json::Str(name.into())),
            ("mutations", Json::Uint(muts as u64)),
            ("elapsed_ms", Json::Num(elapsed * 1e3)),
            ("mps", Json::Num(muts as f64 / elapsed.max(1e-9))),
            ("wal_appends", Json::Uint(m.get(Counter::WalAppends))),
            ("wal_bytes", Json::Uint(m.get(Counter::WalBytes))),
            ("wal_fsyncs", Json::Uint(m.get(Counter::WalFsyncs))),
        ]));

        if name == "interval:64" {
            let checksum = fnv1a(&engine.save_snapshot_bytes());
            drop(engine);
            let start = Instant::now();
            let recovered = Engine::recover(EngineConfig::default(), wal_cfg)
                .expect("recover the interval log");
            let elapsed = start.elapsed().as_secs_f64();
            let status = recovered.durability().expect("recovered engine has a wal");
            recovery_replay = Some(Json::obj(vec![
                ("replayed", Json::Uint(status.recovery.replayed)),
                ("elapsed_ms", Json::Num(elapsed * 1e3)),
                (
                    "replay_rps",
                    Json::Num(status.recovery.replayed as f64 / elapsed.max(1e-9)),
                ),
                ("torn_truncated", Json::Uint(status.recovery.torn_truncated)),
                (
                    "checksum_equal",
                    Json::Bool(fnv1a(&recovered.save_snapshot_bytes()) == checksum),
                ),
            ]));
        }
    }

    // Mutation storm: per-mutation latency tails under a delete-heavy
    // stream at two sizes, with exact compaction/checkpoint pins.
    let storm_adds = ((STORM_ADDS as f64 * args.scale) as usize).max(16);
    let mut mutation_storm_rows = Vec::new();
    let mut storm_identical = true;
    for base in [20_000usize, 200_000] {
        let n = ((base as f64 * args.scale) as usize).max(256);
        let (row, identical) = mutation_storm(n, storm_adds, args.seed ^ 0x570a, &pool);
        mutation_storm_rows.push(row);
        storm_identical &= identical;
    }

    // Sharded topology: the coordinator over in-process shard links at
    // 1, 2 and 4 shards, answering from its replicated global skyline.
    // The machine-dependent half is query qps/p99 and two-phase publish
    // throughput; the machine-independent half is bit-identity against a
    // single-engine oracle holding the full set, plus the replica's
    // exact invariants the gate pins: queries make no shard call, the
    // rows synced equal the rows the links delivered, one resync per
    // shard (the bootstrap), and |U| >= |global skyline| == the oracle's
    // skyline >= 1.
    let sg_mutations = ((64.0 * args.scale) as usize).max(8);
    let sg_checks = (pool.len() / 4).clamp(8.min(pool.len()), pool.len());
    let mut scatter_gather = Vec::new();
    let mut sg_identical = true;
    for shards in [1u32, 2, 4] {
        let partition = Partition::new(shards).expect("shard count");
        let calls = Arc::new(AtomicU64::new(0));
        let rows = Arc::new(AtomicU64::new(0));
        let mut links = Vec::new();
        let mut states = Vec::new();
        for id in 0..shards {
            let (slab, cid_of) = partition.shard_seed(&competitors, id);
            let engine = Engine::with_identified_competitors(
                slab,
                cid_of,
                competitors.len() as u64,
                EngineConfig::default(),
            )
            .expect("seed slab");
            let state = Arc::new(ShardState::new(
                ServeHandle::start(
                    Arc::new(engine),
                    ServeConfig {
                        slow_ms: 0,
                        ..ServeConfig::default()
                    },
                ),
                id,
                shards,
            ));
            links.push(CountingLink {
                inner: LocalLink(Arc::clone(&state)),
                calls: Arc::clone(&calls),
                rows: Arc::clone(&rows),
            });
            states.push(state);
        }
        let coordinator = Coordinator::new(links, partition, &competitors).expect("topology");
        let oracle = Engine::with_competitors(competitors.clone(), EngineConfig::default());
        let request = |t: &Vec<f64>| QueryRequest {
            products: vec![t.clone()],
            k: 1,
            cost: CostSpec::Reciprocal(1e-3),
            max_products: None,
            deadline: None,
        };
        // The first request bootstraps the replica (one `local_skyline`
        // per shard), a once-per-coordinator cost kept out of the timed
        // publish loop; the oracle answers it too, so both caches hold
        // the same keys.
        coordinator.query(&request(&pool[0])).expect("bootstrap");
        execute_query(&oracle, &request(&pool[0])).expect("oracle");

        // Two-phase publish throughput, mirrored into the oracle so the
        // identity checks below run at the same epoch.
        let mut rng = Rng::seed_from_u64(args.seed ^ 0x5ca77e4);
        let adds: Vec<Vec<f64>> = (0..sg_mutations)
            .map(|_| (0..DIMS).map(|_| rng.next_f64()).collect())
            .collect();
        let start = Instant::now();
        for p in &adds {
            coordinator
                .mutate(Mutation::AddCompetitor(p.clone()))
                .expect("published add");
        }
        let publish_s = start.elapsed().as_secs_f64();
        for p in adds {
            oracle
                .apply(Mutation::AddCompetitor(p))
                .expect("oracle add");
        }
        let calls_before_queries = calls.load(Ordering::Relaxed);

        // Bit-identity self-check: the coordinator's response line must
        // be byte-for-byte the oracle's.
        for t in pool.iter().take(sg_checks) {
            let got = coordinator.query(&request(t)).expect("coordinated");
            let want = execute_query(&oracle, &request(t)).expect("oracle");
            sg_identical &= render_query_response(&got) == render_query_response(&want);
        }

        // Timed pass over the whole pool, per-request latency.
        let mut lat = Vec::with_capacity(pool.len());
        let start = Instant::now();
        for t in pool.iter() {
            let t0 = Instant::now();
            let resp = coordinator.query(&request(t)).expect("coordinated");
            lat.push(t0.elapsed().as_nanos() as u64);
            assert!(
                matches!(resp.completion, Completion::Exact),
                "unbudgeted query came back partial"
            );
        }
        let elapsed = start.elapsed().as_secs_f64();
        lat.sort_unstable();
        let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
        let query_shard_calls = calls.load(Ordering::Relaxed) - calls_before_queries;

        let stats = parse(&coordinator.stats_json()).expect("stats line is JSON");
        let replica = |key: &str| Json::Uint(stats.get(key).and_then(Json::as_u64).unwrap_or(0));
        let m = coordinator.metrics();
        scatter_gather.push(Json::obj(vec![
            ("shards", Json::Uint(shards as u64)),
            ("mutations", Json::Uint(sg_mutations as u64)),
            (
                "publish_mps",
                Json::Num(sg_mutations as f64 / publish_s.max(1e-9)),
            ),
            ("identity_checks", Json::Uint(sg_checks as u64)),
            ("queries", Json::Uint((1 + sg_checks + pool.len()) as u64)),
            ("qps", Json::Num(pool.len() as f64 / elapsed.max(1e-9))),
            ("p99_us", Json::Num(p99 as f64 / 1e3)),
            ("stage_acks", Json::Uint(m.get(Counter::StageAcks))),
            ("epoch_flips", Json::Uint(m.get(Counter::EpochFlips))),
            ("query_shard_calls", Json::Uint(query_shard_calls)),
            (
                "skyline_rows_synced",
                Json::Uint(m.get(Counter::SkylineRowsSynced)),
            ),
            ("link_rows", Json::Uint(rows.load(Ordering::Relaxed))),
            ("shard_resyncs", Json::Uint(m.get(Counter::ShardResyncs))),
            ("union_rows", replica("union")),
            ("global_skyline", replica("skyline")),
            (
                "oracle_skyline",
                Json::Uint(oracle.stats().skyline_len as u64),
            ),
        ]));
        for s in states {
            s.handle().shutdown();
        }
    }

    let doc = Json::obj(vec![
        (
            "workload",
            Json::obj(vec![
                ("competitors", Json::Num(n_comp as f64)),
                ("product_pool", Json::Num(n_pool as f64)),
                ("dims", Json::Num(DIMS as f64)),
                ("cold_reps", Json::Num(COLD_REPS as f64)),
                ("warm_passes", Json::Num(WARM_PASSES as f64)),
                ("pipeline", Json::Num(PIPELINE as f64)),
                ("sg_mutations", Json::Num(sg_mutations as f64)),
                ("sg_identity_checks", Json::Num(sg_checks as f64)),
                ("storm_adds", Json::Num(storm_adds as f64)),
                ("scale", Json::Num(args.scale)),
                ("seed", Json::Num(args.seed as f64)),
            ]),
        ),
        ("kernel_isa", Json::Str(kernel_isa().into())),
        ("runs", Json::Arr(runs)),
        ("scatter_gather", Json::Arr(scatter_gather)),
        ("scatter_gather_bit_identical", Json::Bool(sg_identical)),
        ("latency", Json::Arr(latency)),
        ("mutation_storm", Json::Arr(mutation_storm_rows)),
        ("mutation_storm_bit_identical", Json::Bool(storm_identical)),
        ("durability", Json::Arr(durability)),
        (
            "recovery_replay",
            recovery_replay.expect("the interval policy ran"),
        ),
        ("all_modes_bit_identical", Json::Bool(all_identical)),
    ]);

    let path = std::env::var("SKYUP_BENCH_OUT")
        .unwrap_or_else(|_| "bench_results/BENCH_serve.json".into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&path, format!("{}\n", doc.render_pretty()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
    let _ = std::fs::remove_dir_all(wal_root());

    assert!(
        all_identical,
        "warm or 4-thread answers diverged from the 1-thread cold computation"
    );
    assert!(
        sg_identical,
        "a coordinator answer diverged from the single-engine oracle"
    );
    assert!(
        storm_identical,
        "the mutation storm's engine diverged from a cold engine over its final live set"
    );
}
