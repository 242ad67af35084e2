//! The serve workloads: a real `skyup serve` (or shards plus
//! `skyup coordinate`) driven over TCP by a closed loop of two kept-alive
//! connections, each with one request outstanding.

use crate::ops::{competitors, products, sub_seed, Op, Stream, Zipf};
use crate::oracle::{check_probes, LiveSet};
use crate::procs::{engine_stats, EngineCounters, ServeFlags, Topology};
use crate::replay::{replay, Recorded};
use crate::stats::{median, ns_to_us, put_work, quantile, ratio, Metrics};
use crate::wire::{answer_bits, is_exact, trace_line, verb_line, Conn};
use crate::{Config, Outcome, Scale};
use skyup_geom::PointStore;
use skyup_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Connections (= load threads): one per core of the 2-core reference
/// host, each keeping exactly one request outstanding.
pub const CONNECTIONS: usize = 2;
/// Flight-recorder depth of every server, and the traces one dump asks
/// for. Connection 0 of a traced run dumps every [`DUMP_EVERY`] of its
/// own requests, so no trace is overwritten between reads while the
/// other connection sends fewer than `TRACE_BUFFER - DUMP_EVERY`.
const TRACE_BUFFER: u64 = 16_384;
const DUMP_EVERY: u64 = 4_096;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// The traffic mix of a serve workload.
pub enum Mix {
    /// Queries of `per_query` products drawn Zipf(1) from a pool of
    /// `pool` products, plus a small share of add/remove pairs.
    Read {
        pool: usize,
        per_query: usize,
        k: usize,
        mutation_share: f64,
    },
    /// Remove-to-half / add-back phases with single-product queries.
    Churn { query_share: f64, k: usize },
}

pub struct ServeSpec {
    pub competitors: usize,
    pub shards: u32,
    pub checkpoint_every: Option<u64>,
    pub mix: Mix,
}

impl ServeSpec {
    pub fn serve_read(scale: Scale) -> ServeSpec {
        ServeSpec {
            competitors: scale.pick(20_000, 500),
            shards: 0,
            checkpoint_every: None,
            mix: Mix::Read {
                pool: scale.pick(4_096, 64),
                per_query: 8,
                k: 3,
                mutation_share: 0.02,
            },
        }
    }

    pub fn sharded_read(scale: Scale) -> ServeSpec {
        ServeSpec {
            shards: 2,
            ..ServeSpec::serve_read(scale)
        }
    }

    pub fn serve_churn(scale: Scale) -> ServeSpec {
        ServeSpec {
            competitors: scale.pick(256, 64),
            shards: 0,
            checkpoint_every: Some(scale.pick(256, 16)),
            mix: Mix::Churn {
                query_share: 0.3,
                k: 1,
            },
        }
    }
}

/// A client-side record of one request: when it was sent (ns after the
/// window opened), its round trip, and its kind.
#[derive(Clone, Copy)]
struct Span {
    sent_ns: u64,
    rtt_ns: u64,
    query: bool,
}

/// One server trace, as the `trace` verb reports it.
#[derive(Clone)]
struct TraceRow {
    id: u64,
    class: String,
    queue_ns: u64,
    exec_ns: u64,
    total_ns: u64,
}

#[derive(Default)]
struct ConnRun {
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
    live: LiveSet,
    records: Vec<Recorded>,
    traces: BTreeMap<u64, TraceRow>,
    last_done: Option<Instant>,
    error: Option<String>,
}

/// One measured window over a fresh topology.
struct Pass {
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    window_s: f64,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
    records: Vec<Recorded>,
    traces: BTreeMap<u64, TraceRow>,
    engine: EngineCounters,
    coordinator: Option<Json>,
    probe_failures: u64,
}

fn dump_traces(conn: &mut Conn, into: &mut BTreeMap<u64, TraceRow>) -> Result<(), String> {
    let doc = conn.call(&trace_line(TRACE_BUFFER))?;
    let Some(Json::Arr(traces)) = doc.get("traces") else {
        return Err("trace dump has no traces".into());
    };
    for t in traces {
        let n = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0);
        let row = TraceRow {
            id: n("id"),
            class: t
                .get("class")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            queue_ns: n("queue_ns"),
            exec_ns: n("exec_ns"),
            total_ns: n("total_ns"),
        };
        into.insert(row.id, row);
    }
    Ok(())
}

/// The closed loop of one connection until `deadline`.
fn drive(
    addr: &str,
    mut stream: Stream,
    start: Instant,
    deadline: Instant,
    record: bool,
    dump: bool,
) -> ConnRun {
    let mut run = ConnRun::default();
    let mut conn = match Conn::connect(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            run.error = Some(e);
            return run;
        }
    };
    while Instant::now() < deadline {
        let op = stream.next_op();
        let line = op.line();
        let sent = Instant::now();
        let resp = conn.request(&line).map(str::to_string);
        let rtt_ns = sent.elapsed().as_nanos() as u64;
        run.attempted += 1;
        run.last_done = Some(Instant::now());
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                // The connection's state is unknown after a transport
                // error: stop this loop and count the request failed.
                run.failed += 1;
                run.error = Some(e);
                break;
            }
        };
        let doc = match parse(&resp) {
            Ok(d) if matches!(d.get("ok"), Some(Json::Bool(true))) && is_exact(&d) => d,
            _ => {
                run.failed += 1;
                continue;
            }
        };
        let epoch = doc.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        let mut cid = None;
        let mut answer = None;
        match &op {
            Op::Query { .. } => match answer_bits(&doc) {
                Ok(a) => answer = Some(a),
                Err(_) => {
                    run.failed += 1;
                    continue;
                }
            },
            Op::Add(point) => match doc.get("cid").and_then(Json::as_u64) {
                Some(c) => {
                    stream.added(c);
                    run.live.adds.push((c, point.clone()));
                    cid = Some(c);
                }
                None => {
                    run.failed += 1;
                    continue;
                }
            },
            Op::Remove(c) => {
                if matches!(doc.get("removed"), Some(Json::Bool(true))) {
                    run.live.removed.insert(*c);
                } else {
                    run.failed += 1;
                    continue;
                }
            }
        }
        let sent_ns = sent.duration_since(start).as_nanos() as u64;
        run.spans.push(Span {
            sent_ns,
            rtt_ns,
            query: op.is_query(),
        });
        if record {
            run.records.push(Recorded {
                seq: sent_ns,
                line,
                query: op.is_query(),
                epoch,
                answer,
                cid,
            });
        }
        if dump && run.attempted % DUMP_EVERY == 0 {
            if let Err(e) = dump_traces(&mut conn, &mut run.traces) {
                run.error = Some(e);
                break;
            }
        }
    }
    run
}

fn write_csv(store: &PointStore, path: &Path) -> Result<(), String> {
    let mut text = String::with_capacity(store.len() * 64);
    for (_, p) in store.iter() {
        let cells: Vec<String> = p.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(text, "{}", cells.join(","));
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn streams(cfg: &Config, spec: &ServeSpec) -> Vec<Stream> {
    match spec.mix {
        Mix::Read {
            pool,
            per_query,
            k,
            mutation_share,
        } => {
            let pool_store = std::sync::Arc::new(products(pool, sub_seed(cfg.seed, "pool")));
            let zipf = std::sync::Arc::new(Zipf::new(pool));
            (0..CONNECTIONS)
                .map(|c| {
                    Stream::read(
                        cfg.seed,
                        c,
                        std::sync::Arc::clone(&pool_store),
                        std::sync::Arc::clone(&zipf),
                        per_query,
                        k,
                        mutation_share,
                        16_384,
                    )
                })
                .collect()
        }
        Mix::Churn { query_share, k } => (0..CONNECTIONS)
            .map(|c| {
                let owned = (0..spec.competitors as u64)
                    .filter(|cid| *cid as usize % CONNECTIONS == c)
                    .collect();
                Stream::churn(cfg.seed, c, owned, query_share, k)
            })
            .collect(),
    }
}

/// Starts a topology `setups` times (keeping the last), runs the window,
/// then verifies against the oracle and shuts everything down.
fn pass(
    cfg: &Config,
    spec: &ServeSpec,
    seeded: &PointStore,
    csv: &Path,
    setups: usize,
    traced: bool,
    name: &str,
) -> Result<Pass, String> {
    let flags = ServeFlags {
        competitors: csv,
        wal_root: &cfg.work_dir,
        checkpoint_every: spec.checkpoint_every,
        trace_buffer: TRACE_BUFFER,
    };
    let mut setup_s = Vec::new();
    let mut topo = None;
    for i in 0..setups.max(1) {
        if let Some(t) = topo.take() {
            Topology::shutdown(t)?;
        }
        let t0 = Instant::now();
        topo = Some(Topology::start(
            &cfg.skyup,
            &flags,
            spec.shards,
            &format!("{name}-{i}"),
        )?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let topo = topo.expect("at least one set-up");
    let engine_addrs = topo.engine_addrs();
    let before = engine_stats(&engine_addrs)?;
    let front = topo.front.addr.clone();
    let dump = traced && spec.shards == 0;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = streams(cfg, spec)
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let front = front.as_str();
                s.spawn(move || drive(front, stream, start, deadline, traced, dump && c == 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let end = runs
        .iter()
        .filter_map(|r| r.last_done)
        .max()
        .unwrap_or(deadline);

    let mut out = Pass {
        setup_s,
        peak_rss_mb: 0.0,
        window_s: end.duration_since(start).as_secs_f64(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
        records: Vec::new(),
        traces: BTreeMap::new(),
        engine: EngineCounters::default(),
        coordinator: None,
        probe_failures: 0,
    };
    let mut live = LiveSet::default();
    for r in runs {
        if let Some(e) = r.error {
            eprintln!("ledger: connection stopped early: {e}");
        }
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.spans.extend(r.spans);
        out.records.extend(r.records);
        out.traces.extend(r.traces);
        live.absorb(r.live);
    }

    let mut conn = Conn::connect(&front, Duration::from_secs(10))?;
    if dump {
        dump_traces(&mut conn, &mut out.traces)?;
    }
    out.engine = engine_stats(&engine_addrs)?.since(&before);
    if spec.shards > 0 {
        out.coordinator = Some(conn.call(&verb_line("metrics"))?);
    }
    let oracle = live.oracle(seeded)?;
    out.probe_failures = check_probes(&mut conn, &oracle, cfg.seed, cfg.corrupt_answer)?;
    drop(conn);
    out.peak_rss_mb = topo.peak_rss_mb();
    topo.shutdown()?;
    Ok(out)
}

fn query_us(p: &Pass) -> Vec<f64> {
    p.spans
        .iter()
        .filter(|s| s.query)
        .map(|s| ns_to_us(s.rtt_ns))
        .collect()
}

fn mutation_us(p: &Pass) -> Vec<f64> {
    p.spans
        .iter()
        .filter(|s| !s.query)
        .map(|s| ns_to_us(s.rtt_ns))
        .collect()
}

/// The request ledger of a traced single-server run: every client
/// round trip paired with its server trace.
struct Ledger {
    unattributed_us: Vec<f64>,
    queue_us: Vec<f64>,
    exec_us: Vec<f64>,
    shares: [f64; 4],
    problems: Vec<String>,
}

/// Pairs client spans (send order) with the server's traces (ingress
/// order, `stats` reads excluded) and checks conservation:
/// `Σ rtt = Σ queue + Σ exec + Σ other + Σ unattributed`, with every
/// request traced exactly once and no trace lost.
fn ledger(spans: &[Span], traces: &BTreeMap<u64, TraceRow>) -> Ledger {
    let mut problems = Vec::new();
    if let (Some(first), Some(last)) = (traces.keys().next(), traces.keys().next_back()) {
        let expected = last - first + 1;
        if expected != traces.len() as u64 {
            problems.push(format!(
                "trace ids {first}..={last} have {} gaps (overwritten between reads)",
                expected - traces.len() as u64
            ));
        }
    }
    let mut client: Vec<Span> = spans.to_vec();
    client.sort_by_key(|s| s.sent_ns);
    let server: Vec<&TraceRow> = traces.values().filter(|t| t.class != "stats").collect();
    if client.len() != server.len() {
        problems.push(format!(
            "{} requests but {} traces",
            client.len(),
            server.len()
        ));
    }
    // Requests the two connections sent within microseconds of each
    // other may reach the server in the other order; swap a neighbour
    // pair whose classes only fit the other way round.
    let fits = |s: &Span, t: &TraceRow| s.query == t.class.starts_with("query");
    let n = client.len().min(server.len());
    let mut i = 0;
    while i + 1 < n {
        if !fits(&client[i], server[i])
            && fits(&client[i + 1], server[i])
            && fits(&client[i], server[i + 1])
        {
            client.swap(i, i + 1);
        }
        i += 1;
    }
    let (mut rtt, mut queue, mut exec, mut other) = (0u64, 0u64, 0u64, 0u64);
    let mut out = Ledger {
        unattributed_us: Vec::with_capacity(n),
        queue_us: Vec::with_capacity(n),
        exec_us: Vec::with_capacity(n),
        shares: [0.0; 4],
        problems,
    };
    let mut unpaired = 0;
    for (s, t) in client.iter().zip(&server) {
        if !fits(s, t) || t.total_ns > s.rtt_ns || t.queue_ns + t.exec_ns > t.total_ns {
            unpaired += 1;
        }
        rtt += s.rtt_ns;
        queue += t.queue_ns;
        exec += t.exec_ns;
        other += t.total_ns.saturating_sub(t.queue_ns + t.exec_ns);
        out.unattributed_us
            .push((s.rtt_ns as f64 - t.total_ns as f64) / 1e3);
        out.queue_us.push(ns_to_us(t.queue_ns));
        out.exec_us.push(ns_to_us(t.exec_ns));
    }
    if unpaired > 0 {
        out.problems
            .push(format!("{unpaired} requests do not pair with their trace"));
    }
    let unattributed = rtt as f64 - (queue + exec + other) as f64;
    let parts = [queue as f64, exec as f64, other as f64, unattributed];
    let sum: f64 = parts.iter().sum();
    if rtt == 0 || (sum - rtt as f64).abs() > 1e-6 * rtt as f64 || unattributed < 0.0 {
        out.problems.push("the ledger does not conserve".into());
    }
    for (share, part) in out.shares.iter_mut().zip(parts) {
        *share = ratio(part, rtt as f64);
    }
    out
}

fn coordinator_metrics(m: &mut Metrics, doc: &Json, queries: u64, mutations: u64) {
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let probe = |shard: usize, q: &str| {
        let Some(Json::Arr(shards)) = doc.get("shards") else {
            return 0.0;
        };
        shards
            .get(shard)
            .and_then(|s| s.get("probe_latency_ns"))
            .and_then(|h| h.get("cumulative"))
            .and_then(|h| h.get(q))
            .and_then(Json::as_u64)
            .map_or(0.0, ns_to_us)
    };
    m.put("coordinator.shard0.probe_rtt_p50_us", probe(0, "p50"), "us");
    m.put("coordinator.shard0.probe_rtt_p99_us", probe(0, "p99"), "us");
    m.put("coordinator.shard1.probe_rtt_p50_us", probe(1, "p50"), "us");
    m.put("coordinator.shard1.probe_rtt_p99_us", probe(1, "p99"), "us");
    m.put(
        "coordinator.merge_drop_ratio",
        ratio(counter("merge_dropped"), counter("gather_points")),
        "ratio",
    );
    m.put(
        "coordinator.gather_points_per_query",
        ratio(counter("gather_points"), queries as f64),
        "count",
    );
    m.put(
        "coordinator.stage_acks_per_mutation",
        ratio(counter("stage_acks"), mutations as f64),
        "count",
    );
}

/// Runs a serve workload: the untraced pass always, and with `--trace 1`
/// a second, traced pass over a fresh topology plus the in-process
/// replay of its recorded requests.
pub fn run(cfg: &Config, spec: &ServeSpec) -> Result<Outcome, String> {
    let seeded = competitors(spec.competitors, sub_seed(cfg.seed, "competitors"));
    let csv = cfg.work_dir.join("competitors.csv");
    write_csv(&seeded, &csv)?;

    let setups = if cfg.trace { 1 } else { SETUPS };
    let plain = pass(cfg, spec, &seeded, &csv, setups, false, "plain")?;
    let mut notes = Vec::new();
    let mut failed = plain.failed + plain.probe_failures;
    let mut attempted = plain.attempted;
    let mut m = Metrics::default();
    let plain_query_p50 = median(&query_us(&plain));

    if !cfg.trace {
        m.put("setup_s", median(&plain.setup_s), "s");
        m.put("peak_rss_mb", plain.peak_rss_mb, "MB");
        m.put(
            "ops_per_s",
            ratio((plain.attempted - plain.failed) as f64, plain.window_s),
            "1/s",
        );
        let q = query_us(&plain);
        m.put("query_p50_us", median(&q), "us");
        m.put("query_p90_us", quantile(&q, 0.90), "us");
        notes.push(format!(
            "{} queries, {} mutations in {:.2} s",
            q.len(),
            mutation_us(&plain).len(),
            plain.window_s
        ));
        return Ok(Outcome::new(attempted, failed, m, notes));
    }

    let mut traced = pass(cfg, spec, &seeded, &csv, 1, true, "traced")?;
    attempted += traced.attempted;
    failed += traced.failed + traced.probe_failures;
    let mut records = std::mem::take(&mut traced.records);
    let rep = replay(
        &seeded,
        &mut records,
        &cfg.work_dir.join("replay-wal"),
        spec.checkpoint_every.unwrap_or(1024),
    )?;
    if rep.mismatches > 0 {
        failed += rep.mismatches;
        notes.push(format!(
            "replay: {} requests answered differently in process",
            rep.mismatches
        ));
    }

    let queries = traced.spans.iter().filter(|s| s.query).count() as u64;
    let mutations = traced.spans.len() as u64 - queries;
    let q = query_us(&traced);
    let mu = mutation_us(&traced);
    m.put("query_p99_us", quantile(&q, 0.99), "us");
    m.put("mutation_p50_us", median(&mu), "us");
    m.put("mutation_p99_us", quantile(&mu, 0.99), "us");
    if spec.shards == 0 {
        let l = ledger(&traced.spans, &traced.traces);
        if !l.problems.is_empty() {
            failed += 1;
            notes.extend(l.problems.iter().map(|p| format!("ledger: {p}")));
        }
        notes.push(format!(
            "ledger: queue {:.6} + exec {:.6} + other server {:.6} + unattributed {:.6} of Σ rtt",
            l.shares[0], l.shares[1], l.shares[2], l.shares[3]
        ));
        m.put("net.unattributed_p50_us", median(&l.unattributed_us), "us");
        m.put(
            "net.unattributed_p99_us",
            quantile(&l.unattributed_us, 0.99),
            "us",
        );
        m.put("server.queue_p50_us", median(&l.queue_us), "us");
        m.put("server.queue_p99_us", quantile(&l.queue_us, 0.99), "us");
        m.put("server.exec_p50_us", median(&l.exec_us), "us");
        m.put("server.exec_p99_us", quantile(&l.exec_us, 0.99), "us");
        m.put("ledger.queue_share", l.shares[0], "ratio");
        m.put("ledger.exec_share", l.shares[1], "ratio");
        m.put("ledger.other_share", l.shares[2], "ratio");
        m.put("ledger.unattributed_share", l.shares[3], "ratio");
    }
    // The coordinator serves no `trace` verb, so on the sharded path
    // the net/server/ledger metrics are absent and read 0.
    let e = &traced.engine;
    m.put(
        "server.shed_ratio",
        ratio(e.requests_shed as f64, queries as f64),
        "ratio",
    );
    m.put("proto.parse_us", median(&rep.parse_us), "us");
    m.put("proto.render_us", median(&rep.render_us), "us");
    m.put(
        "cache.hit_ratio",
        ratio(e.cache_hit as f64, (e.cache_hit + e.cache_miss) as f64),
        "ratio",
    );
    m.put(
        "cache.evictions_per_mutation",
        ratio(e.cache_evictions as f64, mutations as f64),
        "count",
    );
    m.put("engine.answer_us", median(&rep.answer_us), "us");
    m.put("engine.apply_p50_us", median(&rep.apply_us), "us");
    m.put("engine.apply_p99_us", quantile(&rep.apply_us, 0.99), "us");
    m.put(
        "engine.apply_rebuild_us",
        median(&rep.apply_rebuild_us),
        "us",
    );
    m.put("engine.rebuilds", e.rebuilds as f64, "count");
    m.put(
        "wal.fsyncs_per_mutation",
        ratio(e.wal_fsyncs as f64, e.wal_appends as f64),
        "count",
    );
    m.put(
        "wal.bytes_per_mutation",
        ratio(e.wal_bytes as f64, e.wal_appends as f64),
        "B",
    );
    m.put("wal.checkpoints", e.checkpoints as f64, "count");
    m.put(
        "wal.checkpoint_apply_us",
        median(&rep.checkpoint_apply_us),
        "us",
    );
    m.put("core.dominators_us", median(&rep.dominators_us), "us");
    m.put("core.upgrade_us", median(&rep.upgrade_us), "us");
    m.put(
        "core.evaluated_ratio",
        ratio(rep.misses as f64, rep.products as f64),
        "ratio",
    );
    m.put("rtree.bulk_load_ms", rep.bulk_load_ms, "ms");
    put_work(&mut m, &rep.work, rep.queries as f64);
    if let Some(doc) = &traced.coordinator {
        coordinator_metrics(&mut m, doc, queries, mutations);
    }
    m.put(
        "trace.overhead_query_p50_us",
        median(&q) - plain_query_p50,
        "us",
    );
    m.put(
        "failed_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    notes.push(format!(
        "traced: {} queries, {} mutations, {} rebuilds, {} checkpoints",
        q.len(),
        mu.len(),
        e.rebuilds,
        e.checkpoints
    ));
    Ok(Outcome::new(attempted, failed, m, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, class: &str, queue: u64, exec: u64, total: u64) -> (u64, TraceRow) {
        (
            id,
            TraceRow {
                id,
                class: class.into(),
                queue_ns: queue,
                exec_ns: exec,
                total_ns: total,
            },
        )
    }

    fn span(sent_ns: u64, rtt_ns: u64, query: bool) -> Span {
        Span {
            sent_ns,
            rtt_ns,
            query,
        }
    }

    #[test]
    fn ledger_conserves_and_swaps_crossed_neighbours() {
        let traces: BTreeMap<u64, TraceRow> = [
            trace(0, "stats", 0, 5, 5),
            trace(1, "mutation", 0, 30, 30),
            trace(2, "query_cold", 10, 20, 40),
        ]
        .into_iter()
        .collect();
        // The query was sent first but reached the server second.
        let spans = [span(100, 1_000, true), span(101, 500, false)];
        let l = ledger(&spans, &traces);
        assert!(l.problems.is_empty(), "{:?}", l.problems);
        let sum: f64 = l.shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(l.unattributed_us, vec![0.47, 0.96]);
    }

    #[test]
    fn ledger_flags_lost_traces() {
        let traces: BTreeMap<u64, TraceRow> = [
            trace(0, "query_cold", 0, 1, 1),
            trace(2, "query_cold", 0, 1, 1),
        ]
        .into_iter()
        .collect();
        let spans = [span(1, 10, true), span(2, 10, true), span(3, 10, true)];
        let l = ledger(&spans, &traces);
        assert_eq!(l.problems.len(), 2, "{:?}", l.problems);
    }
}
