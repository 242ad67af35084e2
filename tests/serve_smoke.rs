//! End-to-end smoke test of `skyup serve` / `skyup query --connect`:
//! spawns the real binary on an ephemeral port, drives it with
//! concurrent NDJSON clients while interleaving mutations, checks the
//! serving counters (the cache must actually hit), exercises the
//! client exit-code contract (0 exact / 2 partial / 1 error), and shuts
//! the server down cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_skyup"))
}

fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skyup-serve-smoke-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut competitors = String::new();
    for i in 0..6 {
        for j in 0..6 {
            competitors.push_str(&format!(
                "{},{}\n",
                0.15 * (i + 1) as f64,
                0.15 * (j + 1) as f64
            ));
        }
    }
    let comp = dir.join("competitors.csv");
    std::fs::write(&comp, competitors).unwrap();
    comp
}

/// Starts a server child and returns it with the address it printed.
fn spawn_server(comp: &PathBuf, extra: &[&str]) -> (Child, String) {
    let mut child = bin()
        .arg("serve")
        .arg("--competitors")
        .arg(comp)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn skyup serve");
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected listen line: {line:?}"))
        .to_string();
    (child, addr)
}

/// One NDJSON round trip over an existing connection.
fn round_trip(stream: &mut TcpStream, request: &str) -> String {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("send request");
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim_end().to_string()
}

fn field_u64(response: &str, key: &str) -> Option<u64> {
    let doc = skyup::obs::json::parse(response).ok()?;
    doc.get(key).and_then(|v| v.as_u64())
}

#[test]
fn serve_answers_concurrent_clients_with_cache_hits() {
    let comp = fixture("concurrent");
    let (mut child, addr) = spawn_server(&comp, &["--threads", "2", "--queue-cap", "32"]);

    // Four clients hammer the same small product set (so answers
    // repeat and the cache can hit) while the main thread mutates.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).expect("connect");
                for round in 0..25 {
                    let t = 0.8 + 0.05 * ((c + round) % 4) as f64;
                    let resp = round_trip(
                        &mut stream,
                        &format!("{{\"op\":\"query\",\"products\":[[{t},{t}]],\"k\":1}}"),
                    );
                    assert!(resp.contains("\"ok\":true"), "client {c}: {resp}");
                    assert!(
                        resp.contains("\"completion\":\"exact\""),
                        "client {c}: {resp}"
                    );
                }
            })
        })
        .collect();

    let mut admin = TcpStream::connect(&addr).expect("connect admin");
    let mut added: Vec<u64> = Vec::new();
    for i in 0..10 {
        let v = 0.4 + 0.02 * i as f64;
        let resp = round_trip(
            &mut admin,
            &format!("{{\"op\":\"add\",\"point\":[{v},{v}]}}"),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        added.push(field_u64(&resp, "cid").expect("add returns a cid"));
    }
    for cid in added.iter().take(5) {
        let resp = round_trip(&mut admin, &format!("{{\"op\":\"remove\",\"cid\":{cid}}}"));
        assert!(resp.contains("\"removed\":true"), "{resp}");
    }
    // A malformed line errors without tearing down the connection.
    let resp = round_trip(&mut admin, "{\"op\":\"nope\"}");
    assert!(resp.contains("\"ok\":false"), "{resp}");

    for client in clients {
        client.join().expect("client thread");
    }

    let stats = round_trip(&mut admin, "{\"op\":\"stats\"}");
    assert!(stats.contains("\"ok\":true"), "{stats}");
    let doc = skyup::obs::json::parse(&stats).expect("stats is JSON");
    let counters = doc.get("counters").expect("counters object");
    let hit = counters.get("cache_hit").and_then(|v| v.as_u64()).unwrap();
    let swaps = counters
        .get("epoch_swaps")
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(hit > 0, "no cache hits under repeated queries: {stats}");
    assert_eq!(
        swaps, 15,
        "10 adds + 5 removes must swap 15 epochs: {stats}"
    );

    let ack = round_trip(&mut admin, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    let status = child.wait().expect("server exit");
    assert_eq!(status.code(), Some(0), "clean shutdown must exit 0");
}

/// Points on the anti-diagonal `x + y = 1`: mutually incomparable, so
/// the whole set is the skyline, large enough (200 >= the view's
/// `MEMO_MIN_SKYLINE`) that the dominator memo engages.
fn anti_diagonal_fixture(tag: &str) -> (PathBuf, Vec<Vec<f64>>) {
    let dir = std::env::temp_dir().join(format!("skyup-serve-smoke-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            let x = (i as f64 + 0.5) / 200.0;
            vec![x, 1.0 - x]
        })
        .collect();
    let text: String = rows
        .iter()
        .map(|r| format!("{},{}\n", r[0], r[1]))
        .collect();
    let comp = dir.join("competitors.csv");
    std::fs::write(&comp, text).unwrap();
    (comp, rows)
}

/// Concurrent clients against a 2-worker server get, line for line, the
/// bytes an in-process engine over the same competitors renders — and
/// the server survives hostile input (an oversized line, a client that
/// vanishes mid-request) with its workers filling one snapshot's memo.
#[test]
fn server_matches_in_process_engine_and_survives_hostile_lines() {
    use skyup_serve::proto::{parse_request, render_query_response, Request};
    use skyup_serve::{execute_query, Engine, EngineConfig};

    let (comp, rows) = anti_diagonal_fixture("one-path");
    let (mut child, addr) = spawn_server(&comp, &["--threads", "2", "--queue-cap", "32"]);
    let mut store = skyup::geom::PointStore::new(2);
    for row in &rows {
        store.push(row);
    }
    let engine = Engine::with_competitors(store, EngineConfig::default());

    // Four concurrent connections, each a fixed per-client query
    // sequence. Every response is a pure function of the static
    // snapshot, so each line must equal the in-process rendering.
    let requests = |c: usize| -> Vec<String> {
        (0..30)
            .map(|round| {
                let t = 0.7 + 0.01 * ((c * 31 + round) % 40) as f64;
                let k = 1 + (c + round) % 3;
                format!("{{\"op\":\"query\",\"products\":[[{t},{t}],[{t},0.95]],\"k\":{k}}}")
            })
            .collect()
    };
    let joins: Vec<_> = (0..4)
        .map(|c: usize| {
            let addr = addr.clone();
            let lines = requests(c);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).expect("connect");
                lines
                    .iter()
                    .map(|line| round_trip(&mut stream, line))
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    for (c, join) in joins.into_iter().enumerate() {
        let got = join.join().expect("client thread");
        for (line, resp) in requests(c).iter().zip(&got) {
            let Ok(Request::Query(req)) = parse_request(line) else {
                panic!("not a query line: {line}");
            };
            let want = execute_query(&engine, &req).expect("valid query");
            assert_eq!(resp, &render_query_response(&want), "client {c}: {line}");
        }
    }

    // Hostile input against the live server. An oversized line (past
    // the 1 MiB cap) is rejected without killing the connection.
    let mut hostile = TcpStream::connect(&addr).expect("connect hostile");
    let mut big = vec![b'x'; 3 << 19]; // 1.5x the cap
    big.push(b'\n');
    hostile.write_all(&big).expect("send oversized line");
    hostile.flush().unwrap();
    let mut reader = BufReader::new(hostile.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("read rejection");
    assert!(
        line.contains("\"ok\":false") && line.contains("exceeds"),
        "{line}"
    );
    let resp = round_trip(
        &mut hostile,
        "{\"op\":\"query\",\"products\":[[0.9,0.9]],\"k\":1}",
    );
    assert!(
        resp.contains("\"ok\":true"),
        "connection must survive the oversized line: {resp}"
    );

    // A ghost client: one full request, then half a request and a
    // vanishing act. The full request is answered; the server stays up.
    {
        let mut ghost = TcpStream::connect(&addr).expect("connect ghost");
        let resp = round_trip(
            &mut ghost,
            "{\"op\":\"query\",\"products\":[[0.8,0.8]],\"k\":1}",
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        ghost
            .write_all(b"{\"op\":\"query\",\"products\":[[0.8,")
            .expect("send partial line");
        // Dropped here: EOF mid-request on the server side.
    }

    let stats = round_trip(&mut hostile, "{\"op\":\"stats\"}");
    let doc = skyup::obs::json::parse(&stats).expect("stats is JSON");
    let counters = doc.get("counters").expect("counters object");
    let counter = |key: &str| counters.get(key).and_then(|v| v.as_u64()).unwrap();
    assert!(
        counter("dominator_memo_hits") > 0,
        "the workers never shared a memoized dominator list: {stats}"
    );

    let ack = round_trip(&mut hostile, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert_eq!(child.wait().expect("server exit").code(), Some(0));
}

/// The observability verbs: every queued request produces exactly one
/// trace, metrics polling is itself untraced (so it never perturbs the
/// accounting it reports), the histogram bucket counts conserve, and
/// the slow log catches partial completions even at `--slow-ms 0`.
#[test]
fn metrics_and_trace_verbs_account_for_every_request() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let comp = fixture("telemetry");
    let (mut child, addr) = spawn_server(
        &comp,
        &[
            "--threads",
            "2",
            "--queue-cap",
            "32",
            "--slow-ms",
            "0",
            "--trace-buffer",
            "64",
        ],
    );

    // A poller hammers `metrics` for the whole run: reads must never
    // error and never show up in the trace accounting.
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect poller");
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let resp = round_trip(&mut stream, "{\"op\":\"metrics\"}");
                assert!(resp.contains("\"ok\":true"), "poll failed: {resp}");
                polls += 1;
            }
            polls
        })
    };

    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).expect("connect");
                for round in 0..20 {
                    let t = 0.8 + 0.05 * ((c + round) % 4) as f64;
                    let resp = round_trip(
                        &mut stream,
                        &format!("{{\"op\":\"query\",\"products\":[[{t},{t}]],\"k\":1}}"),
                    );
                    assert!(resp.contains("\"completion\":\"exact\""), "{resp}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    stop.store(true, Ordering::Relaxed);
    assert!(poller.join().expect("poller thread") > 0);

    let mut admin = TcpStream::connect(&addr).expect("connect admin");
    // One budget-shed query: partial completion, so it must enter the
    // slow log even though the latency threshold is disabled.
    let resp = round_trip(
        &mut admin,
        "{\"op\":\"query\",\"products\":[[0.95,0.95]],\"k\":1,\"max_products\":0}",
    );
    assert!(resp.contains("\"completion\":\"partial\""), "{resp}");

    // Traces are recorded before the reply is sent, so having seen all
    // 61 query responses we must see exactly 61 traces — the metrics
    // polls don't count.
    let metrics = round_trip(&mut admin, "{\"op\":\"metrics\"}");
    let doc = skyup::obs::json::parse(&metrics).expect("metrics is JSON");
    assert_eq!(
        field_u64(&metrics, "traces_recorded"),
        Some(61),
        "{metrics}"
    );
    assert_eq!(field_u64(&metrics, "slow_recorded"), Some(1), "{metrics}");
    let classes = doc.get("classes").expect("classes object");
    let mut total = 0u64;
    for class in [
        "query_cached",
        "query_cold",
        "query_shed",
        "mutation",
        "stats",
    ] {
        let cum = classes
            .get(class)
            .and_then(|c| c.get("cumulative"))
            .unwrap_or_else(|| panic!("class {class} missing: {metrics}"));
        let count = cum.get("count").and_then(|v| v.as_u64()).unwrap();
        let bucket_sum: u64 = match cum.get("buckets").expect("buckets array") {
            skyup::obs::json::Json::Arr(bs) => bs
                .iter()
                .map(|b| b.get("count").and_then(|v| v.as_u64()).unwrap())
                .sum(),
            _ => panic!("buckets must be an array"),
        };
        assert_eq!(bucket_sum, count, "{class}: bucket conservation");
        total += count;
    }
    assert_eq!(total, 61, "class counts must sum to traces_recorded");

    // Trace dump: newest-first ids, bounded by n, slow log holds the
    // one partial trace.
    let dump = round_trip(&mut admin, "{\"op\":\"trace\",\"n\":8}");
    let doc = skyup::obs::json::parse(&dump).expect("trace dump is JSON");
    assert_eq!(field_u64(&dump, "count"), Some(8), "{dump}");
    let skyup::obs::json::Json::Arr(traces) = doc.get("traces").expect("traces array") else {
        panic!("traces must be an array: {dump}");
    };
    let ids: Vec<u64> = traces
        .iter()
        .map(|t| t.get("id").and_then(|v| v.as_u64()).unwrap())
        .collect();
    assert!(ids.windows(2).all(|w| w[0] > w[1]), "newest first: {ids:?}");
    for t in traces {
        let total_ns = t.get("total_ns").and_then(|v| v.as_u64()).unwrap();
        let exec_ns = t.get("exec_ns").and_then(|v| v.as_u64()).unwrap();
        assert!(total_ns >= exec_ns, "total covers execution: {dump}");
    }
    let skyup::obs::json::Json::Arr(slow) = doc.get("slow").expect("slow array") else {
        panic!("slow must be an array: {dump}");
    };
    assert_eq!(slow.len(), 1, "{dump}");
    assert_eq!(
        slow[0].get("completion").and_then(|v| v.as_str()),
        Some("partial"),
        "{dump}"
    );

    // Each computed query's trace carries its own work: every cold
    // trace ran at least one dominance test.
    let dump = round_trip(&mut admin, "{\"op\":\"trace\",\"n\":64}");
    let doc = skyup::obs::json::parse(&dump).expect("trace dump is JSON");
    let skyup::obs::json::Json::Arr(traces) = doc.get("traces").expect("traces array") else {
        panic!("traces must be an array: {dump}");
    };
    let cold: Vec<_> = traces
        .iter()
        .filter(|t| t.get("class").and_then(|v| v.as_str()) == Some("query_cold"))
        .collect();
    assert!(!cold.is_empty(), "no cold query traced: {dump}");
    for t in cold {
        let tests = t.get("dominance_tests").and_then(|v| v.as_u64()).unwrap();
        assert!(tests > 0, "a cold trace reports no dominance tests: {dump}");
    }

    // n = 0 is a client error, not a server fault.
    let resp = round_trip(&mut admin, "{\"op\":\"trace\",\"n\":0}");
    assert!(resp.contains("\"ok\":false"), "{resp}");

    // A stats read is itself traced (recorded after its own snapshot),
    // so the next metrics read shows exactly one more trace.
    let stats = round_trip(&mut admin, "{\"op\":\"stats\"}");
    assert!(stats.contains("\"queue_depth\""), "{stats}");
    assert_eq!(
        field_u64(&stats, "traces_recorded"),
        None,
        "counters are nested"
    );
    let metrics = round_trip(&mut admin, "{\"op\":\"metrics\"}");
    assert_eq!(
        field_u64(&metrics, "traces_recorded"),
        Some(62),
        "{metrics}"
    );

    let ack = round_trip(&mut admin, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert_eq!(child.wait().expect("server exit").code(), Some(0));
}

/// The client-side flags for the observability verbs: `--metrics` and
/// `--trace` print the JSON bodies and exit 0.
#[test]
fn query_client_metrics_and_trace_flags() {
    let comp = fixture("client-obs");
    let (mut child, addr) = spawn_server(&comp, &[]);

    let out = bin()
        .args(["query", "--connect", &addr, "-t", "0.9,0.9"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    let out = bin()
        .args(["query", "--connect", &addr, "--metrics"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("\"traces_recorded\":1"), "{body}");
    assert!(body.contains("\"query_cold\""), "{body}");

    let out = bin()
        .args(["query", "--connect", &addr, "--trace", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(
        body.contains("\"traces\"") && body.contains("\"slow\""),
        "{body}"
    );
    assert!(body.contains("\"count\":1"), "one trace so far: {body}");

    let out = bin()
        .args(["query", "--connect", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn query_client_exit_codes_and_warm_start() {
    let comp = fixture("codes");
    let dir = comp.parent().unwrap().to_path_buf();
    let snap = dir.join("warm.snap");
    let (mut child, addr) = spawn_server(&comp, &["--save-snapshot", snap.to_str().unwrap()]);

    // Exact answer: exit 0, response on stdout.
    let out = bin()
        .args(["query", "--connect", &addr, "-t", "0.95,0.95", "-k", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let exact = String::from_utf8_lossy(&out.stdout).trim_end().to_string();
    assert!(exact.contains("\"completion\":\"exact\""), "{exact}");

    // Budget shed: exit 2.
    let out = bin()
        .args([
            "query",
            "--connect",
            &addr,
            "-t",
            "0.95,0.95",
            "--max-products",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "partial answers must exit 2");

    // Server-side validation error: exit 1 (dims mismatch).
    let out = bin()
        .args(["query", "--connect", &addr, "-t", "0.9,0.9,0.9"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "server errors must exit 1");

    let out = bin()
        .args(["query", "--connect", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(child.wait().unwrap().code(), Some(0));

    // A warm-started server answers the same query bit-identically.
    let mut warm = bin()
        .arg("serve")
        .arg("--warm-start")
        .arg(&snap)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(warm.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .unwrap();
    let warm_addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap()
        .to_string();
    let out = bin()
        .args([
            "query",
            "--connect",
            &warm_addr,
            "-t",
            "0.95,0.95",
            "-k",
            "2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim_end(),
        exact,
        "warm start must reproduce the cold answer byte for byte"
    );
    let out = bin()
        .args(["query", "--connect", &warm_addr, "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(warm.wait().unwrap().code(), Some(0));
}

/// `{"op":"health"}` answers on every server and reflects durability
/// state: a plain server reports `wal:false`, a `--wal` server reports
/// its WAL sequence number advancing with each acked mutation plus a
/// zeroed recovery report on a fresh log. The `--health` client flag
/// prints the body and exits 0.
#[test]
fn health_verb_reports_epoch_and_durability() {
    let comp = fixture("health");
    let (mut child, addr) = spawn_server(&comp, &[]);
    let mut admin = TcpStream::connect(&addr).expect("connect");

    let resp = round_trip(&mut admin, "{\"op\":\"health\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert_eq!(field_u64(&resp, "epoch"), Some(0), "{resp}");
    assert!(field_u64(&resp, "queue_depth").is_some(), "{resp}");
    assert!(resp.contains("\"wal\":false"), "{resp}");
    assert!(resp.contains("\"read_only\":false"), "{resp}");
    assert!(
        !resp.contains("wal_seq"),
        "no durability block without --wal: {resp}"
    );

    let resp = round_trip(&mut admin, "{\"op\":\"add\",\"point\":[0.5,0.5]}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = round_trip(&mut admin, "{\"op\":\"health\"}");
    assert_eq!(field_u64(&resp, "epoch"), Some(1), "{resp}");

    let out = bin()
        .args(["query", "--connect", &addr, "--health"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("\"epoch\":1"), "{body}");

    let out = bin()
        .args(["query", "--connect", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(child.wait().unwrap().code(), Some(0));

    // A durable server: wal_seq tracks acked mutations, recovery report
    // is all zeros on a freshly initialised log.
    let wal_dir = std::env::temp_dir().join("skyup-serve-smoke-health-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (mut child, addr) = spawn_server(&comp, &["--wal", wal_dir.to_str().unwrap()]);
    let mut admin = TcpStream::connect(&addr).expect("connect");
    let resp = round_trip(&mut admin, "{\"op\":\"health\"}");
    assert!(resp.contains("\"wal\":true"), "{resp}");
    assert_eq!(field_u64(&resp, "wal_seq"), Some(0), "{resp}");
    for i in 0..3 {
        let v = 0.3 + 0.01 * i as f64;
        let resp = round_trip(
            &mut admin,
            &format!("{{\"op\":\"add\",\"point\":[{v},{v}]}}"),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    let resp = round_trip(&mut admin, "{\"op\":\"health\"}");
    assert_eq!(field_u64(&resp, "wal_seq"), Some(3), "{resp}");
    assert_eq!(field_u64(&resp, "epoch"), Some(3), "{resp}");
    assert!(resp.contains("\"read_only\":false"), "{resp}");
    let doc = skyup::obs::json::parse(&resp).expect("health is JSON");
    let recovery = doc.get("recovery").expect("recovery object");
    for key in ["checkpoint_seq", "replayed", "torn_truncated"] {
        assert_eq!(
            recovery.get(key).and_then(|v| v.as_u64()),
            Some(0),
            "fresh log must report a zeroed recovery: {resp}"
        );
    }

    let ack = round_trip(&mut admin, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn bad_arguments_exit_one() {
    // serve with no source of competitors.
    let out = bin().arg("serve").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    // query without --connect.
    let out = bin().args(["query", "-t", "0.9,0.9"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    // the batch dispatcher's flags are gone: unknown arguments.
    let comp = fixture("retired-flags");
    for flag in ["--batch-window-us", "--max-batch"] {
        let out = bin()
            .arg("serve")
            .arg("--competitors")
            .arg(&comp)
            .args([flag, "16"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument {flag}")),
            "{stderr}"
        );
    }
    // a corrupt warm-start snapshot is rejected, not a panic.
    let dir = std::env::temp_dir().join("skyup-serve-smoke-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.snap");
    std::fs::write(&bad, b"not a snapshot at all").unwrap();
    let out = bin()
        .arg("serve")
        .arg("--warm-start")
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot"), "{stderr}");
}
