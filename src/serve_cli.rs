//! The `skyup serve` / `skyup query --connect` subcommands: the CLI
//! face of the [`skyup_serve`] crate.
//!
//! `skyup serve` loads a competitor set (from a delimited file or a
//! `--warm-start` snapshot written by `--save-snapshot`), starts the
//! worker pool, prints `listening on HOST:PORT` on stdout, and runs the
//! NDJSON accept loop until a client sends `{"op":"shutdown"}`.
//!
//! `skyup query --connect HOST:PORT` is a one-shot client: it sends a
//! single request line (query, add, remove, stats, metrics, trace, or
//! shutdown), prints
//! the response line, and exits with the same code contract as the
//! offline CLI — `0` exact, `2` partial (a budget fired or the server
//! shed the request), `1` error.
//!
//! `skyup serve --shard-id I --shards N` starts the same server in the
//! shard role (slab `I` of the partition, globally assigned competitor
//! ids, mutations only via the coordinator's two-phase publish), and
//! `skyup coordinate --shard HOST:PORT ...` starts the coordinator in
//! front of those shards — clients speak to it with the unchanged
//! `query` verbs, and it answers them from its replicated global
//! skyline.

use skyup_data::read_delimited;
use skyup_obs::json::{parse, Json};
use skyup_rtree::persist::write_atomic;
use skyup_serve::proto::parse_cost;
use skyup_serve::{
    bind_local, serve, wal, Client, Coordinator, CoordinatorDispatch, Engine, EngineConfig,
    FsyncPolicy, Partition, ServeConfig, ServeHandle, ShardDispatch, ShardState, TcpLink,
    WalConfig,
};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Usage text for the serving subcommands, appended to the main help.
pub const SERVE_USAGE: &str = "\
serve subcommands:
  skyup serve (--competitors <file> | --warm-start <snap>) [options]
    --port <n>             TCP port on 127.0.0.1 (default 0 = ephemeral)
    --threads <n>          query worker threads (default 2)
    --queue-cap <n>        bounded request queue capacity (default 64)
    --slow-ms <n>          slow-query log threshold in milliseconds
                           (default 100; 0 keeps only shed/partial)
    --trace-buffer <n>     flight-recorder depth in traces (default 256)
    --delimiter <c>        cell delimiter for --competitors (default ',')
    --header               skip the first line of --competitors
    --save-snapshot <f>    write a versioned snapshot file, then serve
    --wal <dir>            make mutations durable: append to a
                           write-ahead log before acking; on restart,
                           recover checkpoint + log (tolerating a torn
                           tail) and ignore --competitors/--warm-start
    --fsync <policy>       when WAL appends reach disk: always (default),
                           interval:<n>, or never
    --checkpoint-every <n> snapshot + truncate the log every n appends
                           (default 1024; 0 = only the initial one)
    --shard-id <i>         serve shard i of an n-shard topology (needs
                           --shards; seeds only this shard's partition
                           slab of --competitors, under global ids)
    --shards <n>           shard count of the topology
    prints `listening on HOST:PORT`, serves NDJSON requests until a
    client sends {\"op\":\"shutdown\"}

  skyup coordinate --shard HOST:PORT [--shard ...] [options]
    --shard <addr>         a shard server started with --shard-id i
                           --shards n; repeat once per shard, in
                           shard-id order
    --competitors <file>   the FULL competitor file every shard was
                           seeded from (assigns ids and ownership)
    --port <n>             TCP port on 127.0.0.1 (default 0 = ephemeral)
    --delimiter <c>, --header   as for serve
    front-end: clients send the same query/add/remove/stats/health/
    metrics verbs. It fetches each shard's local skyline on the first
    request, keeps the global skyline up to date from the shards' flip
    acks, and answers queries from it without a shard round trip;
    answers are bit-identical to a single server holding the full set
    at the same epoch. A mutation fails while any shard is unreachable

  skyup query --connect HOST:PORT [op]
    -t <x,y,...>           product to evaluate (repeatable; default op)
    -k <n>                 top-k (default 1)
    --cost reciprocal:<eps> | linear:<slope>
    --max-products <n>     per-request product budget
    --deadline-ms <n>      per-request wall-clock deadline
    --add <x,y,...>        add a competitor instead of querying
    --remove <cid>         remove a competitor by id
    --stats                read engine stats and serving counters
    --health               liveness probe: epoch, WAL seq, queue depth,
                           recovery/read-only state
    --metrics              read per-class latency histograms
    --trace <n>            dump the last n traces and the slow-query log
    --shutdown             stop the server
    connection-refused is retried 3 times with jittered backoff (a
    restarting server's listen window); other errors fail fast
    exit codes: 0 = exact, 2 = partial (budget fired or request shed),
    1 = error
";

fn value(args: &[String], i: usize, flag: &str) -> Result<String, String> {
    args.get(i + 1)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_point(spec: &str) -> Result<Vec<f64>, String> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("`{s}` is not a number"))
        })
        .collect()
}

/// Loads every column of a delimited file (all columns of its first
/// data line). Only that line is read to count the columns, so the rows
/// are parsed in a single streaming pass.
fn load_points(
    path: &Path,
    delimiter: char,
    header: bool,
) -> Result<skyup_geom::PointStore, String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut reader = BufReader::new(File::open(path).map_err(fail)?);
    let mut line = String::new();
    for _ in 0..=usize::from(header) {
        line.clear();
        if reader.read_line(&mut line).map_err(fail)? == 0 {
            return Err(format!("{}: empty file", path.display()));
        }
    }
    let first = line.strip_suffix('\n').unwrap_or(&line);
    let first = first.strip_suffix('\r').unwrap_or(first);
    let columns: Vec<usize> = (0..first.split(delimiter).count()).collect();
    read_delimited(path, delimiter, header, &columns).map_err(fail)
}

/// Runs `skyup serve`. Blocks until a client requests shutdown.
pub fn run_serve(args: &[String]) -> Result<(), String> {
    let mut competitors: Option<PathBuf> = None;
    let mut warm_start: Option<PathBuf> = None;
    let mut save_snapshot: Option<PathBuf> = None;
    let mut wal_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut checkpoint_every = 1024u64;
    let mut port = 0u16;
    let mut delimiter = ',';
    let mut header = false;
    let mut shard_id: Option<u32> = None;
    let mut shards: Option<u32> = None;
    let mut cfg = ServeConfig::default();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shard-id" => {
                shard_id = Some(
                    value(args, i, "--shard-id")?
                        .parse()
                        .map_err(|e| format!("--shard-id: {e}"))?,
                );
                i += 2;
            }
            "--shards" => {
                shards = Some(
                    value(args, i, "--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                );
                i += 2;
            }
            "--competitors" => {
                competitors = Some(PathBuf::from(value(args, i, "--competitors")?));
                i += 2;
            }
            "--warm-start" => {
                warm_start = Some(PathBuf::from(value(args, i, "--warm-start")?));
                i += 2;
            }
            "--save-snapshot" => {
                save_snapshot = Some(PathBuf::from(value(args, i, "--save-snapshot")?));
                i += 2;
            }
            "--wal" => {
                wal_dir = Some(PathBuf::from(value(args, i, "--wal")?));
                i += 2;
            }
            "--fsync" => {
                fsync = FsyncPolicy::parse(&value(args, i, "--fsync")?)?;
                i += 2;
            }
            "--checkpoint-every" => {
                checkpoint_every = value(args, i, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                i += 2;
            }
            "--port" => {
                port = value(args, i, "--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
                i += 2;
            }
            "--threads" => {
                cfg.threads = value(args, i, "--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                i += 2;
            }
            "--queue-cap" => {
                cfg.queue_cap = value(args, i, "--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
                i += 2;
            }
            "--slow-ms" => {
                cfg.slow_ms = value(args, i, "--slow-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-ms: {e}"))?;
                i += 2;
            }
            "--trace-buffer" => {
                cfg.trace_buffer = value(args, i, "--trace-buffer")?
                    .parse()
                    .map_err(|e| format!("--trace-buffer: {e}"))?;
                i += 2;
            }
            "--delimiter" => {
                let v = value(args, i, "--delimiter")?;
                let mut chars = v.chars();
                delimiter = chars
                    .next()
                    .filter(|_| chars.next().is_none())
                    .ok_or("--delimiter takes a single character")?;
                i += 2;
            }
            "--header" => {
                header = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other}\n{SERVE_USAGE}")),
        }
    }

    if competitors.is_some() && warm_start.is_some() {
        return Err("--competitors and --warm-start are mutually exclusive".into());
    }
    let shard = match (shard_id, shards) {
        (None, None) => None,
        (Some(id), Some(n)) => {
            if id >= n {
                return Err(format!("--shard-id {id} is out of range for --shards {n}"));
            }
            if warm_start.is_some() {
                return Err(
                    "--warm-start cannot seed a shard; give the full --competitors file".into(),
                );
            }
            Some((id, n))
        }
        _ => return Err("--shard-id and --shards go together".into()),
    };
    let wal_cfg = wal_dir.map(|dir| WalConfig {
        dir,
        fsync,
        checkpoint_every,
        ..WalConfig::new("")
    });

    // With durable state on disk, the WAL directory is the source of
    // truth: recovery wins over any seed flags, so a restart script can
    // keep passing the same arguments it booted with.
    let engine = match &wal_cfg {
        Some(wc) if wal::has_state(&wc.dir) => {
            if competitors.is_some() || warm_start.is_some() {
                eprintln!(
                    "note: {} holds durable state; recovering from it and \
                     ignoring --competitors/--warm-start",
                    wc.dir.display()
                );
            }
            let engine =
                Engine::recover(EngineConfig::default(), wc.clone()).map_err(|e| e.to_string())?;
            let d = engine.durability().expect("recovered engine has a wal");
            eprintln!(
                "recovered: checkpoint seq {}, {} records replayed, {} torn tail truncated",
                d.recovery.checkpoint_seq, d.recovery.replayed, d.recovery.torn_truncated
            );
            engine
        }
        _ => match (&competitors, &warm_start, &wal_cfg) {
            (None, None, _) => {
                return Err(format!(
                    "serve needs --competitors <file> or --warm-start <snap>\n{SERVE_USAGE}"
                ))
            }
            (Some(path), None, wc) => {
                let store = load_points(path, delimiter, header)?;
                let engine = match shard {
                    // A shard seeds its slab of the partition under the
                    // global ids the coordinator will assign from — row
                    // index in the full file == competitor id.
                    Some((id, n)) => {
                        let partition = Partition::new(n).map_err(|e| e.to_string())?;
                        let next_cid = store.len() as u64;
                        let (slab, cid_of) = partition.shard_seed(&store, id);
                        Engine::with_identified_competitors(
                            slab,
                            cid_of,
                            next_cid,
                            EngineConfig::default(),
                        )
                        .map_err(|e| e.to_string())?
                    }
                    None => Engine::with_competitors(store, EngineConfig::default()),
                };
                match wc {
                    Some(wc) => engine.into_durable(wc.clone()).map_err(|e| e.to_string())?,
                    None => engine,
                }
            }
            (None, Some(path), None) => {
                let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
                Engine::from_snapshot_bytes(&bytes, EngineConfig::default())
                    .map_err(|e| e.to_string())?
            }
            (None, Some(path), Some(wc)) => {
                // Durability over a warm start: seed from the snapshot's
                // store; the initial checkpoint then owns id assignment.
                let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
                let (store, _) = skyup_rtree::persist::snapshot_from_bytes(&bytes)
                    .map_err(|e| format!("{}: snapshot file rejected: {e}", path.display()))?;
                Engine::with_durability(store, EngineConfig::default(), wc.clone())
                    .map_err(|e| e.to_string())?
            }
            (Some(_), Some(_), _) => unreachable!("checked above"),
        },
    };
    if let Some(path) = &save_snapshot {
        write_atomic(path, &engine.save_snapshot_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    serve_on(engine, port, cfg, shard)
}

/// Binds, prints the `listening on` line, and runs the accept loop —
/// as a plain single server, or in the shard role when `--shard-id`
/// was given (direct mutations rejected; `stage`/`flip`/`local_skyline`
/// served).
fn serve_on(
    engine: Engine,
    port: u16,
    cfg: ServeConfig,
    shard: Option<(u32, u32)>,
) -> Result<(), String> {
    let (listener, addr) = bind_local(port).map_err(|e| format!("bind: {e}"))?;
    let handle = ServeHandle::start(Arc::new(engine), cfg);
    println!("listening on {addr}");
    std::io::stdout().flush().ok();
    match shard {
        Some((id, n)) => serve(
            ShardDispatch(Arc::new(ShardState::new(handle, id, n))),
            listener,
        ),
        None => serve(handle, listener),
    }
    .map_err(|e| format!("serve: {e}"))
}

/// Runs `skyup coordinate`: the front-end over shard servers. Blocks
/// until a client requests shutdown.
pub fn run_coordinate(args: &[String]) -> Result<(), String> {
    let mut shard_addrs: Vec<String> = Vec::new();
    let mut competitors: Option<PathBuf> = None;
    let mut port = 0u16;
    let mut delimiter = ',';
    let mut header = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shard" => {
                shard_addrs.push(value(args, i, "--shard")?);
                i += 2;
            }
            "--competitors" => {
                competitors = Some(PathBuf::from(value(args, i, "--competitors")?));
                i += 2;
            }
            "--port" => {
                port = value(args, i, "--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
                i += 2;
            }
            "--delimiter" => {
                let v = value(args, i, "--delimiter")?;
                let mut chars = v.chars();
                delimiter = chars
                    .next()
                    .filter(|_| chars.next().is_none())
                    .ok_or("--delimiter takes a single character")?;
                i += 2;
            }
            "--header" => {
                header = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other}\n{SERVE_USAGE}")),
        }
    }

    if shard_addrs.is_empty() {
        return Err(format!(
            "coordinate needs at least one --shard HOST:PORT\n{SERVE_USAGE}"
        ));
    }
    let seed_path = competitors
        .ok_or_else(|| format!("coordinate needs --competitors <file>\n{SERVE_USAGE}"))?;
    let seed = load_points(&seed_path, delimiter, header)?;
    let partition = Partition::new(shard_addrs.len() as u32).map_err(|e| e.to_string())?;
    let links: Vec<TcpLink> = shard_addrs.iter().map(|a| TcpLink::new(a)).collect();
    let coordinator = Coordinator::new(links, partition, &seed).map_err(|e| e.to_string())?;

    let (listener, addr) = bind_local(port).map_err(|e| format!("bind: {e}"))?;
    println!("listening on {addr}");
    std::io::stdout().flush().ok();
    serve(CoordinatorDispatch(Arc::new(coordinator)), listener).map_err(|e| format!("serve: {e}"))
}

enum ClientOp {
    Query,
    Add(Vec<f64>),
    Remove(u64),
    Stats,
    Health,
    Metrics,
    Trace(u64),
    Shutdown,
}

/// Runs `skyup query --connect`: sends one request line, prints the
/// response, and returns the process exit code.
pub fn run_query(args: &[String]) -> Result<i32, String> {
    let mut connect: Option<String> = None;
    let mut products: Vec<Vec<f64>> = Vec::new();
    let mut k = 1u64;
    let mut cost: Option<String> = None;
    let mut max_products: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut op = ClientOp::Query;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => {
                connect = Some(value(args, i, "--connect")?);
                i += 2;
            }
            "-t" => {
                products.push(parse_point(&value(args, i, "-t")?)?);
                i += 2;
            }
            "-k" => {
                k = value(args, i, "-k")?
                    .parse()
                    .map_err(|e| format!("-k: {e}"))?;
                i += 2;
            }
            "--cost" => {
                let spec = value(args, i, "--cost")?;
                parse_cost(&spec)?; // validate locally for a fast error
                cost = Some(spec);
                i += 2;
            }
            "--max-products" => {
                max_products = Some(
                    value(args, i, "--max-products")?
                        .parse()
                        .map_err(|e| format!("--max-products: {e}"))?,
                );
                i += 2;
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    value(args, i, "--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
                i += 2;
            }
            "--add" => {
                op = ClientOp::Add(parse_point(&value(args, i, "--add")?)?);
                i += 2;
            }
            "--remove" => {
                op = ClientOp::Remove(
                    value(args, i, "--remove")?
                        .parse()
                        .map_err(|e| format!("--remove: {e}"))?,
                );
                i += 2;
            }
            "--stats" => {
                op = ClientOp::Stats;
                i += 1;
            }
            "--health" => {
                op = ClientOp::Health;
                i += 1;
            }
            "--metrics" => {
                op = ClientOp::Metrics;
                i += 1;
            }
            "--trace" => {
                op = ClientOp::Trace(
                    value(args, i, "--trace")?
                        .parse()
                        .map_err(|e| format!("--trace: {e}"))?,
                );
                i += 2;
            }
            "--shutdown" => {
                op = ClientOp::Shutdown;
                i += 1;
            }
            other => return Err(format!("unknown argument {other}\n{SERVE_USAGE}")),
        }
    }

    let addr = connect.ok_or_else(|| format!("query needs --connect HOST:PORT\n{SERVE_USAGE}"))?;
    let request = match op {
        ClientOp::Query => {
            if products.is_empty() {
                return Err(format!(
                    "query needs at least one -t <x,y,...>\n{SERVE_USAGE}"
                ));
            }
            let mut fields = vec![
                ("op", Json::Str("query".into())),
                (
                    "products",
                    Json::Arr(
                        products
                            .iter()
                            .map(|p| Json::Arr(p.iter().map(|&v| Json::Num(v)).collect()))
                            .collect(),
                    ),
                ),
                ("k", Json::Uint(k)),
            ];
            if let Some(spec) = &cost {
                fields.push(("cost", Json::Str(spec.clone())));
            }
            if let Some(n) = max_products {
                fields.push(("max_products", Json::Uint(n)));
            }
            if let Some(n) = deadline_ms {
                fields.push(("deadline_ms", Json::Uint(n)));
            }
            Json::obj(fields)
        }
        ClientOp::Add(point) => Json::obj(vec![
            ("op", Json::Str("add".into())),
            (
                "point",
                Json::Arr(point.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ]),
        ClientOp::Remove(cid) => Json::obj(vec![
            ("op", Json::Str("remove".into())),
            ("cid", Json::Uint(cid)),
        ]),
        ClientOp::Stats => Json::obj(vec![("op", Json::Str("stats".into()))]),
        ClientOp::Health => Json::obj(vec![("op", Json::Str("health".into()))]),
        ClientOp::Metrics => Json::obj(vec![("op", Json::Str("metrics".into()))]),
        ClientOp::Trace(n) => Json::obj(vec![
            ("op", Json::Str("trace".into())),
            ("n", Json::Uint(n)),
        ]),
        ClientOp::Shutdown => Json::obj(vec![("op", Json::Str("shutdown".into()))]),
    };

    // The shared serve-crate client carries the bounded
    // connection-refused retry (a restarting server's listen window).
    let mut client = Client::connect(&addr)?;
    let line = client.request(&request.render())?;
    println!("{line}");

    let doc = parse(&line).map_err(|e| format!("bad response: {e}"))?;
    if !matches!(doc.get("ok"), Some(Json::Bool(true))) {
        return Ok(1);
    }
    match doc.get("completion").and_then(|v| v.as_str()) {
        Some("partial") => Ok(2),
        _ => Ok(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_points_counts_columns_from_the_first_data_line() {
        let dir = std::env::temp_dir().join(format!("skyup-serve-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path
        };

        let plain = load_points(&file("plain.csv", "0.1,0.9\n0.5,0.5\n"), ',', false).unwrap();
        assert_eq!((plain.dims(), plain.len()), (2, 2));
        // The header's column count does not matter; CRLF endings do
        // not add a column.
        let crlf = file("crlf.csv", "name;a;b;c\r\n0.1;0.2;0.3\r\n0.4;0.5;0.6\r\n");
        let crlf = load_points(&crlf, ';', true).unwrap();
        assert_eq!((crlf.dims(), crlf.len()), (3, 2));
        assert_eq!(crlf.point(skyup_geom::PointId(1)), &[0.4, 0.5, 0.6]);
        // No final newline.
        let open = load_points(&file("open.csv", "1,2,3,4"), ',', false).unwrap();
        assert_eq!((open.dims(), open.len()), (4, 1));

        for (name, text, header) in [("empty.csv", "", false), ("only_header.csv", "a,b\n", true)] {
            let err = load_points(&file(name, text), ',', header).unwrap_err();
            assert!(err.ends_with("empty file"), "{name}: {err}");
        }
        let missing = load_points(&dir.join("missing.csv"), ',', false).unwrap_err();
        assert!(missing.contains("missing.csv"), "{missing}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
