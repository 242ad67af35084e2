//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line back. Requests carry an
//! `"op"` discriminator:
//!
//! ```text
//! {"op":"query","products":[[0.9,0.9]],"k":1,"cost":"reciprocal:0.001",
//!  "max_products":100,"deadline_ms":50}
//! {"op":"add","point":[0.4,0.5]}
//! {"op":"remove","cid":7}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"trace","n":16}
//! {"op":"shutdown"}
//! ```
//!
//! Shard servers additionally speak the coordinator-facing verbs of the
//! two-phase epoch publish and of the coordinator's skyline replica:
//!
//! ```text
//! {"op":"stage","epoch":9}                               // pure epoch bump
//! {"op":"stage","epoch":9,"add":{"cid":41,"point":[0.4,0.5]}}
//! {"op":"stage","epoch":9,"remove":41}
//! {"op":"flip","epoch":9}       // ack: "entered":[[cid,[..]],..], "left":[cid,..]
//! {"op":"local_skyline"}        // ack: "epoch":label, "rows":[[cid,[..]],..]
//! ```
//!
//! Responses always carry `"ok"`. Successful queries report the epoch
//! they are consistent with, a completion tag (`"exact"` or
//! `"partial"` plus the interrupt reason), and the top-k results;
//! errors come back as `{"ok":false,"error":"..."}` and never tear down
//! the connection.

use crate::engine::{DurabilityStatus, EngineStats, MutationOutcome};
use crate::server::{CostSpec, ProductAnswer, QueryRequest, QueryResponse};
use crate::shard::{FlipAck, SkylineRows, StagedOp};
use skyup_core::SkyupError;
use skyup_obs::json::{parse, Json};
use skyup_obs::Counter;
use skyup_obs::{Completion, QueryMetrics};
use std::time::Duration;

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Top-k upgrade query.
    Query(QueryRequest),
    /// Add a competitor.
    Add(Vec<f64>),
    /// Remove a competitor by id.
    Remove(u64),
    /// Read engine stats and serving counters.
    Stats,
    /// Liveness/durability probe: epoch, WAL sequence number, queue
    /// depth, and recovery/read-only state.
    Health,
    /// Read the per-class latency histograms and recorder totals.
    Metrics,
    /// Dump the last `n` traces from the flight recorder and slow log.
    Trace(usize),
    /// Two-phase publish, phase one: buffer an epoch (with this shard's
    /// op slice) without applying it. Shard servers only.
    Stage {
        /// The global epoch being staged.
        epoch: u64,
        /// The op for the owning shard; `None` is a pure epoch bump.
        op: Option<StagedOp>,
    },
    /// Two-phase publish, phase two: apply the staged epoch and publish
    /// its label. Shard servers only.
    Flip {
        /// The staged epoch to publish.
        epoch: u64,
    },
    /// The published label and the whole local skyline, for a
    /// coordinator's bootstrap and resync. Shard servers only.
    LocalSkyline,
    /// Stop the server.
    Shutdown,
}

fn f64_field(v: &Json) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| "expected a number".into())
}

fn point_field(v: &Json) -> Result<Vec<f64>, String> {
    match v {
        Json::Arr(items) => items.iter().map(f64_field).collect(),
        _ => Err("expected an array of numbers".into()),
    }
}

/// Traces returned by `{"op":"trace"}` when no `"n"` is given.
pub const DEFAULT_TRACE_DUMP: u64 = 16;

/// Parses `--cost`-style specs: `reciprocal:<eps>` or `linear:<slope>`.
pub fn parse_cost(spec: &str) -> Result<CostSpec, String> {
    let (kind, value) = spec
        .split_once(':')
        .ok_or_else(|| format!("cost spec `{spec}` is not kind:value"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("cost parameter `{value}` is not a number"))?;
    match kind {
        "reciprocal" => Ok(CostSpec::Reciprocal(value)),
        "linear" => Ok(CostSpec::Linear(value)),
        other => Err(format!("unknown cost kind `{other}`")),
    }
}

/// Parses one request line. Errors are messages for the client, not
/// server faults.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = doc
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or("missing \"op\"")?;
    match op {
        "query" => {
            let products = match doc.get("products") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(point_field)
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("query needs \"products\": [[..],..]".into()),
            };
            let k = doc
                .get("k")
                .map(|v| v.as_u64().ok_or("\"k\" must be a positive integer"))
                .transpose()?
                .unwrap_or(1) as usize;
            let cost = doc
                .get("cost")
                .map(|v| {
                    v.as_str()
                        .ok_or_else(|| "\"cost\" must be a string".to_string())
                        .and_then(parse_cost)
                })
                .transpose()?
                .unwrap_or_default();
            let max_products = doc
                .get("max_products")
                .map(|v| v.as_u64().ok_or("\"max_products\" must be an integer"))
                .transpose()?;
            let deadline = doc
                .get("deadline_ms")
                .map(|v| v.as_u64().ok_or("\"deadline_ms\" must be an integer"))
                .transpose()?
                .map(Duration::from_millis);
            Ok(Request::Query(QueryRequest {
                products,
                k,
                cost,
                max_products,
                deadline,
            }))
        }
        "add" => {
            let point = doc.get("point").ok_or("add needs \"point\": [..]")?;
            Ok(Request::Add(point_field(point)?))
        }
        "remove" => {
            let cid = doc
                .get("cid")
                .and_then(|v| v.as_u64())
                .ok_or("remove needs an integer \"cid\"")?;
            Ok(Request::Remove(cid))
        }
        "stats" => Ok(Request::Stats),
        "health" => Ok(Request::Health),
        "metrics" => Ok(Request::Metrics),
        "trace" => {
            let n = doc
                .get("n")
                .map(|v| v.as_u64().ok_or("\"n\" must be a positive integer"))
                .transpose()?
                .unwrap_or(DEFAULT_TRACE_DUMP);
            if n == 0 {
                return Err("\"n\" must be a positive integer".into());
            }
            Ok(Request::Trace(n as usize))
        }
        "stage" => {
            let epoch = doc
                .get("epoch")
                .and_then(|v| v.as_u64())
                .ok_or("stage needs an integer \"epoch\"")?;
            let op = match (doc.get("add"), doc.get("remove")) {
                (Some(_), Some(_)) => {
                    return Err("stage carries \"add\" or \"remove\", not both".into())
                }
                (Some(add), None) => {
                    let cid = add
                        .get("cid")
                        .and_then(|v| v.as_u64())
                        .ok_or("stage add needs an integer \"cid\"")?;
                    let point = add.get("point").ok_or("stage add needs \"point\": [..]")?;
                    Some(StagedOp::Add {
                        cid,
                        point: point_field(point)?,
                    })
                }
                (None, Some(remove)) => {
                    let cid = remove
                        .as_u64()
                        .ok_or("stage needs an integer \"remove\" cid")?;
                    Some(StagedOp::Remove { cid })
                }
                (None, None) => None,
            };
            Ok(Request::Stage { epoch, op })
        }
        "flip" => {
            let epoch = doc
                .get("epoch")
                .and_then(|v| v.as_u64())
                .ok_or("flip needs an integer \"epoch\"")?;
            Ok(Request::Flip { epoch })
        }
        "local_skyline" => Ok(Request::LocalSkyline),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn completion_fields(c: Completion, fields: &mut Vec<(&str, Json)>) {
    match c {
        Completion::Exact => fields.push(("completion", Json::Str("exact".into()))),
        Completion::Partial(i) => {
            fields.push(("completion", Json::Str("partial".into())));
            fields.push(("interrupt", Json::Str(i.reason().into())));
        }
    }
}

/// Renders a successful query response.
pub fn render_query_response(resp: &QueryResponse) -> String {
    let results = resp
        .results
        .iter()
        .map(
            |ProductAnswer {
                 index,
                 cost,
                 upgraded,
             }| {
                Json::obj(vec![
                    ("index", Json::Uint(*index as u64)),
                    ("cost", Json::Num(*cost)),
                    (
                        "upgraded",
                        Json::Arr(upgraded.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ])
            },
        )
        .collect();
    let mut fields = vec![("ok", Json::Bool(true)), ("epoch", Json::Uint(resp.epoch))];
    completion_fields(resp.completion, &mut fields);
    fields.push(("evaluated", Json::Uint(resp.evaluated as u64)));
    fields.push(("results", Json::Arr(results)));
    Json::obj(fields).render()
}

/// Renders a mutation acknowledgement.
pub fn render_mutation_outcome(out: &MutationOutcome) -> String {
    let mut fields = vec![("ok", Json::Bool(true)), ("epoch", Json::Uint(out.epoch))];
    if let Some(cid) = out.cid {
        fields.push(("cid", Json::Uint(cid)));
    } else {
        fields.push(("removed", Json::Bool(out.removed)));
    }
    fields.push(("rebuilt", Json::Bool(out.rebuilt)));
    fields.push(("evicted", Json::Uint(out.evicted)));
    Json::obj(fields).render()
}

/// Renders the stats response: engine shape, current queue depth, and
/// the serving counters.
pub fn render_stats(stats: &EngineStats, metrics: &QueryMetrics, queue_depth: usize) -> String {
    let counters = Json::obj(
        [
            Counter::CacheHit,
            Counter::CacheMiss,
            Counter::CacheEvictions,
            Counter::EpochSwaps,
            Counter::RequestsShed,
            Counter::DominatorMemoHits,
            Counter::TracesRecorded,
            Counter::SlowQueries,
            Counter::WalAppends,
            Counter::WalBytes,
            Counter::WalFsyncs,
            Counter::CheckpointsWritten,
            Counter::RecoveryReplayedRecords,
            Counter::TornTailTruncated,
        ]
        .iter()
        .map(|&c| (c.name(), Json::Uint(metrics.get(c))))
        .collect(),
    );
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("epoch", Json::Uint(stats.epoch)),
        ("live", Json::Uint(stats.live as u64)),
        ("skyline", Json::Uint(stats.skyline_len as u64)),
        ("dead", Json::Uint(stats.dead as u64)),
        ("rebuilds", Json::Uint(stats.rebuilds)),
        ("cached", Json::Uint(stats.cached as u64)),
        ("queue_depth", Json::Uint(queue_depth as u64)),
        ("counters", counters),
    ])
    .render()
}

/// A server's role and place in the sharded topology, reported by
/// `{"op":"health"}` so operators (and `query --health`) can tell a
/// single engine, one shard of many, and a coordinator apart.
#[derive(Clone, Debug)]
pub enum Topology {
    /// A standalone single-engine server.
    Single,
    /// One shard of a partitioned set.
    Shard {
        /// This shard's id.
        shard_id: u32,
        /// The topology's shard count.
        shards: u32,
    },
    /// A coordinator fronting `(target, reachable)` shard links, probed
    /// at health time.
    Coordinator {
        /// Per shard: its address (or in-process tag) and whether it
        /// answered a health probe just now.
        shards: Vec<(String, bool)>,
    },
}

impl Topology {
    fn fields(&self, fields: &mut Vec<(&str, Json)>) {
        match self {
            Topology::Single => fields.push(("role", Json::Str("single".into()))),
            Topology::Shard { shard_id, shards } => {
                fields.push(("role", Json::Str("shard".into())));
                fields.push(("shard_id", Json::Uint(u64::from(*shard_id))));
                fields.push(("shards", Json::Uint(u64::from(*shards))));
            }
            Topology::Coordinator { shards } => {
                fields.push(("role", Json::Str("coordinator".into())));
                fields.push(("shards", Json::Uint(shards.len() as u64)));
                fields.push((
                    "shard_status",
                    Json::Arr(
                        shards
                            .iter()
                            .map(|(target, reachable)| {
                                Json::obj(vec![
                                    ("target", Json::Str(target.clone())),
                                    ("reachable", Json::Bool(*reachable)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
        }
    }
}

/// Renders the health response. `durability` is `None` when the server
/// runs without `--wal`; with it, the WAL sequence number, recovery
/// report, and read-only state are included so operators (and the
/// crash harness) can see exactly where the durable log stands. The
/// `topology` adds the role fields — for a shard, `epoch` is its
/// published label, not its engine epoch.
pub fn render_health(
    epoch: u64,
    queue_depth: usize,
    durability: Option<&DurabilityStatus>,
    topology: &Topology,
) -> String {
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("epoch", Json::Uint(epoch)),
        ("queue_depth", Json::Uint(queue_depth as u64)),
        ("wal", Json::Bool(durability.is_some())),
    ];
    topology.fields(&mut fields);
    if let Some(d) = durability {
        fields.push(("wal_seq", Json::Uint(d.last_seq)));
        fields.push(("read_only", Json::Bool(d.read_only.is_some())));
        if let Some(reason) = &d.read_only {
            fields.push(("read_only_reason", Json::Str(reason.clone())));
        }
        fields.push((
            "recovery",
            Json::obj(vec![
                ("checkpoint_seq", Json::Uint(d.recovery.checkpoint_seq)),
                ("replayed", Json::Uint(d.recovery.replayed)),
                ("torn_truncated", Json::Uint(d.recovery.torn_truncated)),
            ]),
        ));
    } else {
        fields.push(("read_only", Json::Bool(false)));
    }
    Json::obj(fields).render()
}

/// Renders a client-visible error.
pub fn render_error(message: &str) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
    .render()
}

/// Renders a [`SkyupError`] as a client-visible error.
pub fn render_skyup_error(err: &SkyupError) -> String {
    render_error(&err.to_string())
}

/// Renders the shutdown acknowledgement.
pub fn render_shutdown_ack() -> String {
    Json::obj(vec![("ok", Json::Bool(true))]).render()
}

/// Renders a stage request line (coordinator → shard).
pub fn render_stage_request(epoch: u64, op: Option<&StagedOp>) -> String {
    let mut fields = vec![
        ("op", Json::Str("stage".into())),
        ("epoch", Json::Uint(epoch)),
    ];
    match op {
        None => {}
        Some(StagedOp::Add { cid, point }) => {
            fields.push((
                "add",
                Json::obj(vec![
                    ("cid", Json::Uint(*cid)),
                    (
                        "point",
                        Json::Arr(point.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]),
            ));
        }
        Some(StagedOp::Remove { cid }) => {
            fields.push(("remove", Json::Uint(*cid)));
        }
    }
    Json::obj(fields).render()
}

/// Renders a flip request line (coordinator → shard).
pub fn render_flip_request(epoch: u64) -> String {
    Json::obj(vec![
        ("op", Json::Str("flip".into())),
        ("epoch", Json::Uint(epoch)),
    ])
    .render()
}

/// Renders a stage acknowledgement: the epoch now buffered (or already
/// published, for idempotent retries).
pub fn render_stage_ack(epoch: u64) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("staged", Json::Uint(epoch)),
    ])
    .render()
}

/// Skyline rows as `[[cid, [coords..]], ..]`. Coordinates round-trip
/// bit-exactly: `Json::Num` renders the shortest representation that
/// parses back to the same f64, and every stored coordinate is finite.
fn rows_json(rows: &[(u64, Vec<f64>)]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|(cid, coords)| {
                Json::Arr(vec![
                    Json::Uint(*cid),
                    Json::Arr(coords.iter().map(|&v| Json::Num(v)).collect()),
                ])
            })
            .collect(),
    )
}

/// Parses the `key` array of [`rows_json`] pairs.
fn rows_field(doc: &Json, key: &str) -> Result<SkylineRows, String> {
    match doc.get(key) {
        Some(Json::Arr(rows)) => rows
            .iter()
            .map(|row| match row {
                Json::Arr(parts) if parts.len() == 2 => {
                    let cid = parts[0].as_u64().ok_or("row cid is not an integer")?;
                    Ok((cid, point_field(&parts[1])?))
                }
                _ => Err("row is not a [cid, coords] pair".to_string()),
            })
            .collect(),
        _ => Err(format!("response carries no \"{key}\" rows")),
    }
}

/// Renders a flip acknowledgement: the published label, plus the
/// owner's mutation outcome and local-skyline delta when the flip
/// applied one.
pub fn render_flip_ack(ack: &FlipAck) -> String {
    let mut fields = vec![("ok", Json::Bool(true)), ("epoch", Json::Uint(ack.epoch))];
    if let Some(out) = &ack.outcome {
        fields.push(("applied", Json::Bool(true)));
        if let Some(cid) = out.cid {
            fields.push(("cid", Json::Uint(cid)));
        } else {
            fields.push(("removed", Json::Bool(out.removed)));
        }
        fields.push(("rebuilt", Json::Bool(out.rebuilt)));
        fields.push(("evicted", Json::Uint(out.evicted)));
        fields.push(("entered", rows_json(&ack.entered)));
        fields.push((
            "left",
            Json::Arr(ack.left.iter().map(|&cid| Json::Uint(cid)).collect()),
        ));
    } else {
        fields.push(("applied", Json::Bool(false)));
    }
    Json::obj(fields).render()
}

/// Renders a `local_skyline` response: the shard's label and its whole
/// local skyline.
pub fn render_local_skyline(label: u64, rows: &[(u64, Vec<f64>)]) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("epoch", Json::Uint(label)),
        ("rows", rows_json(rows)),
    ])
    .render()
}

/// Checks `ok` and surfaces `error` on a parsed response line.
fn checked_response(line: &str) -> Result<Json, String> {
    let doc = parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
    match doc.get("ok") {
        Some(Json::Bool(true)) => Ok(doc),
        _ => {
            let msg = doc
                .get("error")
                .and_then(|v| v.as_str())
                .unwrap_or("response is not ok");
            Err(msg.to_string())
        }
    }
}

/// Parses a stage acknowledgement; returns the staged epoch.
pub fn parse_stage_ack(line: &str) -> Result<u64, String> {
    let doc = checked_response(line)?;
    doc.get("staged")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "stage ack carries no \"staged\" epoch".into())
}

/// Parses a flip acknowledgement.
pub fn parse_flip_ack(line: &str) -> Result<FlipAck, String> {
    let doc = checked_response(line)?;
    let epoch = doc
        .get("epoch")
        .and_then(|v| v.as_u64())
        .ok_or("flip ack carries no \"epoch\"")?;
    if !matches!(doc.get("applied"), Some(Json::Bool(true))) {
        return Ok(FlipAck {
            epoch,
            outcome: None,
            entered: Vec::new(),
            left: Vec::new(),
        });
    }
    let left = match doc.get("left") {
        Some(Json::Arr(cids)) => cids
            .iter()
            .map(|v| v.as_u64().ok_or("left cid is not an integer"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("flip ack carries no \"left\" cids".into()),
    };
    Ok(FlipAck {
        epoch,
        outcome: Some(MutationOutcome {
            epoch,
            cid: doc.get("cid").and_then(|v| v.as_u64()),
            removed: matches!(doc.get("removed"), Some(Json::Bool(true))),
            rebuilt: matches!(doc.get("rebuilt"), Some(Json::Bool(true))),
            evicted: doc.get("evicted").and_then(|v| v.as_u64()).unwrap_or(0),
        }),
        entered: rows_field(&doc, "entered")?,
        left,
    })
}

/// Parses a `local_skyline` response into the label and the rows.
pub fn parse_local_skyline(line: &str) -> Result<(u64, SkylineRows), String> {
    let doc = checked_response(line)?;
    let label = doc
        .get("epoch")
        .and_then(|v| v.as_u64())
        .ok_or("local_skyline response carries no \"epoch\"")?;
    Ok((label, rows_field(&doc, "rows")?))
}
