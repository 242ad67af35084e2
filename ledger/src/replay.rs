//! In-process replay of a recorded serve run, for the layers that live
//! inside the server process.
//!
//! The recorded request lines are replayed in the epoch order the
//! responses reported (a mutation that published epoch `e` before the
//! queries answered at `e`) against an [`Engine`] built here with the
//! server's engine and WAL settings. Spans wrap calls into the public
//! functions of each layer: `proto` parse and render, the engine's
//! cache-aware `answer_product`, `Snapshot::answer` on misses split into
//! `dominators_from_skyline` and `upgrade_single`, and `Engine::apply`.
//! Every replayed answer must equal the one the server sent.

use crate::wire::{response_bits, AnswerBits};
use skyup_core::{dominators_from_skyline, upgrade_single, UpgradeConfig};
use skyup_geom::PointStore;
use skyup_obs::{clocked, Counter, NullRecorder, QueryMetrics};
use skyup_rtree::{RTree, RTreeParams};
use skyup_serve::proto::{parse_request, render_query_response, Request};
use skyup_serve::{
    Engine, EngineConfig, FsyncPolicy, Mutation, ProductAnswer, QueryResponse, WalConfig,
};
use std::path::Path;

/// One completed request of a run, as the client saw it.
pub struct Recorded {
    /// Position in the client's send order (ties within an epoch).
    pub seq: u64,
    pub line: String,
    pub query: bool,
    /// The epoch the response reported.
    pub epoch: u64,
    /// Query answer, reduced to its bits.
    pub answer: Option<AnswerBits>,
    /// Id the server assigned to an add.
    pub cid: Option<u64>,
}

/// Span samples (µs) and work counts from one replay.
#[derive(Default)]
pub struct Replay {
    pub parse_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub answer_us: Vec<f64>,
    pub dominators_us: Vec<f64>,
    pub upgrade_us: Vec<f64>,
    pub apply_us: Vec<f64>,
    pub apply_rebuild_us: Vec<f64>,
    pub checkpoint_apply_us: Vec<f64>,
    pub bulk_load_ms: f64,
    pub queries: u64,
    pub products: u64,
    pub misses: u64,
    /// Counters charged by the dominator computation on misses.
    pub work: QueryMetrics,
    /// Requests whose replayed outcome differed from the served one.
    pub mismatches: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Replays `ops` (any order; sorted here) from the seeded competitor
/// set, with the WAL under `wal_dir`.
pub fn replay(
    seeded: &PointStore,
    ops: &mut [Recorded],
    wal_dir: &Path,
    checkpoint_every: u64,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let (ns, _) = clocked(|| RTree::bulk_load(seeded, RTreeParams::default()));
    out.bulk_load_ms = ns as f64 / 1e6;

    let wal = WalConfig {
        dir: wal_dir.to_path_buf(),
        fsync: FsyncPolicy::parse("interval:64")?,
        checkpoint_every,
        ..WalConfig::new("")
    };
    let engine = Engine::with_competitors(seeded.clone(), EngineConfig::default())
        .into_durable(wal)
        .map_err(|e| e.to_string())?;
    let cfg = UpgradeConfig::default();

    ops.sort_by_key(|op| (op.epoch, op.query, op.seq));
    for op in ops.iter() {
        let (ns, req) = clocked(|| parse_request(&op.line));
        out.parse_us.push(us(ns));
        match req? {
            Request::Query(q) => {
                let snap = engine.snapshot();
                let cost_fn = q.cost.cost_fn(snap.dims());
                let tag = q.cost.tag();
                let mut answers = Vec::with_capacity(q.products.len());
                for (index, t) in q.products.iter().enumerate() {
                    let mut rec = QueryMetrics::new();
                    let answer = engine.answer_product(&snap, t, &cost_fn, tag, &cfg, &mut rec);
                    if rec.get(Counter::CacheMiss) > 0 {
                        out.misses += 1;
                        let (ns, _) = clocked(|| snap.answer(t, &cost_fn, &cfg, &mut NullRecorder));
                        out.answer_us.push(us(ns));
                        let (ns, doms) = clocked(|| {
                            dominators_from_skyline(snap.store(), snap.skyline(), t, &mut out.work)
                        });
                        out.dominators_us.push(us(ns));
                        let (ns, _) =
                            clocked(|| upgrade_single(snap.store(), &doms, t, &cost_fn, &cfg));
                        out.upgrade_us.push(us(ns));
                    }
                    answers.push(ProductAnswer {
                        index,
                        cost: answer.cost,
                        upgraded: answer.upgraded,
                    });
                }
                answers.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.index.cmp(&b.index)));
                answers.truncate(q.k);
                let resp = QueryResponse {
                    epoch: snap.epoch(),
                    completion: skyup_obs::Completion::Exact,
                    evaluated: q.products.len(),
                    results: answers,
                };
                let (ns, _) = clocked(|| render_query_response(&resp));
                out.render_us.push(us(ns));
                out.queries += 1;
                out.products += q.products.len() as u64;
                if resp.epoch != op.epoch || op.answer.as_ref() != Some(&response_bits(&resp)) {
                    out.mismatches += 1;
                }
            }
            Request::Add(point) => {
                let outcome = apply(&engine, Mutation::AddCompetitor(point), &mut out)?;
                if outcome.cid != op.cid || outcome.epoch != op.epoch {
                    out.mismatches += 1;
                }
            }
            Request::Remove(cid) => {
                let outcome = apply(&engine, Mutation::RemoveCompetitor(cid), &mut out)?;
                if !outcome.removed || outcome.epoch != op.epoch {
                    out.mismatches += 1;
                }
            }
            other => return Err(format!("unexpected recorded request {other:?}")),
        }
    }
    Ok(out)
}

fn apply(
    engine: &Engine,
    m: Mutation,
    out: &mut Replay,
) -> Result<skyup_serve::MutationOutcome, String> {
    let checkpoints = engine.metrics().get(Counter::CheckpointsWritten);
    let (ns, outcome) = clocked(|| engine.apply(m));
    let outcome = outcome.map_err(|e| e.to_string())?;
    out.apply_us.push(us(ns));
    if outcome.rebuilt {
        out.apply_rebuild_us.push(us(ns));
    }
    if engine.metrics().get(Counter::CheckpointsWritten) > checkpoints {
        out.checkpoint_apply_us.push(us(ns));
    }
    Ok(outcome)
}
