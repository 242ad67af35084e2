//! The batch execution path: one admission window's requests answered
//! together against one pinned snapshot.
//!
//! [`execute_batch`] is the batched counterpart of
//! [`crate::execute_query`] — same validation, same budget accounting,
//! same response shape, bit-identical answers — but the product union of
//! the whole batch is evaluated through
//! [`skyup_core::run_probe_batch`]: one shared skyline view, columnar
//! dominance kernels, work stealing across `threads` workers, and a
//! cross-request dominator memo.
//!
//! # How per-request semantics survive batching
//!
//! * **Assembly** (timed as [`Phase::BatchAssemble`]) walks each
//!   request's products in index order and charges
//!   [`ExecGuard::visit_node`] per product — exactly the sequential
//!   path's cache-independent accounting, so a `max_products` budget
//!   sheds at the same index batched or not. Cache lookups for the whole
//!   window happen under one shared-lock acquisition, so every request
//!   in the batch sees the same published epoch.
//! * **Execution** honors each request's remaining limits through
//!   per-worker guard forks; a deadline or cancellation cuts only the
//!   owning request's items.
//! * **Merge** truncates each request at its first cut index (see
//!   [`BatchOutput::first_cut`]): the reported `evaluated` prefix is
//!   fully computed and each retained answer is bit-identical to what
//!   [`crate::execute_query`] produces for the same `(product, epoch,
//!   cost)` — both paths filter the same id-sorted skyline and run the
//!   same Algorithm 1 — so clients cannot tell *how* their answer was
//!   scheduled, only that it arrived sooner.
//!
//! Every computed answer (even one past a cut, already paid for) is
//! offered to the result cache under the same epoch gate as the
//! sequential path, so a batch warms the cache for its successors.

use crate::cache::CacheKey;
use crate::engine::Engine;
use crate::server::{validate_request, ProductAnswer, QueryRequest, QueryResponse};
use crate::snapshot::Answer;
use skyup_core::{run_probe_batch, BatchItem, SkyupError, UpgradeConfig};
use skyup_obs::{
    clocked, timed, Completion, Counter, ExecutionLimits, Interrupt, Phase, QueryMetrics, Recorder,
};

/// Per-request telemetry attribution from one batch execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchRequestStats {
    /// Products of this request answered from the result cache.
    pub cache_hits: u64,
    /// Products of this request that missed the cache and entered the
    /// shared work list.
    pub cache_misses: u64,
    /// This request's items answered via the cross-request dominator
    /// memo instead of a full skyline scan.
    pub memo_hits: u64,
}

/// Batch-level telemetry from one [`execute_batch_stats`] run.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Attribution per input request, parallel to the request slice
    /// (invalid requests keep zeroed stats).
    pub per_request: Vec<BatchRequestStats>,
    /// Wall-clock spent assembling the batch (budget charges + cache
    /// lookups), shared by every request in the window.
    pub assemble_nanos: u64,
    /// Wall-clock spent in [`run_probe_batch`], shared by every request
    /// in the window.
    pub exec_nanos: u64,
    /// Dominance-kernel blocks actually scanned while executing the
    /// batch (the whole window shares one kernel, so this is batch-wide,
    /// not per request).
    pub kernel_blocks_scanned: u64,
    /// Dominance-kernel blocks the per-block zone maps skipped without
    /// scanning. `kernel_blocks_scanned + kernel_blocks_skipped` equals
    /// the total blocks every full scan covered.
    pub kernel_blocks_skipped: u64,
}

/// Executes a window of queries as one batch against one pinned
/// snapshot, returning one result per request in input order. Public so
/// the bench harness and the property suite can drive the exact code
/// path the dispatcher runs.
///
/// Requests are validated individually: an invalid request gets its own
/// `Err` slot and the rest of the batch still executes.
pub fn execute_batch(
    engine: &Engine,
    reqs: &[QueryRequest],
    threads: usize,
) -> Vec<Result<QueryResponse, SkyupError>> {
    execute_batch_stats(engine, reqs, threads).0
}

/// [`execute_batch`] plus the per-request telemetry attribution the
/// dispatcher turns into traces. The answers are byte-for-byte the
/// same; the stats are derived from accounting the batch already does.
pub fn execute_batch_stats(
    engine: &Engine,
    reqs: &[QueryRequest],
    threads: usize,
) -> (Vec<Result<QueryResponse, SkyupError>>, BatchStats) {
    let dims = engine.dims();
    let mut stats = BatchStats {
        per_request: vec![BatchRequestStats::default(); reqs.len()],
        ..BatchStats::default()
    };
    let mut results: Vec<Option<Result<QueryResponse, SkyupError>>> =
        reqs.iter().map(|_| None).collect();
    // Dense index of the requests that passed validation.
    let mut valid: Vec<usize> = Vec::with_capacity(reqs.len());
    for (slot, req) in reqs.iter().enumerate() {
        match validate_request(req, dims) {
            Ok(()) => valid.push(slot),
            Err(e) => results[slot] = Some(Err(e)),
        }
    }
    if valid.is_empty() {
        return (results.into_iter().map(|r| r.unwrap()).collect(), stats);
    }

    let snap = engine.snapshot();
    let cfg = UpgradeConfig::default();
    let mut rec = QueryMetrics::new();
    rec.bump(Counter::BatchesExecuted);
    rec.incr(Counter::BatchedRequests, valid.len() as u64);

    // Per valid request: its materialized cost function, started guard,
    // assembly outcome, and cache hits.
    let mut cost_fns = Vec::with_capacity(valid.len());
    let mut guards = Vec::with_capacity(valid.len());
    // Products charged (and therefore assembled) before the request's
    // budget fired during assembly, per valid request.
    let mut assembled: Vec<usize> = Vec::with_capacity(valid.len());
    // `(product index, answer)` pairs served from the cache.
    let mut hits: Vec<Vec<(usize, Answer)>> = Vec::with_capacity(valid.len());
    // The flattened misses, request-major and index-ascending — the
    // claim order `run_probe_batch` relies on for prefix-exact cuts.
    let mut items: Vec<BatchItem<'_>> = Vec::new();

    timed(&mut rec, Phase::BatchAssemble, |rec| {
        for &slot in &valid {
            let req = &reqs[slot];
            cost_fns.push(req.cost.cost_fn(dims));
            let mut limits = ExecutionLimits::default();
            if let Some(n) = req.max_products {
                limits = limits.with_max_node_visits(n);
            }
            if let Some(d) = req.deadline {
                limits = limits.with_deadline(d);
            }
            guards.push(limits.start());
        }
        engine.with_cache(|cache, current_epoch| {
            let cache_live = current_epoch == snap.epoch();
            for (dense, &slot) in valid.iter().enumerate() {
                let req = &reqs[slot];
                let tag = req.cost.tag();
                let mut my_hits: Vec<(usize, Answer)> = Vec::new();
                let mut charged = 0usize;
                for (index, t) in req.products.iter().enumerate() {
                    // One unit per product, hit or miss — identical to
                    // the sequential path's accounting.
                    if guards[dense].visit_node().is_err() {
                        break;
                    }
                    charged = index + 1;
                    let cached = cache_live
                        .then(|| cache.get(&CacheKey::new(t, tag)).cloned())
                        .flatten();
                    match cached {
                        Some(a) => {
                            rec.bump(Counter::CacheHit);
                            stats.per_request[slot].cache_hits += 1;
                            my_hits.push((index, a));
                        }
                        None => {
                            rec.bump(Counter::CacheMiss);
                            stats.per_request[slot].cache_misses += 1;
                            items.push(BatchItem {
                                request: dense as u32,
                                index: index as u32,
                                coords: t,
                            });
                        }
                    }
                }
                assembled.push(charged);
                hits.push(my_hits);
            }
        });
    });

    stats.assemble_nanos = rec.phase_nanos(Phase::BatchAssemble);

    let (exec_nanos, ran) = clocked(|| {
        run_probe_batch(
            snap.store(),
            snap.skyline(),
            &items,
            &cost_fns,
            &guards,
            &cfg,
            threads,
            &mut rec,
        )
    });
    stats.exec_nanos = exec_nanos;
    stats.kernel_blocks_scanned = rec.get(Counter::KernelBlockScans);
    stats.kernel_blocks_skipped = rec.get(Counter::KernelBlocksSkipped);
    let out = match ran {
        Ok(out) => out,
        Err(SkyupError::WorkerPanicked { worker, message }) => {
            engine.absorb_metrics(&rec);
            for &slot in &valid {
                results[slot] = Some(Err(SkyupError::WorkerPanicked {
                    worker,
                    message: message.clone(),
                }));
            }
            return (results.into_iter().map(|r| r.unwrap()).collect(), stats);
        }
        Err(e) => {
            engine.absorb_metrics(&rec);
            for &slot in &valid {
                results[slot] = Some(Err(match &e {
                    SkyupError::InvalidInput(m) => SkyupError::InvalidInput(m.clone()),
                    other => SkyupError::InvalidInput(format!("batch execution failed: {other}")),
                }));
            }
            return (results.into_iter().map(|r| r.unwrap()).collect(), stats);
        }
    };

    // Per-request memo attribution, straight off the items each worker
    // answered.
    for (item, outcome) in items.iter().zip(&out.outcomes) {
        if let Some(a) = outcome {
            if a.memo_hit {
                stats.per_request[valid[item.request as usize]].memo_hits += 1;
            }
        }
    }

    // Merge: per request, truncate at the first execution-time cut so
    // the reported prefix is complete, then apply the sequential path's
    // (cost, index) sort and top-k truncation.
    for (dense, &slot) in valid.iter().enumerate() {
        let req = &reqs[slot];
        let first_cut = out.first_cut(&items, dense as u32);
        let evaluated = match first_cut {
            Some(i) => (i as usize).min(assembled[dense]),
            None => assembled[dense],
        };
        let mut answers: Vec<ProductAnswer> = Vec::new();
        for (index, a) in &hits[dense] {
            if *index < evaluated {
                answers.push(ProductAnswer {
                    index: *index,
                    cost: a.cost,
                    upgraded: a.upgraded.clone(),
                });
            }
        }
        for (item, outcome) in items.iter().zip(&out.outcomes) {
            if item.request as usize != dense {
                continue;
            }
            if let Some(a) = outcome {
                if (item.index as usize) < evaluated {
                    answers.push(ProductAnswer {
                        index: item.index as usize,
                        cost: a.cost,
                        upgraded: a.upgraded.clone(),
                    });
                }
            }
        }
        answers.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.index.cmp(&b.index)));
        answers.truncate(req.k);
        rec.incr(Counter::ResultsEmitted, answers.len() as u64);
        let completion = if evaluated == req.products.len() {
            Completion::Exact
        } else {
            rec.bump(Counter::LimitInterrupts);
            // A short prefix implies the guard tripped (assembly charge
            // or execution checkpoint); the sticky reason is the first
            // one that fired.
            Completion::Partial(guards[dense].interrupted().unwrap_or(Interrupt::Overloaded))
        };
        results[slot] = Some(Ok(QueryResponse {
            epoch: snap.epoch(),
            completion,
            evaluated,
            results: answers,
        }));
    }

    // The cache learns every computed answer — including ones past a
    // cut (already paid for, and pure functions of the epoch).
    let fills = items
        .iter()
        .zip(&out.outcomes)
        .filter_map(|(item, outcome)| {
            outcome.as_ref().map(|a| {
                let req = &reqs[valid[item.request as usize]];
                let answer = Answer {
                    cost: a.cost,
                    upgraded: a.upgraded.clone(),
                };
                (CacheKey::new(item.coords, req.cost.tag()), answer)
            })
        });
    engine.fill_cache(fills, snap.epoch());
    engine.absorb_metrics(&rec);
    (results.into_iter().map(|r| r.unwrap()).collect(), stats)
}
