//! Work-stealing probe scheduler with an optional bound-sorted probe
//! order and a shared admission threshold.
//!
//! Dominator-skyline cost varies wildly across products, so a fixed
//! partition of `T` (one contiguous slice per worker) balances poorly:
//! one unlucky slice can hold the whole query back. Workers instead
//! *claim* products one at a time from a shared atomic counter — idle
//! workers steal whatever is left, so the makespan tracks the slowest
//! single product rather than the slowest slice.
//!
//! Two strategies share one loop:
//!
//! * [`ProbeStrategy::WorkStealing`] — atomic-counter claims in product
//!   id order; per-worker top-k, no pruning. Merged counters are fully
//!   deterministic (every product is evaluated exactly once).
//! * [`ProbeStrategy::BoundSorted`] — claims walk a probe order
//!   pre-sorted ascending by the cheap admissible NLB/ALB list bound
//!   ([`crate::join::list_bound`]) over a shallow frontier of `R_P`, and
//!   workers prune against a shared [`SharedThreshold`] cell that caches
//!   the global top-k admission threshold. Because the bound stream is
//!   sorted and admissible, the first claim whose bound exceeds the
//!   threshold proves every *remaining* claim is also prunable: the
//!   worker drains the counter (`swap(n)`) and accounts the whole tail
//!   as `ThresholdPrunes` in one step. At one thread this is the
//!   classic screened sequential prober.
//!
//! # Why the pruned answer is still exact
//!
//! The shared cell is monotone (CAS-min) and always holds the k-th best
//! cost over a *subset* of the offers, which is an upper bound on the
//! final global threshold θ*. A product is pruned only when its
//! admissible lower bound — and hence its true cost — is *strictly*
//! greater than the cell, so strictly greater than θ*: it could never
//! displace a top-k member. Pruning fires only once k results have been
//! offered (the cell is +∞ before that), so the top-k over the evaluated
//! products equals the top-k over all of `T`, and product ids are
//! distinct, so the `(cost, id)` order — and therefore the returned
//! vector — is bit-identical to sequential
//! [`crate::improved_probing_topk`] at any thread count.
//!
//! # Determinism
//!
//! Results are bit-identical for both strategies and every thread
//! count. Merged counters are deterministic for `WorkStealing`
//! (`StealEvents == |T|`); under `BoundSorted` only the invariant
//! `ProductsEvaluated + ThresholdPrunes == |T|` is guaranteed for
//! unlimited runs — *which* products get pruned depends on timing (more
//! threads publish the threshold sooner), and `SharedThresholdUpdates`
//! varies with the interleaving. With one thread the entire run is
//! deterministic.
//!
//! # Guardrails
//!
//! The guard is armed before the bound sort, so a deadline counts the
//! sort's time and a cancelled token stops it: the sort checks the
//! guard once per product, and a trip there returns `Partial` with no
//! results. During the probe loop each worker checks a forked guard
//! between products and charges it inside every traversal.
//!
//! Each worker owns a [`SkylineScratch`] and an [`UpgradeScratch`], so
//! after warmup the probe loop performs no per-product heap allocation
//! (results are only materialized for products that pass the
//! [`TopK::admits`] gate).

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use crate::error::{panic_message, validate_query, SkyupError};
use crate::join::{list_bound, BoundMode, LowerBound};
use crate::probing::record_guard;
use crate::result::{AnytimeTopK, UpgradeResult};
use crate::topk::{SharedThreshold, TopK};
use crate::upgrade::{upgrade_single_into, UpgradeScratch};
use skyup_geom::{PointId, PointStore};
use skyup_obs::{
    timed, Completion, Counter, ExecGuard, ExecutionLimits, NullRecorder, Phase, QueryMetrics,
    Recorder,
};
use skyup_rtree::{EntryRef, RTree};
use skyup_skyline::{dominating_skyline_into, SkylineScratch};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the probe loop distributes the products of `T` across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeStrategy {
    /// Workers claim products in id order from a shared atomic counter.
    /// No pruning; merged counters are fully deterministic.
    WorkStealing,
    /// Work stealing over a probe order sorted ascending by the
    /// admissible list bound, pruning against a [`SharedThreshold`].
    BoundSorted,
}

impl ProbeStrategy {
    /// Stable snake_case name (bench/CLI vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            ProbeStrategy::WorkStealing => "work_stealing",
            ProbeStrategy::BoundSorted => "bound_sorted",
        }
    }
}

/// The evaluated/pruned split of one scheduled run; always equal to the
/// `ProductsEvaluated` / `ThresholdPrunes` counters the run records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruningStats {
    /// Products fully evaluated (skyline + Algorithm 1).
    pub evaluated: u64,
    /// Products skipped by the lower-bound screen.
    pub pruned: u64,
}

/// What one worker hands back on clean (non-panicking) exit.
struct WorkerOut {
    part: Vec<UpgradeResult>,
    metrics: Option<QueryMetrics>,
    evaluated: u64,
    pruned: u64,
    completion: Completion,
    visits: u64,
}

/// Everything the engine produced; wrappers decide which parts to
/// surface and which summary counters to bump.
struct EngineOut {
    results: Vec<UpgradeResult>,
    stats: PruningStats,
    completion: Completion,
    visits: u64,
}

/// The shared engine. Callers guarantee `threads >= 1`, matching
/// dimensionalities, and a non-empty `T`; `guard` is already armed.
#[allow(clippy::too_many_arguments)]
fn run_scheduled<C, R>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    threads: usize,
    strategy: ProbeStrategy,
    mut guard: ExecGuard,
    rec: &mut R,
) -> Result<EngineOut, SkyupError>
where
    C: CostFunction + Sync + ?Sized,
    R: Recorder + ?Sized,
{
    let n = t_store.len();
    debug_assert!(threads >= 1 && n > 0);
    let collect = rec.is_enabled();
    let dims = p_store.dims();

    // Probe order. BoundSorted pays one admissible list bound per
    // product up front (`LowerBoundEvals` += |T|, under `BoundSort`)
    // and sorts ascending by `(bound, id)`; WorkStealing walks id order.
    let (order, bounds): (Vec<u32>, Vec<f64>) = if strategy == ProbeStrategy::BoundSorted {
        let sorted = timed(rec, Phase::BoundSort, |rec| {
            let frontier = screen_frontier(p_tree);
            let mut bounds = vec![0.0f64; n];
            if !frontier.is_empty() {
                let mut screened: Vec<EntryRef> = Vec::with_capacity(frontier.len());
                for (i, (_tid, t)) in t_store.iter().enumerate() {
                    guard.checkpoint()?;
                    screened.clear();
                    screened.extend(frontier.iter().copied().filter(|&e| {
                        p_tree
                            .entry_lo(p_store, e)
                            .iter()
                            .zip(t)
                            .all(|(&l, &y)| l <= y)
                    }));
                    bounds[i] = list_bound(
                        t,
                        &screened,
                        p_store,
                        p_tree,
                        cost_fn,
                        LowerBound::Aggressive,
                        BoundMode::Admissible,
                    );
                    rec.bump(Counter::LowerBoundEvals);
                }
            }
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by(|&a, &b| {
                bounds[a as usize]
                    .total_cmp(&bounds[b as usize])
                    .then(a.cmp(&b))
            });
            Ok((order, bounds))
        });
        match sorted {
            Ok(sorted) => sorted,
            Err(i) => {
                return Ok(EngineOut {
                    results: Vec::new(),
                    stats: PruningStats::default(),
                    completion: Completion::Partial(i),
                    visits: 0,
                })
            }
        }
    } else {
        ((0..n as u32).collect(), Vec::new())
    };

    let workers = threads.min(n);
    let per_worker_topk = strategy != ProbeStrategy::BoundSorted;

    // Shared scheduler state: the claim counter, the threshold cache,
    // and (BoundSorted only) the single global top-k.
    let next = AtomicUsize::new(0);
    let threshold = SharedThreshold::new();
    let shared = Mutex::new(TopK::new(k));

    let outcomes: Vec<(usize, Result<WorkerOut, String>)> = timed(rec, Phase::ProbeLoop, |_| {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let mut wguard = guard.clone();
                let (next, threshold, shared) = (&next, &threshold, &shared);
                let (order, bounds) = (order.as_slice(), bounds.as_slice());
                handles.push(scope.spawn(move || {
                    let canceller = wguard.clone();
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut local = collect.then(QueryMetrics::new);
                        let mut topk = per_worker_topk.then(|| TopK::new(k));
                        let mut sky = SkylineScratch::new(dims);
                        let mut upg = UpgradeScratch::new();
                        let mut completion = Completion::Exact;
                        let mut evaluated = 0u64;
                        let mut pruned = 0u64;
                        loop {
                            if let Err(i) = wguard.checkpoint() {
                                completion = Completion::Partial(i);
                                break;
                            }
                            let pos = next.fetch_add(1, Ordering::Relaxed);
                            if pos >= n {
                                break;
                            }
                            if let Some(m) = &mut local {
                                m.bump(Counter::StealEvents);
                            }
                            let idx = order[pos] as usize;
                            if strategy == ProbeStrategy::BoundSorted
                                && bounds[idx] > threshold.get()
                            {
                                // The stream is sorted by an admissible
                                // bound and the cell only tightens:
                                // every unclaimed position is prunable
                                // too. Drain the counter and account the
                                // whole tail at once.
                                let drained = next.swap(n, Ordering::Relaxed).min(n);
                                let tail = (n - drained) as u64;
                                pruned += 1 + tail;
                                if let Some(m) = &mut local {
                                    m.incr(Counter::ThresholdPrunes, 1 + tail);
                                }
                                break;
                            }
                            let tid = PointId(idx as u32);
                            let t = t_store.point(tid);
                            let sky_res = match &mut local {
                                Some(m) => timed(m, Phase::DominatingSky, |m| {
                                    dominating_skyline_into(
                                        p_store,
                                        p_tree,
                                        t,
                                        m,
                                        &mut wguard,
                                        &mut sky,
                                    )
                                }),
                                None => dominating_skyline_into(
                                    p_store,
                                    p_tree,
                                    t,
                                    &mut NullRecorder,
                                    &mut wguard,
                                    &mut sky,
                                ),
                            };
                            if let Err(i) = sky_res {
                                completion = Completion::Partial(i);
                                break;
                            }
                            let cost = match &mut local {
                                Some(m) => timed(m, Phase::Upgrade, |_| {
                                    upgrade_single_into(
                                        p_store,
                                        sky.skyline(),
                                        t,
                                        cost_fn,
                                        cfg,
                                        &mut upg,
                                    )
                                }),
                                None => upgrade_single_into(
                                    p_store,
                                    sky.skyline(),
                                    t,
                                    cost_fn,
                                    cfg,
                                    &mut upg,
                                ),
                            };
                            if let Some(m) = &mut local {
                                m.bump(Counter::ProductsEvaluated);
                            }
                            evaluated += 1;
                            match &mut topk {
                                Some(tk) => {
                                    // Build the (allocating) result only
                                    // when it will actually be kept.
                                    if tk.admits(cost, idx as u32) {
                                        tk.offer(UpgradeResult {
                                            product: tid,
                                            original: t.to_vec(),
                                            upgraded: upg.upgraded().to_vec(),
                                            cost,
                                        });
                                    }
                                }
                                None => {
                                    // Cheap pre-gate on the cached
                                    // threshold (conservative: the cell
                                    // never under-estimates), then take
                                    // the lock only for plausible offers.
                                    if cost <= threshold.get() {
                                        let mut tk = shared.lock().expect("top-k mutex poisoned");
                                        if tk.admits(cost, idx as u32) {
                                            tk.offer(UpgradeResult {
                                                product: tid,
                                                original: t.to_vec(),
                                                upgraded: upg.upgraded().to_vec(),
                                                cost,
                                            });
                                        }
                                        let th = tk.threshold();
                                        drop(tk);
                                        if threshold.tighten(th) {
                                            if let Some(m) = &mut local {
                                                m.bump(Counter::SharedThresholdUpdates);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        WorkerOut {
                            part: topk.map(TopK::into_sorted).unwrap_or_default(),
                            metrics: local,
                            evaluated,
                            pruned,
                            completion,
                            visits: wguard.node_visits(),
                        }
                    }));
                    match out {
                        Ok(o) => (w, Ok(o)),
                        Err(payload) => {
                            // Stop the sibling workers at their next
                            // checkpoint; their output is dropped anyway.
                            canceller.cancel();
                            (w, Err(panic_message(payload)))
                        }
                    }
                }));
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("scheduled probing worker escaped its unwind barrier")
                })
                .collect()
        })
    });

    // A panic anywhere poisons the whole answer: report it before
    // absorbing any worker's output.
    for (w, out) in &outcomes {
        if let Err(message) = out {
            rec.bump(Counter::WorkerPanics);
            return Err(SkyupError::WorkerPanicked {
                worker: *w,
                message: message.clone(),
            });
        }
    }

    let mut merged = TopK::new(k);
    let mut completion = Completion::Exact;
    let mut stats = PruningStats::default();
    let mut visits = 0u64;
    for (_, out) in outcomes {
        let o = out.expect("panics were handled above");
        if let Some(m) = o.metrics {
            rec.absorb(&m);
        }
        if completion.is_exact() {
            completion = o.completion;
        }
        stats.evaluated += o.evaluated;
        stats.pruned += o.pruned;
        visits += o.visits;
        for r in o.part {
            merged.offer(r);
        }
    }
    let results = if per_worker_topk {
        merged.into_sorted()
    } else {
        shared
            .into_inner()
            .expect("top-k mutex poisoned")
            .into_sorted()
    };
    Ok(EngineOut {
        results,
        stats,
        completion,
        visits,
    })
}

/// Runs improved probing under `strategy` across `threads` workers and
/// returns the `k` cheapest upgrades (bit-identical to sequential
/// [`crate::improved_probing_topk`]) plus the evaluated/pruned split.
/// Each worker collects into a private [`QueryMetrics`] (only when
/// `rec` is enabled) which is folded into `rec` after the join.
///
/// `threads == 0` is clamped to one worker thread
/// ([`try_improved_probing_topk_scheduled`] rejects it instead).
///
/// # Panics
/// Propagates a worker panic (after all workers have been joined). Use
/// [`try_improved_probing_topk_scheduled`] for contained panics.
#[allow(clippy::too_many_arguments)]
pub fn improved_probing_topk_scheduled_rec<C, R>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    threads: usize,
    strategy: ProbeStrategy,
    rec: &mut R,
) -> (Vec<UpgradeResult>, PruningStats)
where
    C: CostFunction + Sync + ?Sized,
    R: Recorder + ?Sized,
{
    let threads = threads.max(1);
    assert_eq!(
        p_store.dims(),
        t_store.dims(),
        "P and T dimensionality differ"
    );
    if t_store.is_empty() {
        return (Vec::new(), PruningStats::default());
    }
    let guard = ExecGuard::unlimited();
    match run_scheduled(
        p_store, p_tree, t_store, k, cost_fn, cfg, threads, strategy, guard, rec,
    ) {
        Ok(out) => {
            rec.incr(Counter::ResultsEmitted, out.results.len() as u64);
            (out.results, out.stats)
        }
        Err(SkyupError::WorkerPanicked { worker, message }) => {
            panic!("probing worker {worker} panicked: {message}")
        }
        Err(e) => unreachable!("unlimited scheduled probing failed: {e}"),
    }
}

/// Fallible, guarded scheduled probing: input validation as in
/// [`crate::probing::try_basic_probing_topk`] plus `threads >= 1`, then
/// each worker claims products under a forked guard sharing the global
/// budgets. A worker that panics is contained by an unwind barrier: it
/// cancels the shared token (stopping its siblings at their next
/// checkpoint), every worker's output is discarded, and the call returns
/// [`SkyupError::WorkerPanicked`].
///
/// On a limit interruption each worker keeps the exact top-k over the
/// products it fully evaluated, so the merged [`Completion::Partial`]
/// answer is the exact top-k over the union of the evaluated products
/// (under [`ProbeStrategy::BoundSorted`] the shared collector has the
/// same property: the offer gate only skips products provably outside
/// the top-k of the evaluated set). A limit that fires during the bound
/// sort ends the call before any product is evaluated. Unlimited runs
/// are bit-identical to [`improved_probing_topk_scheduled_rec`].
#[allow(clippy::too_many_arguments)]
pub fn try_improved_probing_topk_scheduled<C, R>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    threads: usize,
    strategy: ProbeStrategy,
    limits: &ExecutionLimits,
    rec: &mut R,
) -> Result<(AnytimeTopK, PruningStats), SkyupError>
where
    C: CostFunction + Sync + ?Sized,
    R: Recorder + ?Sized,
{
    if threads == 0 {
        return Err(SkyupError::InvalidConfig(
            "need at least one worker thread".into(),
        ));
    }
    validate_query(p_store, p_tree, t_store, k, cost_fn)?;
    if t_store.is_empty() {
        return Ok((
            AnytimeTopK {
                results: Vec::new(),
                completion: Completion::Exact,
                evaluated: 0,
            },
            PruningStats::default(),
        ));
    }
    let guard = limits.start();
    let out = run_scheduled(
        p_store, p_tree, t_store, k, cost_fn, cfg, threads, strategy, guard, rec,
    )?;
    rec.incr(Counter::ResultsEmitted, out.results.len() as u64);
    record_guard(rec, out.visits, out.completion);
    Ok((
        AnytimeTopK {
            results: out.results,
            completion: out.completion,
            evaluated: out.stats.evaluated as usize,
        },
        out.stats,
    ))
}

/// Builds the shallow frontier of the competitor tree used by the
/// lower-bound screen: top levels expanded breadth-first until a few
/// dozen entries are available (capped so the per-product screen stays
/// O(1) in |P|).
fn screen_frontier(p_tree: &RTree) -> Vec<EntryRef> {
    if p_tree.is_empty() {
        return Vec::new();
    }
    let mut frontier: Vec<EntryRef> = vec![EntryRef::Node(p_tree.root_id())];
    loop {
        let expandable = frontier
            .iter()
            .filter(|e| matches!(e, EntryRef::Node(n) if !p_tree.node(*n).is_leaf()))
            .count();
        if frontier.len() >= 32 || expandable == 0 {
            break;
        }
        let mut next = Vec::with_capacity(frontier.len() * 4);
        for e in frontier {
            match e {
                EntryRef::Node(n) if !p_tree.node(n).is_leaf() => {
                    next.extend(p_tree.node(n).entries());
                }
                other => next.push(other),
            }
        }
        frontier = next;
        if frontier.len() > 512 {
            break;
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AttributeCost, LinearCost, SumCost};
    use crate::probing::improved_probing_topk;
    use skyup_data::synthetic::{paper_competitors, paper_products, Distribution};
    use skyup_obs::{CancellationToken, Interrupt};
    use skyup_rtree::RTreeParams;
    use std::time::Duration;

    fn linear_cost(dims: usize) -> SumCost {
        SumCost::new(
            (0..dims)
                .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
                .collect(),
        )
    }

    fn pseudo_random_store(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> PointStore {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut s = PointStore::new(dims);
        for _ in 0..n {
            let row: Vec<f64> = (0..dims).map(|_| lo + (hi - lo) * next()).collect();
            s.push(&row);
        }
        s
    }

    /// Interleaved domains + linear cost: the workload where the bound
    /// screen actually fires (reciprocal costs keep every bound at ~0).
    fn pruning_workload() -> (PointStore, PointStore, RTree, SumCost) {
        let p = pseudo_random_store(500, 3, 0.0, 1.0, 0x51);
        let t = pseudo_random_store(120, 3, 0.3, 1.3, 0x52);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        (p, t, rp, linear_cost(3))
    }

    fn scheduled(
        p: &PointStore,
        rp: &RTree,
        t: &PointStore,
        k: usize,
        cost: &SumCost,
        threads: usize,
        strategy: ProbeStrategy,
    ) -> (Vec<UpgradeResult>, PruningStats) {
        let cfg = UpgradeConfig::default();
        improved_probing_topk_scheduled_rec(
            p,
            rp,
            t,
            k,
            cost,
            &cfg,
            threads,
            strategy,
            &mut NullRecorder,
        )
    }

    /// One row of the equivalence table: a workload, its `k`, and the
    /// thread counts both strategies run it at.
    struct Case {
        name: &'static str,
        p: PointStore,
        t: PointStore,
        cost: SumCost,
        k: usize,
        threads: &'static [usize],
    }

    fn cases() -> Vec<Case> {
        let store = pseudo_random_store;
        let (p, t, _, cost) = pruning_workload();
        let mut cases = vec![
            Case {
                name: "interleaved domains, linear cost (the screen fires)",
                p,
                t,
                cost,
                k: 10,
                threads: &[1, 2, 7],
            },
            Case {
                name: "reciprocal cost (the screen stays idle)",
                p: store(400, 2, 0.0, 1.0, 0x61),
                t: store(61, 2, 0.5, 1.5, 0x62),
                cost: SumCost::reciprocal(2, 1e-3),
                k: 7,
                threads: &[4],
            },
            Case {
                name: "odd |T| = 97",
                p: store(600, 3, 0.0, 1.0, 0xa),
                t: store(97, 3, 0.5, 1.5, 0xb),
                cost: SumCost::reciprocal(3, 1e-3),
                k: 10,
                threads: &[1, 2, 3, 8, 64],
            },
            Case {
                name: "more threads than products",
                p: store(50, 2, 0.0, 1.0, 0xc),
                t: store(3, 2, 1.1, 2.0, 0xd),
                cost: SumCost::reciprocal(2, 1e-3),
                k: 5,
                threads: &[16, 64],
            },
            Case {
                name: "empty T",
                p: store(50, 2, 0.0, 1.0, 0xe),
                t: PointStore::new(2),
                cost: SumCost::reciprocal(2, 1e-3),
                k: 5,
                threads: &[4],
            },
            Case {
                name: "threads == 0 is clamped to one",
                p: store(200, 2, 0.0, 1.0, 0xf),
                t: store(17, 2, 0.5, 1.5, 0x10),
                cost: SumCost::reciprocal(2, 1e-3),
                k: 5,
                threads: &[0],
            },
        ];
        for (name, dist) in [
            ("paper domains, independent", Distribution::Independent),
            (
                "paper domains, anti-correlated",
                Distribution::AntiCorrelated,
            ),
        ] {
            cases.push(Case {
                name,
                p: paper_competitors(3000, 3, dist, 0x91),
                t: paper_products(500, 3, dist, 0x92),
                cost: SumCost::reciprocal(3, 1e-3),
                k: 10,
                threads: &[1, 2],
            });
        }
        cases
    }

    #[test]
    fn every_strategy_matches_sequential_bit_for_bit() {
        let cfg = UpgradeConfig::default();
        for case in cases() {
            let rp = RTree::bulk_load(&case.p, RTreeParams::with_max_entries(8));
            let seq = improved_probing_topk(&case.p, &rp, &case.t, case.k, &case.cost, &cfg);
            for strategy in [ProbeStrategy::WorkStealing, ProbeStrategy::BoundSorted] {
                for &threads in case.threads {
                    let what = format!("{}: {strategy:?} threads={threads}", case.name);
                    let (out, stats) =
                        scheduled(&case.p, &rp, &case.t, case.k, &case.cost, threads, strategy);
                    assert_eq!(out.len(), seq.len(), "{what}");
                    for (a, b) in seq.iter().zip(&out) {
                        assert_eq!(a.product, b.product, "{what}");
                        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}");
                        assert_eq!(a.upgraded, b.upgraded, "{what}");
                        assert_eq!(a.original, b.original, "{what}");
                    }
                    assert_eq!(
                        stats.evaluated + stats.pruned,
                        case.t.len() as u64,
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_sorted_actually_prunes_on_interleaved_workload() {
        let (p, t, rp, cost) = pruning_workload();
        let (_, stats) = scheduled(&p, &rp, &t, 5, &cost, 1, ProbeStrategy::BoundSorted);
        assert!(
            stats.pruned > 0,
            "the interleaved workload must exercise the screen: {stats:?}"
        );
        assert_eq!(stats.evaluated + stats.pruned, t.len() as u64);
    }

    #[test]
    fn single_thread_bound_sorted_is_deterministic_including_metrics() {
        let (p, t, rp, cost) = pruning_workload();
        let cfg = UpgradeConfig::default();
        let run = || {
            let mut m = QueryMetrics::new();
            let (out, stats) = improved_probing_topk_scheduled_rec(
                &p,
                &rp,
                &t,
                5,
                &cost,
                &cfg,
                1,
                ProbeStrategy::BoundSorted,
                &mut m,
            );
            let snapshot: Vec<u64> = Counter::ALL.iter().map(|&c| m.get(c)).collect();
            (out, stats, snapshot)
        };
        let (a_out, a_stats, a_counters) = run();
        let (b_out, b_stats, b_counters) = run();
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_counters, b_counters);
        assert_eq!(a_out.len(), b_out.len());
        for (x, y) in a_out.iter().zip(&b_out) {
            assert_eq!(x.product, y.product);
            assert_eq!(x.cost.to_bits(), y.cost.to_bits());
        }
    }

    #[test]
    fn work_stealing_steal_events_equal_t_len() {
        let (p, t, rp, cost) = pruning_workload();
        let cfg = UpgradeConfig::default();
        for threads in [1, 3, 8] {
            let mut m = QueryMetrics::new();
            let _ = improved_probing_topk_scheduled_rec(
                &p,
                &rp,
                &t,
                5,
                &cost,
                &cfg,
                threads,
                ProbeStrategy::WorkStealing,
                &mut m,
            );
            assert_eq!(
                m.get(Counter::StealEvents),
                t.len() as u64,
                "threads={threads}"
            );
            assert_eq!(m.get(Counter::ProductsEvaluated), t.len() as u64);
            assert_eq!(m.get(Counter::ThresholdPrunes), 0);
        }
    }

    #[test]
    fn bound_sorted_counter_invariant_holds_at_any_thread_count() {
        let (p, t, rp, cost) = pruning_workload();
        let cfg = UpgradeConfig::default();
        for threads in [1, 2, 4, 8] {
            let mut m = QueryMetrics::new();
            let (_, stats) = improved_probing_topk_scheduled_rec(
                &p,
                &rp,
                &t,
                5,
                &cost,
                &cfg,
                threads,
                ProbeStrategy::BoundSorted,
                &mut m,
            );
            assert_eq!(
                m.get(Counter::ProductsEvaluated) + m.get(Counter::ThresholdPrunes),
                t.len() as u64,
                "threads={threads}"
            );
            assert_eq!(m.get(Counter::ProductsEvaluated), stats.evaluated);
            assert_eq!(m.get(Counter::ThresholdPrunes), stats.pruned);
            assert_eq!(m.get(Counter::LowerBoundEvals), t.len() as u64);
        }
    }

    #[test]
    fn try_scheduled_unlimited_matches_plain() {
        let (p, t, rp, cost) = pruning_workload();
        let cfg = UpgradeConfig::default();
        for strategy in [ProbeStrategy::WorkStealing, ProbeStrategy::BoundSorted] {
            let (plain, _) = scheduled(&p, &rp, &t, 8, &cost, 3, strategy);
            let (any, _) = try_improved_probing_topk_scheduled(
                &p,
                &rp,
                &t,
                8,
                &cost,
                &cfg,
                3,
                strategy,
                &ExecutionLimits::none(),
                &mut NullRecorder,
            )
            .unwrap();
            assert!(any.completion.is_exact());
            assert_eq!(any.results.len(), plain.len());
            for (a, b) in any.results.iter().zip(&plain) {
                assert_eq!(a.product, b.product);
                assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            }
        }
    }

    #[test]
    fn try_scheduled_partial_results_stay_exact_per_product() {
        let (p, t, rp, cost) = pruning_workload();
        let cfg = UpgradeConfig::default();
        let seq = improved_probing_topk(&p, &rp, &t, t.len(), &cost, &cfg);
        let by_product: std::collections::HashMap<u32, &UpgradeResult> =
            seq.iter().map(|r| (r.product.0, r)).collect();
        for budget in [50u64, 400, 2_000] {
            for threads in [1, 3] {
                let limits = ExecutionLimits::none().with_max_node_visits(budget);
                let (any, stats) = try_improved_probing_topk_scheduled(
                    &p,
                    &rp,
                    &t,
                    5,
                    &cost,
                    &cfg,
                    threads,
                    ProbeStrategy::BoundSorted,
                    &limits,
                    &mut NullRecorder,
                )
                .unwrap();
                assert!(any.results.len() <= 5.min(any.evaluated));
                assert!(any
                    .results
                    .windows(2)
                    .all(|w| (w[0].cost, w[0].product.0) <= (w[1].cost, w[1].product.0)));
                for r in &any.results {
                    let expect = by_product[&r.product.0];
                    assert_eq!(r.cost.to_bits(), expect.cost.to_bits());
                    assert_eq!(r.upgraded, expect.upgraded);
                }
                assert!(stats.evaluated as usize == any.evaluated);
            }
        }
    }

    /// The guard is armed before the bound sort and checked once per
    /// product inside it: a pre-cancelled token or an already-expired
    /// deadline stops the call before a single bound is paid for.
    #[test]
    fn bound_sort_honours_cancellation_and_deadline() {
        let (p, t, rp, cost) = pruning_workload();
        let token = CancellationToken::new();
        token.cancel();
        for (limits, interrupt) in [
            (
                ExecutionLimits::none().with_token(token),
                Interrupt::Cancelled,
            ),
            (
                ExecutionLimits::none().with_deadline(Duration::ZERO),
                Interrupt::DeadlineExceeded,
            ),
        ] {
            let mut m = QueryMetrics::new();
            let (any, stats) = try_improved_probing_topk_scheduled(
                &p,
                &rp,
                &t,
                5,
                &cost,
                &UpgradeConfig::default(),
                2,
                ProbeStrategy::BoundSorted,
                &limits,
                &mut m,
            )
            .unwrap();
            assert_eq!(any.completion, Completion::Partial(interrupt));
            assert!(any.results.is_empty());
            assert_eq!(any.evaluated, 0);
            assert_eq!(stats, PruningStats::default());
            assert_eq!(m.get(Counter::LowerBoundEvals), 0, "{interrupt:?}");
            assert_eq!(m.get(Counter::LimitInterrupts), 1);
        }
    }

    #[test]
    fn try_scheduled_rejects_zero_threads() {
        let (p, t, rp, cost) = pruning_workload();
        let err = try_improved_probing_topk_scheduled(
            &p,
            &rp,
            &t,
            5,
            &cost,
            &UpgradeConfig::default(),
            0,
            ProbeStrategy::BoundSorted,
            &ExecutionLimits::none(),
            &mut NullRecorder,
        )
        .unwrap_err();
        assert!(matches!(err, SkyupError::InvalidConfig(_)));
        assert!(err.to_string().contains("worker thread"));
    }
}
