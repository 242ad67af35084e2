//! Algorithm 4: the progressive R-tree × R-tree upgrading join.
//!
//! A min-heap orders `R_T` entries by the lower-bound upgrading cost
//! `LBC(e_T, e_T.JL)`. Processing the top entry either
//!
//! * **returns a result** — the entry is a single product whose exact
//!   upgrade has already been computed and whose cost is now the global
//!   minimum among everything left in the heap;
//! * **resolves a product** — a leaf product's join list is collapsed
//!   into the skyline of its dominators (constrained BBS over the JL
//!   subtrees) and Algorithm 1 computes its exact upgrade, which is
//!   pushed back with the exact cost (lines 9–11);
//! * **expands the `R_T` node** (Heuristic 1, `LBC = 0`): each child
//!   inherits the subset of the join list overlapping its own
//!   anti-dominant region (lines 13–20);
//! * **expands one join-list entry** (Heuristic 2, `LBC > 0`): the
//!   chosen `R_P` node is replaced by its children, each screened by the
//!   ADR test and a mutual-dominance check against the rest of the list
//!   (lines 22–32). Heuristic 3 picks the non-leaf entry with the
//!   smallest positive `LBC(e_T, e)` (NLB/CLB); Heuristic 4 picks one
//!   achieving the aggressive bound (ALB).
//!
//! The paper leaves one situation implicit: `LBC > 0` but every
//! join-list entry is already a point. No `R_P` expansion is possible,
//! so the `R_T` node is expanded instead (the only sound progress step);
//! a leaf product in the same situation is simply resolved.
//!
//! Resolving a product is independent of the rest of the heap, so the
//! join resolves ahead: with the popped leaf product it lifts up to
//! [`LOOKAHEAD`]` - 1` more unresolved leaf products off the heap top
//! (stepping over resolved entries, stopping at the first `R_T` node
//! entry), puts every lifted entry back untouched, and resolves the
//! batch on the calling thread plus scoped helper threads, each in a
//! scratch the join owns for its whole lifetime. A look-ahead
//! result waits until the join pops its product; only then are its
//! metrics absorbed and its exact upgrade pushed. The pop sequence, the
//! emissions and every counter are therefore those of resolving one
//! product at a time (DESIGN.md §11).

use super::bounds::{entry_bound, list_bound, BoundMode, LowerBound};
use super::heap::JoinHeapEntry;
use crate::config::UpgradeConfig;
use crate::cost::diagnostics::verify_monotone_on;
use crate::cost::CostFunction;
use crate::error::{SkyupError, MONOTONE_SAMPLE_LIMIT};
use crate::result::{AnytimeTopK, UpgradeResult};
use crate::upgrade::{dominators_from_skyline, upgrade_single_into, UpgradeScratch};
use skyup_geom::dominance::dominates;
use skyup_geom::{OrderedF64, PointId, PointStore};
use skyup_obs::{
    clocked, Completion, Counter, ExecGuard, ExecutionLimits, Interrupt, Phase, QueryMetrics,
    Recorder,
};
use skyup_rtree::{EntryRef, RTree};
use skyup_skyline::{dominating_skyline_from_into, SkylineScratch};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// L: the leaf products one resolution batch may hold — the popped one
/// plus up to `L - 1` lifted off the heap top. Picked by measurement on
/// the `paper_topk` shape (DESIGN.md §11): past 12 the join got no
/// faster on two CPUs while it discarded more look-ahead work.
const LOOKAHEAD: usize = 12;

/// Threads that resolve look-ahead products besides the caller:
/// `available_parallelism() - 1`, read once per process.
fn lookahead_helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()) - 1)
}

fn product_of(e: EntryRef) -> PointId {
    match e {
        EntryRef::Point(p) => p,
        EntryRef::Node(_) => unreachable!("only leaf entries are products"),
    }
}

/// What resolving a leaf product reads; shared by every thread of a
/// batch.
struct Resolver<'a, C: CostFunction + ?Sized> {
    p_store: &'a PointStore,
    p_tree: &'a RTree,
    p_skyline: Option<&'a [PointId]>,
    cost_fn: &'a C,
    cfg: &'a UpgradeConfig,
}

/// The buffers one resolving thread reuses from product to product:
/// Algorithm 3's heap and dominator skyline, and Algorithm 1's sort
/// orders and candidates. The join owns one per resolving thread for
/// its whole lifetime, so a warm scratch resolves a product without
/// allocating anything but the upgraded coordinates it returns.
struct Scratch {
    sky: SkylineScratch,
    upg: UpgradeScratch,
}

impl Scratch {
    fn new(dims: usize) -> Self {
        Self {
            sky: SkylineScratch::new(dims),
            upg: UpgradeScratch::new(),
        }
    }
}

/// One product's exact upgrade `(cost, t′)`, or the interrupt that cut
/// it short, plus the work it took.
struct Resolution {
    metrics: QueryMetrics,
    upgrade: Result<(f64, Vec<f64>), Interrupt>,
}

/// Lines 9-11 for leaf product `t` with join list `jl`: the skyline of
/// its dominators (constrained BBS over the join-list subtrees, or a
/// filter of the precomputed skyline), then Algorithm 1, both in the
/// calling thread's `scratch`. The work is recorded into the
/// resolution's own metrics, so it can run on any thread. On
/// interruption the product's partial work is discarded whole — a
/// truncated dominator skyline may miss dominators and is unsound for
/// Algorithm 1.
fn resolve_product<C: CostFunction + ?Sized>(
    r: &Resolver<'_, C>,
    t: &[f64],
    jl: &[EntryRef],
    guard: &mut ExecGuard,
    scratch: &mut Scratch,
) -> Resolution {
    // Spans are timed with `clocked` and added whole: opening one on
    // fresh metrics would allocate their span stack.
    let mut metrics = QueryMetrics::new();
    let Scratch { sky, upg } = scratch;
    let (nanos, filtered) = clocked(|| match r.p_skyline {
        Some(p_sky) => guard
            .checkpoint()
            .map(|()| Some(dominators_from_skyline(r.p_store, p_sky, t, &mut metrics))),
        None => dominating_skyline_from_into(r.p_store, r.p_tree, jl, t, &mut metrics, guard, sky)
            .map(|()| None),
    });
    metrics.add_phase(Phase::DominatingSky, nanos, 1);
    let upgrade = filtered.map(|filtered| {
        let skyline = filtered.as_deref().unwrap_or(sky.skyline());
        debug_assert!(skyline.iter().all(|&s| dominates(r.p_store.point(s), t)));
        let (nanos, cost) =
            clocked(|| upgrade_single_into(r.p_store, skyline, t, r.cost_fn, r.cfg, upg));
        metrics.add_phase(Phase::Upgrade, nanos, 1);
        (cost, upg.upgraded().to_vec())
    });
    Resolution { metrics, upgrade }
}

/// Resolves every `(t, jl)` of `batch` on the calling thread plus up to
/// `scratches.len() - 1` scoped helper threads, each claiming the next
/// unclaimed product from a shared index, and returns the resolutions
/// in batch order. Each thread works in its own scratch: the caller in
/// the first, helper `i` in scratch `i + 1`. A helper's panic resumes
/// on the caller.
fn resolve_batch<C: CostFunction + ?Sized>(
    r: &Resolver<'_, C>,
    batch: &[(&[f64], &[EntryRef])],
    scratches: &mut [Scratch],
    guard: &mut ExecGuard,
) -> Vec<Resolution> {
    // The claim index publishes no data: resolutions come back through
    // `join`, which orders them after the helper's writes.
    let next = AtomicUsize::new(0);
    let work = |guard: &mut ExecGuard, scratch: &mut Scratch| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(t, jl)) = batch.get(i) else {
                return done;
            };
            done.push((i, resolve_product(r, t, jl, guard, scratch)));
        }
    };
    let work = &work;
    let (mine, helpers) = scratches
        .split_first_mut()
        .expect("the caller resolves in the first scratch");
    let mut done = std::thread::scope(|s| {
        let handles: Vec<_> = helpers
            .iter_mut()
            .take(batch.len() - 1)
            .map(|scratch| {
                let mut g = guard.clone();
                s.spawn(move || work(&mut g, scratch))
            })
            .collect();
        let mut done = work(guard, mine);
        for h in handles {
            match h.join() {
                Ok(more) => done.extend(more),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, res)| res).collect()
}

/// Instrumentation counters exposed by [`JoinUpgrader::stats`].
///
/// This is a view derived from the join's [`QueryMetrics`] (see
/// [`JoinUpgrader::metrics`]), kept for API stability; the full counter
/// and per-phase timing breakdown lives in the metrics object.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// `R_T` nodes expanded (Heuristic 1 or the all-points fallback).
    pub t_nodes_expanded: u64,
    /// `R_P` nodes expanded out of join lists (Heuristic 2).
    pub p_nodes_expanded: u64,
    /// Exact upgrades computed with Algorithm 1.
    pub exact_upgrades: u64,
    /// Total heap pushes: the join heap plus the constrained-BBS heaps
    /// used to resolve leaf products.
    pub heap_pushes: u64,
    /// Join-list entries dropped by the mutual-dominance check.
    pub jl_entries_pruned: u64,
    /// Results emitted so far.
    pub results_emitted: u64,
}

impl JoinStats {
    /// Derives the legacy stats view from a unified metrics object.
    pub fn from_metrics(m: &QueryMetrics) -> Self {
        JoinStats {
            t_nodes_expanded: m.get(Counter::TNodesExpanded),
            p_nodes_expanded: m.get(Counter::PNodesExpanded),
            exact_upgrades: m.get(Counter::ExactUpgrades),
            heap_pushes: m.get(Counter::HeapPushes),
            jl_entries_pruned: m.get(Counter::JlEntriesPruned),
            results_emitted: m.get(Counter::ResultsEmitted),
        }
    }
}

/// The progressive join (Algorithm 4), exposed as an [`Iterator`] that
/// yields upgrades in ascending cost order. Take `k` items for a top-k
/// answer; the counted work (every [`Counter`]) is exactly what the
/// results actually consumed need, which is the progressiveness
/// property Figures 5, 10, and 11 measure. On more than one CPU the
/// join resolves up to `L - 1` products ahead of the one it popped
/// (module docs); a look-ahead resolution the consumer never reaches is
/// discarded CPU work, never counted.
pub struct JoinUpgrader<'a, C: CostFunction + ?Sized> {
    p_store: &'a PointStore,
    p_tree: &'a RTree,
    t_store: &'a PointStore,
    t_tree: &'a RTree,
    cost_fn: &'a C,
    cfg: UpgradeConfig,
    bound: LowerBound,
    mode: BoundMode,
    p_skyline: Option<&'a [PointId]>,
    heap: BinaryHeap<Reverse<JoinHeapEntry>>,
    seq: u64,
    metrics: QueryMetrics,
    guard: ExecGuard,
    completion: Completion,
    finished: bool,
    guard_recorded: bool,
    /// One scratch per resolving thread: the caller's first, then one
    /// per helper. With no helper, a batch holds only the popped
    /// product.
    scratches: Vec<Scratch>,
    /// Look-ahead resolutions waiting for the join to pop their product.
    ahead: HashMap<PointId, Resolution>,
}

impl<'a, C: CostFunction + ?Sized> JoinUpgrader<'a, C> {
    /// Creates the join over competitor tree `p_tree` (indexing
    /// `p_store`) and product tree `t_tree` (indexing `t_store`).
    ///
    /// # Panics
    /// Panics if the stores' dimensionalities differ or a tree does not
    /// match its store's cardinality.
    pub fn new(
        p_store: &'a PointStore,
        p_tree: &'a RTree,
        t_store: &'a PointStore,
        t_tree: &'a RTree,
        cost_fn: &'a C,
        cfg: UpgradeConfig,
        bound: LowerBound,
    ) -> Self {
        assert_eq!(
            p_store.dims(),
            t_store.dims(),
            "P and T dimensionality differ"
        );
        assert_eq!(p_tree.len(), p_store.len(), "R_P does not index all of P");
        assert_eq!(t_tree.len(), t_store.len(), "R_T does not index all of T");

        let mut join = Self {
            p_store,
            p_tree,
            t_store,
            t_tree,
            cost_fn,
            cfg,
            bound,
            mode: BoundMode::default(),
            p_skyline: None,
            heap: BinaryHeap::new(),
            seq: 0,
            metrics: QueryMetrics::new(),
            guard: ExecGuard::unlimited(),
            completion: Completion::Exact,
            finished: false,
            guard_recorded: false,
            scratches: (0..=lookahead_helpers())
                .map(|_| Scratch::new(p_store.dims()))
                .collect(),
            ahead: HashMap::new(),
        };

        // Line 2: enheap(⟨{R_P.root}, R_T.root, null, ∞⟩) — we compute
        // the real initial bound instead of ∞, which is equivalent (the
        // first pop recomputes it anyway) but keeps the heap keys honest.
        if !t_tree.is_empty() {
            let target = EntryRef::Node(t_tree.root_id());
            let jl = if p_tree.is_empty() {
                Vec::new()
            } else {
                let t_max = join.t_hi(target);
                let root = EntryRef::Node(p_tree.root_id());
                if join.p_overlaps_adr(root, t_max) {
                    vec![root]
                } else {
                    Vec::new()
                }
            };
            join.push(target, jl, None);
        }
        join
    }

    /// Fallible twin of [`JoinUpgrader::new`]: validates the inputs —
    /// matching dimensionalities, a cost function of the right arity, a
    /// non-empty competitor set, indexes covering their stores, and
    /// cost monotonicity on sampled data — and reports problems as
    /// [`SkyupError`] instead of panicking.
    pub fn try_new(
        p_store: &'a PointStore,
        p_tree: &'a RTree,
        t_store: &'a PointStore,
        t_tree: &'a RTree,
        cost_fn: &'a C,
        cfg: UpgradeConfig,
        bound: LowerBound,
    ) -> Result<Self, SkyupError> {
        if p_store.dims() != t_store.dims() {
            return Err(SkyupError::DimensionMismatch {
                p_dims: p_store.dims(),
                t_dims: t_store.dims(),
            });
        }
        if cost_fn.dims() != p_store.dims() {
            return Err(SkyupError::InvalidConfig(format!(
                "cost function covers {} dimensions but products have {}",
                cost_fn.dims(),
                p_store.dims()
            )));
        }
        if p_store.is_empty() {
            return Err(SkyupError::EmptyCompetitorSet);
        }
        if p_tree.len() != p_store.len() {
            return Err(SkyupError::IndexMismatch {
                tree: "R_P",
                tree_len: p_tree.len(),
                store_len: p_store.len(),
            });
        }
        if t_tree.len() != t_store.len() {
            return Err(SkyupError::IndexMismatch {
                tree: "R_T",
                tree_len: t_tree.len(),
                store_len: t_store.len(),
            });
        }
        verify_monotone_on(cost_fn, p_store, MONOTONE_SAMPLE_LIMIT)
            .map_err(SkyupError::NonMonotoneCost)?;
        verify_monotone_on(cost_fn, t_store, MONOTONE_SAMPLE_LIMIT)
            .map_err(SkyupError::NonMonotoneCost)?;
        Ok(Self::new(
            p_store, p_tree, t_store, t_tree, cost_fn, cfg, bound,
        ))
    }

    /// Runs the join under `limits`: every `R_T` / `R_P` node expansion
    /// and constrained-BBS traversal is charged to the guard, and every
    /// heap insertion counts against the heap budget. When a limit
    /// fires, iteration stops cleanly — [`Iterator::next`] returns
    /// `None` — and [`JoinUpgrader::completion`] reports
    /// [`Completion::Partial`]. The results already emitted are an exact
    /// prefix of the unlimited run's emission sequence. Must be called
    /// before consuming any results.
    ///
    /// Armed limits (any budget, deadline, token or fault plan) resolve
    /// one product at a time on the calling thread, so every charge to
    /// the guard happens in the sequential order.
    pub fn with_limits(mut self, limits: &ExecutionLimits) -> Self {
        assert_eq!(
            self.metrics.get(Counter::ResultsEmitted),
            0,
            "limits must be armed before iteration starts"
        );
        self.guard = limits.start();
        if !self.guard.is_unlimited() {
            self.scratches.truncate(1);
        }
        self
    }

    /// Overrides the helper count, so that tests can run both one
    /// product at a time (`0`) and the look-ahead with helpers on any
    /// host.
    #[cfg(test)]
    pub(crate) fn with_helpers(mut self, helpers: usize) -> Self {
        let dims = self.p_store.dims();
        self.scratches
            .resize_with(helpers + 1, || Scratch::new(dims));
        self
    }

    /// Look-ahead resolutions waiting for their product to be popped.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.ahead.len()
    }

    /// Whether the join ran to completion or was interrupted by a
    /// limit. [`Completion::Exact`] while results are still pending
    /// means "no limit has fired yet".
    pub fn completion(&self) -> Completion {
        self.completion
    }

    /// Drains up to `k` results and packages them with the completion
    /// state. The results are an exact prefix of the unlimited
    /// emission sequence whether or not a limit fired.
    pub fn collect_topk(&mut self, k: usize) -> AnytimeTopK {
        let mut results = Vec::new();
        while results.len() < k {
            match self.next() {
                Some(r) => results.push(r),
                None => break,
            }
        }
        self.record_guard_metrics();
        let evaluated = results.len();
        AnytimeTopK {
            results,
            completion: self.completion,
            evaluated,
        }
    }

    /// Folds the guard's tallies into the metrics exactly once. Only
    /// guarded runs record them, so unlimited iteration keeps its
    /// historical counter set bit-identical.
    fn record_guard_metrics(&mut self) {
        if self.guard_recorded {
            return;
        }
        self.guard_recorded = true;
        if !self.guard.is_unlimited() {
            self.metrics
                .incr(Counter::GuardedNodeVisits, self.guard.node_visits());
        }
        if !self.completion.is_exact() {
            self.metrics.bump(Counter::LimitInterrupts);
        }
    }

    fn interrupt(&mut self, i: Interrupt) {
        self.completion = Completion::Partial(i);
        self.finished = true;
        self.record_guard_metrics();
    }

    /// The lower-bound strategy in use.
    pub fn lower_bound(&self) -> LowerBound {
        self.bound
    }

    /// Switches the per-entry bound between the paper's `LBC` (default)
    /// and the admissible single-dimension-escape bound. Must be called
    /// before consuming any results: the root entry's key is recomputed.
    pub fn with_bound_mode(mut self, mode: BoundMode) -> Self {
        assert_eq!(
            self.metrics.get(Counter::ResultsEmitted),
            0,
            "bound mode must be chosen before iteration starts"
        );
        self.mode = mode;
        // Re-key the initial heap content (at most the root entry).
        let entries: Vec<_> = std::mem::take(&mut self.heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        for e in entries {
            match e.resolved {
                Some(coords) => self.push(e.target, e.jl, Some((e.cost.get(), coords))),
                None => self.push(e.target, e.jl, None),
            }
        }
        self
    }

    /// The bound mode in use.
    pub fn bound_mode(&self) -> BoundMode {
        self.mode
    }

    /// Supplies a precomputed skyline of the full competitor set.
    /// Product resolution then filters it down to each product's
    /// dominators with a linear scan instead of running the constrained
    /// BBS traversal over `R_P`; the filter is exact (see
    /// [`dominators_from_skyline`]), so the emitted results are
    /// unchanged. Must be called before consuming any results, and
    /// `skyline` must be the skyline of `p_store` — a superset misses
    /// nothing but wastes work, a subset silently under-upgrades.
    pub fn with_skyline(mut self, skyline: &'a [PointId]) -> Self {
        assert_eq!(
            self.metrics.get(Counter::ResultsEmitted),
            0,
            "a precomputed skyline must be supplied before iteration starts"
        );
        debug_assert!(
            skyline.iter().all(|s| s.index() < self.p_store.len()),
            "skyline ids must index p_store"
        );
        self.p_skyline = Some(skyline);
        self
    }

    /// Instrumentation counters accumulated so far (legacy view over
    /// [`JoinUpgrader::metrics`]).
    pub fn stats(&self) -> JoinStats {
        JoinStats::from_metrics(&self.metrics)
    }

    /// The full unified metrics accumulated so far: every counter the
    /// join and its constrained-BBS resolutions touch, plus per-phase
    /// span timings ([`Phase::JoinExpansion`], [`Phase::DominatingSky`],
    /// [`Phase::Upgrade`]).
    pub fn metrics(&self) -> &QueryMetrics {
        &self.metrics
    }

    fn t_lo(&self, e: EntryRef) -> &'a [f64] {
        self.t_tree.entry_lo(self.t_store, e)
    }

    fn t_hi(&self, e: EntryRef) -> &'a [f64] {
        self.t_tree.entry_hi(self.t_store, e)
    }

    /// Whether `R_P` entry `e` overlaps `ADR(t_max)` — i.e. may contain
    /// dominators of a product bounded above by `t_max`.
    fn p_overlaps_adr(&self, e: EntryRef, t_max: &[f64]) -> bool {
        let lo = self.p_tree.entry_lo(self.p_store, e);
        lo.iter().zip(t_max).all(|(&l, &y)| l <= y)
    }

    fn push(&mut self, target: EntryRef, jl: Vec<EntryRef>, resolved: Option<(f64, Vec<f64>)>) {
        let (cost, resolved_coords) = match resolved {
            Some((cost, coords)) => (cost, Some(coords)),
            None => {
                self.metrics.bump(Counter::LowerBoundEvals);
                (
                    list_bound(
                        self.t_lo(target),
                        &jl,
                        self.p_store,
                        self.p_tree,
                        self.cost_fn,
                        self.bound,
                        self.mode,
                    ),
                    None,
                )
            }
        };
        self.seq += 1;
        self.metrics.bump(Counter::HeapPushes);
        // A tripped heap budget is sticky; the loop in `next` catches it
        // at its next checkpoint, so the push itself stays infallible.
        let _ = self.guard.heap_push();
        self.heap.push(Reverse(JoinHeapEntry {
            cost: OrderedF64::new(cost),
            seq: self.seq,
            target,
            jl,
            resolved: resolved_coords,
        }));
    }

    /// Lines 8-11: resolve leaf product `target` and push its exact
    /// upgrade back. A look-ahead resolution of it is used if one is
    /// waiting; otherwise it is resolved in a batch with the products
    /// lifted behind it. Either way its metrics are absorbed only now,
    /// when the sequential join would have done the work.
    fn resolve_leaf(&mut self, target: EntryRef, jl: Vec<EntryRef>) -> Result<(), Interrupt> {
        let tid = product_of(target);
        let done = match self.ahead.remove(&tid) {
            Some(done) => done,
            None => self.resolve_with_lookahead(tid, &jl),
        };
        self.metrics.absorb(&done.metrics);
        let (cost, upgraded) = done.upgrade?;
        self.metrics.bump(Counter::ExactUpgrades);
        self.push(target, Vec::new(), Some((cost, upgraded)));
        Ok(())
    }

    /// Resolves `tid` together with up to `L - 1` unresolved leaf
    /// products lifted off the heap top, and parks their resolutions in
    /// `ahead`. The lift steps over resolved entries and products
    /// already waiting, stops at the first `R_T` node entry, and puts
    /// every lifted entry back unchanged — same key, same `seq`, no
    /// counter and no guard charge — so the pop order is untouched.
    fn resolve_with_lookahead(&mut self, tid: PointId, jl: &[EntryRef]) -> Resolution {
        let lookahead = if self.scratches.len() == 1 {
            1
        } else {
            LOOKAHEAD
        };
        let mut lifted = Vec::new();
        let mut picks = Vec::new();
        while picks.len() + 1 < lookahead {
            let Some(top) = self.heap.peek_mut() else {
                break;
            };
            if !top.0.target.is_point() {
                break;
            }
            let Reverse(e) = PeekMut::pop(top);
            if e.resolved.is_none() && !self.ahead.contains_key(&product_of(e.target)) {
                picks.push(lifted.len());
            }
            lifted.push(e);
        }
        let r = Resolver {
            p_store: self.p_store,
            p_tree: self.p_tree,
            p_skyline: self.p_skyline,
            cost_fn: self.cost_fn,
            cfg: &self.cfg,
        };
        let t_store = self.t_store;
        if picks.is_empty() {
            // Nothing to resolve ahead: no thread scope or batch to set up.
            self.heap.extend(lifted.into_iter().map(Reverse));
            let (guard, scratch) = (&mut self.guard, &mut self.scratches[0]);
            return resolve_product(&r, t_store.point(tid), jl, guard, scratch);
        }
        let batch: Vec<(&[f64], &[EntryRef])> = std::iter::once((t_store.point(tid), jl))
            .chain(picks.iter().map(|&i| {
                let e: &JoinHeapEntry = &lifted[i];
                (t_store.point(product_of(e.target)), &e.jl[..])
            }))
            .collect();
        let mut done = resolve_batch(&r, &batch, &mut self.scratches, &mut self.guard).into_iter();
        let first = done.next().expect("a batch resolves its popped product");
        for (&i, res) in picks.iter().zip(done) {
            // Only an unlimited guard lifts, and it never interrupts.
            debug_assert!(res.upgrade.is_ok());
            self.ahead.insert(product_of(lifted[i].target), res);
        }
        self.heap.extend(lifted.into_iter().map(Reverse));
        first
    }

    /// Lines 13-20 (Heuristic 1): expand the `R_T` node `target`.
    fn expand_target(&mut self, target: EntryRef, jl: &[EntryRef]) -> Result<(), Interrupt> {
        let node = match target {
            EntryRef::Node(n) => n,
            EntryRef::Point(_) => unreachable!("expand_target takes node entries"),
        };
        self.guard.visit_node()?;
        self.metrics.bump(Counter::TNodesExpanded);
        let t_tree = self.t_tree;
        for child in t_tree.node(node).entries() {
            let child_max = self.t_hi(child);
            let child_jl: Vec<EntryRef> = jl
                .iter()
                .copied()
                .filter(|&e| self.p_overlaps_adr(e, child_max))
                .collect();
            self.push(child, child_jl, None);
        }
        Ok(())
    }

    /// Heuristics 3-4: choose which non-leaf join-list entry to expand.
    /// Returns `None` when the list has no node entries left.
    fn pick_jl_entry(&self, e_t_min: &[f64], jl: &[EntryRef], lbc: f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        let mut achieving: Option<usize> = None;
        for (i, &e) in jl.iter().enumerate() {
            if e.is_point() {
                continue;
            }
            let b = entry_bound(
                e_t_min,
                e,
                self.p_store,
                self.p_tree,
                self.cost_fn,
                self.mode,
            )
            .cost;
            if self.bound == LowerBound::Aggressive
                && achieving.is_none()
                && (b - lbc).abs() <= 1e-12 * lbc.max(1.0)
            {
                achieving = Some(i);
            }
            let better = match best {
                None => true,
                Some((_, cur)) => {
                    // Prefer positive bounds; among positives (or among
                    // zeroes) take the minimum.
                    if (b > 0.0) != (cur > 0.0) {
                        b > 0.0
                    } else {
                        b < cur
                    }
                }
            };
            if better {
                best = Some((i, b));
            }
        }
        // Heuristic 4 for ALB, Heuristic 3 otherwise; either way fall
        // back to the best available non-leaf entry.
        achieving.or(best.map(|(i, _)| i))
    }

    /// Lines 22-32 (Heuristic 2): expand join-list entry `idx`.
    fn expand_jl_entry(
        &mut self,
        target: EntryRef,
        mut jl: Vec<EntryRef>,
        idx: usize,
    ) -> Result<(), Interrupt> {
        let expanded = jl.swap_remove(idx);
        let node = match expanded {
            EntryRef::Node(n) => n,
            EntryRef::Point(_) => unreachable!("only node entries are expanded"),
        };
        self.guard.visit_node()?;
        self.metrics.bump(Counter::PNodesExpanded);
        let t_max = self.t_hi(target);

        for child in self.p_tree.node(node).entries() {
            // Line 24: keep only children that can hold dominators.
            if !self.p_overlaps_adr(child, t_max) {
                continue;
            }
            // Lines 25-31: mutual dominance between the child and the
            // current join list.
            let child_lo = self.p_tree.entry_lo(self.p_store, child);
            let child_hi = self.p_tree.entry_hi(self.p_store, child);
            let mut child_dominated = false;
            let mut i = 0;
            while i < jl.len() {
                let other_lo = self.p_tree.entry_lo(self.p_store, jl[i]);
                let other_hi = self.p_tree.entry_hi(self.p_store, jl[i]);
                if dominates(other_hi, child_lo) {
                    // Every point of jl[i] dominates every point of the
                    // child: the child contributes no dominator-skyline
                    // point.
                    child_dominated = true;
                    self.metrics.bump(Counter::JlEntriesPruned);
                    break;
                }
                if dominates(child_hi, other_lo) {
                    // Symmetric: jl[i] is wholesale dominated.
                    jl.swap_remove(i);
                    self.metrics.bump(Counter::JlEntriesPruned);
                    continue;
                }
                i += 1;
            }
            if !child_dominated {
                jl.push(child);
            }
        }
        // Line 32: push back with the recomputed bound.
        self.push(target, jl, None);
        Ok(())
    }
}

impl<C: CostFunction + ?Sized> Iterator for JoinUpgrader<'_, C> {
    type Item = UpgradeResult;

    fn next(&mut self) -> Option<UpgradeResult> {
        if self.finished {
            return None;
        }
        loop {
            if let Err(i) = self.guard.checkpoint() {
                self.interrupt(i);
                return None;
            }
            let Some(Reverse(entry)) = self.heap.pop() else {
                break;
            };
            self.metrics.bump(Counter::HeapPops);
            let JoinHeapEntry {
                cost,
                target,
                jl,
                resolved,
                ..
            } = entry;

            // Lines 5-7: a resolved product at the top of the heap is the
            // cheapest remaining upgrade.
            if let Some(upgraded) = resolved {
                let tid = product_of(target);
                self.metrics.bump(Counter::ResultsEmitted);
                return Some(UpgradeResult {
                    product: tid,
                    original: self.t_store.point(tid).to_vec(),
                    upgraded,
                    cost: cost.get(),
                });
            }

            let step = match target {
                // Lines 8-11: leaf product with a pending join list.
                EntryRef::Point(_) => self.resolve_leaf(target, jl),
                EntryRef::Node(_) => {
                    self.metrics.enter(Phase::JoinExpansion);
                    let step = if cost.get() == 0.0 {
                        // Lines 13-20, Heuristic 1.
                        self.expand_target(target, &jl)
                    } else {
                        self.metrics.incr(
                            Counter::LowerBoundEvals,
                            jl.iter().filter(|e| !e.is_point()).count() as u64,
                        );
                        match self.pick_jl_entry(self.t_lo(target), &jl, cost.get()) {
                            // Lines 22-32, Heuristic 2.
                            Some(idx) => self.expand_jl_entry(target, jl, idx),
                            // All join-list entries are points: descend
                            // into the T node instead.
                            None => self.expand_target(target, &jl),
                        }
                    };
                    self.metrics.exit(Phase::JoinExpansion);
                    step
                }
            };
            if let Err(i) = step {
                self.interrupt(i);
                return None;
            }
        }
        self.finished = true;
        self.record_guard_metrics();
        None
    }
}
