//! A skyline prepared once for answering many products against it.
//!
//! Every serving query answers a product `t` with Algorithm 1 over the
//! skyline members that dominate it. The work that depends only on the
//! skyline, not on `t`, is shared by building a [`SkylineView`] once per
//! skyline and answering every product through it, from any number of
//! threads:
//!
//! * **One columnar copy** — the skyline gathered into a
//!   [`ColumnarPoints`] buffer with per-block zone maps, scanned by the
//!   blockwise dominator kernel ([`ColumnarPoints::collect_dominators`])
//!   instead of a scalar filter per product.
//! * **Hoisted sorts** — Algorithm 1's per-dimension sorts, done once
//!   over the whole skyline ([`DimOrders`]); each product recovers its
//!   dominators' order as a subsequence filter.
//! * **A dominator memo** — dominator lists are memoized and reused by
//!   ADR containment: if `t[i] <= t'[i]` on every dimension then
//!   `dominators(t) ⊆ dominators(t')` (any `s ≺ t` satisfies
//!   `s ≤ t ≤ t'` with a strict coordinate carried through), so a
//!   memoized superset list is filtered instead of re-scanning the whole
//!   skyline. An exact coordinate-bit match reuses the list verbatim.
//!   The memo keeps the first [`MEMO_CAP`] lists the view computes (full
//!   scans and containment filters alike) and never evicts; it only
//!   exists for skylines of at least [`MEMO_MIN_SKYLINE`] points. Lists
//!   are bitsets over skyline positions in flat buffers, so a full memo
//!   costs `MEMO_CAP × (dims + ⌈|skyline| / 64⌉)` words in three
//!   allocations.
//!
//! # Why answers are bit-identical
//!
//! A per-product answer is a pure function of `(t, skyline, cost_fn)`:
//! the dominator set is the order-preserving filter of the skyline
//! (`skyline(dominators(t)) = {s ∈ skyline(P) : s ≺ t}`), and
//! Algorithm 1 is deterministic given that list. All three dominator
//! paths produce the *same list in the same order*: the columnar kernel
//! enumerates dominator positions ascending (= skyline order), an exact
//! memo hit returns a list produced that way (a bitset enumerates its
//! positions ascending too), and an ADR-containment
//! filter of a superset list is the same subsequence of the skyline as a
//! full filter (the superset property guarantees no dominator is
//! missing, and filtering preserves order). [`upgrade_single_presorted_into`]
//! then returns exactly the bits of [`crate::upgrade_single`] over that
//! list. So every answer is bit-identical to the sequential
//! [`crate::dominators_from_skyline`] + [`crate::upgrade_single`] path
//! over the same skyline order, whatever the thread count, the order
//! products arrive in, or the memo state.
//!
//! The skyline may come in any fixed order; dominator lists come back
//! in that order. Serving passes id-sorted skylines. The probe
//! scheduler passes `skyline(P)` in BBS emission order, the order in
//! which `getDominatingSky` (Algorithm 3) emits each product's
//! dominators, so its answers equal improved probing's bit for bit.

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use crate::upgrade::{upgrade_single_presorted_into, DimOrders, UpgradeScratch};
use skyup_geom::dominance::dominates;
use skyup_geom::{ColumnarPoints, PointId, PointStore};
use skyup_obs::{Counter, Recorder};
use std::sync::RwLock;

/// Maximum entries held by the dominator memo. Lookups scan linearly
/// under a lock, so the table stays small on purpose — past this size
/// the scan would rival the columnar kernel it replaces.
const MEMO_CAP: usize = 64;

/// The memo only switches on when the skyline has at least this many
/// points. Below it, a memo lookup (a locked scan of up to `MEMO_CAP`
/// entries, each a `dims`-coordinate compare) costs as much as the
/// columnar kernel scan it would save, so the memo would be pure
/// overhead — measurably so on small-skyline workloads.
pub const MEMO_MIN_SKYLINE: usize = 128;

/// How a memo lookup matched.
enum MemoHit {
    /// Same coordinate bits: the list is the answer.
    Exact,
    /// `t <= entry.t` on every dimension: the list is a superset of
    /// `dominators(t)` in skyline order; filter it.
    Superset,
}

/// The dominator memo (see module docs). Each entry is a product's
/// coordinates plus its dominator list as a bitset over skyline
/// positions, kept in flat buffers sized for [`MEMO_CAP`] entries on the
/// first insert: a full memo is three allocations however long its
/// lists. Read-mostly: the table stops growing at [`MEMO_CAP`], after
/// which every access is a shared read lock.
struct DominatorMemo {
    dims: usize,
    /// Bitset words per entry: one bit per skyline position.
    words: usize,
    table: RwLock<MemoTable>,
}

#[derive(Default)]
struct MemoTable {
    /// Entry `i`'s product is `ts[i * dims..][..dims]`.
    ts: Vec<f64>,
    /// Entry `i`'s dominators are the set bits of
    /// `bits[i * words..][..words]`, bit `p` standing for position `p`.
    bits: Vec<u64>,
    /// Entry `i`'s dominator count, to pick the smallest superset.
    counts: Vec<u32>,
}

impl DominatorMemo {
    fn new(dims: usize, skyline_len: usize) -> Self {
        DominatorMemo {
            dims,
            words: skyline_len.div_ceil(64),
            table: RwLock::default(),
        }
    }

    /// Looks `t` up and, on a hit, appends the matched entry's skyline
    /// positions to `out` in ascending order.
    fn lookup(&self, t: &[f64], out: &mut Vec<u32>) -> Option<MemoHit> {
        let table = self.table.read().expect("dominator memo poisoned");
        let mut best: Option<usize> = None;
        for (i, e) in table.ts.chunks_exact(self.dims).enumerate() {
            if e.iter().zip(t).all(|(a, b)| a.to_bits() == b.to_bits()) {
                self.positions(&table, i, out);
                return Some(MemoHit::Exact);
            }
            // ADR containment: t inside the entry's lower-left box.
            if t.iter().zip(e).all(|(&x, &y)| x <= y)
                && best.is_none_or(|b| table.counts[i] < table.counts[b])
            {
                best = Some(i);
            }
        }
        let i = best?;
        self.positions(&table, i, out);
        Some(MemoHit::Superset)
    }

    fn positions(&self, table: &MemoTable, i: usize, out: &mut Vec<u32>) {
        out.reserve(table.counts[i] as usize);
        for (w, &word) in table.bits[i * self.words..][..self.words]
            .iter()
            .enumerate()
        {
            let mut word = word;
            while word != 0 {
                out.push((w * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
    }

    fn insert(&self, t: &[f64], positions: &[u32]) {
        {
            // Full tables are the steady state; don't take the write
            // lock just to find that out.
            let table = self.table.read().expect("dominator memo poisoned");
            if table.counts.len() >= MEMO_CAP {
                return;
            }
        }
        let mut table = self.table.write().expect("dominator memo poisoned");
        if table.counts.len() >= MEMO_CAP {
            return;
        }
        if table.counts.is_empty() {
            table.ts.reserve_exact(MEMO_CAP * self.dims);
            table.bits.reserve_exact(MEMO_CAP * self.words);
            table.counts.reserve_exact(MEMO_CAP);
        }
        table.ts.extend_from_slice(t);
        let at = table.bits.len();
        table.bits.resize(at + self.words, 0);
        for &p in positions {
            table.bits[at + p as usize / 64] |= 1 << (p % 64);
        }
        table.counts.push(positions.len() as u32);
    }
}

/// Reusable buffers for [`SkylineView::dominators_into`] and
/// [`SkylineView::upgrade_into`]: the dominator positions, their ids,
/// and Algorithm 1's [`UpgradeScratch`]. A worker that keeps one
/// answers products without allocating once the buffers have grown.
#[derive(Default)]
pub(crate) struct ViewScratch {
    positions: Vec<u32>,
    dominators: Vec<PointId>,
    upgrade: UpgradeScratch,
}

impl ViewScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The upgraded coordinates left by the last
    /// [`SkylineView::upgrade_into`] call.
    pub(crate) fn upgraded(&self) -> &[f64] {
        self.upgrade.upgraded()
    }
}

/// One skyline prepared for answering products against it (see the
/// module docs). `Sync`: any number of threads may answer through one
/// view at once.
///
/// A view holds no reference to the store it was built from; every
/// method takes the same `p_store` and `skyline` (same order) that were
/// passed to the constructor.
pub struct SkylineView {
    cols: ColumnarPoints,
    orders: DimOrders,
    memo: Option<DominatorMemo>,
}

impl std::fmt::Debug for SkylineView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkylineView")
            .field("skyline", &self.cols.len())
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

impl SkylineView {
    /// Prepares `skyline` — the skyline of `p_store`'s live set, in the
    /// fixed order every dominator list comes back in — for answering
    /// products, with the dominator memo on for skylines of at least
    /// [`MEMO_MIN_SKYLINE`] points.
    pub fn new(p_store: &PointStore, skyline: &[PointId]) -> Self {
        // See MEMO_MIN_SKYLINE: on small skylines a memo probe costs as
        // much as the kernel scan it replaces.
        Self::build(p_store, skyline, skyline.len() >= MEMO_MIN_SKYLINE)
    }

    /// [`SkylineView::new`] without the dominator memo: every product is
    /// a kernel scan, so the counters an answer records depend on the
    /// product alone, never on which products were answered before it.
    pub fn without_memo(p_store: &PointStore, skyline: &[PointId]) -> Self {
        Self::build(p_store, skyline, false)
    }

    fn build(p_store: &PointStore, skyline: &[PointId], memo: bool) -> Self {
        let mut cols = ColumnarPoints::new(p_store.dims());
        cols.gather(p_store, skyline);
        SkylineView {
            cols,
            orders: DimOrders::new(p_store, skyline),
            memo: memo.then(|| DominatorMemo::new(p_store.dims(), skyline.len())),
        }
    }

    /// The skyline members that dominate `t`, in skyline order — equal
    /// to [`crate::dominators_from_skyline`]'s list. Records the points
    /// the kernel compared as [`Counter::DominanceTests`], its block
    /// work as [`Counter::KernelBlockScans`] /
    /// [`Counter::KernelBlocksSkipped`], and each list the memo supplied
    /// as [`Counter::DominatorMemoHits`].
    pub fn dominators<R: Recorder + ?Sized>(
        &self,
        p_store: &PointStore,
        skyline: &[PointId],
        t: &[f64],
        rec: &mut R,
    ) -> Vec<PointId> {
        let mut scratch = ViewScratch::new();
        self.dominators_into(p_store, skyline, t, &mut scratch, rec);
        scratch.dominators
    }

    /// [`SkylineView::dominators`] into `scratch`; a warm scratch makes
    /// the call allocation-free on a memo-less view.
    pub(crate) fn dominators_into<R: Recorder + ?Sized>(
        &self,
        p_store: &PointStore,
        skyline: &[PointId],
        t: &[f64],
        scratch: &mut ViewScratch,
        rec: &mut R,
    ) {
        debug_assert_eq!(
            skyline.len(),
            self.cols.len(),
            "view built from another skyline"
        );
        let positions = &mut scratch.positions;
        positions.clear();
        match self.memo.as_ref().map(|m| (m, m.lookup(t, positions))) {
            Some((_, Some(MemoHit::Exact))) => rec.bump(Counter::DominatorMemoHits),
            Some((memo, Some(MemoHit::Superset))) => {
                rec.bump(Counter::DominatorMemoHits);
                rec.incr(Counter::DominanceTests, positions.len() as u64);
                positions.retain(|&p| dominates(p_store.point(skyline[p as usize]), t));
                memo.insert(t, positions);
            }
            Some((memo, None)) => {
                self.scan(t, positions, rec);
                memo.insert(t, positions);
            }
            None => self.scan(t, positions, rec),
        }
        scratch.dominators.clear();
        scratch
            .dominators
            .extend(positions.iter().map(|&p| skyline[p as usize]));
    }

    /// A full kernel scan of the skyline for `t`'s dominators, appending
    /// their positions to `out`.
    fn scan<R: Recorder + ?Sized>(&self, t: &[f64], out: &mut Vec<u32>, rec: &mut R) {
        let scan = self.cols.collect_dominators(t, out);
        // Charge the points the kernel actually compared: zone-map
        // skipped blocks ran no dominance tests.
        rec.incr(Counter::DominanceTests, scan.points);
        rec.incr(Counter::KernelBlockScans, scan.blocks);
        rec.incr(Counter::KernelBlocksSkipped, scan.skipped);
    }

    /// Product `t`'s cheapest upgrade: its dominators
    /// ([`SkylineView::dominators`]) and Algorithm 1 over them. Returns
    /// `(cost, upgraded)`, bit-identical to
    /// [`crate::dominators_from_skyline`] + [`crate::upgrade_single`].
    pub fn answer<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
        &self,
        p_store: &PointStore,
        skyline: &[PointId],
        t: &[f64],
        cost_fn: &C,
        cfg: &UpgradeConfig,
        rec: &mut R,
    ) -> (f64, Vec<f64>) {
        let mut scratch = ViewScratch::new();
        self.dominators_into(p_store, skyline, t, &mut scratch, rec);
        let cost = self.upgrade_into(p_store, t, cost_fn, cfg, &mut scratch);
        (cost, scratch.upgraded().to_vec())
    }

    /// Algorithm 1 for `t` over the dominator list the last
    /// [`SkylineView::dominators_into`] call left in `scratch`, with the
    /// view's hoisted sorts. Returns the cost and leaves the upgraded
    /// coordinates in the scratch ([`ViewScratch::upgraded`]).
    pub(crate) fn upgrade_into<C: CostFunction + ?Sized>(
        &self,
        p_store: &PointStore,
        t: &[f64],
        cost_fn: &C,
        cfg: &UpgradeConfig,
        scratch: &mut ViewScratch,
    ) -> f64 {
        upgrade_single_presorted_into(
            p_store,
            &self.orders,
            &scratch.dominators,
            t,
            cost_fn,
            cfg,
            &mut scratch.upgrade,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;
    use crate::upgrade::{dominators_from_skyline, upgrade_single};
    use skyup_obs::{NullRecorder, QueryMetrics};
    use skyup_skyline::skyline_sfs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Anti-correlated competitors hugging the hyperplane
    /// `Σ coords = dims - 1`: most points are mutually incomparable, so
    /// the skyline is large enough (>= MEMO_MIN_SKYLINE) to switch the
    /// dominator memo on.
    fn anti_store(n: usize, dims: usize, seed: u64) -> PointStore {
        let mut next = xorshift(seed);
        let mut s = PointStore::new(dims);
        for _ in 0..n {
            let mut row: Vec<f64> = (0..dims - 1).map(|_| next()).collect();
            let sum: f64 = row.iter().sum();
            row.push((dims - 1) as f64 - sum + 0.01 * next());
            s.push(&row);
        }
        s
    }

    fn sorted_skyline(p: &PointStore) -> Vec<PointId> {
        let all: Vec<PointId> = p.ids().collect();
        let mut sky = skyline_sfs(p, &all);
        sky.sort_unstable();
        sky
    }

    /// Products on a coarse grid, with repeats, so exact and containment
    /// memo hits both happen.
    fn products(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut next = xorshift(seed);
        let mut out = Vec::new();
        for i in 0..n {
            let t: Vec<f64> = (0..dims)
                .map(|_| ((0.4 + next()) * 8.0).floor() / 8.0)
                .collect();
            if i % 4 == 0 {
                out.push(t.clone());
            }
            out.push(t);
        }
        out
    }

    type Answered = (Vec<PointId>, f64, Vec<f64>);

    /// Answers every product through one shared `view` from `threads`
    /// threads claiming products off a shared counter, and returns the
    /// answers in product order plus the merged counters.
    fn answer_all(
        view: &SkylineView,
        p: &PointStore,
        sky: &[PointId],
        ts: &[Vec<f64>],
        cost: &SumCost,
        threads: usize,
    ) -> (Vec<Answered>, QueryMetrics) {
        let next = AtomicUsize::new(0);
        let cfg = UpgradeConfig::default();
        let parts: Vec<(Vec<(usize, Answered)>, QueryMetrics)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut m = QueryMetrics::new();
                        let mut part = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(t) = ts.get(i) else { break };
                            let (c, up) = view.answer(p, sky, t, cost, &cfg, &mut m);
                            let doms = view.dominators(p, sky, t, &mut NullRecorder);
                            part.push((i, (doms, c, up)));
                        }
                        (part, m)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut out: Vec<Option<Answered>> = ts.iter().map(|_| None).collect();
        let mut metrics = QueryMetrics::new();
        for (part, m) in parts {
            metrics.absorb(&m);
            for (i, a) in part {
                out[i] = Some(a);
            }
        }
        (out.into_iter().map(|a| a.unwrap()).collect(), metrics)
    }

    fn assert_matches_sequential(
        p: &PointStore,
        sky: &[PointId],
        ts: &[Vec<f64>],
        got: &[Answered],
        cost: &SumCost,
        what: &str,
    ) {
        for (t, (doms, c, up)) in ts.iter().zip(got) {
            let want_dom = dominators_from_skyline(p, sky, t, &mut NullRecorder);
            let (want_cost, want_up) =
                upgrade_single(p, &want_dom, t, cost, &UpgradeConfig::default());
            assert_eq!(doms[..], want_dom[..], "{what}");
            assert_eq!(c.to_bits(), want_cost.to_bits(), "{what}");
            let gb: Vec<u64> = up.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u64> = want_up.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "{what}");
        }
    }

    #[test]
    fn answers_bit_identical_to_sequential_from_any_thread_count() {
        for dims in [2usize, 3] {
            let p = anti_store(600, dims, 0x77 + dims as u64);
            let sky = sorted_skyline(&p);
            assert!(
                sky.len() >= MEMO_MIN_SKYLINE,
                "workload must enable the memo"
            );
            let ts = products(120, dims, 0xbeef ^ dims as u64);
            let cost = SumCost::reciprocal(dims, 1e-3);
            for threads in [1usize, 2, 7] {
                let view = SkylineView::new(&p, &sky);
                let (got, m) = answer_all(&view, &p, &sky, &ts, &cost, threads);
                let what = format!("dims={dims} threads={threads}");
                assert_matches_sequential(&p, &sky, &ts, &got, &cost, &what);
                assert!(
                    m.get(Counter::DominatorMemoHits) > 0,
                    "repeated products must hit the memo ({what})"
                );
            }
        }
    }

    #[test]
    fn memo_superset_filter_matches_full_scan() {
        // Products on a dominance chain: t0 >= t1 >= t2 componentwise,
        // issued worst-first so the better products filter a superset.
        let p = anti_store(400, 3, 0x99);
        let sky = sorted_skyline(&p);
        assert!(
            sky.len() >= MEMO_MIN_SKYLINE,
            "workload must enable the memo"
        );
        let chain: Vec<Vec<f64>> = vec![
            vec![1.2, 1.2, 1.2],
            vec![0.9, 1.0, 1.1],
            vec![0.6, 0.7, 0.8],
        ];
        let cost = SumCost::reciprocal(3, 1e-3);
        for threads in [1usize, 2, 7] {
            let view = SkylineView::new(&p, &sky);
            let (got, m) = answer_all(&view, &p, &sky, &chain, &cost, threads);
            let what = format!("threads={threads}");
            assert_matches_sequential(&p, &sky, &chain, &got, &cost, &what);
            if threads == 1 {
                // One thread answers in chain order, so products 1 and 2
                // must both resolve through containment.
                assert_eq!(m.get(Counter::DominatorMemoHits), 2);
            }
        }
    }

    #[test]
    fn empty_skyline_answers_are_free() {
        let p = PointStore::new(2);
        let sky: Vec<PointId> = Vec::new();
        let cost = SumCost::reciprocal(2, 1e-3);
        let ts = vec![vec![0.4, 0.4], vec![0.9, 0.1]];
        for threads in [1usize, 2, 7] {
            let view = SkylineView::new(&p, &sky);
            let (got, _) = answer_all(&view, &p, &sky, &ts, &cost, threads);
            for (t, (doms, c, up)) in ts.iter().zip(&got) {
                assert_eq!(*c, 0.0);
                assert_eq!(up, t);
                assert!(doms.is_empty());
            }
        }
    }
}
