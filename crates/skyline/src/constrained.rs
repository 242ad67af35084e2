//! `getDominatingSky` — the paper's Algorithm 3.
//!
//! Given the competitor R-tree `R_P` and a product `t`, returns the
//! skyline of `t`'s dominators by integrating the ADR range restriction
//! into a BBS traversal: only entries whose MBR overlaps `ADR(t)` are
//! visited, and entries dominated by the skyline found so far are pruned
//! (paper Figure 2 shows the node-level savings over a plain range
//! query).

use crate::bbs::{dominated_by_any, heap_entry, heap_key};
use crate::{PointId, PointStore};
use skyup_geom::adr::rect_intersects_adr;
use skyup_geom::dominance::dominates;
use skyup_geom::point::coord_sum;
use skyup_geom::ColumnarPoints;
use skyup_obs::{Counter, ExecGuard, Interrupt, NullRecorder, Recorder};
use skyup_rtree::{EntryRef, RTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable state for repeated `getDominatingSky` traversals: the BBS
/// priority queue, the skyline id list, and its columnar mirror (the
/// layout the blockwise dominance kernel scans). The join keeps one
/// scratch per resolving thread, so its traversals perform no heap
/// allocations once the buffers have grown to the workload's high-water
/// mark.
pub struct SkylineScratch {
    heap: BinaryHeap<Reverse<u128>>,
    cols: ColumnarPoints,
    skyline: Vec<PointId>,
}

impl SkylineScratch {
    /// Creates an empty scratch for `dims`-dimensional points.
    pub fn new(dims: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            cols: ColumnarPoints::new(dims),
            skyline: Vec::new(),
        }
    }

    /// The skyline left by the last `*_into` traversal.
    pub fn skyline(&self) -> &[PointId] {
        &self.skyline
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.cols.clear();
        self.skyline.clear();
    }
}

/// Computes the skyline of the points of `tree` that dominate `t`
/// (Algorithm 3). The result is the minimal set an upgrade of `t` must
/// escape: `t` upgraded to be non-dominated w.r.t. this set is
/// non-dominated w.r.t. all of the indexed set, by transitivity.
///
/// ```
/// use skyup_geom::PointStore;
/// use skyup_rtree::{RTree, RTreeParams};
/// use skyup_skyline::dominating_skyline;
///
/// let store = PointStore::from_rows(2, vec![
///     vec![0.1, 0.9], // dominates t, skyline of dominators
///     vec![0.3, 0.3], // dominates t, skyline of dominators
///     vec![0.4, 0.4], // dominates t but shadowed by (0.3, 0.3)
///     vec![0.9, 0.9], // does not dominate t
/// ]);
/// let tree = RTree::bulk_load(&store, RTreeParams::default());
/// let sky = dominating_skyline(&store, &tree, &[0.5, 0.95]);
/// let ids: Vec<u32> = sky.iter().map(|p| p.0).collect();
/// assert_eq!(ids.len(), 2);
/// assert!(ids.contains(&0) && ids.contains(&1));
/// ```
pub fn dominating_skyline(store: &PointStore, tree: &RTree, t: &[f64]) -> Vec<PointId> {
    dominating_skyline_rec(store, tree, t, &mut NullRecorder)
}

/// [`dominating_skyline`] with instrumentation: counts heap traffic,
/// node and entry accesses, dominance tests, and the dominator-skyline
/// points retained.
pub fn dominating_skyline_rec<R: Recorder + ?Sized>(
    store: &PointStore,
    tree: &RTree,
    t: &[f64],
    rec: &mut R,
) -> Vec<PointId> {
    if tree.is_empty() {
        return Vec::new();
    }
    dominating_skyline_from_rec(store, tree, &[EntryRef::Node(tree.root_id())], t, rec)
}

/// [`dominating_skyline_rec`] under an execution guard (see
/// [`dominating_skyline_from_lim`] for the interruption contract).
pub fn dominating_skyline_lim<R: Recorder + ?Sized>(
    store: &PointStore,
    tree: &RTree,
    t: &[f64],
    rec: &mut R,
    guard: &mut ExecGuard,
) -> Result<Vec<PointId>, Interrupt> {
    if tree.is_empty() {
        return Ok(Vec::new());
    }
    dominating_skyline_from_lim(
        store,
        tree,
        &[EntryRef::Node(tree.root_id())],
        t,
        rec,
        guard,
    )
}

/// Generalization of [`dominating_skyline`] that starts the constrained
/// BBS traversal from an arbitrary set of `seeds` (entries of `tree`)
/// instead of the root. The join algorithm uses this to compute the
/// dominator skyline of a leaf product against the subtrees remaining in
/// its join list (Algorithm 4, line 9) without materializing their
/// points.
///
/// Seeds must reference disjoint subtrees / distinct points, as join
/// lists always do; a duplicated seed would double-count its points.
pub fn dominating_skyline_from(
    store: &PointStore,
    tree: &RTree,
    seeds: &[EntryRef],
    t: &[f64],
) -> Vec<PointId> {
    dominating_skyline_from_rec(store, tree, seeds, t, &mut NullRecorder)
}

/// [`dominating_skyline_from`] with instrumentation (see
/// [`dominating_skyline_rec`]).
pub fn dominating_skyline_from_rec<R: Recorder + ?Sized>(
    store: &PointStore,
    tree: &RTree,
    seeds: &[EntryRef],
    t: &[f64],
    rec: &mut R,
) -> Vec<PointId> {
    dominating_skyline_from_lim(store, tree, seeds, t, rec, &mut ExecGuard::unlimited())
        .expect("unlimited guard cannot interrupt")
}

/// [`dominating_skyline_from_rec`] under an execution guard: node
/// expansions are charged via [`ExecGuard::visit_node`] (before the
/// node is read) and heap pushes via [`ExecGuard::heap_push`]; the
/// traversal aborts with `Err` the moment the guard trips.
///
/// On interruption the partially built skyline is discarded — a prefix
/// of a BBS dominator skyline may be *missing* dominators, so it is not
/// a safe input for Algorithm 1; callers treat the whole product as
/// unevaluated. With [`ExecGuard::unlimited`] the traversal is
/// bit-identical to [`dominating_skyline_from_rec`].
pub fn dominating_skyline_from_lim<R: Recorder + ?Sized>(
    store: &PointStore,
    tree: &RTree,
    seeds: &[EntryRef],
    t: &[f64],
    rec: &mut R,
    guard: &mut ExecGuard,
) -> Result<Vec<PointId>, Interrupt> {
    let mut scratch = SkylineScratch::new(t.len());
    dominating_skyline_from_into(store, tree, seeds, t, rec, guard, &mut scratch)?;
    Ok(std::mem::take(&mut scratch.skyline))
}

/// [`dominating_skyline_from_lim`] writing into a caller-provided
/// [`SkylineScratch`] instead of freshly allocated buffers. Identical
/// traversal, counters, and guard charging; on `Err` the scratch's
/// skyline is left empty (a partial dominator skyline may be missing
/// dominators and must not reach Algorithm 1).
pub fn dominating_skyline_from_into<R: Recorder + ?Sized>(
    store: &PointStore,
    tree: &RTree,
    seeds: &[EntryRef],
    t: &[f64],
    rec: &mut R,
    guard: &mut ExecGuard,
    scratch: &mut SkylineScratch,
) -> Result<(), Interrupt> {
    assert_eq!(store.dims(), t.len(), "product dimensionality mismatch");
    scratch.reset();
    let run = (|| {
        let SkylineScratch {
            heap,
            cols,
            skyline,
        } = scratch;
        for &seed in seeds {
            // Lines 3-6: consider a seed only if it can contain dominators.
            let admit = match seed {
                EntryRef::Node(n) => rect_intersects_adr(tree.node(n).mbr(), t),
                EntryRef::Point(p) => store.point(p).iter().zip(t).all(|(&x, &y)| x <= y),
            };
            if admit {
                guard.heap_push()?;
                let lo = tree.entry_lo(store, seed);
                heap.push(Reverse(heap_key(coord_sum(lo), seed)));
                rec.bump(Counter::HeapPushes);
            }
        }

        while let Some(Reverse(key)) = heap.pop() {
            rec.bump(Counter::HeapPops);
            let entry = heap_entry(key);
            // Line 9: re-check dominance against the grown skyline.
            let lo = tree.entry_lo(store, entry);
            if dominated_by_any(cols, lo, rec) {
                continue;
            }
            match entry {
                EntryRef::Point(p) => {
                    // Only actual dominators of t enter S: a point inside
                    // ADR(t) with some coordinate equal to t's may fail to
                    // dominate t (e.g. t itself).
                    rec.bump(Counter::DominanceTests);
                    if dominates(store.point(p), t) {
                        skyline.push(p);
                        cols.push(store.point(p));
                    }
                }
                EntryRef::Node(n) => {
                    // Lines 11-13: push children that overlap ADR(t) and are
                    // not dominated by the current skyline.
                    guard.visit_node()?;
                    rec.bump(Counter::RtreeNodeAccesses);
                    for child in tree.node(n).entries() {
                        rec.bump(Counter::RtreeEntryAccesses);
                        let child_lo = tree.entry_lo(store, child);
                        let overlaps = match child {
                            EntryRef::Node(c) => rect_intersects_adr(tree.node(c).mbr(), t),
                            EntryRef::Point(_) => child_lo.iter().zip(t).all(|(&x, &y)| x <= y),
                        };
                        if overlaps && !dominated_by_any(cols, child_lo, rec) {
                            guard.heap_push()?;
                            heap.push(Reverse(heap_key(coord_sum(child_lo), child)));
                            rec.bump(Counter::HeapPushes);
                        }
                    }
                }
            }
        }
        Ok(())
    })();
    match run {
        Ok(()) => {
            rec.incr(Counter::SkylinePointsRetained, scratch.skyline.len() as u64);
            Ok(())
        }
        Err(i) => {
            scratch.reset();
            Err(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline_naive;
    use skyup_geom::adr::point_in_adr;
    use skyup_rtree::RTreeParams;

    fn pseudo_random_store(n: usize, dims: usize, seed: u64) -> PointStore {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut s = PointStore::new(dims);
        for _ in 0..n {
            let row: Vec<f64> = (0..dims).map(|_| next()).collect();
            s.push(&row);
        }
        s
    }

    /// Reference: filter dominators by scan, then take their skyline.
    fn oracle(store: &PointStore, t: &[f64]) -> Vec<PointId> {
        let dominators: Vec<PointId> = store
            .iter()
            .filter(|(_, c)| dominates(c, t))
            .map(|(id, _)| id)
            .collect();
        skyline_naive(store, &dominators)
    }

    #[test]
    fn agrees_with_oracle() {
        for dims in [2, 3, 4] {
            let s = pseudo_random_store(600, dims, 0xd0d0 + dims as u64);
            let tree = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
            for t_seed in 0..5u32 {
                let t: Vec<f64> = (0..dims)
                    .map(|d| 0.3 + 0.6 * ((t_seed as usize + d) % 3) as f64 / 3.0)
                    .collect();
                let mut got = dominating_skyline(&s, &tree, &t);
                let mut want = oracle(&s, &t);
                got.sort();
                want.sort();
                assert_eq!(got, want, "dims={dims}, t={t:?}");
            }
        }
    }

    #[test]
    fn every_result_dominates_t_and_is_undominated() {
        let s = pseudo_random_store(500, 3, 0xccc);
        let tree = RTree::bulk_load(&s, RTreeParams::with_max_entries(16));
        let t = [0.8, 0.8, 0.8];
        let sky = dominating_skyline(&s, &tree, &t);
        for &p in &sky {
            assert!(dominates(s.point(p), &t));
            assert!(point_in_adr(s.point(p), &t));
            assert!(!sky
                .iter()
                .any(|&q| q != p && dominates(s.point(q), s.point(p))));
        }
    }

    #[test]
    fn point_with_no_dominators() {
        let s = pseudo_random_store(200, 2, 0x11);
        let tree = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        // The origin cannot be dominated.
        assert!(dominating_skyline(&s, &tree, &[0.0, 0.0]).is_empty());
    }

    #[test]
    fn t_equal_to_existing_point_is_not_its_own_dominator() {
        let mut s = PointStore::new(2);
        s.push(&[0.5, 0.5]);
        s.push(&[0.2, 0.9]);
        let tree = RTree::bulk_load(&s, RTreeParams::with_max_entries(4));
        // t coincides with point 0; neither stored point dominates it.
        assert!(dominating_skyline(&s, &tree, &[0.5, 0.5]).is_empty());
        // A strictly worse t is dominated by point 0 only.
        let sky = dominating_skyline(&s, &tree, &[0.6, 0.6]);
        assert_eq!(sky, vec![PointId(0)]);
    }

    #[test]
    fn seeded_traversal_matches_root_traversal() {
        let s = pseudo_random_store(400, 2, 0x999);
        let tree = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        let t = [0.7, 0.7];
        // Seeding with the root's children must give the same skyline as
        // seeding with the root.
        let seeds: Vec<EntryRef> = tree.root().entries().collect();
        let mut a = dominating_skyline_from(&s, &tree, &seeds, &t);
        let mut b = dominating_skyline(&s, &tree, &t);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Empty seed list: empty skyline.
        assert!(dominating_skyline_from(&s, &tree, &[], &t).is_empty());
    }

    #[test]
    fn guarded_traversal_matches_unguarded_and_trips_on_budget() {
        use skyup_obs::ExecutionLimits;

        let s = pseudo_random_store(500, 3, 0xfee1);
        let tree = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        let t = [0.85, 0.85, 0.85];

        let mut unguarded = dominating_skyline(&s, &tree, &t);
        let mut guarded = dominating_skyline_lim(
            &s,
            &tree,
            &t,
            &mut NullRecorder,
            &mut ExecGuard::unlimited(),
        )
        .unwrap();
        unguarded.sort();
        guarded.sort();
        assert_eq!(guarded, unguarded);

        // A tiny node budget interrupts the traversal instead of
        // returning an incomplete skyline.
        let mut g = ExecutionLimits::none().with_max_node_visits(1).start();
        let err = dominating_skyline_lim(&s, &tree, &t, &mut NullRecorder, &mut g);
        assert_eq!(err, Err(Interrupt::NodeVisitBudget));
    }

    #[test]
    fn reused_scratch_matches_fresh_allocations() {
        use skyup_obs::ExecutionLimits;
        let s = pseudo_random_store(500, 3, 0x5c7a);
        let tree = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        let root = [EntryRef::Node(tree.root_id())];
        let mut scratch = SkylineScratch::new(3);
        let into = |t: &[f64], guard: &mut ExecGuard, scratch: &mut SkylineScratch| {
            dominating_skyline_from_into(&s, &tree, &root, t, &mut NullRecorder, guard, scratch)
        };
        for i in 0..20u32 {
            let t = [
                0.4 + 0.5 * (i % 5) as f64 / 5.0,
                0.4 + 0.5 * ((i / 5) % 4) as f64 / 4.0,
                0.9,
            ];
            into(&t, &mut ExecGuard::unlimited(), &mut scratch).unwrap();
            assert_eq!(
                scratch.skyline(),
                dominating_skyline(&s, &tree, &t),
                "t={t:?}"
            );
        }
        // An interrupted traversal leaves the scratch empty, then the
        // scratch is reusable for the next product.
        let mut g = ExecutionLimits::none().with_max_node_visits(1).start();
        let t = [0.85, 0.85, 0.85];
        let err = into(&t, &mut g, &mut scratch);
        assert_eq!(err, Err(Interrupt::NodeVisitBudget));
        assert!(scratch.skyline().is_empty());
        into(&t, &mut ExecGuard::unlimited(), &mut scratch).unwrap();
        assert_eq!(scratch.skyline(), dominating_skyline(&s, &tree, &t));
    }

    #[test]
    fn empty_tree_yields_empty() {
        let s = PointStore::new(2);
        let tree = RTree::bulk_load(&s, RTreeParams::default());
        assert!(dominating_skyline(&s, &tree, &[0.5, 0.5]).is_empty());
    }
}
