//! Branch-and-Bound Skyline over an R-tree (Papadias et al., SIGMOD 2003).
//!
//! BBS performs a best-first traversal ordered by the L1 distance of each
//! entry's minimum corner to the origin (its coordinate sum). Because a
//! dominator always has a strictly smaller coordinate sum than the points
//! it dominates, every point popped from the heap that is not dominated
//! by the skyline found so far is itself a skyline point — BBS is both
//! progressive and I/O-optimal.

use crate::{PointId, PointStore};
use skyup_geom::point::coord_sum;
use skyup_geom::{ColumnarPoints, OrderedF64};
use skyup_obs::{Counter, NullRecorder, Recorder};
use skyup_rtree::{EntryRef, NodeId, RTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A BBS heap entry packed into one integer key: the high 64 bits are
/// the mindist key (the entry's coordinate sum) mapped so that unsigned
/// order is [`f64::total_cmp`] order, the low 64 bits are
/// `(kind << 32) | id` with kind 0 for a node and 1 for a point. So
/// keys order by `(total_cmp(sum), kind, id)`, a total order, and the
/// entry decodes back from the key ([`heap_entry`]); a min-heap of keys
/// pops entries in the order a heap of `(sum, kind, id)` tuples would.
///
/// # Panics
/// Panics if `sum` is NaN.
#[inline]
pub(crate) fn heap_key(sum: f64, entry: EntryRef) -> u128 {
    let bits = OrderedF64::new(sum).get().to_bits();
    // Negative values reverse their magnitude order; every non-negative
    // value sorts above every negative one.
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    let (kind, id) = match entry {
        EntryRef::Node(n) => (0u64, n.0),
        EntryRef::Point(p) => (1, p.0),
    };
    u128::from(ordered) << 64 | u128::from(kind << 32 | u64::from(id))
}

/// The entry a [`heap_key`] was built from.
#[inline]
pub(crate) fn heap_entry(key: u128) -> EntryRef {
    let id = key as u32;
    if key >> 32 & 1 == 0 {
        EntryRef::Node(NodeId(id))
    } else {
        EntryRef::Point(PointId(id))
    }
}

/// "Is `target` dominated by any mirrored skyline point", via the
/// blockwise columnar kernel, with the scan work charged to the
/// recorder: every covered point is a `DominanceTests`, every scanned
/// block a `KernelBlockScans`, and every block the zone maps skipped a
/// `KernelBlocksSkipped`. The verdict is bit-identical to the scalar
/// `skyline.iter().any(dominates)` loop.
pub(crate) fn dominated_by_any<R: Recorder + ?Sized>(
    cols: &ColumnarPoints,
    target: &[f64],
    rec: &mut R,
) -> bool {
    let scan = cols.dominated_by_any(target);
    rec.incr(Counter::DominanceTests, scan.points);
    rec.incr(Counter::KernelBlockScans, scan.blocks);
    rec.incr(Counter::KernelBlocksSkipped, scan.skipped);
    scan.dominated
}

/// Computes the skyline of every point indexed by `tree` using BBS.
pub fn skyline_bbs(store: &PointStore, tree: &RTree) -> Vec<PointId> {
    skyline_bbs_rec(store, tree, &mut NullRecorder)
}

/// [`skyline_bbs`] with instrumentation: counts heap traffic, node and
/// entry accesses, dominance tests, and skyline points retained.
pub fn skyline_bbs_rec<R: Recorder + ?Sized>(
    store: &PointStore,
    tree: &RTree,
    rec: &mut R,
) -> Vec<PointId> {
    let mut skyline: Vec<PointId> = Vec::new();
    if tree.is_empty() {
        return skyline;
    }
    // Columnar mirror of `skyline`, kept in sync so every dominance
    // re-check runs through the blockwise kernel.
    let mut cols = ColumnarPoints::new(store.dims());

    let mut heap: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
    let root = EntryRef::Node(tree.root_id());
    heap.push(Reverse(heap_key(
        coord_sum(tree.entry_lo(store, root)),
        root,
    )));
    rec.bump(Counter::HeapPushes);

    while let Some(Reverse(key)) = heap.pop() {
        rec.bump(Counter::HeapPops);
        let entry = heap_entry(key);
        // Lazy re-check: the skyline may have grown since this entry was
        // pushed (Algorithm 3 line 9 does the same re-check).
        let lo = tree.entry_lo(store, entry);
        if dominated_by_any(&cols, lo, rec) {
            continue;
        }
        match entry {
            EntryRef::Point(p) => {
                skyline.push(p);
                cols.push(store.point(p));
            }
            EntryRef::Node(n) => {
                rec.bump(Counter::RtreeNodeAccesses);
                for child in tree.node(n).entries() {
                    rec.bump(Counter::RtreeEntryAccesses);
                    let child_lo = tree.entry_lo(store, child);
                    if !dominated_by_any(&cols, child_lo, rec) {
                        heap.push(Reverse(heap_key(coord_sum(child_lo), child)));
                        rec.bump(Counter::HeapPushes);
                    }
                }
            }
        }
    }
    rec.incr(Counter::SkylinePointsRetained, skyline.len() as u64);
    skyline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline_naive;
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

    #[test]
    fn agrees_with_naive() {
        for dims in [2, 3, 4] {
            let s = pseudo_random_store(500, dims, 0xbb5 + dims as u64);
            let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
            let ids: Vec<PointId> = s.ids().collect();
            let mut a = skyline_bbs(&s, &t);
            let mut b = skyline_naive(&s, &ids);
            a.sort();
            b.sort();
            assert_eq!(a, b, "dims={dims}");
        }
    }

    #[test]
    fn progressive_order_is_by_coordinate_sum() {
        let s = pseudo_random_store(300, 2, 0x5eed);
        let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        let sky = skyline_bbs(&s, &t);
        let sums: Vec<f64> = sky.iter().map(|&p| coord_sum(s.point(p))).collect();
        assert!(
            sums.windows(2).all(|w| w[0] <= w[1]),
            "BBS must emit skyline points in mindist order"
        );
    }

    #[test]
    fn works_on_insertion_built_tree() {
        let s = pseudo_random_store(400, 3, 0x77);
        let t = RTree::from_insertion(&s, RTreeParams::with_max_entries(8));
        let ids: Vec<PointId> = s.ids().collect();
        let mut a = skyline_bbs(&s, &t);
        let mut b = skyline_naive(&s, &ids);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    /// The packed key orders exactly like `(f64::total_cmp(sum), kind,
    /// id)` — over negative sums, both signed zeros, both infinities,
    /// subnormals and arbitrary bit patterns — and decodes back to its
    /// entry.
    #[test]
    fn packed_keys_order_like_sum_kind_id_and_decode() {
        use skyup_rtree::NodeId;
        let mut sums = vec![
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 4.0,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 4.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut state = 0x6b65_7973_u64;
        while sums.len() < 48 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = f64::from_bits(state);
            if !x.is_nan() {
                sums.push(x);
            }
        }
        let entries = [
            EntryRef::Node(NodeId(0)),
            EntryRef::Node(NodeId(7)),
            EntryRef::Node(NodeId(u32::MAX)),
            EntryRef::Point(PointId(0)),
            EntryRef::Point(PointId(7)),
            EntryRef::Point(PointId(u32::MAX)),
        ];
        let rank = |e: EntryRef| match e {
            EntryRef::Node(n) => (0u8, n.0),
            EntryRef::Point(p) => (1, p.0),
        };
        let items: Vec<(f64, EntryRef)> = sums
            .iter()
            .flat_map(|&s| entries.iter().map(move |&e| (s, e)))
            .collect();
        for &(s, e) in &items {
            assert_eq!(heap_entry(heap_key(s, e)), e, "sum {s:e}");
            for &(t, f) in &items {
                let want = s.total_cmp(&t).then(rank(e).cmp(&rank(f)));
                assert_eq!(
                    heap_key(s, e).cmp(&heap_key(t, f)),
                    want,
                    "({s:e}, {e:?}) vs ({t:e}, {f:?})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_heap_keys_panic() {
        let _ = heap_key(f64::NAN, EntryRef::Point(PointId(0)));
    }

    #[test]
    fn empty_tree() {
        let s = PointStore::new(2);
        let t = RTree::bulk_load(&s, RTreeParams::default());
        assert!(skyline_bbs(&s, &t).is_empty());
    }

    #[test]
    fn duplicate_skyline_points_kept() {
        let mut s = PointStore::new(2);
        s.push(&[0.1, 0.9]);
        s.push(&[0.1, 0.9]);
        s.push(&[0.9, 0.1]);
        s.push(&[0.5, 0.5]);
        s.push(&[0.6, 0.6]); // dominated
        let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(4));
        let sky = skyline_bbs(&s, &t);
        assert_eq!(sky.len(), 4);
    }
}
