//! Allocation accounting for STR bulk loading: a level sorts one flat
//! buffer of `(key, index)` pairs, so the allocations a bulk load makes
//! are the nodes themselves (two MBR corners and one entry list each)
//! plus a handful of buffers per level, never one per point.
//!
//! This file holds a single test: the counting global allocator sees
//! every allocation in the process, so concurrent tests would pollute
//! the measurement.

use skyup_geom::PointStore;
use skyup_rtree::{RTree, RTreeParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are `System`'s; the counter is a plain atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Allocation events allowed per node of a bulk-loaded tree. Each node
/// owns three heap blocks (the MBR's two corners and its entry list);
/// the rest is per-level scratch and the arena's amortized growth.
const MAX_EVENTS_PER_NODE: f64 = 4.0;

/// `n` points in `[0, 1]³` from a seeded splitmix64 stream, anti-
/// correlated (each point's coordinates sum to about 1.5), so the tree
/// has the `paper_topk` competitor set's shape.
fn anti_correlated(n: usize, seed: u64) -> PointStore {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let mut store = PointStore::with_capacity(3, n);
    for _ in 0..n {
        let (a, b) = (next(), next());
        let x = 0.5 * (a + b);
        let y = 0.5 * (1.0 - a + next());
        let z = (1.5 - x - y).clamp(0.0, 1.0);
        store.push(&[x, y, z]);
    }
    store
}

#[test]
fn bulk_load_allocates_per_node_not_per_point() {
    for (n, seed) in [(5_000, 0x5731), (50_000, 0x5732)] {
        let store = anti_correlated(n, seed);
        let before = alloc_events();
        let tree = RTree::bulk_load(&store, RTreeParams::default());
        let events = alloc_events() - before;
        let nodes = tree.stats().num_nodes;
        let per_node = events as f64 / nodes as f64;
        println!("{n} points: {events} allocation events over {nodes} nodes ({per_node:.2}/node)");
        assert_eq!(tree.len(), n);
        assert!(
            per_node <= MAX_EVENTS_PER_NODE,
            "{n} points: {events} allocation events for {nodes} nodes \
             ({per_node:.2} per node, bound {MAX_EVENTS_PER_NODE})"
        );
    }
}
