//! Allocation accounting for the probe scheduler: after warmup the hot
//! loop must not allocate per product. Per-worker `ViewScratch`es, the
//! hoisted screen buffer, and the `TopK::admits` gate mean the only
//! per-run allocations left are O(1) setup (the skyline pass and its
//! view, probe order, bounds, worker spawns, scratch growth) plus the
//! O(k·log) results that are actually kept — so the allocation *count*
//! must grow far slower than `|T|`.
//!
//! This file holds a single test: the counting global allocator sees
//! every allocation in the process, so concurrent tests would pollute
//! the measurement.

use skyup_core::cost::{AttributeCost, LinearCost, SumCost};
use skyup_core::{improved_probing_topk_scheduled_rec, ProbeStrategy, UpgradeConfig};
use skyup_geom::PointStore;
use skyup_obs::NullRecorder;
use skyup_rtree::{RTree, RTreeParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

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

fn linear_cost(dims: usize) -> SumCost {
    SumCost::new(
        (0..dims)
            .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
            .collect(),
    )
}

#[test]
fn probe_loop_allocations_do_not_scale_with_t() {
    let dims = 3;
    let p = pseudo_random_store(600, dims, 0.0, 1.0, 0x71);
    let t_small = pseudo_random_store(100, dims, 0.3, 1.3, 0x72);
    let t_big = pseudo_random_store(400, dims, 0.3, 1.3, 0x72);
    let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
    let cost = linear_cost(dims);
    let cfg = UpgradeConfig::default();
    let k = 5;

    for (strategy, threads) in [
        (ProbeStrategy::WorkStealing, 1),
        (ProbeStrategy::WorkStealing, 2),
        (ProbeStrategy::BoundSorted, 1),
        (ProbeStrategy::BoundSorted, 2),
    ] {
        let run = |t: &PointStore| {
            improved_probing_topk_scheduled_rec(
                &p,
                &rp,
                t,
                k,
                &cost,
                &cfg,
                threads,
                strategy,
                &mut NullRecorder,
            )
        };
        // Warmup: populate any lazily-grown shared state (thread stacks
        // cached by the OS, allocator arenas, ...).
        let _ = run(&t_small);
        let _ = run(&t_big);

        let before_small = alloc_events();
        let _ = run(&t_small);
        let cost_small = alloc_events() - before_small;

        let before_big = alloc_events();
        let _ = run(&t_big);
        let cost_big = alloc_events() - before_big;

        // 300 extra products; a per-product allocation anywhere in the
        // loop would show up as >= 300 extra events. The real delta is
        // O(1) setup plus scratch growth plus the few admitted results.
        let delta = cost_big.saturating_sub(cost_small);
        let extra_products = (t_big.len() - t_small.len()) as u64;
        assert!(
            delta < extra_products / 2,
            "{strategy:?} threads={threads}: allocation count scales with |T|: \
             {cost_small} events for |T|={}, {cost_big} for |T|={} (delta {delta})",
            t_small.len(),
            t_big.len(),
        );
    }
}
