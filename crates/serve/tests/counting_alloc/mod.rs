//! A global allocator that tracks the live heap, its peak and the bytes
//! requested, for the test binaries that bound one of them. Each such
//! binary holds a single test: the allocator sees every allocation in
//! the process, so concurrent tests would pollute the measurement.

// Each binary reads only the counters it bounds.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A single request above this gets null, and the process aborts in
/// `handle_alloc_error`, before any memory is committed: code that
/// sizes a buffer from an unchecked count fails loudly instead of
/// exhausting the host.
const REFUSE_ABOVE: usize = 1 << 28;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);

fn grow(by: u64) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, or returns null, which the
// contract allows for any request; the counters are statistics and
// never affect what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        let old = layout.size() as u64;
        let new = new_size as u64;
        if new >= old {
            grow(new - old);
        } else {
            LIVE.fetch_sub(old - new, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Restarts the peak at the current live heap and returns that level.
pub fn reset_peak() -> u64 {
    let now = LIVE.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// The highest live heap since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Bytes requested since the process started: every allocation's size,
/// and a reallocation's whole new size.
pub fn requested() -> u64 {
    REQUESTED.load(Ordering::Relaxed)
}
