//! Peak heap of seeding a durable engine: the writer holds its rows,
//! tombstones, ids and skyline and nothing else, and the initial
//! checkpoint is encoded straight from those rows into one buffer. No
//! index is bulk-loaded and no compacted copy of the store is made, so
//! the transient above the input stays a small multiple of the rows.
//!
//! This file holds a single test: the counting global allocator sees
//! every allocation in the process, so concurrent tests would pollute
//! the measurement.

use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_serve::{Engine, EngineConfig, WalConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(by: u64) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

struct PeakAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// and never affect what is allocated.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Restarts the peak at the current live heap and returns that level.
fn reset_peak() -> u64 {
    let now = LIVE.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

const MIB: u64 = 1 << 20;

#[test]
fn seeding_a_durable_engine_peaks_below_2_5_mib_above_its_input_at_20k() {
    let n = 20_000;
    let store = generate(
        n,
        &SyntheticConfig::unit(3, Distribution::AntiCorrelated, 0x5eed),
    );
    let dir = std::env::temp_dir().join(format!("skyup-writer-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_cfg = WalConfig::new(&dir);

    let base = reset_peak();
    let engine = Engine::with_competitors(store, EngineConfig::default());
    let seeded = PEAK.load(Ordering::Relaxed) - base;
    let engine = engine.into_durable(wal_cfg).expect("fresh wal directory");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    eprintln!(
        "peak heap above the input: {seeded} B through with_competitors, {peak} B through \
         into_durable"
    );

    assert_eq!(engine.stats().live, n);
    assert!(dir.join("checkpoint.snap").exists());
    assert!(
        peak < 5 * MIB / 2,
        "seeding {n} competitors and writing the initial checkpoint peaked {peak} B above \
         the input ({seeded} B before the checkpoint)"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
