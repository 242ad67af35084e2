//! Peak heap of seeding a durable engine: the writer holds its rows,
//! tombstones, ids and skyline and nothing else, and the initial
//! checkpoint is encoded straight from those rows into one buffer. No
//! index is bulk-loaded and no compacted copy of the store is made, so
//! the transient above the input stays a small multiple of the rows.
//!
//! This file holds a single test, as `counting_alloc` requires.

mod counting_alloc;

use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_serve::{Engine, EngineConfig, WalConfig};

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

    let base = counting_alloc::reset_peak();
    let engine = Engine::with_competitors(store, EngineConfig::default());
    let seeded = counting_alloc::peak() - base;
    let engine = engine.into_durable(wal_cfg).expect("fresh wal directory");
    let peak = counting_alloc::peak() - base;
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
