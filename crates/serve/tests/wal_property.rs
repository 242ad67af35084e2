//! The torn-tail property: for **every** byte-length truncation of the
//! WAL — every point a crash could have cut the file — recovery must
//! succeed, replay exactly the complete-record prefix, and reproduce
//! the oracle engine built by applying that same mutation prefix
//! in-memory. Mid-log corruption (valid data after the bad bytes) must
//! instead abort recovery with an error, never a panic and never a
//! silent drop of acknowledged history.

use skyup_data::Rng;
use skyup_geom::PointStore;
use skyup_rtree::persist::{fnv1a, snapshot_to_bytes};
use skyup_rtree::{RTree, RTreeParams};
use skyup_serve::{Engine, EngineConfig, FsyncPolicy, Mutation, WalConfig};
use std::path::{Path, PathBuf};

const MUTATIONS: usize = 40;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skyup-wal-prop-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_store() -> PointStore {
    let mut rows = Vec::new();
    for i in 0..8 {
        let v = 0.1 + 0.1 * i as f64;
        rows.push([v, 0.9 - 0.08 * i as f64]);
    }
    PointStore::from_rows(2, rows)
}

fn wal_cfg(dir: &Path) -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Always,
        // No periodic checkpoints: the whole mutation history stays in
        // the log, so every truncation offset is reachable.
        checkpoint_every: 0,
        ..WalConfig::new(dir)
    }
}

/// A deterministic mixed workload. Removals target cids known live at
/// that point of the prefix, so every logged record replays as the same
/// non-no-op it was acknowledged as.
fn workload() -> Vec<Mutation> {
    let mut rng = Rng::seed_from_u64(0xD00D_F00D);
    let mut live: Vec<u64> = (0..8).collect();
    let mut next_cid = 8u64;
    let mut muts = Vec::with_capacity(MUTATIONS);
    for i in 0..MUTATIONS {
        if i % 5 == 4 && live.len() > 2 {
            let cid = live.remove(rng.range_usize(live.len()));
            muts.push(Mutation::RemoveCompetitor(cid));
        } else {
            let coords = vec![rng.range_f64(0.05, 0.95), rng.range_f64(0.05, 0.95)];
            muts.push(Mutation::AddCompetitor(coords));
            live.push(next_cid);
            next_cid += 1;
        }
    }
    muts
}

/// Fingerprint of an engine's durable-relevant state: the published
/// epoch plus the compacted snapshot image (store rows and tree).
fn fingerprint(engine: &Engine) -> (u64, Vec<u8>) {
    (engine.stats().epoch, engine.save_snapshot_bytes())
}

#[test]
fn recovery_from_every_truncation_offset_matches_the_prefix_oracle() {
    // Grow the durable log once, recording the file length after each
    // acked mutation: those lengths are the exact record boundaries.
    let grow = temp_dir("grow");
    let engine = Engine::with_durability(base_store(), EngineConfig::default(), wal_cfg(&grow))
        .expect("fresh durable engine");
    let wal_file = grow.join("wal.log");
    let muts = workload();
    let mut boundaries = vec![0u64];
    for m in &muts {
        engine.apply(m.clone()).expect("acked mutation");
        boundaries.push(std::fs::metadata(&wal_file).unwrap().len());
    }
    engine.flush_wal().unwrap();
    let full_log = std::fs::read(&wal_file).unwrap();
    let checkpoint = std::fs::read(grow.join("checkpoint.snap")).unwrap();
    assert_eq!(*boundaries.last().unwrap(), full_log.len() as u64);

    // Oracle fingerprints for every prefix length, from plain in-memory
    // engines that never saw a WAL.
    let oracles: Vec<(u64, Vec<u8>)> = (0..=muts.len())
        .map(|k| {
            let oracle = Engine::with_competitors(base_store(), EngineConfig::default());
            for m in &muts[..k] {
                oracle.apply(m.clone()).expect("oracle mutation");
            }
            fingerprint(&oracle)
        })
        .collect();

    let crash = temp_dir("crash");
    for cut in 0..=full_log.len() {
        std::fs::write(crash.join("checkpoint.snap"), &checkpoint).unwrap();
        std::fs::write(crash.join("wal.log"), &full_log[..cut]).unwrap();
        let recovered = Engine::recover(EngineConfig::default(), wal_cfg(&crash))
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));

        // The complete-record prefix is the last boundary at or below
        // the cut; a cut strictly between boundaries is a torn tail.
        let replayed = boundaries.iter().rposition(|&b| b <= cut as u64).unwrap();
        let torn = u64::from(boundaries[replayed] < cut as u64);
        let status = recovered.durability().expect("durable engine");
        assert_eq!(
            (status.recovery.replayed, status.recovery.torn_truncated),
            (replayed as u64, torn),
            "cut {cut}"
        );
        assert_eq!(status.last_seq, replayed as u64, "cut {cut}");
        assert_eq!(
            fingerprint(&recovered),
            oracles[replayed],
            "recovered state diverges from the {replayed}-mutation oracle at cut {cut}"
        );

        // The recovered engine stays writable: the torn tail is gone
        // from disk, so the next append extends a clean log.
        let out = recovered
            .apply(Mutation::AddCompetitor(vec![0.5, 0.5]))
            .expect("post-recovery mutation");
        assert_eq!(out.epoch, oracles[replayed].0 + 1, "cut {cut}");
    }
}

#[test]
fn mid_log_corruption_aborts_recovery_with_an_error() {
    let grow = temp_dir("corrupt-grow");
    let engine = Engine::with_durability(base_store(), EngineConfig::default(), wal_cfg(&grow))
        .expect("fresh durable engine");
    for m in workload() {
        engine.apply(m).expect("acked mutation");
    }
    engine.flush_wal().unwrap();
    let mut log = std::fs::read(grow.join("wal.log")).unwrap();
    let checkpoint = std::fs::read(grow.join("checkpoint.snap")).unwrap();

    // Flip a payload byte of an early record: valid records follow it,
    // so this is corruption, not a crash artifact.
    log[10] ^= 0x20;
    let dir = temp_dir("corrupt");
    std::fs::write(dir.join("checkpoint.snap"), &checkpoint).unwrap();
    std::fs::write(dir.join("wal.log"), &log).unwrap();
    let err = Engine::recover(EngineConfig::default(), wal_cfg(&dir))
        .err()
        .expect("mid-log corruption must abort recovery");
    let msg = err.to_string();
    assert!(msg.contains("corruption"), "{msg}");

    // A corrupted checkpoint is likewise an error, not a panic.
    let mut bad_ckpt = checkpoint.clone();
    bad_ckpt[16] ^= 0xFF;
    std::fs::write(dir.join("checkpoint.snap"), &bad_ckpt).unwrap();
    std::fs::write(dir.join("wal.log"), b"").unwrap();
    assert!(Engine::recover(EngineConfig::default(), wal_cfg(&dir)).is_err());
}

/// Rewrites a version-2 checkpoint image as the version-1 image engines
/// wrote while the writer kept an R-tree: the same header and ids, then
/// a SKUPSNAP container holding the rows and an STR tree over them.
fn as_v1(v2: &[u8]) -> Vec<u8> {
    assert_eq!(v2[8..12], 2u32.to_le_bytes(), "engines write version 2");
    let ncids = u64::from_le_bytes(v2[36..44].try_into().unwrap()) as usize;
    let rows_at = 44 + 8 * ncids;
    let store = PointStore::from_bytes(&v2[rows_at..v2.len() - 8]).unwrap();
    let snap = snapshot_to_bytes(&store, &RTree::bulk_load(&store, RTreeParams::default()));
    let mut v1 = v2[..rows_at].to_vec();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&(snap.len() as u64).to_le_bytes());
    v1.extend_from_slice(&snap);
    let sum = fnv1a(&v1);
    v1.extend_from_slice(&sum.to_le_bytes());
    v1
}

/// The fingerprint plus what it leaves out: the skyline's competitor
/// ids and the id the next add is assigned.
fn fingerprint_with_ids(engine: &Engine) -> ((u64, Vec<u8>), Vec<u64>) {
    let snap = engine.snapshot();
    let cids = snap.rows().map(|(cid, _)| cid).collect();
    (fingerprint(engine), cids)
}

#[test]
fn a_v1_checkpoint_plus_a_log_tail_recovers_and_the_next_checkpoint_is_v2() {
    // Checkpoints at seq 16 and 32 leave an 8-record tail after the
    // second one.
    let every = 16;
    let cfg = |dir: &Path| WalConfig {
        checkpoint_every: every,
        ..wal_cfg(dir)
    };
    let grow = temp_dir("v1-grow");
    let engine = Engine::with_durability(base_store(), EngineConfig::default(), cfg(&grow))
        .expect("fresh durable engine");
    let muts = workload();
    for m in &muts {
        engine.apply(m.clone()).expect("acked mutation");
    }
    engine.flush_wal().unwrap();
    let v2 = std::fs::read(grow.join("checkpoint.snap")).unwrap();
    let tail = std::fs::read(grow.join("wal.log")).unwrap();
    assert!(!tail.is_empty(), "the checkpoint must leave a log tail");
    drop(engine);

    // The engine that never restarted.
    let oracle = Engine::with_competitors(base_store(), EngineConfig::default());
    for m in &muts {
        oracle.apply(m.clone()).expect("oracle mutation");
    }

    let dir = temp_dir("v1");
    std::fs::write(dir.join("checkpoint.snap"), as_v1(&v2)).unwrap();
    std::fs::write(dir.join("wal.log"), &tail).unwrap();
    let recovered = Engine::recover(EngineConfig::default(), cfg(&dir)).expect("v1 recovers");
    let status = recovered.durability().expect("durable engine");
    assert_eq!(status.recovery.checkpoint_seq, 32);
    assert_eq!(status.recovery.replayed, muts.len() as u64 - 32);
    assert_eq!(
        fingerprint_with_ids(&recovered),
        fingerprint_with_ids(&oracle)
    );

    // Exactly enough further mutations for the next periodic
    // checkpoint, every one logged (removes take a live skyline
    // member); outcomes and ids keep matching the oracle's.
    let mut rng = Rng::seed_from_u64(0x1CEB00DA);
    let more = every as usize - (muts.len() - 32);
    for i in 0..more {
        let m = if i % 3 == 2 {
            Mutation::RemoveCompetitor(oracle.snapshot().rows().next().unwrap().0)
        } else {
            Mutation::AddCompetitor(vec![rng.range_f64(0.05, 0.95), rng.range_f64(0.05, 0.95)])
        };
        assert_eq!(
            recovered.apply(m.clone()).expect("post-recovery mutation"),
            oracle.apply(m).expect("oracle mutation"),
        );
    }
    assert!(std::fs::read(dir.join("wal.log")).unwrap().is_empty());
    let next = std::fs::read(dir.join("checkpoint.snap")).unwrap();
    assert_eq!(next[8..12], 2u32.to_le_bytes(), "the next checkpoint is v2");
    drop(recovered);
    let again = Engine::recover(EngineConfig::default(), cfg(&dir)).expect("v2 recovers");
    assert_eq!(again.durability().unwrap().recovery.replayed, 0);
    assert_eq!(fingerprint_with_ids(&again), fingerprint_with_ids(&oracle));
}
