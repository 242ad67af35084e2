//! The torn-tail property: for **every** byte-length truncation of the
//! WAL — every point a crash could have cut the file — recovery must
//! succeed, replay exactly the complete-record prefix, and reproduce
//! the oracle engine built by applying that same mutation prefix
//! in-memory. Mid-log corruption (valid data after the bad bytes) must
//! instead abort recovery with an error, never a panic and never a
//! silent drop of acknowledged history.

mod crc32;

use crc32::crc32;
use skyup_data::Rng;
use skyup_geom::persist::fnv1a;
use skyup_geom::PointStore;
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
/// epoch plus the snapshot image — the live rows, their ids, the next
/// id and the epoch, as a checkpoint at seq 0.
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

/// Recovery errors say which file failed: a checkpoint is rejected
/// whole, with what its decoder found, while corruption inside the log
/// keeps the byte offset of the record it hit, and a record the engine
/// refuses on replay its sequence number.
#[test]
fn recovery_errors_name_the_checkpoint_or_the_log_offset() {
    let grow = temp_dir("errors-grow");
    let engine = Engine::with_durability(base_store(), EngineConfig::default(), wal_cfg(&grow))
        .expect("fresh durable engine");
    for m in workload() {
        engine.apply(m).expect("acked mutation");
    }
    engine.flush_wal().unwrap();
    let log = std::fs::read(grow.join("wal.log")).unwrap();
    let checkpoint = std::fs::read(grow.join("checkpoint.snap")).unwrap();
    let dir = temp_dir("errors");
    let recover_err = |ckpt: &[u8], log: &[u8]| {
        std::fs::write(dir.join("checkpoint.snap"), ckpt).unwrap();
        std::fs::write(dir.join("wal.log"), log).unwrap();
        Engine::recover(EngineConfig::default(), wal_cfg(&dir))
            .err()
            .expect("recovery must refuse corrupt state")
            .to_string()
    };

    let mut bad_ckpt = checkpoint.clone();
    bad_ckpt[20] ^= 0x01; // the epoch field, under the checksum
    assert_eq!(
        recover_err(&bad_ckpt, &log),
        "invalid input: checkpoint rejected: checkpoint checksum mismatch"
    );

    // A version-1 checkpoint (written while the writer kept an R-tree)
    // is refused by name, under a resealed checksum, and both files are
    // left as they were, so a build that still reads it can upgrade them.
    let mut v1 = checkpoint.clone();
    assert_eq!(v1[8..12], 2u32.to_le_bytes(), "engines write version 2");
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    let n = v1.len() - 8;
    let sum = fnv1a(&v1[..n]);
    v1[n..].copy_from_slice(&sum.to_le_bytes());
    let err = recover_err(&v1, &log);
    assert!(
        err.starts_with("invalid input: checkpoint rejected: checkpoint version 1 "),
        "{err}"
    );
    assert!(err.contains("--save-snapshot"), "{err}");
    assert_eq!(std::fs::read(dir.join("checkpoint.snap")).unwrap(), v1);
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), log);

    // Records are `len u32 | crc u32 | payload`; flip a payload byte of
    // the middle one.
    let mut starts = vec![0usize];
    while let Some(&at) = starts.last().filter(|&&at| at < log.len()) {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        starts.push(at + 8 + len);
    }
    assert_eq!(starts.pop(), Some(log.len()));
    assert_eq!(starts.len(), MUTATIONS);
    let mid = starts[MUTATIONS / 2];
    let mut bad_log = log.clone();
    bad_log[mid + 8 + 2] ^= 0x01;
    assert_eq!(
        recover_err(&checkpoint, &bad_log),
        format!(
            "invalid input: wal rejected: mid-log corruption at byte {mid}: \
             record checksum mismatch"
        )
    );

    // A checksum-valid record the engine refuses names its seq, like
    // the other replay failures.
    let seq = MUTATIONS as u64 + 1;
    for (coords, why) in [
        (
            vec![0.5, 0.5, 0.5],
            "competitor has 3 coordinates, expected 2",
        ),
        (vec![0.5, f64::NAN], "competitor coordinates must be finite"),
    ] {
        let mut log = log.clone();
        log.extend_from_slice(&add_record(seq, seq, &coords));
        assert_eq!(
            recover_err(&checkpoint, &log),
            format!("invalid input: wal rejected: record seq {seq}: {why}")
        );
    }
}

/// One add record as the log frames it:
/// `len u32 | crc32 u32 | seq u64 | epoch u64 | 0u8 | count u32 | f64 *`.
fn add_record(seq: u64, epoch: u64, coords: &[f64]) -> Vec<u8> {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    let mut payload = Vec::new();
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.push(0);
    payload.extend_from_slice(&(coords.len() as u32).to_le_bytes());
    for c in coords {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    let mut rec = (payload.len() as u32).to_le_bytes().to_vec();
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}
