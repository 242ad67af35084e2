//! Hostile-input sweep over the binary decoders that read files: the
//! write-ahead log, the checkpoint (which `--warm-start` reads too) and
//! the point-store image that is the checkpoint's rows section, each
//! reached through a public entry point: [`PointStore::from_bytes`],
//! [`Engine::from_snapshot_bytes`], and [`Engine::recover`] on a temp
//! directory.
//!
//! Every case mutates a valid image: bit flips, a truncation, a
//! duplicated span, or a field inflated to 2^32 − 1, 2^40 or `u64::MAX`
//! (the counts `ncids`, `dims`, `len`, `payload_len` and the coordinate
//! counts, every sequence number and epoch, `next_cid` and the log's
//! competitor ids). The checkpoint's FNV-1a and every log record's
//! CRC-32 are then resealed, so the mutation reaches the decoder's own
//! field checks. Every case must return `Ok` or `Err`, with no panic
//! (caught by `catch_unwind`) and a peak heap below `HEAP_MULTIPLE`
//! times its input bytes plus `HEAP_SLACK`.
//!
//! This file holds a single test, as `counting_alloc` requires.

mod counting_alloc;
mod crc32;

use crc32::crc32;
use skyup_data::Rng;
use skyup_geom::persist::fnv1a;
use skyup_geom::PointStore;
use skyup_serve::{Engine, EngineConfig, FsyncPolicy, Mutation, WalConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Mutated images per entry point.
const CASES: usize = 4000;
/// A case's peak heap above the live heap at its start must stay below
/// `HEAP_MULTIPLE * input bytes + HEAP_SLACK`. The multiple covers the
/// rows, ids, skyline and published snapshot an engine builds from an
/// image; the slack covers what an engine allocates whatever its size.
/// The valid images here (0.3–1.5 KB) peak below 7 KB.
const HEAP_MULTIPLE: u64 = 16;
const HEAP_SLACK: u64 = 64 << 10;
/// What an inflated field is set to; a 4-byte field takes the first.
const INFLATED: [u64; 3] = [u32::MAX as u64, 1 << 40, u64::MAX];

/// A valid image, the `(offset, width)` of every field a case may
/// inflate, and how the image is resealed after a mutation.
struct Image {
    bytes: Vec<u8>,
    fields: Vec<(usize, usize)>,
    seal: fn(&mut [u8]),
}

/// Rewrites a checkpoint's trailing FNV-1a over everything before it.
fn seal_fnv(b: &mut [u8]) {
    if let Some(n) = b.len().checked_sub(8) {
        let sum = fnv1a(&b[..n]);
        b[n..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Rewrites the CRC of every `len u32 | crc u32 | payload` record whose
/// declared payload fits in the buffer.
fn seal_crc(b: &mut [u8]) {
    let mut at = 0;
    while at + 8 <= b.len() {
        let len = u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
        let Some(end) = (at + 8).checked_add(len).filter(|&e| e <= b.len()) else {
            break;
        };
        let crc = crc32(&b[at + 8..end]);
        b[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        at = end;
    }
}

/// `magic | version u32 | dims u64 | len u64 | coords`, at `at`.
fn store_fields(at: usize) -> Vec<(usize, usize)> {
    vec![(at + 12, 8), (at + 20, 8)]
}

/// `magic | version u32 | seq u64 | epoch u64 | next_cid u64 | ncids
/// u64 | cid u64 * ncids | rows | fnv1a`.
fn checkpoint_image(bytes: Vec<u8>) -> Image {
    let ncids = u64::from_le_bytes(bytes[36..44].try_into().unwrap()) as usize;
    let mut fields = vec![(12, 8), (20, 8), (28, 8), (36, 8)];
    fields.extend(store_fields(44 + 8 * ncids));
    Image {
        bytes,
        fields,
        seal: seal_fnv,
    }
}

/// Records of `payload_len u32 | crc u32 | seq u64 | epoch u64 | kind
/// u8`, then `count u32 | coords` (kind 0, an add), `cid u64` (kind 1,
/// a remove) or `cid u64 | count u32 | coords` (kind 2, an add under an
/// assigned id).
fn log_image(bytes: Vec<u8>) -> Image {
    let mut fields = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let body = at + 8 + 17;
        fields.extend([(at, 4), (at + 8, 8), (at + 16, 8)]);
        match bytes[body - 1] {
            0 => fields.push((body, 4)),
            1 => fields.push((body, 8)),
            _ => fields.extend([(body, 8), (body + 8, 4)]),
        }
        at += 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    }
    Image {
        bytes,
        fields,
        seal: seal_crc,
    }
}

/// One or two of: flip 1–8 bits, truncate, duplicate a span of up to 64
/// bytes, inflate a field. Then reseal.
fn mutate(rng: &mut Rng, image: &Image) -> Vec<u8> {
    let mut b = image.bytes.clone();
    for _ in 0..1 + rng.range_usize(2) {
        if b.is_empty() {
            break;
        }
        match rng.range_usize(4) {
            0 => {
                for _ in 0..1 + rng.range_usize(8) {
                    let bit = rng.range_usize(8 * b.len());
                    b[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => b.truncate(rng.range_usize(b.len())),
            2 => {
                let from = rng.range_usize(b.len());
                let span = b[from..b.len().min(from + 1 + rng.range_usize(64))].to_vec();
                let at = rng.range_usize(b.len() + 1);
                b.splice(at..at, span);
            }
            _ => {
                let (at, width) = image.fields[rng.range_usize(image.fields.len())];
                let v = INFLATED[if width == 4 { 0 } else { rng.range_usize(3) }];
                if let Some(field) = b.get_mut(at..at + width) {
                    field.copy_from_slice(&v.to_le_bytes()[..width]);
                }
            }
        }
    }
    (image.seal)(&mut b);
    b
}

/// Feeds `CASES` mutations of `image` to `decode`, which also reads
/// `other` bytes of valid input, and holds each case to the contract
/// above. Both outcomes must occur: the reseals carry mutations past
/// the checksums and the first checks.
fn sweep(rng: &mut Rng, what: &str, image: &Image, other: usize, decode: impl Fn(&[u8]) -> bool) {
    let mut decoded = 0;
    for case in 0..CASES {
        let b = mutate(rng, image);
        let base = counting_alloc::reset_peak();
        let ok = catch_unwind(AssertUnwindSafe(|| decode(&b)))
            .unwrap_or_else(|_| panic!("{what} case {case}: the decoder panicked"));
        let peak = counting_alloc::peak() - base;
        let bound = HEAP_MULTIPLE * (b.len() + other) as u64 + HEAP_SLACK;
        assert!(
            peak <= bound,
            "{what} case {case}: peak heap {peak} B above {bound} B"
        );
        decoded += usize::from(ok);
    }
    eprintln!("{what}: {decoded} of {CASES} decoded");
    assert!(
        0 < decoded && decoded < CASES,
        "{what}: {decoded} of {CASES} decoded"
    );
}

fn wal_cfg(dir: &Path) -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
        ..WalConfig::new(dir)
    }
}

#[test]
fn every_mutated_image_decodes_to_ok_or_err_within_its_heap_bound() {
    let dir = std::env::temp_dir().join(format!("skyup-decode-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash = dir.join("crash");
    std::fs::create_dir_all(&crash).unwrap();

    // A durable engine over 16 random rows logs every record kind, then
    // saves a snapshot: ids with gaps, a next id past them, a later epoch.
    let mut rng = Rng::seed_from_u64(0x5EED_0001);
    let mut row = || vec![rng.range_f64(0.0, 1.0), rng.range_f64(0.0, 1.0)];
    let rows = PointStore::from_rows(2, (0..16).map(|_| row()));
    let store = Image {
        bytes: rows.to_bytes(),
        fields: store_fields(0),
        seal: |_| {},
    };
    let engine = Engine::with_durability(rows, EngineConfig::default(), wal_cfg(&dir))
        .expect("fresh durable engine");
    for i in 0..24u64 {
        let m = match i % 4 {
            1 => Mutation::RemoveCompetitor(i),
            3 => Mutation::AddCompetitorWithCid(100 + i, row()),
            _ => Mutation::AddCompetitor(row()),
        };
        engine.apply(m).expect("acked mutation");
    }
    engine.flush_wal().unwrap();
    let saved = checkpoint_image(engine.save_snapshot_bytes());
    drop(engine);
    let checkpoint = checkpoint_image(std::fs::read(dir.join("checkpoint.snap")).unwrap());
    let log = log_image(std::fs::read(dir.join("wal.log")).unwrap());

    let recover = |ck: &[u8], wal: &[u8]| {
        std::fs::write(crash.join("checkpoint.snap"), ck).unwrap();
        std::fs::write(crash.join("wal.log"), wal).unwrap();
        Engine::recover(EngineConfig::default(), wal_cfg(&crash)).is_ok()
    };
    let mut rng = Rng::seed_from_u64(0x0DEC_0DE5);
    sweep(&mut rng, "point store", &store, 0, |b| {
        PointStore::from_bytes(b).is_ok()
    });
    sweep(&mut rng, "warm start", &saved, 0, |b| {
        Engine::from_snapshot_bytes(b, EngineConfig::default()).is_ok()
    });
    let (ck, wal) = (&checkpoint.bytes, &log.bytes);
    sweep(
        &mut rng,
        "recovered checkpoint",
        &checkpoint,
        wal.len(),
        |b| recover(b, wal),
    );
    sweep(&mut rng, "recovered log", &log, ck.len(), |b| {
        recover(ck, b)
    });
    let _ = std::fs::remove_dir_all(&dir);
}
