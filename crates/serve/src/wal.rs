//! Crash-safe durability: the write-ahead log and its checkpoints.
//!
//! With `--wal <dir>` the engine appends every accepted mutation to an
//! append-only binary log *before* the epoch is published or the ack is
//! sent, so a `kill -9` at any point loses nothing that was
//! acknowledged (under `--fsync always`; weaker policies trade the tail
//! for throughput — see DESIGN.md §16). The directory holds two files:
//!
//! * `wal.log` — length-prefixed, CRC-checksummed mutation records with
//!   monotonic sequence numbers and the epoch each record published:
//!
//!   ```text
//!   record: payload_len u32 | crc32(payload) u32 | payload
//!   payload: seq u64 | epoch u64 | kind u8
//!          | kind 0 (add):    count u32 | coord f64 * count
//!          | kind 1 (remove): cid u64
//!   ```
//!
//! * `checkpoint.snap` — an atomic (temp + fsync + rename + dir-fsync)
//!   image of the live competitor rows and their ids, written every
//!   `--checkpoint-every N` appends so replay time stays bounded. The
//!   engine encodes version 2 straight from its working set into one
//!   buffer; the rows section is laid out exactly as
//!   [`PointStore::to_bytes`] writes a store, so decoding reuses
//!   [`PointStore::from_bytes`]:
//!
//!   ```text
//!   magic "SKUPCKPT" | version u32 (2) | seq u64 | epoch u64
//!   | next_cid u64 | ncids u64 | cid u64 * ncids
//!   | rows ("SKUPPSTO" | version u32 | dims u64 | len u64 | coord f64 *)
//!   | fnv1a u64 (over everything before it)
//!   ```
//!
//!   Version 1, written while the writer kept an R-tree, carried
//!   `snap_len u64 | SKUPSNAP container (store + tree)` in place of the
//!   rows section. It still recovers: the decoder validates the tree
//!   against the rows, then drops it.
//!
//! Recovery loads the checkpoint and replays every record with a newer
//! sequence number. A *torn tail* — an incomplete or checksum-failed
//! record that touches end-of-file, exactly what a crash mid-append
//! leaves — is truncated away, never an error; a checksum failure with
//! valid data after it is mid-log corruption and aborts recovery with a
//! structured error, because silently dropping acknowledged history is
//! worse than refusing to start. Every count a decoder reads is bounded
//! by the bytes left before anything is allocated from it, so a corrupt
//! length field under a valid checksum is an error, not an abort.

use crate::engine::Mutation;
use crate::CompetitorId;
use skyup_core::SkyupError;
use skyup_geom::persist::{self, Reader};
use skyup_geom::PointStore;
use skyup_obs::IoFaultPlan;
use skyup_rtree::persist::{fnv1a, snapshot_from_bytes, write_atomic};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Largest accepted record payload. Real records are tiny (a mutation
/// over a handful of f64s); the cap turns a corrupted length field into
/// a detectable decode failure instead of a giant allocation.
const MAX_PAYLOAD: u32 = 1 << 20;
/// Smallest possible payload: seq + epoch + kind.
const MIN_PAYLOAD: u32 = 8 + 8 + 1;
/// Bytes of `payload_len u32 | crc32 u32` before each payload.
const HEADER: usize = 8;

const CKPT_MAGIC: &[u8; 8] = b"SKUPCKPT";
/// The checkpoint version the engine writes: ids and rows, no index.
const CKPT_VERSION: u32 = 2;
/// The previous version: ids plus a SKUPSNAP store-and-tree container.
/// Still decoded, so durable state written before version 2 recovers.
const CKPT_V1: u32 = 1;
/// Checkpoint bytes before the cid table: magic, version, seq, epoch,
/// next_cid, ncids.
const CKPT_HEADER: usize = 8 + 4 + 8 * 4;

/// When the engine forces the WAL file to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every append: an acked mutation survives `kill -9`.
    Always,
    /// Sync every Nth append: a crash can lose up to N-1 acked
    /// mutations, but never reorders or corrupts what survives.
    Interval(u64),
    /// Never sync explicitly: the OS flushes on its own schedule. A
    /// process crash (as opposed to a host crash) still loses nothing,
    /// because the records sit in the page cache.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag: `always`, `never`, or `interval:N`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => {
                let n = s
                    .strip_prefix("interval:")
                    .and_then(|n| n.parse::<u64>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        format!("bad fsync policy {s:?} (expected always, never, or interval:N)")
                    })?;
                Ok(FsyncPolicy::Interval(n))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(n) => write!(f, "interval:{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Durability configuration carried into the engine.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding `wal.log` and `checkpoint.snap`.
    pub dir: PathBuf,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Checkpoint (and truncate the log) every N appends; 0 disables
    /// periodic checkpoints (the initial one is still written).
    pub checkpoint_every: u64,
    /// Injected I/O failures for chaos tests.
    pub faults: IoFaultPlan,
}

impl WalConfig {
    /// Durability under `dir` with the production defaults: fsync on
    /// every append, checkpoint every 1024.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 1024,
            faults: IoFaultPlan::new(),
        }
    }
}

/// What recovery did, surfaced through the `health` verb and asserted
/// by the crash harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number the loaded checkpoint covered.
    pub checkpoint_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Torn tails truncated (0 or 1 per recovery).
    pub torn_truncated: u64,
}

/// One decoded log record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WalRecord {
    pub seq: u64,
    pub epoch: u64,
    pub mutation: Mutation,
}

/// Why the log or checkpoint was rejected.
#[derive(Debug)]
pub(crate) enum WalError {
    Io(std::io::Error),
    Corrupt { offset: usize, why: &'static str },
}

impl WalError {
    pub(crate) fn into_skyup(self, what: &str) -> SkyupError {
        match self {
            WalError::Io(e) => SkyupError::InvalidInput(format!("{what}: {e}")),
            WalError::Corrupt { offset, why } => SkyupError::InvalidInput(format!(
                "{what}: mid-log corruption at byte {offset}: {why}"
            )),
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), bitwise — records are a
/// few dozen bytes, so a lookup table would be noise.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes one record (header + payload) ready to append.
pub(crate) fn encode_record(seq: u64, epoch: u64, m: &Mutation) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&epoch.to_le_bytes());
    match m {
        Mutation::AddCompetitor(coords) => {
            payload.push(0);
            payload.extend_from_slice(&(coords.len() as u32).to_le_bytes());
            for c in coords {
                payload.extend_from_slice(&c.to_le_bytes());
            }
        }
        Mutation::RemoveCompetitor(cid) => {
            payload.push(1);
            payload.extend_from_slice(&cid.to_le_bytes());
        }
        Mutation::AddCompetitorWithCid(cid, coords) => {
            payload.push(2);
            payload.extend_from_slice(&cid.to_le_bytes());
            payload.extend_from_slice(&(coords.len() as u32).to_le_bytes());
            for c in coords {
                payload.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Reads an add record's `count u32 | coord f64 * count`, bounding the
/// count by the payload bytes left before it sizes anything.
fn decode_coords(r: &mut Reader, offset: usize) -> Result<Vec<f64>, WalError> {
    let short = || WalError::Corrupt {
        offset,
        why: "add record too short",
    };
    let count = r.u32().map_err(|_| short())? as usize;
    if count > r.remaining() / 8 {
        return Err(short());
    }
    (0..count).map(|_| r.f64().map_err(|_| short())).collect()
}

fn decode_payload(offset: usize, payload: &[u8]) -> Result<WalRecord, WalError> {
    let corrupt = |why| WalError::Corrupt { offset, why };
    let mut r = Reader::new(payload);
    let seq = r.u64().map_err(|_| corrupt("payload too short"))?;
    let epoch = r.u64().map_err(|_| corrupt("payload too short"))?;
    let kind = r.bytes(1).map_err(|_| corrupt("payload too short"))?[0];
    let mutation = match kind {
        0 => Mutation::AddCompetitor(decode_coords(&mut r, offset)?),
        1 => {
            let cid = r.u64().map_err(|_| corrupt("remove record too short"))?;
            Mutation::RemoveCompetitor(cid)
        }
        2 => {
            let cid = r.u64().map_err(|_| corrupt("add record too short"))?;
            Mutation::AddCompetitorWithCid(cid, decode_coords(&mut r, offset)?)
        }
        _ => return Err(corrupt("unknown record kind")),
    };
    r.finish()
        .map_err(|_| corrupt("trailing bytes in payload"))?;
    Ok(WalRecord {
        seq,
        epoch,
        mutation,
    })
}

/// Decodes a log image into records plus the byte length of the valid
/// prefix. A failure that touches end-of-file is a torn tail: decoding
/// stops there and `valid_len < buf.len()` tells the caller to truncate
/// the file. A failure strictly inside the log is an error.
pub(crate) fn decode_log(buf: &[u8]) -> Result<(Vec<WalRecord>, usize), WalError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut prev_seq: Option<u64> = None;
    while offset < buf.len() {
        let rest = &buf[offset..];
        if rest.len() < HEADER {
            return Ok((records, offset)); // torn header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let end = offset
            .checked_add(HEADER)
            .and_then(|v| v.checked_add(len as usize));
        match end {
            Some(end) if end <= buf.len() => {
                if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&len) {
                    return Err(WalError::Corrupt {
                        offset,
                        why: "record length out of range",
                    });
                }
                let payload = &rest[HEADER..HEADER + len as usize];
                if crc32(payload) != crc {
                    if end == buf.len() {
                        return Ok((records, offset)); // torn final record
                    }
                    return Err(WalError::Corrupt {
                        offset,
                        why: "record checksum mismatch",
                    });
                }
                let rec = decode_payload(offset, payload)?;
                if let Some(prev) = prev_seq {
                    if rec.seq != prev + 1 {
                        return Err(WalError::Corrupt {
                            offset,
                            why: "sequence number not contiguous",
                        });
                    }
                }
                prev_seq = Some(rec.seq);
                records.push(rec);
                offset = end;
            }
            // The declared payload extends past end-of-file: a crash
            // mid-append (or a garbage length at the true tail).
            _ => return Ok((records, offset)),
        }
    }
    Ok((records, offset))
}

/// The durable base state recovery starts from.
pub(crate) struct Checkpoint {
    pub seq: u64,
    pub epoch: u64,
    pub next_cid: CompetitorId,
    /// Row `i`'s competitor id, strictly increasing and below
    /// `next_cid` (the decoder checks both).
    pub cid_of: Vec<CompetitorId>,
    pub store: PointStore,
}

/// Encodes a version-2 checkpoint of `rows` — the live `(cid, coords)`
/// pairs, ascending by cid — straight into one exactly sized buffer:
/// no compacted copy of the store, no index.
pub(crate) fn encode_checkpoint<'a, I>(
    seq: u64,
    epoch: u64,
    next_cid: CompetitorId,
    dims: usize,
    rows: I,
) -> Vec<u8>
where
    I: Iterator<Item = (CompetitorId, &'a [f64])> + Clone,
{
    let n = rows.clone().count();
    let mut out = Vec::with_capacity(CKPT_HEADER + 8 * n + persist::HEADER_LEN + 8 * dims * n + 8);
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&next_cid.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    for (cid, _) in rows.clone() {
        out.extend_from_slice(&cid.to_le_bytes());
    }
    persist::encode_rows(&mut out, dims, rows.map(|(_, row)| row));
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes a version-2 or version-1 checkpoint image.
pub(crate) fn decode_checkpoint(buf: &[u8]) -> Result<Checkpoint, WalError> {
    let corrupt = |why| WalError::Corrupt { offset: 0, why };
    let truncated = |_| corrupt("checkpoint truncated");
    if buf.len() < 8 + 4 + 8 {
        return Err(corrupt("checkpoint truncated"));
    }
    let (body, sum_bytes) = buf.split_at(buf.len() - 8);
    if &body[..8] != CKPT_MAGIC {
        return Err(corrupt("checkpoint magic mismatch"));
    }
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(corrupt("checkpoint checksum mismatch"));
    }
    let mut r = Reader::new(body);
    r.bytes(8).map_err(truncated)?;
    let version = r.u32().map_err(truncated)?;
    if version != CKPT_VERSION && version != CKPT_V1 {
        return Err(corrupt("unsupported checkpoint version"));
    }
    let seq = r.u64().map_err(truncated)?;
    let epoch = r.u64().map_err(truncated)?;
    let next_cid = r.u64().map_err(truncated)?;
    let ncids = r.u64().map_err(truncated)?;
    if ncids > (r.remaining() / 8) as u64 {
        return Err(corrupt("checkpoint truncated"));
    }
    let cid_of = (0..ncids)
        .map(|_| r.u64().map_err(truncated))
        .collect::<Result<Vec<CompetitorId>, WalError>>()?;
    let store = if version == CKPT_V1 {
        let snap_len = r.u64().map_err(truncated)?;
        let snap_len = usize::try_from(snap_len).map_err(|_| corrupt("checkpoint truncated"))?;
        let snap = r.bytes(snap_len).map_err(truncated)?;
        r.finish()
            .map_err(|_| corrupt("trailing checkpoint bytes"))?;
        // The tree is validated against the rows, then dropped: the
        // writer keeps no index.
        let (store, _tree) =
            snapshot_from_bytes(snap).map_err(|_| corrupt("checkpoint snapshot rejected"))?;
        store
    } else {
        let rows = r.bytes(r.remaining()).map_err(truncated)?;
        PointStore::from_bytes(rows).map_err(|_| corrupt("checkpoint rows rejected"))?
    };
    if cid_of.len() != store.len() {
        return Err(corrupt("checkpoint cid table does not match store"));
    }
    // Row lookup binary-searches the ids, so their order is load-bearing.
    if cid_of.windows(2).any(|w| w[0] >= w[1]) || cid_of.last().is_some_and(|&c| c >= next_cid) {
        return Err(corrupt(
            "checkpoint ids not strictly increasing below next_cid",
        ));
    }
    Ok(Checkpoint {
        seq,
        epoch,
        next_cid,
        cid_of,
        store,
    })
}

/// The open log: owned by the engine, locked after the writer lock.
pub(crate) struct Wal {
    file: File,
    cfg: WalConfig,
    /// Sequence number the next append will carry.
    next_seq: u64,
    /// Appends since the last fsync (interval policy bookkeeping).
    unsynced: u64,
    /// Appends since the last checkpoint.
    pub since_checkpoint: u64,
    /// 1-based operation counts consulted against the fault plan.
    writes: u64,
    syncs: u64,
    /// Set once a durability I/O failure has been observed; every later
    /// mutation is rejected with [`SkyupError::ReadOnly`].
    pub read_only: Option<String>,
}

pub(crate) fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

pub(crate) fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.snap")
}

/// Whether `dir` already holds durable state to recover from.
pub fn has_state(dir: &Path) -> bool {
    checkpoint_path(dir).exists()
        || wal_path(dir)
            .metadata()
            .map(|m| m.len() > 0)
            .unwrap_or(false)
}

impl Wal {
    /// Opens the log for appending, truncating `valid_len` (the prefix
    /// `decode_log` accepted) if a torn tail is on disk.
    pub(crate) fn open(
        cfg: WalConfig,
        next_seq: u64,
        since_checkpoint: u64,
        valid_len: u64,
    ) -> Result<Wal, WalError> {
        std::fs::create_dir_all(&cfg.dir)?;
        let path = wal_path(&cfg.dir);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() != valid_len {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        Ok(Wal {
            file,
            cfg,
            next_seq,
            unsynced: 0,
            since_checkpoint,
            writes: 0,
            syncs: 0,
            read_only: None,
        })
    }

    /// The sequence number the last appended (or replayed) record
    /// carried; 0 before the first append.
    pub(crate) fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Appends one record and applies the fsync policy. Returns
    /// `(bytes_written, synced)`; any failure is returned verbatim and
    /// the caller flips the engine read-only.
    pub(crate) fn append(&mut self, epoch: u64, m: &Mutation) -> Result<(u64, bool), String> {
        let rec = encode_record(self.next_seq, epoch, m);
        self.writes += 1;
        self.cfg
            .faults
            .check_write(self.writes)
            .map_err(|e| format!("wal append failed: {e}"))?;
        self.file
            .write_all(&rec)
            .map_err(|e| format!("wal append failed: {e}"))?;
        self.next_seq += 1;
        self.unsynced += 1;
        self.since_checkpoint += 1;
        let must_sync = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(n) => self.unsynced >= n,
            FsyncPolicy::Never => false,
        };
        if must_sync {
            self.sync().map_err(|e| format!("wal fsync failed: {e}"))?;
        }
        Ok((rec.len() as u64, must_sync))
    }

    /// Forces buffered records to stable storage (policy-independent;
    /// used on clean shutdown and by `Interval`).
    pub(crate) fn sync(&mut self) -> Result<(), String> {
        self.syncs += 1;
        self.cfg
            .faults
            .check_sync(self.syncs)
            .map_err(|e| e.to_string())?;
        self.file.sync_data().map_err(|e| e.to_string())?;
        self.unsynced = 0;
        Ok(())
    }

    /// Whether a periodic checkpoint is due.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.cfg.checkpoint_every > 0 && self.since_checkpoint >= self.cfg.checkpoint_every
    }

    /// Atomically replaces the checkpoint and truncates the log. A
    /// crash between the two steps is benign: recovery skips records
    /// the checkpoint already covers.
    pub(crate) fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
        write_atomic(&checkpoint_path(&self.cfg.dir), bytes)
            .map_err(|e| format!("checkpoint write failed: {e}"))?;
        self.file
            .set_len(0)
            .and_then(|_| self.file.sync_all())
            .map_err(|e| format!("wal truncation failed: {e}"))?;
        self.unsynced = 0;
        self.since_checkpoint = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<(u64, u64, Mutation)> {
        vec![
            (1, 1, Mutation::AddCompetitor(vec![0.25, 0.5])),
            (2, 2, Mutation::AddCompetitor(vec![0.75, 0.125])),
            (3, 3, Mutation::RemoveCompetitor(7)),
            (4, 4, Mutation::AddCompetitor(vec![0.1, 0.9])),
            (5, 5, Mutation::AddCompetitorWithCid(12, vec![0.3, 0.6])),
        ]
    }

    fn sample_log() -> Vec<u8> {
        let mut log = Vec::new();
        for (seq, epoch, m) in sample_records() {
            log.extend_from_slice(&encode_record(seq, epoch, &m));
        }
        log
    }

    #[test]
    fn roundtrip_preserves_records() {
        let (records, valid) = decode_log(&sample_log()).unwrap();
        assert_eq!(valid, sample_log().len());
        assert_eq!(records.len(), 5);
        for (rec, (seq, epoch, m)) in records.iter().zip(sample_records()) {
            assert_eq!(rec.seq, seq);
            assert_eq!(rec.epoch, epoch);
            match (&rec.mutation, &m) {
                (Mutation::AddCompetitor(a), Mutation::AddCompetitor(b)) => assert_eq!(a, b),
                (Mutation::RemoveCompetitor(a), Mutation::RemoveCompetitor(b)) => {
                    assert_eq!(a, b)
                }
                (Mutation::AddCompetitorWithCid(ac, a), Mutation::AddCompetitorWithCid(bc, b)) => {
                    assert_eq!(ac, bc);
                    assert_eq!(a, b);
                }
                _ => panic!("mutation kind drifted through the log"),
            }
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let log = sample_log();
        // Chop mid-way through the last record: its start offset is the
        // valid prefix, and exactly 4 records survive.
        let last_start = log.len() - encode_record(5, 5, &sample_records()[4].2).len();
        let torn = &log[..log.len() - 5];
        let (records, valid) = decode_log(torn).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(valid, last_start);
    }

    #[test]
    fn crc_flip_on_final_record_is_a_torn_tail() {
        let mut log = sample_log();
        let n = log.len();
        log[n - 1] ^= 0x40; // last payload byte
        let (records, valid) = decode_log(&log).unwrap();
        assert_eq!(records.len(), 4);
        assert!(valid < n);
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let mut log = sample_log();
        log[HEADER + 2] ^= 0x01; // payload byte of the *first* record
        match decode_log(&log) {
            Err(WalError::Corrupt { offset: 0, why }) => {
                assert!(why.contains("checksum"));
            }
            other => panic!("expected mid-log corruption error, got {other:?}"),
        }
    }

    #[test]
    fn sequence_gap_is_an_error() {
        let mut log = encode_record(1, 1, &Mutation::RemoveCompetitor(1));
        log.extend_from_slice(&encode_record(3, 2, &Mutation::RemoveCompetitor(2)));
        match decode_log(&log) {
            Err(WalError::Corrupt { why, .. }) => assert!(why.contains("contiguous")),
            other => panic!("expected sequence error, got {other:?}"),
        }
    }

    #[test]
    fn fsync_policy_parses_and_rejects() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval:64").unwrap(),
            FsyncPolicy::Interval(64)
        );
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Interval(8).to_string(), "interval:8");
    }

    /// The version-1 encoder as it shipped before the writer dropped its
    /// R-tree: ids, then a SKUPSNAP container holding the store and an
    /// STR tree over it.
    fn encode_checkpoint_v1(
        seq: u64,
        epoch: u64,
        next_cid: CompetitorId,
        cid_of: &[CompetitorId],
        store: &PointStore,
    ) -> Vec<u8> {
        let tree = skyup_rtree::RTree::bulk_load(store, skyup_rtree::RTreeParams::default());
        let snap = skyup_rtree::persist::snapshot_to_bytes(store, &tree);
        let mut out = Vec::new();
        out.extend_from_slice(CKPT_MAGIC);
        out.extend_from_slice(&CKPT_V1.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&next_cid.to_le_bytes());
        out.extend_from_slice(&(cid_of.len() as u64).to_le_bytes());
        for cid in cid_of {
            out.extend_from_slice(&cid.to_le_bytes());
        }
        out.extend_from_slice(&(snap.len() as u64).to_le_bytes());
        out.extend_from_slice(&snap);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Rows with dead ones interleaved, as the writer holds them.
    fn sample_rows() -> (PointStore, Vec<CompetitorId>, Vec<bool>) {
        let store = PointStore::from_rows(
            2,
            vec![[0.1, 0.9], [0.4, 0.4], [0.9, 0.1], [0.5, 0.6], [0.2, 0.3]],
        );
        (
            store,
            vec![3, 5, 11, 12, 16],
            vec![true, false, true, true, false],
        )
    }

    fn encode_live(seq: u64, epoch: u64, next_cid: CompetitorId) -> Vec<u8> {
        let (store, cid_of, live) = sample_rows();
        let rows = (0..store.len())
            .filter(|&row| live[row])
            .map(|row| (cid_of[row], &store.raw()[2 * row..2 * row + 2]));
        encode_checkpoint(seq, epoch, next_cid, 2, rows)
    }

    #[test]
    fn checkpoint_v2_roundtrip_keeps_only_live_rows_and_ids() {
        let bytes = encode_live(42, 40, 17);
        let ck = decode_checkpoint(&bytes).unwrap();
        assert_eq!((ck.seq, ck.epoch, ck.next_cid), (42, 40, 17));
        assert_eq!(ck.cid_of, vec![3, 11, 12]);
        assert_eq!(
            ck.store,
            PointStore::from_rows(2, vec![[0.1, 0.9], [0.9, 0.1], [0.5, 0.6]])
        );
        // The rows section is a plain point-store image.
        let rows_at = CKPT_HEADER + 8 * 3;
        assert_eq!(&bytes[rows_at..bytes.len() - 8], ck.store.to_bytes());
    }

    #[test]
    fn checkpoint_v1_still_decodes_to_the_same_rows_and_ids() {
        let ck2 = decode_checkpoint(&encode_live(42, 40, 17)).unwrap();
        let v1 = encode_checkpoint_v1(42, 40, 17, &ck2.cid_of, &ck2.store);
        let ck1 = decode_checkpoint(&v1).unwrap();
        assert_eq!((ck1.seq, ck1.epoch, ck1.next_cid), (42, 40, 17));
        assert_eq!(ck1.cid_of, ck2.cid_of);
        assert_eq!(ck1.store, ck2.store);
        // An empty competitor set round-trips in both versions.
        let empty = PointStore::new(2);
        let ck = decode_checkpoint(&encode_checkpoint_v1(0, 0, 0, &[], &empty)).unwrap();
        assert_eq!((ck.store.len(), ck.store.dims()), (0, 2));
        let ck = decode_checkpoint(&encode_checkpoint(0, 0, 0, 2, std::iter::empty())).unwrap();
        assert_eq!((ck.store.len(), ck.store.dims()), (0, 2));
    }

    #[test]
    fn every_truncation_and_a_flipped_byte_are_rejected() {
        for bytes in [
            encode_live(42, 40, 17),
            encode_checkpoint_v1(
                1,
                2,
                17,
                &[3, 11],
                &PointStore::from_rows(2, [[0.1, 0.9], [0.9, 0.1]]),
            ),
        ] {
            for cut in 0..bytes.len() {
                assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            for at in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[at] ^= 0x10;
                assert!(decode_checkpoint(&bad).is_err(), "flip at {at}");
            }
        }
    }

    /// Re-seals a checkpoint image after `edit`, so the checksum passes
    /// and only the decoder's own checks stand between a corrupt field
    /// and recovery.
    fn resealed(mut bytes: Vec<u8>, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let n = bytes.len() - 8;
        edit(&mut bytes[..n]);
        let sum = fnv1a(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn checksummed_but_inconsistent_checkpoints_are_errors() {
        let bytes = encode_live(42, 40, 17);
        let ncids_at = CKPT_HEADER - 8;
        let cases: [(&str, Vec<u8>); 4] = [
            (
                "ncids past the buffer",
                resealed(bytes.clone(), |b| {
                    b[ncids_at..ncids_at + 8].copy_from_slice(&u64::MAX.to_le_bytes())
                }),
            ),
            (
                "row count past the buffer",
                resealed(bytes.clone(), |b| {
                    let len_at = CKPT_HEADER + 8 * 3 + 20;
                    b[len_at..len_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes())
                }),
            ),
            (
                "ids out of order",
                resealed(bytes.clone(), |b| {
                    b[CKPT_HEADER..CKPT_HEADER + 8].copy_from_slice(&99u64.to_le_bytes())
                }),
            ),
            (
                "next_cid not past the ids",
                resealed(bytes.clone(), |b| {
                    b[28..36].copy_from_slice(&12u64.to_le_bytes())
                }),
            ),
        ];
        for (what, bad) in cases {
            assert!(
                matches!(decode_checkpoint(&bad), Err(WalError::Corrupt { .. })),
                "{what}"
            );
        }
    }

    /// A record with a valid CRC whose coordinate count claims far more
    /// than the payload holds.
    fn oversized_add(kind: u8) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(kind);
        if kind == 2 {
            payload.extend_from_slice(&9u64.to_le_bytes());
        }
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut rec = Vec::new();
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(&payload).to_le_bytes());
        rec.extend_from_slice(&payload);
        rec
    }

    #[test]
    fn a_coordinate_count_past_the_payload_is_corrupt_not_an_abort() {
        assert_eq!(oversized_add(0).len(), 29);
        for kind in [0, 2] {
            match decode_log(&oversized_add(kind)) {
                Err(WalError::Corrupt { offset: 0, why }) => assert!(why.contains("too short")),
                other => panic!("kind {kind}: expected a corrupt record, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
