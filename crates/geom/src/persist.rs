//! Compact binary serialization for [`PointStore`], plus the two
//! helpers every on-disk image in the workspace shares: the [`fnv1a`]
//! checksum and [`write_atomic`].
//!
//! Building a million-point R-tree takes seconds; loading one from disk
//! takes milliseconds. The format is little-endian, versioned, and
//! self-describing:
//!
//! ```text
//! magic "SKUPPSTO" | version u32 | dims u64 | len u64 | coords f64*
//! ```

use crate::store::PointStore;
use std::fmt;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SKUPPSTO";
const VERSION: u32 = 1;
/// Bytes before the coordinates: magic, version, dims, len.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Errors from [`PointStore::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u32),
    /// The buffer ended prematurely or has trailing garbage.
    Truncated,
    /// A decoded value is invalid (e.g. non-finite coordinate).
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a skyup point store (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Truncated => write!(f, "buffer truncated or has trailing bytes"),
            DecodeError::Corrupt(what) => write!(f, "corrupt data: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A little-endian cursor over a byte slice, shared with the R-tree
/// and write-ahead-log decoders.
#[doc(hidden)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Bytes not yet consumed. Decoders bound every count they read by
    /// this before sizing an allocation from it, so a corrupt length
    /// field fails as [`DecodeError::Truncated`] instead of aborting on
    /// a giant allocation.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Truncated)
        }
    }
}

impl PointStore {
    /// Serializes the store to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.raw().len() * 8);
        encode_rows(&mut out, self.dims(), self.iter().map(|(_, row)| row));
        out
    }

    /// Deserializes a store produced by [`PointStore::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<PointStore, DecodeError> {
        let mut r = Reader::new(buf);
        if r.bytes(8)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let dims = r.u64()?;
        if dims == 0 {
            return Err(DecodeError::Corrupt("zero dimensions"));
        }
        let len = r.u64()?;
        // The coordinates must fit in the bytes left before `len` and
        // `dims` size anything.
        let body = dims.checked_mul(8).and_then(|row| row.checked_mul(len));
        if body.is_none_or(|b| b > r.remaining() as u64) {
            return Err(DecodeError::Truncated);
        }
        let (Ok(dims), Ok(len)) = (usize::try_from(dims), usize::try_from(len)) else {
            return Err(DecodeError::Truncated);
        };
        let mut store = PointStore::with_capacity(dims, len);
        let mut row = Vec::new();
        for _ in 0..len {
            row.clear();
            for _ in 0..dims {
                let v = r.f64()?;
                if !v.is_finite() {
                    return Err(DecodeError::Corrupt("non-finite coordinate"));
                }
                row.push(v);
            }
            store.push(&row);
        }
        r.finish()?;
        Ok(store)
    }
}

/// Appends `rows` to `out` in the [`PointStore::to_bytes`] layout,
/// without building a store first: a caller holding rows scattered
/// among dead ones (a tombstoned working set) encodes just the live
/// ones, and [`PointStore::from_bytes`] decodes the result. The row
/// count is patched in once the rows are written.
pub fn encode_rows<'a>(out: &mut Vec<u8>, dims: usize, rows: impl IntoIterator<Item = &'a [f64]>) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(dims as u64).to_le_bytes());
    let len_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes());
    let mut len = 0u64;
    for row in rows {
        debug_assert_eq!(row.len(), dims);
        for v in row {
            out.extend_from_slice(&v.to_le_bytes());
        }
        len += 1;
    }
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

/// FNV-1a over `buf`: tiny, dependency-free, and plenty to catch the
/// torn writes and bit rot a file on disk is exposed to. The serving
/// checkpoint trails its image with it, and the bench fingerprints
/// images with it.
pub fn fnv1a(buf: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in buf {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic sibling path a [`write_atomic`] call stages its
/// bytes under before the rename.
fn atomic_tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`: write to a sibling temp
/// file, fsync it, rename over the target, then fsync the parent
/// directory so the rename itself is durable. A crash at any point
/// leaves either the old file intact or the new file complete — never
/// a truncated or interleaved target.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;

    let tmp = atomic_tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // An empty parent means a bare relative filename: the cwd.
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointId;

    fn sample() -> PointStore {
        PointStore::from_rows(
            3,
            vec![
                vec![0.1, -2.5, 3.75],
                vec![1e-9, 1e9, 0.0],
                vec![7.0, 8.0, 9.0],
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = PointStore::from_bytes(&bytes).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn empty_store_roundtrip() {
        let s = PointStore::new(5);
        let back = PointStore::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.dims(), 5);
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(PointStore::from_bytes(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10, 0] {
            let err = PointStore::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated | DecodeError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(PointStore::from_bytes(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn nan_coordinate_rejected() {
        let mut bytes = sample().to_bytes();
        let coord_start = bytes.len() - 8;
        bytes[coord_start..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            PointStore::from_bytes(&bytes),
            Err(DecodeError::Corrupt("non-finite coordinate"))
        );
    }

    #[test]
    fn encode_rows_matches_to_bytes_for_a_subset() {
        let s = sample();
        let mut out = Vec::new();
        encode_rows(&mut out, 3, [s.point(PointId(0)), s.point(PointId(2))]);
        let want = PointStore::from_rows(3, [s.point(PointId(0)), s.point(PointId(2))]);
        assert_eq!(out, want.to_bytes());
        assert_eq!(PointStore::from_bytes(&out).unwrap(), want);
    }

    #[test]
    fn length_fields_are_bounded_by_the_bytes_left() {
        // A row count or dimensionality far past the buffer is an error
        // before anything is allocated from it, not an abort.
        for (dims, len) in [
            (3u64, u64::MAX / 24),
            (3, 1 << 40),
            (u64::MAX, 1),
            (1 << 61, 0),
        ] {
            let mut bytes = sample().to_bytes();
            bytes[12..20].copy_from_slice(&dims.to_le_bytes());
            bytes[20..28].copy_from_slice(&len.to_le_bytes());
            assert_eq!(
                PointStore::from_bytes(&bytes),
                Err(DecodeError::Truncated),
                "dims {dims} len {len}"
            );
        }
    }

    #[test]
    fn version_checked() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            PointStore::from_bytes(&bytes),
            Err(DecodeError::BadVersion(99))
        );
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn write_atomic_replaces_and_survives_torn_staging() {
        let dir = std::env::temp_dir().join(format!("skyup-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("store.bin");

        let old = sample().to_bytes();
        write_atomic(&target, &old).unwrap();
        assert_eq!(
            PointStore::from_bytes(&std::fs::read(&target).unwrap()),
            Ok(sample())
        );

        // Simulate a writer killed mid-write: a later save got as far as
        // staging a partial temp file but never reached the rename. The
        // old file must still load, because write_atomic never touches
        // the target until the staged copy is complete + synced.
        let tmp = atomic_tmp_path(&target);
        std::fs::write(&tmp, &old[..old.len() / 2]).unwrap();
        let on_disk = std::fs::read(&target).unwrap();
        assert_eq!(on_disk, old, "torn staging file must not affect the target");

        // A subsequent save succeeds despite the leftover debris and
        // fully replaces the target.
        let new = PointStore::from_rows(2, [[1.0, 2.0]]);
        write_atomic(&target, &new.to_bytes()).unwrap();
        assert_eq!(
            PointStore::from_bytes(&std::fs::read(&target).unwrap()),
            Ok(new)
        );
        assert!(!tmp.exists(), "staging file is consumed by the rename");

        std::fs::remove_dir_all(&dir).ok();
    }
}
