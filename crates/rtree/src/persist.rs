//! Compact binary serialization for [`RTree`].
//!
//! Saves the full node arena so a bulk-loaded index can be reloaded
//! without rebuilding. The coordinates stay in the point store (persist
//! it with [`skyup_geom::PointStore::to_bytes`]); loading validates the
//! tree against the store before use.
//!
//! ```text
//! magic "SKUPRTRE" | version u32 | dims u64 | max u64 | min u64
//! | root u32 | num_points u64 | num_nodes u64
//! | node*: level u32, mbr (lo f64*d, hi f64*d) or empty-marker u8,
//!          child_count u64, children u32*, point_count u64, points u32*
//! ```
//!
//! [`snapshot_to_bytes`] wraps a store + tree pair in a single
//! checksummed SKUPSNAP container, the `--save-snapshot` format of
//! older `skyup serve` builds. `skyup-serve` still reads it, skipping
//! the tree section, and its tests build such files with this writer:
//!
//! ```text
//! magic "SKUPSNAP" | version u32 | store_len u64 | store bytes
//! | tree_len u64 | tree bytes | fnv1a u64 (over everything before it)
//! ```

use crate::node::{Node, NodeId};
use crate::tree::{RTree, RTreeParams};
use crate::{PointId, PointStore, Rect};
use skyup_geom::persist::{fnv1a, DecodeError, Reader};

const MAGIC: &[u8; 8] = b"SKUPRTRE";
const VERSION: u32 = 1;

/// Bytes of a node with no MBR, children or points: level, marker,
/// and the two counts.
const MIN_NODE_BYTES: usize = 4 + 1 + 8 + 8;
/// Highest node level a decoded tree may have. Real trees over `u32`
/// point ids are at most ~32 levels deep; the cap bounds the recursion
/// of `validate` on a hostile file.
const MAX_LEVEL: u32 = 63;

const SNAP_MAGIC: &[u8; 8] = b"SKUPSNAP";
const SNAP_VERSION: u32 = 1;

/// Serializes a point store and the R-tree built over it into a single
/// checksummed SKUPSNAP container.
pub fn snapshot_to_bytes(store: &PointStore, tree: &RTree) -> Vec<u8> {
    let store_bytes = store.to_bytes();
    let tree_bytes = tree.to_bytes();
    let mut out = Vec::with_capacity(8 + 4 + 16 + store_bytes.len() + tree_bytes.len() + 8);
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&(store_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&store_bytes);
    out.extend_from_slice(&(tree_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&tree_bytes);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Reads `count u64 | u32 * count` as ids, bounding the count by the
/// bytes left before it sizes anything.
fn read_ids<T>(r: &mut Reader, id: impl Fn(u32) -> T) -> Result<Vec<T>, DecodeError> {
    let count = r.u64()?;
    if count > (r.remaining() / 4) as u64 {
        return Err(DecodeError::Truncated);
    }
    (0..count).map(|_| r.u32().map(&id)).collect()
}

impl RTree {
    /// Serializes the tree to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.dims as u64).to_le_bytes());
        out.extend_from_slice(&(self.params.max_entries as u64).to_le_bytes());
        out.extend_from_slice(&(self.params.min_entries as u64).to_le_bytes());
        out.extend_from_slice(&self.root.0.to_le_bytes());
        out.extend_from_slice(&(self.num_points as u64).to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        for node in &self.nodes {
            out.extend_from_slice(&node.level.to_le_bytes());
            if node.mbr.is_empty_accumulator() {
                out.push(0);
            } else {
                out.push(1);
                for v in node.mbr.lo().iter().chain(node.mbr.hi()) {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            out.extend_from_slice(&(node.children.len() as u64).to_le_bytes());
            for c in &node.children {
                out.extend_from_slice(&c.0.to_le_bytes());
            }
            out.extend_from_slice(&(node.points.len() as u64).to_le_bytes());
            for p in &node.points {
                out.extend_from_slice(&p.0.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a tree and validates it against `store` (the point
    /// store it was built over). Any structural inconsistency —
    /// including a store that does not match — is rejected.
    pub fn from_bytes(buf: &[u8], store: &PointStore) -> Result<RTree, DecodeError> {
        let mut r = Reader::new(buf);
        if r.bytes(8)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let dims = r.u64()? as usize;
        if dims == 0 || dims != store.dims() {
            return Err(DecodeError::Corrupt("dimensionality mismatch"));
        }
        let max_entries = r.u64()? as usize;
        let min_entries = r.u64()? as usize;
        if min_entries < 2 || min_entries > max_entries / 2 {
            return Err(DecodeError::Corrupt("invalid fanout parameters"));
        }
        let root = NodeId(r.u32()?);
        let num_points = r.u64()? as usize;
        // Every count is bounded by the bytes left before an allocation
        // is sized from it, so a corrupt count fails as `Truncated`
        // instead of aborting on a giant allocation.
        let num_nodes = r.u64()?;
        if num_nodes > (r.remaining() / MIN_NODE_BYTES) as u64 {
            return Err(DecodeError::Truncated);
        }

        let mut nodes = Vec::with_capacity(num_nodes as usize);
        for _ in 0..num_nodes {
            let level = r.u32()?;
            if level > MAX_LEVEL {
                return Err(DecodeError::Corrupt("node level out of range"));
            }
            let has_mbr = r.bytes(1)?[0];
            let mbr = match has_mbr {
                0 => Rect::empty(dims),
                1 => {
                    let mut lo = vec![0.0f64; dims];
                    let mut hi = vec![0.0f64; dims];
                    for v in lo.iter_mut() {
                        *v = r.f64()?;
                    }
                    for v in hi.iter_mut() {
                        *v = r.f64()?;
                    }
                    if lo
                        .iter()
                        .zip(&hi)
                        .any(|(&l, &h)| !l.is_finite() || !h.is_finite() || l > h)
                    {
                        return Err(DecodeError::Corrupt("invalid MBR"));
                    }
                    Rect::new(&lo, &hi)
                }
                _ => return Err(DecodeError::Corrupt("bad MBR marker")),
            };
            let children = read_ids(&mut r, NodeId)?;
            let points = read_ids(&mut r, PointId)?;
            nodes.push(Node {
                mbr,
                level,
                children,
                points,
            });
        }
        r.finish()?;

        if root.index() >= nodes.len() {
            return Err(DecodeError::Corrupt("root out of range"));
        }
        for node in &nodes {
            if node.children.iter().any(|c| c.index() >= nodes.len()) {
                return Err(DecodeError::Corrupt("child id out of range"));
            }
            if node.points.iter().any(|p| p.index() >= store.len()) {
                return Err(DecodeError::Corrupt("point id out of range"));
            }
        }
        // What hangs off the root must be a tree: a node reached twice
        // (a shared child or a cycle) is corrupt. With that and the level
        // cap, `validate` visits each node once, at most `MAX_LEVEL`
        // deep. Nodes the root does not reach are allowed.
        let mut reached = vec![false; nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reached[id.index()], true) {
                return Err(DecodeError::Corrupt("node reached twice"));
            }
            stack.extend_from_slice(&nodes[id.index()].children);
        }

        let tree = RTree {
            dims,
            params: RTreeParams::new(max_entries, min_entries),
            nodes,
            root,
            num_points,
        };
        tree.validate(store)
            .map_err(|_| DecodeError::Corrupt("tree fails structural validation"))?;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (PointStore, RTree) {
        let mut s = PointStore::new(2);
        for i in 0..200 {
            s.push(&[(i % 17) as f64, (i % 13) as f64]);
        }
        let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        (s, t)
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let (s, t) = sample();
        let bytes = t.to_bytes();
        let back = RTree::from_bytes(&bytes, &s).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.height(), t.height());
        let range = Rect::new(&[2.0, 3.0], &[9.0, 11.0]);
        let mut a = t.range_query(&s, &range);
        let mut b = back.range_query(&s, &range);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_tree_roundtrip() {
        let s = PointStore::new(3);
        let t = RTree::bulk_load(&s, RTreeParams::default());
        let back = RTree::from_bytes(&t.to_bytes(), &s).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn wrong_store_rejected() {
        let (s, t) = sample();
        let bytes = t.to_bytes();
        // A store with fewer points: ids dangle.
        let mut small = PointStore::new(2);
        small.push(&[0.0, 0.0]);
        assert!(RTree::from_bytes(&bytes, &small).is_err());
        // A store with different contents: MBR validation fails.
        let mut shifted = PointStore::new(2);
        for (_, c) in s.iter() {
            shifted.push(&[c[0] + 1.0, c[1]]);
        }
        assert!(RTree::from_bytes(&bytes, &shifted).is_err());
    }

    #[test]
    fn corruption_rejected() {
        let (s, t) = sample();
        let bytes = t.to_bytes();
        assert_eq!(
            RTree::from_bytes(&bytes[..10], &s).unwrap_err(),
            DecodeError::Truncated
        );
        let mut bad = bytes.clone();
        bad[0] = b'!';
        assert_eq!(
            RTree::from_bytes(&bad, &s).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn insertion_tree_roundtrip() {
        let mut s = PointStore::new(2);
        let mut t = RTree::new(2, RTreeParams::with_max_entries(4));
        for i in 0..100 {
            let id = s.push(&[(i * 7 % 31) as f64, (i * 3 % 29) as f64]);
            t.insert(&s, id);
        }
        let back = RTree::from_bytes(&t.to_bytes(), &s).unwrap();
        back.validate(&s).unwrap();
        assert_eq!(back.len(), 100);
    }

    /// A tree image over a 2-d store holding one point at the origin:
    /// fanout `max_entries` (minimum 2), root 0, then `nodes` as
    /// `(level, children)`, each with the origin as its MBR and each
    /// leaf holding the point.
    fn image(max_entries: u64, num_nodes: u64, nodes: &[(u32, &[u32])]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for v in [2, max_entries, 2] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&num_nodes.to_le_bytes());
        for &(level, children) in nodes {
            out.extend_from_slice(&level.to_le_bytes());
            out.push(1);
            out.extend_from_slice(&[0; 32]);
            out.extend_from_slice(&(children.len() as u64).to_le_bytes());
            for c in children {
                out.extend_from_slice(&c.to_le_bytes());
            }
            let points: &[u32] = if level == 0 { &[0] } else { &[] };
            out.extend_from_slice(&(points.len() as u64).to_le_bytes());
            for p in points {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        out
    }

    /// `n` nodes above a leaf, node `i` at level `n - i` listing node
    /// `i + 1` `fanout` times.
    fn chain(n: u32, fanout: usize) -> Vec<u8> {
        let kids: Vec<Vec<u32>> = (1..=n).map(|c| vec![c; fanout]).collect();
        let mut nodes: Vec<(u32, &[u32])> =
            (0..n).map(|i| (n - i, &kids[i as usize][..])).collect();
        nodes.push((0, &[]));
        image(8, u64::from(n) + 1, &nodes)
    }

    #[test]
    fn hostile_counts_levels_and_links_are_errors_not_aborts() {
        let s = PointStore::from_rows(2, [[0.0, 0.0]]);
        // One node claiming 2^40 children under a 2^40 fanout: the count
        // once sized an allocation (an abort).
        let mut huge = image(1 << 40, 1, &[]);
        huge.extend_from_slice(&0u32.to_le_bytes());
        huge.push(0);
        huge.extend_from_slice(&(1u64 << 40).to_le_bytes());
        huge.resize(438, 0);
        // Far more nodes than bytes.
        let mut many = image(8, 1 << 20, &[]);
        many.resize(438, 0);
        for (what, bytes, want) in [
            ("huge child count", &huge, DecodeError::Truncated),
            ("node count past the bytes", &many, DecodeError::Truncated),
            // `validate` once recursed once per level: a stack overflow.
            (
                "100k levels",
                &chain(100_000, 1),
                DecodeError::Corrupt("node level out of range"),
            ),
            // `validate` once walked a shared child once per path: 2^40
            // visits.
            (
                "shared children",
                &chain(40, 2),
                DecodeError::Corrupt("node reached twice"),
            ),
        ] {
            assert_eq!(RTree::from_bytes(bytes, &s).unwrap_err(), want, "{what}");
        }
        // `max_entries + 1` once overflowed (a panic in debug); the
        // one-leaf tree under that fanout is valid.
        assert!(RTree::from_bytes(&image(u64::MAX, 1, &[(0, &[])]), &s).is_ok());
    }
}
