//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs `n` points into `ceil(n / M)` full leaves by recursively
//! sorting and slicing the data one dimension at a time, then packs the
//! resulting nodes the same way level by level. It produces well-shaped,
//! nearly 100%-full trees and is the standard way to index a static data
//! set — which is exactly how the paper uses its R-trees (both `P` and
//! `T` are loaded into memory before the algorithms run).
//!
//! Each level sorts one flat buffer of `(key, index)` pairs, where the
//! index names a point (leaves) or a node of the level below, and the
//! key is refreshed to a slab's dimension just before the slab is
//! sorted: read from the store's coordinates for leaves, or from one
//! flat buffer of the level's node centers above them. The tiles come
//! back as index ranges of that buffer, and every node is built once
//! from its range. The trees must stay bit-identical to those of the
//! classic formulation, which sorted whole coordinate vectors: the
//! paper's traversals, their pinned work counts and the figures all
//! read the tree's shape (DESIGN.md §11, "STR bulk load").

use std::ops::Range;

use crate::node::{Node, NodeId};
use crate::tree::{RTree, RTreeParams};
use crate::{PointId, PointStore, Rect};

impl RTree {
    /// Builds an R-tree over every point of `store` using STR packing.
    pub fn bulk_load(store: &PointStore, params: RTreeParams) -> Self {
        let dims = store.dims();
        let mut tree = RTree::new(dims, params);
        if store.is_empty() {
            return tree;
        }
        let cap = params.max_entries;

        // Level 0: pack points into leaves.
        let mut pairs: Vec<(f64, u32)> = (0..store.len() as u32).map(|i| (0.0, i)).collect();
        let mut tiles = Vec::with_capacity(pairs.len().div_ceil(cap));
        let coords = store.raw();
        Tiler { coords, dims, cap }.tile(&mut pairs, 0, 0, &mut tiles);
        let start = tree.nodes.len();
        for tile in &tiles {
            let entries = &pairs[tile.clone()];
            let mut mbr = Rect::empty(dims);
            for &(_, i) in entries {
                mbr.expand_point(store.point(PointId(i)));
            }
            tree.alloc(Node {
                mbr,
                level: 0,
                children: Vec::new(),
                points: entries.iter().map(|&(_, i)| PointId(i)).collect(),
            });
        }
        let mut level = start..tree.nodes.len();

        // Upper levels: pack node MBR centers until one root remains.
        // A level's nodes are contiguous in the arena, so pair `i` of a
        // level names node `level.start + i`.
        let mut centers = Vec::with_capacity(tiles.len() * dims);
        let mut height = 1u32;
        while level.len() > 1 {
            centers.clear();
            for node in &tree.nodes[level.clone()] {
                let (lo, hi) = (node.mbr.lo(), node.mbr.hi());
                centers.extend(lo.iter().zip(hi).map(|(&l, &h)| 0.5 * (l + h)));
            }
            pairs.clear();
            pairs.extend((0..level.len() as u32).map(|i| (0.0, i)));
            tiles.clear();
            let coords = &centers[..];
            Tiler { coords, dims, cap }.tile(&mut pairs, 0, 0, &mut tiles);
            let base = level.start as u32;
            let start = tree.nodes.len();
            for tile in &tiles {
                let entries = &pairs[tile.clone()];
                let mut mbr = Rect::empty(dims);
                for &(_, i) in entries {
                    mbr.expand(&tree.nodes[(base + i) as usize].mbr);
                }
                tree.alloc(Node {
                    mbr,
                    level: height,
                    children: entries.iter().map(|&(_, i)| NodeId(base + i)).collect(),
                    points: Vec::new(),
                });
            }
            level = start..tree.nodes.len();
            height += 1;
        }

        tree.root = NodeId(level.start as u32);
        tree.num_points = store.len();
        tree
    }
}

/// Sort-tile-recursive partitioning of `(key, index)` pairs whose keys
/// live in `coords`, `dims` values per index: it reorders the pairs
/// into tiles of at most `cap` and appends each tile's range of the
/// buffer to `tiles`, in STR order.
struct Tiler<'a> {
    coords: &'a [f64],
    dims: usize,
    cap: usize,
}

impl Tiler<'_> {
    /// Tiles `slab`, which starts at `offset` of the whole buffer, from
    /// dimension `dim` on. The sort is the only one STR has, and it
    /// must stay `sort_unstable_by` over 16-byte pairs: tied keys land
    /// wherever that sort puts them, and the trees are pinned
    /// (`tests/str_tree_pins.rs`).
    fn tile(
        &self,
        slab: &mut [(f64, u32)],
        offset: usize,
        dim: usize,
        tiles: &mut Vec<Range<usize>>,
    ) {
        let cap = self.cap;
        if slab.len() <= cap {
            tiles.push(offset..offset + slab.len());
            return;
        }
        for pair in slab.iter_mut() {
            pair.0 = self.coords[pair.1 as usize * self.dims + dim];
        }
        slab.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        if dim + 1 == self.dims {
            for start in (0..slab.len()).step_by(cap) {
                tiles.push(offset + start..offset + (start + cap).min(slab.len()));
            }
            return;
        }
        let pages = slab.len().div_ceil(cap);
        let remaining = (self.dims - dim) as f64;
        let slabs = (pages as f64).powf(1.0 / remaining).ceil() as usize;
        let slab_size = slab.len().div_ceil(slabs.max(1)).max(cap);
        for (i, chunk) in slab.chunks_mut(slab_size).enumerate() {
            self.tile(chunk, offset + i * slab_size, dim + 1, tiles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_store(side: usize) -> PointStore {
        let mut s = PointStore::new(2);
        for i in 0..side {
            for j in 0..side {
                s.push(&[i as f64, j as f64]);
            }
        }
        s
    }

    #[test]
    fn single_point_tree() {
        let mut s = PointStore::new(2);
        s.push(&[0.5, 0.5]);
        let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(4));
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.iter_points(), vec![PointId(0)]);
    }

    #[test]
    fn all_points_present_exactly_once() {
        let s = grid_store(20); // 400 points
        let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        let mut pts = t.iter_points();
        pts.sort();
        let expected: Vec<PointId> = s.ids().collect();
        assert_eq!(pts, expected);
        assert!(t.height() >= 3, "400 points at fanout 8 need >= 3 levels");
    }

    #[test]
    fn mbrs_contain_children() {
        let s = grid_store(15);
        let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(10));
        t.validate(&s).expect("bulk-loaded tree must validate");
    }

    #[test]
    fn leaves_nearly_full() {
        let s = grid_store(16); // 256 points
        let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(16));
        // STR packs all but boundary leaves full; 256/16 = 16 exact.
        let stats = t.stats();
        assert_eq!(stats.num_points, 256);
        assert!(
            stats.avg_leaf_fill > 0.9,
            "fill was {}",
            stats.avg_leaf_fill
        );
    }

    #[test]
    fn empty_store_gives_empty_tree() {
        let s = PointStore::new(3);
        let t = RTree::bulk_load(&s, RTreeParams::default());
        assert!(t.is_empty());
        t.validate(&s).unwrap();
    }
}
