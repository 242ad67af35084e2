//! The R-tree container: arena storage, parameters, and accessors.

use crate::node::{EntryRef, Node, NodeId};
use crate::{PointId, PointStore};

/// Fanout parameters for an [`RTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum number of entries per node (`M`).
    pub max_entries: usize,
    /// Minimum number of entries per non-root node (`m`), enforced by
    /// splitting; bulk loading packs nodes full so it trivially holds.
    pub min_entries: usize,
}

impl RTreeParams {
    /// Creates parameters after validating `2 <= m <= M/2`.
    ///
    /// # Panics
    /// Panics if the invariant is violated.
    pub fn new(max_entries: usize, min_entries: usize) -> Self {
        assert!(
            min_entries >= 2 && min_entries <= max_entries / 2,
            "RTreeParams require 2 <= m <= M/2, got m={min_entries}, M={max_entries}"
        );
        Self {
            max_entries,
            min_entries,
        }
    }

    /// Parameters with maximum fanout `max_entries` and the customary 40%
    /// minimum fill.
    pub fn with_max_entries(max_entries: usize) -> Self {
        Self::new(max_entries, (max_entries * 2 / 5).max(2))
    }
}

impl Default for RTreeParams {
    /// `M = 64`, `m = 25` — roughly a 4 KiB page of 5-dimensional
    /// entries, the regime the paper's experiments assume.
    fn default() -> Self {
        Self::with_max_entries(64)
    }
}

/// An R-tree over the points of one [`PointStore`].
///
/// The tree holds [`PointId`]s only; coordinate lookups go through the
/// store reference passed to each operation. See the crate docs for why
/// the node structure is public.
#[derive(Clone, Debug)]
pub struct RTree {
    pub(crate) dims: usize,
    pub(crate) params: RTreeParams,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) num_points: usize,
}

impl RTree {
    /// Creates an empty tree (a single empty leaf root) for
    /// `dims`-dimensional points.
    pub fn new(dims: usize, params: RTreeParams) -> Self {
        assert!(dims > 0, "R-tree needs at least one dimension");
        RTree {
            dims,
            params,
            nodes: vec![Node::new_leaf(dims)],
            root: NodeId(0),
            num_points: 0,
        }
    }

    /// Dimensionality of the indexed points.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The tree's fanout parameters.
    #[inline]
    pub fn params(&self) -> RTreeParams {
        self.params
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.num_points
    }

    /// Whether the tree indexes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_points == 0
    }

    /// The root node id.
    #[inline]
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> &Node {
        self.node(self.root)
    }

    /// Height of the tree: 1 for a single leaf, etc.
    pub fn height(&self) -> u32 {
        self.root().level + 1
    }

    /// Borrows node `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a node of this tree.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node arena overflow"));
        self.nodes.push(node);
        id
    }

    /// Minimum corner of an entry: the node MBR's `lo`, or the point's
    /// coordinates for a point entry.
    pub fn entry_lo<'a>(&'a self, store: &'a PointStore, e: EntryRef) -> &'a [f64] {
        match e {
            EntryRef::Node(n) => self.node(n).mbr.lo(),
            EntryRef::Point(p) => store.point(p),
        }
    }

    /// Maximum corner of an entry (equals [`Self::entry_lo`] for points).
    pub fn entry_hi<'a>(&'a self, store: &'a PointStore, e: EntryRef) -> &'a [f64] {
        match e {
            EntryRef::Node(n) => self.node(n).mbr.hi(),
            EntryRef::Point(p) => store.point(p),
        }
    }

    /// Collects every point id reachable below `entry` into `out`,
    /// preserving encounter order. Used by the join algorithm when it
    /// resolves a leaf product against the subtrees left in its join
    /// list.
    pub fn collect_points(&self, entry: EntryRef, out: &mut Vec<PointId>) {
        match entry {
            EntryRef::Point(p) => out.push(p),
            EntryRef::Node(n) => {
                let node = self.node(n);
                if node.is_leaf() {
                    out.extend_from_slice(&node.points);
                } else {
                    for &c in &node.children {
                        self.collect_points(EntryRef::Node(c), out);
                    }
                }
            }
        }
    }

    /// Iterates over all point ids in the tree (depth-first order).
    pub fn iter_points(&self) -> Vec<PointId> {
        let mut out = Vec::with_capacity(self.num_points);
        if !self.root().is_empty() {
            self.collect_points(EntryRef::Node(self.root), &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        let p = RTreeParams::default();
        assert_eq!(p.max_entries, 64);
        assert_eq!(p.min_entries, 25);
        let q = RTreeParams::with_max_entries(8);
        assert_eq!(q.min_entries, 3);
    }

    #[test]
    #[should_panic(expected = "RTreeParams")]
    fn bad_params_panic() {
        let _ = RTreeParams::new(4, 3);
    }

    #[test]
    fn empty_tree_shape() {
        let t = RTree::new(3, RTreeParams::default());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.root().is_leaf());
        assert_eq!(t.iter_points(), vec![]);
    }

    #[test]
    fn entry_accessors() {
        let mut store = PointStore::new(2);
        let p = store.push(&[1.0, 2.0]);
        let t = RTree::bulk_load(&store, RTreeParams::default());
        assert_eq!(t.entry_lo(&store, EntryRef::Point(p)), &[1.0, 2.0]);
        assert_eq!(t.entry_hi(&store, EntryRef::Point(p)), &[1.0, 2.0]);
    }
}
