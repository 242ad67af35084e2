//! One-at-a-time insertion (Guttman's R-tree with quadratic split).

use crate::node::{Node, NodeId};
use crate::split::quadratic_split;
use crate::tree::{RTree, RTreeParams};
use crate::{PointId, PointStore, Rect};

impl RTree {
    /// Builds a tree by inserting every point of `store` one at a time.
    /// Slower and produces a worse-shaped tree than [`RTree::bulk_load`];
    /// provided for the ablation study.
    pub fn from_insertion(store: &PointStore, params: RTreeParams) -> Self {
        let mut tree = RTree::new(store.dims(), params);
        for id in store.ids() {
            tree.insert(store, id);
        }
        tree
    }

    /// Inserts point `pid` (whose coordinates live in `store`).
    ///
    /// # Panics
    /// Panics if `pid` is out of bounds for `store` or if the store's
    /// dimensionality differs from the tree's.
    pub fn insert(&mut self, store: &PointStore, pid: PointId) {
        assert_eq!(
            store.dims(),
            self.dims,
            "store dimensionality does not match tree"
        );
        let coords = store.point(pid); // bounds check
        let _ = coords;
        if let Some(sibling) = self.insert_rec(store, self.root, pid) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let level = self.node(old_root).level + 1;
            let mut root = Node::new_internal(self.dims, level);
            let mut mbr = self.node(old_root).mbr.clone();
            mbr.expand(&self.node(sibling).mbr);
            root.children.push(old_root);
            root.children.push(sibling);
            root.mbr = mbr;
            self.root = self.alloc(root);
        }
        self.num_points += 1;
    }

    /// Recursive insert; returns a newly created sibling node if `node`
    /// was split.
    fn insert_rec(&mut self, store: &PointStore, node: NodeId, pid: PointId) -> Option<NodeId> {
        let point_rect = Rect::point(store.point(pid));
        if self.node(node).mbr.is_empty_accumulator() {
            self.node_mut(node).mbr = point_rect.clone();
        } else {
            self.node_mut(node).mbr.expand(&point_rect);
        }

        if self.node(node).is_leaf() {
            self.node_mut(node).points.push(pid);
            if self.node(node).points.len() > self.params.max_entries {
                return Some(self.split_leaf(store, node));
            }
            return None;
        }

        let child = self.choose_subtree(node, &point_rect);
        if let Some(new_child) = self.insert_rec(store, child, pid) {
            self.node_mut(node).children.push(new_child);
            if self.node(node).children.len() > self.params.max_entries {
                return Some(self.split_internal(node));
            }
        }
        None
    }

    /// ChooseSubtree: least area enlargement, ties by smaller area.
    fn choose_subtree(&self, node: NodeId, rect: &Rect) -> NodeId {
        let children = &self.node(node).children;
        debug_assert!(!children.is_empty());
        let mut best = children[0];
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for &c in children {
            let mbr = &self.node(c).mbr;
            let enl = mbr.enlargement(rect);
            let area = mbr.area();
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = c;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    fn split_leaf(&mut self, store: &PointStore, node: NodeId) -> NodeId {
        let points = std::mem::take(&mut self.node_mut(node).points);
        let entries = points
            .into_iter()
            .map(|p| (Rect::point(store.point(p)), p.0))
            .collect();
        let (group_a, group_b) = quadratic_split(entries, self.params.min_entries);

        let mut sibling = Node::new_leaf(self.dims);
        fill_leaf(self.node_mut(node), &group_a);
        fill_leaf(&mut sibling, &group_b);
        self.alloc(sibling)
    }

    fn split_internal(&mut self, node: NodeId) -> NodeId {
        let children = std::mem::take(&mut self.node_mut(node).children);
        let entries = children
            .into_iter()
            .map(|c| (self.node(c).mbr.clone(), c.0))
            .collect();
        let (group_a, group_b) = quadratic_split(entries, self.params.min_entries);

        let level = self.node(node).level;
        let mut sibling = Node::new_internal(self.dims, level);
        fill_internal(self.node_mut(node), &group_a);
        fill_internal(&mut sibling, &group_b);
        self.alloc(sibling)
    }
}

fn fill_leaf(node: &mut Node, group: &[(Rect, u32)]) {
    node.points.clear();
    let mut mbr = Rect::empty(node.mbr.dims());
    for (r, raw) in group {
        mbr.expand(r);
        node.points.push(PointId(*raw));
    }
    node.mbr = mbr;
}

fn fill_internal(node: &mut Node, group: &[(Rect, u32)]) {
    node.children.clear();
    let mut mbr = Rect::empty(node.mbr.dims());
    for (r, raw) in group {
        mbr.expand(r);
        node.children.push(NodeId(*raw));
    }
    node.mbr = mbr;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_store(n: usize, dims: usize, seed: u64) -> PointStore {
        // Simple deterministic LCG so this test has no dev-dependency needs.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut s = PointStore::new(dims);
        for _ in 0..n {
            let coords: Vec<f64> = (0..dims).map(|_| next()).collect();
            s.push(&coords);
        }
        s
    }

    #[test]
    fn insertion_tree_validates() {
        let s = random_store(500, 3, 42);
        let t = RTree::from_insertion(&s, RTreeParams::with_max_entries(8));
        t.validate(&s).expect("insertion-built tree must validate");
        assert_eq!(t.len(), 500);
        let mut pts = t.iter_points();
        pts.sort();
        assert_eq!(pts, s.ids().collect::<Vec<_>>());
    }

    #[test]
    fn insert_into_bulk_loaded_tree() {
        let mut s = random_store(200, 2, 7);
        let mut t = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        for _ in 0..100 {
            let id = s.push(&[2.0, 3.0]);
            t.insert(&s, id);
        }
        assert_eq!(t.len(), 300);
        t.validate(&s).unwrap();
    }

    #[test]
    fn root_split_grows_height() {
        let s = random_store(100, 2, 99);
        let mut t = RTree::new(2, RTreeParams::with_max_entries(4));
        let mut heights = Vec::new();
        for id in s.ids() {
            t.insert(&s, id);
            heights.push(t.height());
        }
        assert!(t.height() >= 3);
        assert!(
            heights.windows(2).all(|w| w[1] >= w[0]),
            "height never shrinks"
        );
        t.validate(&s).unwrap();
    }

    #[test]
    fn duplicate_points_allowed() {
        let mut s = PointStore::new(2);
        let mut t = RTree::new(2, RTreeParams::with_max_entries(4));
        for _ in 0..20 {
            let id = s.push(&[1.0, 1.0]);
            t.insert(&s, id);
        }
        assert_eq!(t.len(), 20);
        t.validate(&s).unwrap();
    }
}
