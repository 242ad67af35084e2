//! Range queries and traversal helpers.

use crate::node::{EntryRef, NodeId};
use crate::tree::RTree;
use crate::{PointId, PointStore, Rect};
use skyup_obs::{Counter, ExecGuard, Interrupt, NullRecorder, Recorder};

impl RTree {
    /// Returns every indexed point inside `range` (borders included).
    ///
    /// This is the query the basic probing algorithm issues with
    /// `range = ADR(t)` to fetch all of `t`'s potential dominators.
    pub fn range_query(&self, store: &PointStore, range: &Rect) -> Vec<PointId> {
        let mut out = Vec::new();
        let unlimited = self.range_query_into_lim(
            store,
            range,
            &mut out,
            &mut NullRecorder,
            &mut ExecGuard::unlimited(),
        );
        debug_assert!(unlimited.is_ok(), "unlimited guard cannot interrupt");
        out
    }

    /// [`Self::range_query`] into a caller-provided buffer (cleared
    /// first), counting every node read (`RtreeNodeAccesses`) and every
    /// entry examined (`RtreeEntryAccesses`), under an execution guard:
    /// every node read is charged to `guard` *before* it happens, and the
    /// traversal stops with `Err` the moment the guard trips. `out`
    /// then holds the points collected so far — a valid subset of the
    /// full answer.
    pub fn range_query_into_lim<R: Recorder + ?Sized>(
        &self,
        store: &PointStore,
        range: &Rect,
        out: &mut Vec<PointId>,
        rec: &mut R,
        guard: &mut ExecGuard,
    ) -> Result<(), Interrupt> {
        out.clear();
        if self.is_empty() {
            return Ok(());
        }
        let mut stack: Vec<NodeId> = vec![self.root];
        while let Some(id) = stack.pop() {
            guard.visit_node()?;
            let node = self.node(id);
            rec.bump(Counter::RtreeNodeAccesses);
            if !node.mbr.intersects(range) {
                continue;
            }
            if node.is_leaf() {
                rec.incr(Counter::RtreeEntryAccesses, node.points.len() as u64);
                for &p in &node.points {
                    if range.contains_point(store.point(p)) {
                        out.push(p);
                    }
                }
            } else if range.contains_rect(&node.mbr) {
                // Fully covered: take the whole subtree without point tests.
                let before = out.len();
                self.collect_points(EntryRef::Node(id), out);
                rec.incr(Counter::RtreeEntryAccesses, (out.len() - before) as u64);
            } else {
                rec.incr(Counter::RtreeEntryAccesses, node.children.len() as u64);
                stack.extend_from_slice(&node.children);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeParams;

    fn grid(side: usize) -> (PointStore, RTree) {
        let mut s = PointStore::new(2);
        for i in 0..side {
            for j in 0..side {
                s.push(&[i as f64, j as f64]);
            }
        }
        let t = RTree::bulk_load(&s, RTreeParams::with_max_entries(8));
        (s, t)
    }

    #[test]
    fn range_query_matches_scan() {
        let (s, t) = grid(12);
        let range = Rect::new(&[2.5, 3.0], &[7.0, 9.5]);
        let mut got = t.range_query(&s, &range);
        got.sort();
        let mut expected: Vec<PointId> = s
            .iter()
            .filter(|(_, c)| range.contains_point(c))
            .map(|(id, _)| id)
            .collect();
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn covering_range_returns_everything() {
        let (s, t) = grid(9);
        let range = Rect::new(&[-1.0, -1.0], &[100.0, 100.0]);
        assert_eq!(t.range_query(&s, &range).len(), 81);
    }

    #[test]
    fn disjoint_range_returns_nothing() {
        let (s, t) = grid(5);
        let range = Rect::new(&[50.0, 50.0], &[60.0, 60.0]);
        assert!(t.range_query(&s, &range).is_empty());
    }

    #[test]
    fn empty_tree_queries() {
        let s = PointStore::new(2);
        let t = RTree::bulk_load(&s, RTreeParams::default());
        let range = Rect::new(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(t.range_query(&s, &range).is_empty());
    }

    #[test]
    fn guarded_range_query_stops_at_budget() {
        use skyup_obs::ExecutionLimits;

        let (s, t) = grid(12);
        // Partially covering, so the traversal has to descend instead of
        // taking the root subtree wholesale.
        let range = Rect::new(&[2.5, 3.0], &[7.0, 9.5]);

        // Unlimited guard: identical to the plain query.
        let mut out = Vec::new();
        t.range_query_into_lim(
            &s,
            &range,
            &mut out,
            &mut NullRecorder,
            &mut ExecGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(out.len(), t.range_query(&s, &range).len());

        // A one-node budget only reads the root before tripping; the
        // partial output is a subset of the full answer.
        let mut g = ExecutionLimits::none().with_max_node_visits(1).start();
        let mut partial = Vec::new();
        let err = t.range_query_into_lim(&s, &range, &mut partial, &mut NullRecorder, &mut g);
        assert_eq!(err, Err(Interrupt::NodeVisitBudget));
        assert!(partial.len() <= out.len());
        assert!(partial.iter().all(|p| out.contains(p)));
    }

    #[test]
    fn insertion_tree_queries_match_bulk() {
        let (s, bulk) = grid(10);
        let ins = RTree::from_insertion(&s, RTreeParams::with_max_entries(8));
        let range = Rect::new(&[1.5, 0.0], &[6.5, 4.0]);
        let mut a = bulk.range_query(&s, &range);
        let mut b = ins.range_query(&s, &range);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
