//! A from-scratch R-tree over [`skyup_geom::PointStore`] data.
//!
//! The product-upgrading algorithms of the paper (Lu & Jensen, ICDE 2012)
//! need more from their index than point queries: the improved probing
//! algorithm runs a best-first (BBS-style) traversal over internal nodes,
//! and the join algorithm walks *two* trees simultaneously, inspecting
//! node MBRs, expanding chosen entries, and maintaining join lists of
//! entries from either level. This crate therefore exposes the tree
//! structure itself — nodes, levels, MBRs, and entry references — rather
//! than hiding it behind query methods.
//!
//! Construction:
//! * [`RTree::bulk_load`] — Sort-Tile-Recursive (STR) packing, the
//!   default for the experiments (both `P` and `T` are loaded up front);
//! * [`RTree::insert`] — classic Guttman insertion with quadratic node
//!   splitting, for the ablation study comparing packed vs.
//!   incrementally built trees.
//!
//! The tree stores [`PointId`]s and borrows coordinates from the
//! [`PointStore`] passed to each operation; the caller must always pass
//! the store the tree was built over (checked via dimensionality and
//! bounds assertions).

pub mod bulk;
pub mod insert;
pub mod node;
pub mod persist;
pub mod query;
pub mod split;
pub mod stats;
pub mod tree;
pub mod validate;

pub use node::{EntryRef, Node, NodeId};
pub use stats::TreeStats;
pub use tree::{RTree, RTreeParams};
pub use validate::ValidationError;

pub(crate) use skyup_geom::{PointId, PointStore, Rect};
