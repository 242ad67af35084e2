//! Geometric substrate for the `skyup` product-upgrading library.
//!
//! This crate provides the low-level building blocks shared by the R-tree,
//! the skyline algorithms, and the upgrading algorithms:
//!
//! * [`PointStore`] — a flat, columnar container for multidimensional
//!   points, addressed by compact [`PointId`]s. Algorithms never copy
//!   points around; they pass ids and borrow coordinate slices.
//! * [`Rect`] — axis-aligned hyperrectangles (R-tree MBRs).
//! * [`dominance`] — the Pareto dominance predicates that underlie
//!   skyline semantics (smaller-is-better on every dimension).
//! * [`adr`] — anti-dominant-region tests used to find the dominators of
//!   a product.
//! * [`dims`] — the disadvantaged / incomparable / advantaged dimension
//!   classification from the paper's Section III-B3, used to derive
//!   lower-bound upgrading costs.
//! * [`OrderedF64`] — a totally ordered `f64` wrapper for priority
//!   queues.
//!
//! Conventions: all dimensions are *smaller-is-better* (the paper's
//! simplifying assumption; larger-is-better attributes are negated by the
//! caller before entering the store), and coordinates are finite `f64`s.

pub mod adr;
pub mod dims;
pub mod dominance;
pub mod error;
pub mod ordered;
pub mod persist;
pub mod point;
pub mod rect;
pub mod store;

pub use adr::{point_in_adr, point_strictly_in_adr, rect_intersects_adr};
pub use dims::{classify_dims, DimClassification, DimMask};
pub use dominance::{
    collect_dominators_cols, compare, dominated_by_any_cols, dominates, dominates_or_equal,
    kernel_isa, ColScan, DomRelation, DOM_BLOCK,
};
pub use error::GeomError;
pub use ordered::OrderedF64;
pub use point::{coord_sum, lex_cmp, Point};
pub use rect::Rect;
pub use store::{ColumnarPoints, PointId, PointStore};
