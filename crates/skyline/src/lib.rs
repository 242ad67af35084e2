//! Skyline computation algorithms.
//!
//! The skyline of a point set is the subset not dominated by any other
//! point (Börzsönyi et al., ICDE 2001). The product-upgrading algorithms
//! need skylines in two places:
//!
//! * the probing algorithms compute the skyline of a product's dominators
//!   (all of `P` inside the anti-dominant region `ADR(t)`);
//! * the join algorithm computes the skyline of the points below the
//!   entries remaining in a leaf product's join list.
//!
//! Implementations, from simplest to most index-aware:
//!
//! * [`skyline_naive`] — `O(n²)` pairwise reference, the test oracle;
//! * [`skyline_bnl`] — Block-Nested-Loops with a dominance window;
//! * [`skyline_sfs`] — Sort-Filter-Skyline: presort by coordinate sum so
//!   the window only ever holds skyline points;
//! * [`skyline_bbs`] — Branch-and-Bound Skyline over an
//!   [`skyup_rtree::RTree`] (Papadias et al., SIGMOD 2003), plus the
//!   constrained variant [`dominating_skyline`] that implements the
//!   paper's Algorithm 3 (`getDominatingSky`).
//!
//! Duplicate coordinates never dominate each other, so all algorithms
//! retain every copy of a skyline-coordinate point; the test suite checks
//! the algorithms agree exactly (as id sets).

pub mod bbs;
pub mod bnl;
pub mod constrained;
pub mod dnc;
pub mod naive;
pub mod sfs;
pub mod skyband;

pub use bbs::{skyline_bbs, skyline_bbs_rec};
pub use bnl::{skyline_bnl, skyline_bnl_rec};
pub use constrained::{
    dominating_skyline, dominating_skyline_from, dominating_skyline_from_into,
    dominating_skyline_from_lim, dominating_skyline_from_rec, dominating_skyline_lim,
    dominating_skyline_rec, SkylineScratch,
};
pub use dnc::skyline_dnc;
pub use naive::skyline_naive;
pub use sfs::{skyline_sfs, skyline_sfs_rec};
pub use skyband::{dominator_count, skyband};

pub(crate) use skyup_geom::{PointId, PointStore};
