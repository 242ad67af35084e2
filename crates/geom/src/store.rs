//! Flat columnar storage for multidimensional points.
//!
//! A [`PointStore`] keeps all coordinates in one contiguous `Vec<f64>`,
//! `dims` values per point. Points are addressed by [`PointId`], a compact
//! `u32` index. This layout avoids one heap allocation per point and keeps
//! scans cache-friendly, which matters at the paper's cardinalities
//! (millions of competitor products).

use std::fmt;

use crate::dominance::{block_masks, scan_geometry, ColScan, DOM_BLOCK};
use crate::error::GeomError;

/// Identifier of a point within one [`PointStore`].
///
/// Ids are dense: the `i`-th pushed point has id `i`. An id is only
/// meaningful together with the store that produced it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointId(pub u32);

impl PointId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A contiguous store of `len` points, each with `dims` finite `f64`
/// coordinates.
///
/// ```
/// use skyup_geom::PointStore;
/// let mut store = PointStore::new(2);
/// let a = store.push(&[1.0, 2.0]);
/// let b = store.push(&[3.0, 0.5]);
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.point(a), &[1.0, 2.0]);
/// assert_eq!(store.point(b), &[3.0, 0.5]);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointStore {
    dims: usize,
    coords: Vec<f64>,
}

impl PointStore {
    /// Creates an empty store for `dims`-dimensional points.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "a product space needs at least one dimension");
        Self {
            dims,
            coords: Vec::new(),
        }
    }

    /// Creates an empty store with room for `capacity` points.
    pub fn with_capacity(dims: usize, capacity: usize) -> Self {
        assert!(dims > 0, "a product space needs at least one dimension");
        Self {
            dims,
            coords: Vec::with_capacity(dims * capacity),
        }
    }

    /// Builds a store from an iterator of coordinate rows.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dims`, or if any
    /// coordinate is not finite.
    pub fn from_rows<I, R>(dims: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f64]>,
    {
        let mut store = Self::new(dims);
        for row in rows {
            store.push(row.as_ref());
        }
        store
    }

    /// Appends a point and returns its id.
    ///
    /// # Panics
    /// Panics if `coords.len() != self.dims()`, if a coordinate is not
    /// finite, or if the store already holds `u32::MAX` points. Boundary
    /// code ingesting untrusted rows should use
    /// [`PointStore::try_push`] instead.
    pub fn push(&mut self, coords: &[f64]) -> PointId {
        match self.try_push(coords) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Appends a point, rejecting malformed rows with an error instead
    /// of panicking: wrong dimensionality, non-finite coordinates (NaN
    /// or ±inf), or a store already at `u32::MAX` points.
    pub fn try_push(&mut self, coords: &[f64]) -> Result<PointId, GeomError> {
        if coords.len() != self.dims {
            return Err(GeomError::DimensionMismatch {
                expected: self.dims,
                got: coords.len(),
            });
        }
        if let Some((dim, &value)) = coords.iter().enumerate().find(|(_, c)| !c.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate { dim, value });
        }
        let id = u32::try_from(self.len()).map_err(|_| GeomError::CapacityExceeded)?;
        self.coords.extend_from_slice(coords);
        Ok(PointId(id))
    }

    /// The dimensionality of every point in the store.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of points currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// Whether the store holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Borrows the coordinates of point `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn point(&self, id: PointId) -> &[f64] {
        let start = id.index() * self.dims;
        &self.coords[start..start + self.dims]
    }

    /// Returns the coordinates of point `id`, or `None` if out of bounds.
    pub fn get(&self, id: PointId) -> Option<&[f64]> {
        if id.index() < self.len() {
            Some(self.point(id))
        } else {
            None
        }
    }

    /// Iterates over `(id, coordinates)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        self.coords
            .chunks_exact(self.dims)
            .enumerate()
            .map(|(i, c)| (PointId(i as u32), c))
    }

    /// Iterates over all ids in the store.
    pub fn ids(&self) -> impl Iterator<Item = PointId> {
        (0..self.len() as u32).map(PointId)
    }

    /// The raw coordinate buffer (row-major, `dims` values per point).
    pub fn raw(&self) -> &[f64] {
        &self.coords
    }

    /// Keeps only the points `keep` accepts, in place and in their
    /// relative order; `keep` sees every id once, ascending. Survivors
    /// are renumbered densely from 0, so a caller holding ids remaps
    /// them by rank among the kept points. The allocation is kept.
    ///
    /// ```
    /// use skyup_geom::{PointId, PointStore};
    /// let mut store = PointStore::from_rows(1, [[1.0], [2.0], [3.0]]);
    /// store.retain(|id| id != PointId(1));
    /// assert_eq!(store.raw(), &[1.0, 3.0]);
    /// ```
    pub fn retain(&mut self, mut keep: impl FnMut(PointId) -> bool) {
        let dims = self.dims;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(PointId(i as u32)) {
                if kept != i {
                    self.coords
                        .copy_within(i * dims..(i + 1) * dims, kept * dims);
                }
                kept += 1;
            }
        }
        self.coords.truncate(kept * dims);
    }
}

/// A dims-major (columnar) mirror of a small, mutable point set — the
/// memory layout the blockwise dominance kernel
/// ([`crate::dominance::dominated_by_any_cols`]) scans.
///
/// Dimension `d`'s coordinates live contiguously at
/// `buf[d * cap .. d * cap + len]`; growing reallocates and re-lays-out
/// the buffer (amortized, like `Vec`). Skyline windows use this as a
/// reusable scratch: [`ColumnarPoints::clear`] keeps the allocation, so
/// a warm buffer makes repeated window maintenance allocation-free.
///
/// # Zone maps
///
/// Alongside the coordinates, the buffer maintains a *zone map* per
/// [`DOM_BLOCK`]-point block: the componentwise min/max corners of the
/// block's points (its minimum bounding rectangle), updated
/// incrementally on [`push`](Self::push) and
/// [`gather`](Self::gather), widened conservatively on
/// [`swap_remove`](Self::swap_remove), and reset on
/// [`clear`](Self::clear). The dominance scans use the min corner for
/// BBS-style block skipping: a point `s` can dominate `t` only if
/// `s[d] <= t[d]` on every dimension, so a block whose min corner
/// exceeds `t` somewhere — equivalently, whose MBR misses `ADR(t)` —
/// provably holds no dominator and is skipped without touching a
/// single lane ([`ColScan::skipped`](crate::dominance::ColScan) counts
/// these). Skipping never changes a verdict or a dominator list, only
/// how many blocks are scanned to produce them.
#[derive(Clone, Debug)]
pub struct ColumnarPoints {
    dims: usize,
    len: usize,
    cap: usize,
    buf: Vec<f64>,
    /// Per-block componentwise minimum corner, block-major:
    /// `zone_lo[b * dims .. (b + 1) * dims]` bounds block `b` from
    /// below. Conservative after `swap_remove` (never above the true
    /// minimum), exact after pure `push`/`gather` fills.
    zone_lo: Vec<f64>,
    /// Per-block componentwise maximum corner, same layout; kept
    /// symmetric with `zone_lo` so the summaries describe the full MBR
    /// (introspection, tests, future upper-bound pruning).
    zone_hi: Vec<f64>,
}

impl ColumnarPoints {
    /// Creates an empty columnar buffer for `dims`-dimensional points.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "a product space needs at least one dimension");
        Self {
            dims,
            len: 0,
            cap: 0,
            buf: Vec::new(),
            zone_lo: Vec::new(),
            zone_hi: Vec::new(),
        }
    }

    /// Number of points held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dimensionality of every point.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Drops all points, keeping the allocation for reuse. The zone
    /// maps are fully reset too: a recycled scratch buffer must never
    /// serve block summaries derived from evicted contents.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.zone_lo.clear();
        self.zone_hi.clear();
    }

    /// Appends one point.
    ///
    /// # Panics
    /// Panics (in debug builds) if `coords.len() != self.dims()`.
    pub fn push(&mut self, coords: &[f64]) {
        debug_assert_eq!(coords.len(), self.dims);
        if self.len == self.cap {
            self.grow();
        }
        for (d, &x) in coords.iter().enumerate() {
            self.buf[d * self.cap + self.len] = x;
        }
        self.zone_note(coords);
        self.len += 1;
    }

    /// Folds `coords` into the zone map of the block that will hold the
    /// point at position `self.len` (call before incrementing `len`).
    #[inline]
    fn zone_note(&mut self, coords: &[f64]) {
        if self.len % DOM_BLOCK == 0 {
            // First point of a fresh block: its coordinates are the MBR.
            self.zone_lo.extend_from_slice(coords);
            self.zone_hi.extend_from_slice(coords);
        } else {
            let at = (self.len / DOM_BLOCK) * self.dims;
            for (d, &x) in coords.iter().enumerate() {
                let lo = &mut self.zone_lo[at + d];
                *lo = lo.min(x);
                let hi = &mut self.zone_hi[at + d];
                *hi = hi.max(x);
            }
        }
    }

    /// Removes the point at `i` by swapping the last point into its
    /// slot — mirroring `Vec::swap_remove`, so an id vector maintained
    /// alongside stays aligned when it applies the same operation.
    ///
    /// The destination block's zone map is *widened* with the moved
    /// point (bounds stay conservative, they just stop being tight);
    /// a block emptied by the removal drops its summary entirely.
    pub fn swap_remove(&mut self, i: usize) {
        assert!(i < self.len, "swap_remove index out of bounds");
        let last = self.len - 1;
        let at = (i / DOM_BLOCK) * self.dims;
        for d in 0..self.dims {
            let x = self.buf[d * self.cap + last];
            self.buf[d * self.cap + i] = x;
            let lo = &mut self.zone_lo[at + d];
            *lo = lo.min(x);
            let hi = &mut self.zone_hi[at + d];
            *hi = hi.max(x);
        }
        self.len = last;
        self.zone_lo
            .truncate(self.len.div_ceil(DOM_BLOCK) * self.dims);
        self.zone_hi
            .truncate(self.len.div_ceil(DOM_BLOCK) * self.dims);
    }

    /// Gathers the given points of `store` into this buffer, replacing
    /// its contents (the allocation is reused when large enough). Zone
    /// maps are rebuilt exactly for the gathered set.
    pub fn gather(&mut self, store: &PointStore, ids: &[PointId]) {
        debug_assert_eq!(store.dims(), self.dims);
        self.clear();
        if self.cap < ids.len() {
            self.reserve_exact_cap(ids.len().next_power_of_two().max(64));
        }
        for &id in ids {
            let p = store.point(id);
            for (d, &x) in p.iter().enumerate() {
                self.buf[d * self.cap + self.len] = x;
            }
            self.zone_note(p);
            self.len += 1;
        }
    }

    /// Number of [`DOM_BLOCK`]-point blocks currently summarized.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.len.div_ceil(DOM_BLOCK)
    }

    /// The zone map of block `block`: its conservative `(min, max)`
    /// corners, each a `dims`-length slice, or `None` past the last
    /// block. After pure `push`/`gather` fills the bounds are exact;
    /// `swap_remove` may leave them wider than the surviving points.
    pub fn block_bounds(&self, block: usize) -> Option<(&[f64], &[f64])> {
        if block >= self.blocks() {
            return None;
        }
        let at = block * self.dims;
        Some((
            &self.zone_lo[at..at + self.dims],
            &self.zone_hi[at..at + self.dims],
        ))
    }

    /// Whether block `block`'s MBR intersects `ADR(target)` — i.e. its
    /// min corner is `<=` the target on every dimension. Only such a
    /// block can contain a dominator of `target`; the scans skip every
    /// block where this is false.
    #[inline]
    fn zone_admits(&self, block: usize, target: &[f64]) -> bool {
        let at = block * self.dims;
        self.zone_lo[at..at + self.dims]
            .iter()
            .zip(target)
            .all(|(&l, &y)| l <= y)
    }

    /// Whether any held point dominates `target`, via the blockwise
    /// columnar kernel with zone-map block skipping. Returns the
    /// verdict plus scan-work counts. The verdict is bit-identical to
    /// the raw kernel ([`crate::dominance::dominated_by_any_cols`]) and
    /// to the scalar `any(dominates)` loop: a skipped block provably
    /// contains no dominator.
    pub fn dominated_by_any(&self, target: &[f64]) -> ColScan {
        debug_assert_eq!(target.len(), self.dims);
        let (blocks, tail_mask) = scan_geometry(self.len);
        let mut scan = ColScan::default();
        for b in 0..blocks {
            if !self.zone_admits(b, target) {
                scan.skipped += 1;
                continue;
            }
            let base = b * DOM_BLOCK;
            let (width, lanes) = if b + 1 == blocks {
                (self.len - base, tail_mask)
            } else {
                (DOM_BLOCK, u64::MAX)
            };
            scan.blocks += 1;
            scan.points += width as u64;
            let (le, lt) = block_masks(&self.buf, self.cap, base, width, lanes, target);
            if le & lt != 0 {
                scan.dominated = true;
                return scan;
            }
        }
        scan
    }

    /// Appends the position (0-based stored index) of every held point
    /// that dominates `target` to `out`, in stored order, via the
    /// blockwise columnar kernel with zone-map block skipping. Returns
    /// the scan-work counts. Every block is either scanned or skipped
    /// (`scan.blocks + scan.skipped == self.blocks()`), and the
    /// collected list is identical to the raw kernel's: a skipped block
    /// contributes no positions because it can contain none.
    pub fn collect_dominators(&self, target: &[f64], out: &mut Vec<u32>) -> ColScan {
        debug_assert_eq!(target.len(), self.dims);
        let (blocks, tail_mask) = scan_geometry(self.len);
        let mut scan = ColScan::default();
        for b in 0..blocks {
            if !self.zone_admits(b, target) {
                scan.skipped += 1;
                continue;
            }
            let base = b * DOM_BLOCK;
            let (width, lanes) = if b + 1 == blocks {
                (self.len - base, tail_mask)
            } else {
                (DOM_BLOCK, u64::MAX)
            };
            scan.blocks += 1;
            scan.points += width as u64;
            let (le, lt) = block_masks(&self.buf, self.cap, base, width, lanes, target);
            let mut dom = le & lt;
            if dom != 0 {
                scan.dominated = true;
                while dom != 0 {
                    let j = dom.trailing_zeros();
                    out.push((base + j as usize) as u32);
                    dom &= dom - 1;
                }
            }
        }
        scan
    }

    fn grow(&mut self) {
        let new_cap = (self.cap * 2).max(64);
        self.reserve_exact_cap(new_cap);
    }

    fn reserve_exact_cap(&mut self, new_cap: usize) {
        debug_assert!(new_cap >= self.len);
        let mut new_buf = vec![0.0; self.dims * new_cap];
        for d in 0..self.dims {
            let src = &self.buf[d * self.cap..d * self.cap + self.len];
            new_buf[d * new_cap..d * new_cap + self.len].copy_from_slice(src);
        }
        self.buf = new_buf;
        self.cap = new_cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut s = PointStore::new(3);
        let a = s.push(&[1.0, 2.0, 3.0]);
        let b = s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a, PointId(0));
        assert_eq!(b, PointId(1));
        assert_eq!(s.point(a), &[1.0, 2.0, 3.0]);
        assert_eq!(s.point(b), &[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]];
        let s = PointStore::from_rows(2, &rows);
        assert_eq!(s.len(), 3);
        for (i, (id, coords)) in s.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(coords, rows[i].as_slice());
        }
    }

    #[test]
    fn get_out_of_bounds_is_none() {
        let mut s = PointStore::new(2);
        s.push(&[0.0, 0.0]);
        assert!(s.get(PointId(0)).is_some());
        assert!(s.get(PointId(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn push_wrong_dims_panics() {
        let mut s = PointStore::new(2);
        s.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn push_nan_panics() {
        let mut s = PointStore::new(1);
        s.push(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dims_panics() {
        let _ = PointStore::new(0);
    }

    #[test]
    fn try_push_reports_malformed_rows() {
        let mut s = PointStore::new(2);
        assert_eq!(
            s.try_push(&[1.0]),
            Err(GeomError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(matches!(
            s.try_push(&[1.0, f64::NAN]),
            Err(GeomError::NonFiniteCoordinate { dim: 1, value }) if value.is_nan()
        ));
        assert!(matches!(
            s.try_push(&[f64::NEG_INFINITY, 0.0]),
            Err(GeomError::NonFiniteCoordinate { dim: 0, .. })
        ));
        // Rejected rows leave the store untouched.
        assert!(s.is_empty());
        assert_eq!(s.try_push(&[1.0, 2.0]), Ok(PointId(0)));
        assert_eq!(s.point(PointId(0)), &[1.0, 2.0]);
    }

    #[test]
    fn ids_cover_all_points() {
        let s = PointStore::from_rows(1, vec![[1.0], [2.0], [3.0]]);
        let ids: Vec<_> = s.ids().collect();
        assert_eq!(ids, vec![PointId(0), PointId(1), PointId(2)]);
    }

    #[test]
    fn columnar_push_and_swap_remove_mirror_a_vec() {
        use crate::dominance::dominates;
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 7) as f64, (i % 11) as f64, (i % 5) as f64])
            .collect();
        let mut cols = ColumnarPoints::new(3);
        let mut mirror: Vec<Vec<f64>> = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            cols.push(r);
            mirror.push(r.clone());
            if i % 3 == 2 {
                let victim = i % mirror.len();
                cols.swap_remove(victim);
                mirror.swap_remove(victim);
            }
            assert_eq!(cols.len(), mirror.len());
            let t = [3.0, 5.0, 2.0];
            let scalar = mirror.iter().any(|p| dominates(p, &t));
            assert_eq!(cols.dominated_by_any(&t).dominated, scalar, "step {i}");
        }
    }

    /// The zone-mapped scans against the scalar oracle and against a
    /// blockwise scan through every compiled copy of the lane loop:
    /// grid points with duplicates and signed zeros, sizes on both sides
    /// of block boundaries (the stride, the buffer's capacity, mostly
    /// exceeds the length), swap-removes that widen zone maps, and
    /// targets equal to stored points.
    #[test]
    fn zoned_scans_match_every_kernel_copy() {
        use crate::dominance::dominates;
        use crate::dominance::tests::{grid_coord, positions_per_copy, uniforms};
        let mut next = uniforms(0x20e5);
        for dims in 1..=4usize {
            for n in [1usize, 3, 5, 63, 64, 65, 127, 130, 257] {
                let mut cols = ColumnarPoints::new(dims);
                let mut mirror: Vec<Vec<f64>> = Vec::new();
                for _ in 0..n {
                    let p: Vec<f64> = (0..dims).map(|_| grid_coord(next())).collect();
                    cols.push(&p);
                    mirror.push(p);
                }
                for _ in 0..n / 8 {
                    let victim = (next() * mirror.len() as f64) as usize;
                    cols.swap_remove(victim);
                    mirror.swap_remove(victim);
                }
                for round in 0..16 {
                    let target: Vec<f64> = if round % 2 == 0 {
                        mirror[(next() * mirror.len() as f64) as usize].clone()
                    } else {
                        (0..dims).map(|_| grid_coord(next())).collect()
                    };
                    let scalar: Vec<u32> = mirror
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| dominates(p, &target))
                        .map(|(i, _)| i as u32)
                        .collect();
                    let mut got = Vec::new();
                    let scan = cols.collect_dominators(&target, &mut got);
                    assert_eq!(got, scalar, "dims={dims} n={n} t={target:?}");
                    assert_eq!(scan.blocks + scan.skipped, cols.blocks() as u64);
                    let verdict = cols.dominated_by_any(&target).dominated;
                    assert_eq!(
                        verdict,
                        !scalar.is_empty(),
                        "dims={dims} n={n} t={target:?}"
                    );
                    let per_copy = positions_per_copy(&cols.buf, cols.cap, cols.len, &target);
                    assert_eq!(per_copy, scalar, "dims={dims} n={n} t={target:?}");
                }
            }
        }
    }

    #[test]
    fn columnar_gather_matches_store_points() {
        let s = PointStore::from_rows(2, vec![[0.1, 0.9], [0.3, 0.3], [0.9, 0.1]]);
        let mut cols = ColumnarPoints::new(2);
        cols.gather(&s, &[PointId(0), PointId(2)]);
        assert_eq!(cols.len(), 2);
        // (0.3, 0.3) is dominated by neither gathered point.
        assert!(!cols.dominated_by_any(&[0.3, 0.3]).dominated);
        assert!(cols.dominated_by_any(&[0.2, 0.95]).dominated);
        // Re-gather reuses the buffer and replaces the contents.
        cols.gather(&s, &[PointId(1)]);
        assert_eq!(cols.len(), 1);
        assert!(cols.dominated_by_any(&[0.4, 0.4]).dominated);
        cols.clear();
        assert!(cols.is_empty());
        assert!(!cols.dominated_by_any(&[9.0, 9.0]).dominated);
    }

    #[test]
    fn columnar_clear_resets_zone_maps() {
        use crate::dominance::dominates;
        // Fill with points clustered high (zone mins ~9), spanning two
        // blocks, then clear and refill with low points. Stale zone
        // maps from the first generation would either misalign the
        // per-block summaries (extend-after-clear) or skip blocks that
        // now hold dominators.
        let mut cols = ColumnarPoints::new(2);
        for i in 0..100 {
            cols.push(&[9.0 + (i % 7) as f64 * 0.1, 9.5 - (i % 5) as f64 * 0.1]);
        }
        assert_eq!(cols.blocks(), 2);
        cols.clear();
        assert_eq!(cols.blocks(), 0);
        assert!(cols.block_bounds(0).is_none());

        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 * 0.1, (i % 4) as f64 * 0.25])
            .collect();
        for r in &rows {
            cols.push(r);
        }
        // Fresh bounds must describe the new generation exactly.
        let (lo, hi) = cols.block_bounds(0).unwrap();
        assert!(lo.iter().all(|&l| l <= 0.9) && hi.iter().all(|&h| h <= 1.0));
        for t in [[0.05, 0.05], [0.5, 0.5], [2.0, 2.0], [9.2, 9.2]] {
            let scalar = rows.iter().any(|p| dominates(p, &t));
            let scan = cols.dominated_by_any(&t);
            assert_eq!(scan.dominated, scalar, "target {t:?} after clear+refill");
            let mut out = Vec::new();
            let collect = cols.collect_dominators(&t, &mut out);
            assert_eq!(
                collect.blocks + collect.skipped,
                cols.blocks() as u64,
                "conservation after reuse"
            );
        }
    }

    #[test]
    fn columnar_growth_preserves_points() {
        // Cross the initial 64-capacity boundary and verify the
        // re-layout kept every point intact.
        let mut cols = ColumnarPoints::new(2);
        for i in 0..200 {
            cols.push(&[i as f64, (200 - i) as f64]);
        }
        assert_eq!(cols.len(), 200);
        // Only (0, 200) fails to be dominated by (0,200)-dominators;
        // probe a target each stored point relates to differently.
        assert!(cols.dominated_by_any(&[5.5, 200.5]).dominated);
        assert!(!cols.dominated_by_any(&[0.0, 0.0]).dominated);
    }
}
