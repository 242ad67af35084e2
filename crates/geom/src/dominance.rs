//! Pareto dominance predicates.
//!
//! All dimensions are smaller-is-better: point `a` *dominates* `b`
//! (written `a ≺ b`) when `a` is no larger than `b` on every dimension and
//! strictly smaller on at least one (paper Definition 3).

/// The four possible dominance relationships between two points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DomRelation {
    /// The first point dominates the second (`a ≺ b`).
    Dominates,
    /// The first point is dominated by the second (`b ≺ a`).
    DominatedBy,
    /// The points have identical coordinates.
    Equal,
    /// Neither point dominates the other.
    Incomparable,
}

/// Returns `true` when `a ≺ b`: `a[i] <= b[i]` for all `i` and
/// `a[i] < b[i]` for at least one `i`.
///
/// # Panics
/// Panics (in debug builds) if the slices have different lengths.
///
/// ```
/// use skyup_geom::dominance::dominates;
/// assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
/// assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal, not dominated
/// assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0])); // incomparable
/// ```
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Returns `true` when `a ≼ b`: `a[i] <= b[i]` for all `i` (dominates or
/// equal). This weak form is what transitivity arguments compose with.
#[inline]
pub fn dominates_or_equal(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(&x, &y)| x <= y)
}

/// Classifies the relationship between `a` and `b` in a single pass.
///
/// ```
/// use skyup_geom::dominance::{compare, DomRelation};
/// assert_eq!(compare(&[1.0], &[2.0]), DomRelation::Dominates);
/// assert_eq!(compare(&[2.0], &[1.0]), DomRelation::DominatedBy);
/// assert_eq!(compare(&[1.0], &[1.0]), DomRelation::Equal);
/// assert_eq!(compare(&[1.0, 3.0], &[2.0, 1.0]), DomRelation::Incomparable);
/// ```
pub fn compare(a: &[f64], b: &[f64]) -> DomRelation {
    debug_assert_eq!(a.len(), b.len());
    let mut a_better = false;
    let mut b_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x < y {
            a_better = true;
        } else if y < x {
            b_better = true;
        }
        if a_better && b_better {
            return DomRelation::Incomparable;
        }
    }
    match (a_better, b_better) {
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
        (true, true) => unreachable!("early-returned above"),
    }
}

/// Number of points per block scanned by the columnar dominance kernel.
/// One `u64` bitmask covers a block, so 64 is the natural width.
pub const DOM_BLOCK: usize = 64;

/// Outcome of a columnar dominance scan: the verdict plus how much work
/// the kernel actually did, so callers can charge the same counters the
/// scalar loop would (`points` → dominance tests, `blocks` → kernel
/// block scans, `skipped` → zone-map block skips).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColScan {
    /// Whether some scanned point dominates the target.
    pub dominated: bool,
    /// Points covered by the scanned blocks (block-granular: the kernel
    /// early-exits between blocks, not within one). Points in skipped
    /// blocks are not covered — no comparison ever touched them.
    pub points: u64,
    /// Blocks scanned (their lanes actually compared).
    pub blocks: u64,
    /// Blocks skipped wholesale because the block's zone map proved it
    /// cannot contain a dominator (always 0 on the raw column kernels,
    /// which carry no zone maps). On a scan that runs to completion —
    /// any [`collect_dominators_cols`]-style enumeration, or a
    /// membership scan that found no dominator — the conservation law
    /// `blocks + skipped == total blocks` holds exactly; a membership
    /// scan that stops at a dominating block accounts only for the
    /// blocks considered up to and including that block.
    pub skipped: u64,
}

/// Evaluates the `le`/`lt` masks of one block in dims-major, branch-free
/// form: for each dimension the block's [`DOM_BLOCK`]-lane column is
/// compared against the target's coordinate with no branch inside the
/// lane loop (the shape the compiler autovectorizes into packed compares
/// + movemask), and the per-dimension masks are combined afterwards.
///
/// The lane loop always runs over all [`DOM_BLOCK`] lanes: a fixed trip
/// count vectorizes better than a runtime one, and most scans end in a
/// partial block. So `cols[d * stride + base ..][..DOM_BLOCK]` must lie
/// inside `cols` for every dimension `d`, even for the last block.
/// [`crate::ColumnarPoints`] guarantees this (its capacity, the stride, is
/// a multiple of [`DOM_BLOCK`]); the raw column kernels copy a partial
/// last block into a zero-padded stack column instead
/// ([`raw_block_masks`]).
///
/// `lanes` is the valid-lane mask (`u64::MAX` for a full block, the
/// precomputed tail mask for the last partial block). Lanes outside it
/// may hold anything — stale points of a cleared or shrunk buffer, or
/// padding — and never reach the result. Bit `j` of the returned `le`
/// is set when point `base + j` is `<=` the target on every dimension
/// evaluated; bit `j` of `lt` when it is `<` on some evaluated
/// dimension. A block's remaining dimensions are abandoned as soon as
/// `le` empties — an exit at dimension granularity, outside the lane
/// loop, so it costs the vectorizer nothing. `le & lt` is the
/// dominator mask; the comparisons are the exact `f64` comparisons of
/// the scalar [`dominates`] loop, so the verdict is bit-identical
/// (coordinates are finite by the store contract, hence `x <= y` and
/// `!(x > y)` agree).
///
/// The one dispatch point of every columnar scan: [`block_masks_avx2`]
/// when the CPU reports AVX2, else [`block_masks_portable`]. Both are
/// the same source body, so they return the same masks.
#[inline]
pub(crate) fn block_masks(
    cols: &[f64],
    stride: usize,
    base: usize,
    lanes: u64,
    target: &[f64],
) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `block_masks_avx2` requires only that the running CPU
        // supports AVX2, which `is_x86_feature_detected!("avx2")` has
        // just confirmed.
        return unsafe { block_masks_avx2(cols, stride, base, lanes, target) };
    }
    block_masks_portable(cols, stride, base, lanes, target)
}

/// Which compiled copy of the dominance kernel's lane loop runs on this
/// CPU: `"avx2"` or `"portable"`. Bench reports and the servers' `stats`
/// line carry it, so a timing can be read against the kernel it timed.
pub fn kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// [`block_masks`] compiled with AVX2 enabled: the portable body
/// inlines here and vectorizes 4 lanes wide instead of 2.
///
/// # Safety
/// The running CPU must support AVX2 (check with
/// `is_x86_feature_detected!("avx2")`); executing it on a CPU without
/// AVX2 is undefined behaviour.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn block_masks_avx2(
    cols: &[f64],
    stride: usize,
    base: usize,
    lanes: u64,
    target: &[f64],
) -> (u64, u64) {
    block_masks_portable(cols, stride, base, lanes, target)
}

/// The lane loop of [`block_masks`], compiled for the build's baseline
/// target (SSE2 on x86-64). Always inlined, so that inside
/// [`block_masks_avx2`] it is compiled a second time with AVX2.
#[inline(always)]
pub(crate) fn block_masks_portable(
    cols: &[f64],
    stride: usize,
    base: usize,
    lanes: u64,
    target: &[f64],
) -> (u64, u64) {
    let mut le = lanes;
    let mut lt = 0u64;
    for (d, &y) in target.iter().enumerate() {
        let at = d * stride + base;
        let col: &[f64; DOM_BLOCK] = cols[at..at + DOM_BLOCK]
            .try_into()
            .expect("a block column holds DOM_BLOCK lanes");
        let mut le_d = 0u64;
        let mut lt_d = 0u64;
        for (j, &x) in col.iter().enumerate() {
            le_d |= u64::from(x <= y) << j;
            lt_d |= u64::from(x < y) << j;
        }
        le &= le_d;
        lt |= lt_d;
        if le == 0 {
            break;
        }
    }
    (le, lt)
}

/// [`block_masks`] for the block at `base` of a raw column buffer
/// holding `len` points, whose stride may end inside its last block. A
/// full block is read in place. A partial one has each dimension's
/// valid lanes copied into a zero-padded stack column, which runs
/// through the same dispatch and lane loop one dimension at a time.
#[inline]
fn raw_block_masks(
    cols: &[f64],
    stride: usize,
    len: usize,
    base: usize,
    lanes: u64,
    target: &[f64],
) -> (u64, u64) {
    let width = len - base;
    if width >= DOM_BLOCK {
        return block_masks(cols, stride, base, lanes, target);
    }
    let mut col = [0.0; DOM_BLOCK];
    let mut le = lanes;
    let mut lt = 0u64;
    for (d, y) in target.iter().enumerate() {
        col[..width].copy_from_slice(&cols[d * stride + base..][..width]);
        let (le_d, lt_d) = block_masks(&col, DOM_BLOCK, 0, le, std::slice::from_ref(y));
        le = le_d;
        lt |= lt_d;
        if le == 0 {
            break;
        }
    }
    (le, lt)
}

/// The per-scan block geometry: total block count and the valid-lane
/// mask of the last block, hoisted out of the block loop so the hot
/// path never recomputes the partial-block width test per iteration.
#[inline]
pub(crate) fn scan_geometry(len: usize) -> (usize, u64) {
    let blocks = len.div_ceil(DOM_BLOCK);
    let tail = len % DOM_BLOCK;
    let tail_mask = if tail == 0 {
        u64::MAX
    } else {
        (1u64 << tail) - 1
    };
    (blocks, tail_mask)
}

/// Columnar "is `target` dominated by any stored point" kernel.
///
/// `cols` holds `len` points in dims-major layout: dimension `d`'s
/// coordinates occupy `cols[d * stride .. d * stride + len]` (so
/// `stride >= len`). The scan proceeds in blocks of [`DOM_BLOCK`]
/// points, evaluating each block's `le`/`lt` masks dims-major and
/// branch-free ([`block_masks`]); early exit happens only at block
/// granularity, after the masks are combined — a block containing a
/// dominator (`le & lt != 0`) ends the scan. Full blocks are read in
/// place; a partial last block is copied into a zero-padded stack
/// column first, since the buffer may end inside it.
///
/// The verdict is bit-identical to the scalar
/// `points.iter().any(|s| dominates(s, target))` loop: both reduce to
/// the same exact `f64` comparisons.
pub fn dominated_by_any_cols(cols: &[f64], stride: usize, len: usize, target: &[f64]) -> ColScan {
    let dims = target.len();
    debug_assert!(stride >= len);
    debug_assert!(cols.len() >= dims * stride);
    let (blocks, tail_mask) = scan_geometry(len);
    let mut scan = ColScan::default();
    for b in 0..blocks {
        let base = b * DOM_BLOCK;
        let (width, lanes) = if b + 1 == blocks {
            (len - base, tail_mask)
        } else {
            (DOM_BLOCK, u64::MAX)
        };
        scan.blocks += 1;
        scan.points += width as u64;
        let (le, lt) = raw_block_masks(cols, stride, len, base, lanes, target);
        if le & lt != 0 {
            scan.dominated = true;
            return scan;
        }
    }
    scan
}

/// Columnar "collect every stored point that dominates `target`"
/// kernel: the enumerating sibling of [`dominated_by_any_cols`].
///
/// Same layout contract (`cols` dims-major with `stride >= len`), same
/// blockwise `le`/`lt` bitmask evaluation — but instead of stopping at
/// the first dominator it appends the *position* (0-based index into
/// the stored order) of every dominator to `out`, in ascending order.
/// Callers that keep an id vector aligned with the columnar buffer can
/// therefore map positions back to ids while preserving the stored
/// order, which is what makes filtered dominator lists order-identical
/// to a scalar `filter(|s| dominates(s, target))` pass.
///
/// Every block is scanned in full (`points == len` on return), because
/// the caller wants the complete set; the per-block early-out when `le`
/// empties still applies.
pub fn collect_dominators_cols(
    cols: &[f64],
    stride: usize,
    len: usize,
    target: &[f64],
    out: &mut Vec<u32>,
) -> ColScan {
    let dims = target.len();
    debug_assert!(stride >= len);
    debug_assert!(cols.len() >= dims * stride);
    let (blocks, tail_mask) = scan_geometry(len);
    let mut scan = ColScan::default();
    for b in 0..blocks {
        let base = b * DOM_BLOCK;
        let (width, lanes) = if b + 1 == blocks {
            (len - base, tail_mask)
        } else {
            (DOM_BLOCK, u64::MAX)
        };
        scan.blocks += 1;
        scan.points += width as u64;
        let (le, lt) = raw_block_masks(cols, stride, len, base, lanes, target);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The `(le, lt)` masks of one block from every compiled copy of the
    /// lane loop this CPU can run: the portable body always, the AVX2
    /// copy as well when the CPU reports AVX2. Nothing forces a path:
    /// each copy is called directly.
    fn masks_per_copy(
        cols: &[f64],
        stride: usize,
        base: usize,
        lanes: u64,
        target: &[f64],
    ) -> Vec<(u64, u64)> {
        let portable = block_masks_portable(cols, stride, base, lanes, target);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed
            // the one requirement of `block_masks_avx2`.
            let avx2 = unsafe { block_masks_avx2(cols, stride, base, lanes, target) };
            return vec![portable, avx2];
        }
        vec![portable]
    }

    /// The dominator positions of a full blockwise scan of `len` points
    /// laid out dims-major with `stride`, run once per compiled copy of
    /// the lane loop. The points are laid out again with a
    /// block-aligned stride whose lanes past `len` hold `-∞`, so a
    /// padding lane leaking past the lane mask would dominate every
    /// target. Asserts that every copy yields the same masks on every
    /// block, then returns the one position list.
    pub(crate) fn positions_per_copy(
        cols: &[f64],
        stride: usize,
        len: usize,
        target: &[f64],
    ) -> Vec<u32> {
        let (blocks, tail_mask) = scan_geometry(len);
        let padded = blocks * DOM_BLOCK;
        let mut buf = vec![f64::NEG_INFINITY; target.len() * padded];
        for d in 0..target.len() {
            buf[d * padded..][..len].copy_from_slice(&cols[d * stride..][..len]);
        }
        let mut out = Vec::new();
        for b in 0..blocks {
            let base = b * DOM_BLOCK;
            let lanes = if b + 1 == blocks { tail_mask } else { u64::MAX };
            let masks = masks_per_copy(&buf, padded, base, lanes, target);
            assert!(
                masks.iter().all(|&m| m == masks[0]),
                "copies disagree on block {b}: {masks:?}"
            );
            let mut dom = masks[0].0 & masks[0].1;
            while dom != 0 {
                out.push((base + dom.trailing_zeros() as usize) as u32);
                dom &= dom - 1;
            }
        }
        out
    }

    /// A coordinate on a coarse grid, so equal coordinates (duplicate
    /// points, lanes equal to the target) are common; the grid holds both
    /// signed zeros, which must compare equal.
    pub(crate) fn grid_coord(u: f64) -> f64 {
        [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0][(u * 6.0) as usize]
    }

    /// A xorshift stream of uniforms in `[0, 1)`.
    pub(crate) fn uniforms(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn dominance_is_irreflexive() {
        let p = [1.0, 2.0, 3.0];
        assert!(!dominates(&p, &p));
        assert!(dominates_or_equal(&p, &p));
    }

    #[test]
    fn dominance_is_asymmetric() {
        let a = [1.0, 2.0];
        let b = [2.0, 2.0];
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn dominance_is_transitive() {
        let a = [1.0, 1.0];
        let b = [1.0, 2.0];
        let c = [2.0, 2.0];
        assert!(dominates(&a, &b));
        assert!(dominates(&b, &c));
        assert!(dominates(&a, &c));
    }

    #[test]
    fn compare_matches_predicates() {
        let cases = [
            ([1.0, 1.0], [2.0, 2.0]),
            ([2.0, 2.0], [1.0, 1.0]),
            ([1.0, 2.0], [2.0, 1.0]),
            ([1.5, 1.5], [1.5, 1.5]),
        ];
        for (a, b) in cases {
            let rel = compare(&a, &b);
            assert_eq!(rel == DomRelation::Dominates, dominates(&a, &b));
            assert_eq!(rel == DomRelation::DominatedBy, dominates(&b, &a));
            assert_eq!(
                rel == DomRelation::Equal,
                dominates_or_equal(&a, &b) && dominates_or_equal(&b, &a)
            );
        }
    }

    #[test]
    fn single_dimension() {
        assert!(dominates(&[0.0], &[1.0]));
        assert!(!dominates(&[1.0], &[0.0]));
        assert_eq!(compare(&[0.5], &[0.5]), DomRelation::Equal);
    }

    /// Lays out `points` dims-major with the given stride.
    fn to_cols(points: &[Vec<f64>], dims: usize, stride: usize) -> Vec<f64> {
        let mut cols = vec![0.0; dims * stride];
        for (i, p) in points.iter().enumerate() {
            for (d, &x) in p.iter().enumerate() {
                cols[d * stride + i] = x;
            }
        }
        cols
    }

    #[test]
    fn columnar_kernel_matches_scalar_loop() {
        let mut next = uniforms(0x5eed);
        for dims in 1..=5usize {
            for n in [0usize, 1, 7, 63, 64, 65, 130, 200] {
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..dims).map(|_| grid_coord(next())).collect())
                    .collect();
                let stride = n + 3;
                let cols = to_cols(&points, dims, stride);
                for _ in 0..20 {
                    let target: Vec<f64> = (0..dims).map(|_| grid_coord(next())).collect();
                    let scalar = points.iter().any(|p| dominates(p, &target));
                    let scan = dominated_by_any_cols(&cols, stride, n, &target);
                    assert_eq!(scan.dominated, scalar, "dims={dims} n={n} t={target:?}");
                    let per_copy = !positions_per_copy(&cols, stride, n, &target).is_empty();
                    assert_eq!(per_copy, scalar, "dims={dims} n={n} t={target:?}");
                }
            }
        }
    }

    #[test]
    fn collect_kernel_matches_scalar_filter_in_order() {
        let mut next = uniforms(0xfeed);
        for dims in 1..=4usize {
            for n in [0usize, 1, 63, 64, 65, 130] {
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..dims).map(|_| grid_coord(next())).collect())
                    .collect();
                let stride = n + 2;
                let cols = to_cols(&points, dims, stride);
                for _ in 0..20 {
                    let target: Vec<f64> = (0..dims).map(|_| grid_coord(next())).collect();
                    let scalar: Vec<u32> = points
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| dominates(p, &target))
                        .map(|(i, _)| i as u32)
                        .collect();
                    let mut got = Vec::new();
                    let scan = collect_dominators_cols(&cols, stride, n, &target, &mut got);
                    assert_eq!(got, scalar, "dims={dims} n={n} t={target:?}");
                    assert_eq!(scan.dominated, !scalar.is_empty());
                    // The collect kernel never early-exits across blocks.
                    assert_eq!(scan.points, n as u64);
                    assert_eq!(positions_per_copy(&cols, stride, n, &target), scalar);
                }
            }
        }
    }

    /// Every compiled copy of the lane loop against per-lane scalar
    /// compares, one block at a time: every width 1–64 (so every tail
    /// length, including those that are not a multiple of the 2- or
    /// 4-lane vector width), blocks at a nonzero offset inside a column
    /// whose stride exceeds the block, lanes past the width holding
    /// stale grid points the lane mask must hide, duplicate lanes,
    /// signed zeros, and targets equal to a stored lane.
    #[test]
    fn lane_loop_copies_match_scalar_masks() {
        let mut next = uniforms(0xb10c);
        for dims in 1..=5usize {
            for width in 1..=DOM_BLOCK {
                let base = 5;
                let stride = base + DOM_BLOCK + 3;
                let cols: Vec<f64> = (0..dims * stride).map(|_| grid_coord(next())).collect();
                let lanes = if width == DOM_BLOCK {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                for round in 0..8 {
                    let target: Vec<f64> = if round % 2 == 0 {
                        let lane = base + (next() * width as f64) as usize;
                        (0..dims).map(|d| cols[d * stride + lane]).collect()
                    } else {
                        (0..dims).map(|_| grid_coord(next())).collect()
                    };
                    let (mut le_want, mut dom_want) = (0u64, 0u64);
                    for j in 0..width {
                        let p: Vec<f64> = (0..dims).map(|d| cols[d * stride + base + j]).collect();
                        le_want |= u64::from(dominates_or_equal(&p, &target)) << j;
                        dom_want |= u64::from(dominates(&p, &target)) << j;
                    }
                    let masks = masks_per_copy(&cols, stride, base, lanes, &target);
                    for &(le, lt) in &masks {
                        assert_eq!(le, le_want, "dims={dims} width={width} t={target:?}");
                        assert_eq!(le & lt, dom_want, "dims={dims} width={width} t={target:?}");
                    }
                    assert!(masks.iter().all(|&m| m == masks[0]), "{masks:?}");
                }
            }
        }
    }

    #[test]
    fn columnar_kernel_counts_block_granular_work() {
        // 70 points, none dominating: the full two blocks are scanned.
        let points: Vec<Vec<f64>> = (0..70).map(|i| vec![i as f64, -(i as f64)]).collect();
        let cols = to_cols(&points, 2, 70);
        let scan = dominated_by_any_cols(&cols, 70, 70, &[-1.0, -100.0]);
        assert!(!scan.dominated);
        assert_eq!((scan.points, scan.blocks), (70, 2));
        // A dominator in the first block stops the scan there.
        let scan = dominated_by_any_cols(&cols, 70, 70, &[100.0, 100.0]);
        assert!(scan.dominated);
        assert_eq!((scan.points, scan.blocks), (64, 1));
    }

    #[test]
    fn columnar_kernel_equal_points_do_not_dominate() {
        let points = vec![vec![0.5, 0.5]];
        let cols = to_cols(&points, 2, 1);
        assert!(!dominated_by_any_cols(&cols, 1, 1, &[0.5, 0.5]).dominated);
        assert!(dominated_by_any_cols(&cols, 1, 1, &[0.5, 0.6]).dominated);
    }

    #[test]
    fn paper_table_one_phones() {
        // Table I, negated where larger-is-better (standby, camera) so
        // that smaller is uniformly better.
        let phones = [
            [140.0, -200.0, -2.0], // phone 1
            [180.0, -150.0, -3.0], // phone 2
            [100.0, -160.0, -3.0], // phone 3
            [180.0, -180.0, -3.0], // phone 4
            [120.0, -180.0, -4.0], // phone 5
            [150.0, -150.0, -3.0], // phone 6
        ];
        // Phones 1, 3, 5 are the skyline (not dominated by any other).
        for (i, p) in phones.iter().enumerate() {
            let dominated = phones
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && dominates(q, p));
            let expect_skyline = matches!(i, 0 | 2 | 4);
            assert_eq!(!dominated, expect_skyline, "phone {}", i + 1);
        }
    }
}
