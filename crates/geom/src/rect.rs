//! Axis-aligned hyperrectangles (minimum bounding rectangles).

/// An axis-aligned hyperrectangle `[lo, hi]`, the MBR type used by the
/// R-tree and the join algorithm.
///
/// `lo` is the *minimum corner* (the paper's `e.min`) and `hi` the
/// *maximum corner* (`e.max`). Because smaller is better on every
/// dimension, `lo` dominates-or-equals every point inside the rectangle
/// and every point inside dominates-or-equals `hi`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Rect {
    /// Creates a rectangle from its minimum and maximum corners.
    ///
    /// # Panics
    /// Panics if the corners have different lengths, are empty, contain
    /// non-finite values, or if `lo[i] > hi[i]` for some `i`.
    pub fn new(lo: &[f64], hi: &[f64]) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionalities differ");
        assert!(!lo.is_empty(), "rectangles need at least one dimension");
        for (i, (&l, &h)) in lo.iter().zip(hi).enumerate() {
            assert!(l.is_finite() && h.is_finite(), "corners must be finite");
            assert!(l <= h, "inverted rectangle on dimension {i}: {l} > {h}");
        }
        Self {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// A degenerate rectangle covering exactly one point.
    pub fn point(p: &[f64]) -> Self {
        Self::new(p, p)
    }

    /// An "empty" accumulator rectangle: `lo = +inf`, `hi = -inf` on every
    /// dimension. [`Rect::expand`]ing it with any real rectangle yields
    /// that rectangle. Not a valid query rectangle by itself.
    pub fn empty(dims: usize) -> Self {
        assert!(dims > 0);
        Self {
            lo: vec![f64::INFINITY; dims].into(),
            hi: vec![f64::NEG_INFINITY; dims].into(),
        }
    }

    /// Whether this is the [`Rect::empty`] accumulator (never expanded).
    pub fn is_empty_accumulator(&self) -> bool {
        self.lo[0] > self.hi[0]
    }

    /// Dimensionality of the rectangle.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// The minimum corner (`e.min`).
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// The maximum corner (`e.max`).
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Whether `p` lies inside the rectangle (borders included).
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        p.iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .all(|(&x, (&l, &h))| l <= x && x <= h)
    }

    /// Whether `other` lies entirely inside `self` (borders included).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        self.lo.iter().zip(&other.lo).all(|(&a, &b)| a <= b)
            && self.hi.iter().zip(&other.hi).all(|(&a, &b)| b <= a)
    }

    /// Whether the two rectangles intersect (shared borders count).
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        self.lo.iter().zip(&other.hi).all(|(&l, &h)| l <= h)
            && other.lo.iter().zip(self.hi.iter()).all(|(&l, &h)| l <= h)
    }

    /// Grows `self` to cover `other`.
    pub fn expand(&mut self, other: &Rect) {
        debug_assert_eq!(other.dims(), self.dims());
        for i in 0..self.dims() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// Grows `self` to cover point `p`.
    pub fn expand_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dims());
        for (i, &x) in p.iter().enumerate() {
            if x < self.lo[i] {
                self.lo[i] = x;
            }
            if x > self.hi[i] {
                self.hi[i] = x;
            }
        }
    }

    /// The volume (product of side lengths). Zero for degenerate rects.
    pub fn area(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(&l, &h)| h - l)
            .product()
    }

    /// Sum of side lengths (the R*-tree "margin" heuristic input).
    pub fn margin(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(&l, &h)| h - l)
            .sum()
    }

    /// How much the area grows if `self` is expanded to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        let mut merged = self.clone();
        merged.expand(other);
        merged.area() - self.area()
    }

    /// The center of the rectangle.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(&l, &h)| 0.5 * (l + h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo, hi)
    }

    #[test]
    fn contains_and_intersects() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        assert!(a.contains_point(&[1.0, 1.0]));
        assert!(a.contains_point(&[0.0, 2.0])); // border
        assert!(!a.contains_point(&[2.1, 1.0]));

        let b = r(&[1.0, 1.0], &[3.0, 3.0]);
        let c = r(&[2.5, 2.5], &[4.0, 4.0]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(b.intersects(&c));
        // Touching borders count as intersecting.
        let d = r(&[2.0, 0.0], &[3.0, 1.0]);
        assert!(a.intersects(&d));
    }

    #[test]
    fn contains_rect() {
        let outer = r(&[0.0, 0.0], &[10.0, 10.0]);
        let inner = r(&[1.0, 1.0], &[9.0, 9.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
    }

    #[test]
    fn expand_covers_both() {
        let mut a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[2.0, -1.0], &[3.0, 0.5]);
        a.expand(&b);
        assert_eq!(a.lo(), &[0.0, -1.0]);
        assert_eq!(a.hi(), &[3.0, 1.0]);
        assert!(a.contains_rect(&b));
    }

    #[test]
    fn empty_accumulator_expansion() {
        let mut acc = Rect::empty(2);
        assert!(acc.is_empty_accumulator());
        acc.expand_point(&[1.0, 2.0]);
        assert!(!acc.is_empty_accumulator());
        assert_eq!(acc.lo(), &[1.0, 2.0]);
        assert_eq!(acc.hi(), &[1.0, 2.0]);
        acc.expand_point(&[0.0, 3.0]);
        assert_eq!(acc.lo(), &[0.0, 2.0]);
        assert_eq!(acc.hi(), &[1.0, 3.0]);
    }

    #[test]
    fn area_and_margin() {
        let a = r(&[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
    }

    #[test]
    fn enlargement_is_zero_for_contained() {
        let a = r(&[0.0, 0.0], &[4.0, 4.0]);
        let inner = r(&[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(a.enlargement(&inner), 0.0);
        let outside = r(&[5.0, 0.0], &[6.0, 4.0]);
        assert!(a.enlargement(&outside) > 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rect_panics() {
        let _ = Rect::new(&[1.0], &[0.0]);
    }
}
