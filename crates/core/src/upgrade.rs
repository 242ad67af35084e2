//! Algorithm 1: upgrading a single product against a skyline of
//! dominators.
//!
//! Two families of candidate upgrades are evaluated (paper Section II):
//!
//! 1. **Single-dimension**: on each dimension `D_k`, beat *every* skyline
//!    point by moving to `min_s(s.d_k) − ε`.
//! 2. **Multi-dimension**: for every pair of skyline points `s_i`, `s_j`
//!    consecutive in `D_k` order, move to `s_j.d_k − ε` on `D_k` and
//!    `s_i.d_x − ε` on every other dimension. Lemma 1 proves any such
//!    candidate is non-dominated.
//!
//! Deliberate refinement (see DESIGN.md): every candidate coordinate is
//! clamped to never exceed the product's current value,
//! `min(t.d_x, s.d_x − ε)`. This preserves Lemma 1's proof, guarantees
//! `upgraded ≼ original` (hence non-negative cost under monotone cost
//! functions), and makes the "not dominated by the dominator skyline ⇒
//! not dominated by all of P" transitivity argument airtight.

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use skyup_geom::{ColumnarPoints, PointId, PointStore};
use skyup_obs::{Counter, Recorder};

/// Reusable buffers for repeated [`upgrade_single_into`] calls: the
/// per-dimension sort order, the candidate being evaluated, and the best
/// upgrade found. One scratch per probing worker makes Algorithm 1
/// allocation-free after the buffers reach the workload's
/// dimensionality / skyline high-water mark.
pub struct UpgradeScratch {
    order: Vec<PointId>,
    candidate: Vec<f64>,
    best: Vec<f64>,
    /// Store-row membership bits for [`upgrade_single_presorted_into`]'s
    /// subsequence filter; bits are set and cleared per call, never
    /// zeroed wholesale.
    mask: Vec<u8>,
}

impl UpgradeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            order: Vec::new(),
            candidate: Vec::new(),
            best: Vec::new(),
            mask: Vec::new(),
        }
    }

    /// The upgraded coordinates left by the last
    /// [`upgrade_single_into`] call.
    pub fn upgraded(&self) -> &[f64] {
        &self.best
    }
}

impl Default for UpgradeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes the cheapest upgrade of product `t` (coordinates) against
/// `skyline`, the skyline of `t`'s dominators in the competitor set.
/// Returns `(cost, upgraded_coordinates)`.
///
/// When `skyline` is empty, `t` is already competitive: cost `0`, output
/// equals input.
///
/// # Contract
/// Every point in `skyline` must dominate `t` (checked with
/// `debug_assert`), and `cost_fn` must be monotone. Under that contract
/// the returned product is dominated by no point of `skyline`, and by
/// transitivity by no point of the full competitor set the skyline was
/// derived from.
///
/// ```
/// use skyup_core::{upgrade_single, UpgradeConfig};
/// use skyup_core::cost::SumCost;
/// use skyup_geom::PointStore;
///
/// let mut p = PointStore::new(2);
/// let s1 = p.push(&[0.2, 0.6]);
/// let s2 = p.push(&[0.5, 0.3]);
/// let cost_fn = SumCost::reciprocal(2, 1e-2);
/// let (cost, upgraded) = upgrade_single(
///     &p, &[s1, s2], &[0.7, 0.8], &cost_fn, &UpgradeConfig::default(),
/// );
/// assert!(cost > 0.0);
/// assert!(!skyup_geom::dominance::dominates(p.point(s1), &upgraded));
/// assert!(!skyup_geom::dominance::dominates(p.point(s2), &upgraded));
/// ```
pub fn upgrade_single<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    skyline: &[PointId],
    t: &[f64],
    cost_fn: &C,
    cfg: &UpgradeConfig,
) -> (f64, Vec<f64>) {
    let mut scratch = UpgradeScratch::new();
    let cost = upgrade_single_into(p_store, skyline, t, cost_fn, cfg, &mut scratch);
    (cost, scratch.best)
}

/// [`upgrade_single`] writing into caller-provided buffers: the upgraded
/// coordinates are left in the scratch ([`UpgradeScratch::upgraded`])
/// and only the cost is returned. Bit-identical computation; a warm
/// scratch makes the call allocation-free.
pub fn upgrade_single_into<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    skyline: &[PointId],
    t: &[f64],
    cost_fn: &C,
    cfg: &UpgradeConfig,
    scratch: &mut UpgradeScratch,
) -> f64 {
    let dims = t.len();
    debug_assert_eq!(p_store.dims(), dims);
    debug_assert_eq!(cost_fn.dims(), dims);
    debug_assert!(
        skyline
            .iter()
            .all(|&s| skyup_geom::dominance::dominates(p_store.point(s), t)),
        "upgrade_single requires every skyline point to dominate t"
    );

    let best = &mut scratch.best;
    best.clear();
    best.extend_from_slice(t);

    if skyline.is_empty() {
        return 0.0;
    }

    let base_cost = cost_fn.product_cost(t);
    let mut best_cost = f64::INFINITY;

    // Scratch buffers reused across dimensions (and across calls).
    let order = &mut scratch.order;
    order.clear();
    order.extend_from_slice(skyline);
    let candidate = &mut scratch.candidate;
    candidate.clear();
    candidate.resize(dims, 0.0);

    for k in 0..dims {
        // Line 3: sort skyline ascending by the current dimension. The
        // sort is stable and `order` carries over between dimensions,
        // so points tied on D_k keep the *previous* dimension's order —
        // [`DimOrders`] replicates exactly this chaining.
        order.sort_by(|&a, &b| p_store.point(a)[k].total_cmp(&p_store.point(b)[k]));
        sweep_dimension(
            p_store,
            order,
            k,
            t,
            base_cost,
            cost_fn,
            cfg,
            candidate,
            best,
            &mut best_cost,
        );
    }

    best_cost
}

/// One dimension's candidate sweep (Algorithm 1 lines 4-16 plus the
/// extended-candidate family) over `order`, the dominators sorted
/// ascending by dimension `k`. Factored out so the per-product path
/// ([`upgrade_single_into`]) and the presorted path
/// ([`upgrade_single_presorted_into`]) run the exact same float
/// operations in the exact same sequence — this shared body is what
/// makes the two entry points bit-identical.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep_dimension<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    order: &[PointId],
    k: usize,
    t: &[f64],
    base_cost: f64,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    candidate: &mut [f64],
    best: &mut [f64],
    best_cost: &mut f64,
) {
    let eps = cfg.epsilon;
    let dims = t.len();

    // Lines 4-7: the single-dimension upgrade beating everyone on D_k.
    let s_min = p_store.point(order[0]);
    let new_v = (s_min[k] - eps).min(t[k]);
    let single_cost = cost_fn.attr_cost(k, new_v) - cost_fn.attr_cost(k, t[k]);
    if single_cost < *best_cost {
        *best_cost = single_cost;
        best.copy_from_slice(t);
        best[k] = new_v;
    }

    // Lines 8-16: slide between consecutive skyline points.
    for w in order.windows(2) {
        let s_i = p_store.point(w[0]);
        let s_j = p_store.point(w[1]);
        for x in 0..dims {
            let bound = if x == k { s_j[x] } else { s_i[x] };
            candidate[x] = (bound - eps).min(t[x]);
        }
        let cost = cost_fn.product_cost(candidate) - base_cost;
        if cost < *best_cost {
            *best_cost = cost;
            best.copy_from_slice(candidate);
        }
    }

    // Extension (off by default): beat the *last* skyline point on
    // all dimensions except D_k, keeping t's own D_k value. Points
    // earlier in the D_k order cannot dominate the candidate for the
    // same reason as in Lemma 1's third case.
    if cfg.extended_candidates {
        let s_last = p_store.point(order[order.len() - 1]);
        for x in 0..dims {
            candidate[x] = if x == k {
                t[x]
            } else {
                (s_last[x] - eps).min(t[x])
            };
        }
        let cost = cost_fn.product_cost(candidate) - base_cost;
        if cost < *best_cost {
            *best_cost = cost;
            best.copy_from_slice(candidate);
        }
    }
}

/// A skyline pre-sorted by every dimension, shared across many
/// [`upgrade_single_presorted_into`] calls.
///
/// Algorithm 1 spends a large share of its time re-sorting each
/// product's dominator list once per dimension. Against one skyline
/// every dominator list is a subset of it, so the sorts can
/// be hoisted: sort the skyline by each dimension once, then recover
/// any subset's per-dimension order as a subsequence filter.
pub struct DimOrders {
    per_dim: Vec<Vec<PointId>>,
}

impl DimOrders {
    /// Stably sorts `skyline` ascending by each dimension, *chained*:
    /// dimension `k`'s sort starts from dimension `k−1`'s output, just
    /// as [`upgrade_single_into`]'s reused `order` buffer does. The
    /// chaining is load-bearing for bit-identity — points tied on `D_k`
    /// keep a history-dependent relative order, and the per-product
    /// path and this hoisted path must agree on it.
    ///
    /// `skyline` must be in the same relative order as the dominator
    /// lists later passed to [`upgrade_single_presorted_into`]: serving
    /// keeps both id-sorted, the probe scheduler keeps both in BBS
    /// emission order.
    pub fn new(p_store: &PointStore, skyline: &[PointId]) -> Self {
        let mut order = skyline.to_vec();
        let per_dim = (0..p_store.dims())
            .map(|k| {
                order.sort_by(|&a, &b| p_store.point(a)[k].total_cmp(&p_store.point(b)[k]));
                order.clone()
            })
            .collect();
        Self { per_dim }
    }
}

/// [`upgrade_single_into`] with the per-dimension sorts hoisted into a
/// shared [`DimOrders`]: each dimension's dominator order is recovered
/// by filtering the pre-sorted skyline down to `dominators` instead of
/// sorting per product.
///
/// # Bit-identity
///
/// Returns exactly the bits [`upgrade_single_into`] returns for the
/// same `(dominators, t, cost_fn, cfg)`. Both paths feed
/// [`sweep_dimension`] the same sequence, by induction over
/// dimensions: filtering commutes with a stable sort whenever the two
/// sort inputs agree on the subset's relative order. They agree at
/// `k = 0` (both start in the skyline's order), and each dimension's
/// stable sort preserves the agreement — [`DimOrders`] chains its sorts
/// exactly like the per-product path's reused `order` buffer, so even
/// the history-dependent order of points tied on `D_k` matches.
///
/// # Contract
///
/// `dominators` must be a subset of the skyline `orders` was built
/// from, in the same relative order, and every dominator must dominate
/// `t` (`debug_assert`ed).
pub fn upgrade_single_presorted_into<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    orders: &DimOrders,
    dominators: &[PointId],
    t: &[f64],
    cost_fn: &C,
    cfg: &UpgradeConfig,
    scratch: &mut UpgradeScratch,
) -> f64 {
    let dims = t.len();
    debug_assert_eq!(p_store.dims(), dims);
    debug_assert_eq!(cost_fn.dims(), dims);
    debug_assert_eq!(orders.per_dim.len(), dims);
    debug_assert!(
        dominators
            .iter()
            .all(|&s| skyup_geom::dominance::dominates(p_store.point(s), t)),
        "upgrade_single_presorted_into requires every dominator to dominate t"
    );

    let UpgradeScratch {
        order,
        candidate,
        best,
        mask,
    } = scratch;
    best.clear();
    best.extend_from_slice(t);

    if dominators.is_empty() {
        return 0.0;
    }

    let base_cost = cost_fn.product_cost(t);
    let mut best_cost = f64::INFINITY;
    candidate.clear();
    candidate.resize(dims, 0.0);

    // Membership bits for the subsequence filter. Only the dominator
    // rows are touched, so the buffer stays clean across calls without
    // wholesale zeroing.
    if mask.len() < p_store.len() {
        mask.resize(p_store.len(), 0);
    }
    for &d in dominators {
        mask[d.index()] = 1;
    }

    for (k, presorted) in orders.per_dim.iter().enumerate() {
        order.clear();
        order.extend(presorted.iter().copied().filter(|s| mask[s.index()] != 0));
        debug_assert_eq!(
            order.len(),
            dominators.len(),
            "dominators must be a subset of the skyline DimOrders was built from"
        );
        sweep_dimension(
            p_store,
            order,
            k,
            t,
            base_cost,
            cost_fn,
            cfg,
            candidate,
            best,
            &mut best_cost,
        );
    }

    for &d in dominators {
        mask[d.index()] = 0;
    }
    best_cost
}

/// Fallible twin of [`upgrade_single`]: checks the contract that the
/// debug-build asserts only sample — matching dimensionalities, finite
/// product coordinates, skyline ids in bounds, and every skyline point
/// actually dominating `t` — and reports violations as
/// [`SkyupError`](crate::SkyupError) instead of computing a garbage
/// upgrade (or panicking) in release builds.
pub fn try_upgrade_single<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    skyline: &[PointId],
    t: &[f64],
    cost_fn: &C,
    cfg: &UpgradeConfig,
) -> Result<(f64, Vec<f64>), crate::SkyupError> {
    use crate::SkyupError;
    if p_store.dims() != t.len() {
        return Err(SkyupError::DimensionMismatch {
            p_dims: p_store.dims(),
            t_dims: t.len(),
        });
    }
    if cost_fn.dims() != t.len() {
        return Err(SkyupError::InvalidConfig(format!(
            "cost function covers {} dimensions but the product has {}",
            cost_fn.dims(),
            t.len()
        )));
    }
    if let Some((i, v)) = t.iter().enumerate().find(|(_, c)| !c.is_finite()) {
        return Err(SkyupError::InvalidInput(format!(
            "product coordinate {i} is not finite ({v})"
        )));
    }
    for &s in skyline {
        if (s.0 as usize) >= p_store.len() {
            return Err(SkyupError::InvalidInput(format!(
                "skyline id {} is out of bounds for a {}-point store",
                s.0,
                p_store.len()
            )));
        }
        if !skyup_geom::dominance::dominates(p_store.point(s), t) {
            return Err(SkyupError::InvalidInput(format!(
                "skyline point {} does not dominate the product",
                s.0
            )));
        }
    }
    Ok(upgrade_single(p_store, skyline, t, cost_fn, cfg))
}

/// Filters a precomputed skyline of the *full* competitor set down to
/// the skyline of product `t`'s dominators, preserving input order.
///
/// Soundness is the identity `skyline(dominators(t)) = {s ∈ skyline(P) :
/// s dominates t}`: any skyline point dominating `t` is trivially an
/// undominated dominator, and conversely a skyline point of
/// `dominators(t)` cannot be dominated by any `p ∈ P` (such a `p` would
/// dominate `t` by transitivity and sit in `dominators(t)` itself), so
/// it is on `skyline(P)`. This lets a caller that already holds
/// `skyline(P)` — e.g. a serving snapshot — answer per-product queries
/// with one linear scan instead of an R-tree traversal.
pub fn dominators_from_skyline<R: Recorder + ?Sized>(
    p_store: &PointStore,
    p_skyline: &[PointId],
    t: &[f64],
    rec: &mut R,
) -> Vec<PointId> {
    rec.incr(Counter::DominanceTests, p_skyline.len() as u64);
    p_skyline
        .iter()
        .copied()
        .filter(|&s| skyup_geom::dominance::dominates(p_store.point(s), t))
        .collect()
}

/// Test/diagnostic helper: whether `candidate` is dominated by any point
/// of `skyline`. Runs through the blockwise columnar kernel (gathering
/// the skyline once), whose verdict is bit-identical to the scalar
/// `skyline.iter().any(dominates)` loop.
pub fn dominated_by_any(p_store: &PointStore, skyline: &[PointId], candidate: &[f64]) -> bool {
    let mut cols = ColumnarPoints::new(p_store.dims());
    cols.gather(p_store, skyline);
    cols.dominated_by_any(candidate).dominated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;

    fn cfg() -> UpgradeConfig {
        UpgradeConfig::with_epsilon(1e-4)
    }

    /// Figure 1 scenario: p dominated by two skyline points.
    #[test]
    fn figure_one_two_skyline_points() {
        let mut p = PointStore::new(2);
        let s1 = p.push(&[0.2, 0.6]);
        let s2 = p.push(&[0.5, 0.3]);
        let t = [0.7, 0.8];
        let cost_fn = SumCost::reciprocal(2, 1e-2);
        let sky = vec![s1, s2];
        let (cost, up) = upgrade_single(&p, &sky, &t, &cost_fn, &cfg());
        assert!(cost.is_finite() && cost > 0.0);
        assert!(
            !dominated_by_any(&p, &sky, &up),
            "upgraded {up:?} still dominated"
        );
        // The upgrade never worsens any attribute.
        assert!(up.iter().zip(&t).all(|(&u, &o)| u <= o));
    }

    #[test]
    fn empty_skyline_is_free() {
        let p = PointStore::new(3);
        let t = [1.0, 2.0, 3.0];
        let cost_fn = SumCost::reciprocal(3, 1e-2);
        let (cost, up) = upgrade_single(&p, &[], &t, &cost_fn, &cfg());
        assert_eq!(cost, 0.0);
        assert_eq!(up, t.to_vec());
    }

    #[test]
    fn single_dominator_takes_cheapest_dimension() {
        let mut p = PointStore::new(2);
        // Dominator close on dim 0, far on dim 1.
        let s = p.push(&[0.69, 0.2]);
        let t = [0.7, 0.8];
        let cost_fn = SumCost::reciprocal(2, 1e-2);
        let (cost, up) = upgrade_single(&p, &[s], &t, &cost_fn, &cfg());
        assert!(!dominated_by_any(&p, &[s], &up));
        // Beating on dim 0 needs a 0.01+ε change near v=0.7 (flat zone);
        // beating on dim 1 needs 0.6+ε near v=0.8. Dim 0 is far cheaper.
        assert!(up[0] < 0.69 && up[1] == t[1], "up = {up:?}");
        assert!(cost > 0.0);
    }

    #[test]
    fn multi_dimension_upgrade_can_beat_single() {
        // A staircase where squeezing between two skyline points is much
        // cheaper than overtaking everyone on one dimension.
        let mut p = PointStore::new(2);
        let sky: Vec<PointId> = vec![
            p.push(&[0.05, 0.60]),
            p.push(&[0.30, 0.30]),
            p.push(&[0.60, 0.05]),
        ];
        let t = [0.7, 0.7];
        let cost_fn = SumCost::reciprocal(2, 1e-2);
        let (cost, up) = upgrade_single(&p, &sky, &t, &cost_fn, &cfg());
        assert!(!dominated_by_any(&p, &sky, &up));
        // The single-dimension option must pay to get below 0.05 on one
        // axis: cost ≈ 1/(0.05+0.01) − 1/0.71 ≈ 15.3. The pair option
        // (e.g. below (0.30,0.30)... beating s2/s3 pair) is far cheaper.
        assert!(
            cost < 15.0,
            "expected multi-dimension candidate to win, cost = {cost}"
        );
        // Both coordinates changed.
        assert!(up[0] < t[0] && up[1] < t[1]);
    }

    #[test]
    fn cost_is_non_negative_and_matches_product_cost_delta() {
        let mut p = PointStore::new(3);
        let sky = vec![
            p.push(&[0.1, 0.5, 0.4]),
            p.push(&[0.4, 0.2, 0.3]),
            p.push(&[0.3, 0.4, 0.1]),
        ];
        let t = [0.6, 0.6, 0.6];
        let cost_fn = SumCost::reciprocal(3, 1e-2);
        let (cost, up) = upgrade_single(&p, &sky, &t, &cost_fn, &cfg());
        assert!(cost >= 0.0);
        let delta = cost_fn.product_cost(&up) - cost_fn.product_cost(&t);
        assert!((cost - delta).abs() < 1e-9);
    }

    #[test]
    fn extended_candidates_never_cost_more() {
        let mut p = PointStore::new(2);
        let sky = vec![
            p.push(&[0.1, 0.5]),
            p.push(&[0.3, 0.3]),
            p.push(&[0.5, 0.1]),
        ];
        let t = [0.9, 0.52];
        let cost_fn = SumCost::reciprocal(2, 1e-2);
        let base = upgrade_single(&p, &sky, &t, &cost_fn, &cfg()).0;
        let mut ext_cfg = cfg();
        ext_cfg.extended_candidates = true;
        let (ext, up) = upgrade_single(&p, &sky, &t, &cost_fn, &ext_cfg);
        assert!(ext <= base + 1e-12);
        assert!(!dominated_by_any(&p, &sky, &up));
    }

    #[test]
    fn duplicate_skyline_points_handled() {
        let mut p = PointStore::new(2);
        let sky = vec![p.push(&[0.3, 0.3]), p.push(&[0.3, 0.3])];
        let t = [0.5, 0.5];
        let cost_fn = SumCost::reciprocal(2, 1e-2);
        let (cost, up) = upgrade_single(&p, &sky, &t, &cost_fn, &cfg());
        assert!(cost > 0.0);
        assert!(!dominated_by_any(&p, &sky, &up));
    }

    /// The hoisted-sort path must return the exact bits of the
    /// per-product path — including when coordinates tie, which is
    /// where an unstable or differently-seeded sort would diverge.
    #[test]
    fn presorted_path_is_bit_identical_even_with_ties() {
        let mut rng = 0x5eed_cafe_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for dims in [2usize, 3, 4] {
            // Coordinates drawn from a tiny discrete grid so ties on
            // every dimension are common.
            let mut p = PointStore::new(dims);
            let all: Vec<PointId> = (0..60)
                .map(|_| {
                    let coords: Vec<f64> =
                        (0..dims).map(|_| 0.1 + 0.1 * (next() % 4) as f64).collect();
                    p.push(&coords)
                })
                .collect();
            let orders = DimOrders::new(&p, &all);
            let cost_fn = SumCost::reciprocal(dims, 1e-3);
            for extended in [false, true] {
                let mut c = cfg();
                c.extended_candidates = extended;
                let mut scratch = UpgradeScratch::new();
                for _ in 0..40 {
                    let t: Vec<f64> = (0..dims)
                        .map(|_| 0.5 + 0.001 * (next() % 500) as f64)
                        .collect();
                    // Id-sorted dominator subset, as a skyline view sees it.
                    let dominators: Vec<PointId> = all
                        .iter()
                        .copied()
                        .filter(|&s| skyup_geom::dominance::dominates(p.point(s), &t))
                        .collect();
                    let (seq_cost, seq_up) = upgrade_single(&p, &dominators, &t, &cost_fn, &c);
                    let pre_cost = upgrade_single_presorted_into(
                        &p,
                        &orders,
                        &dominators,
                        &t,
                        &cost_fn,
                        &c,
                        &mut scratch,
                    );
                    assert_eq!(seq_cost.to_bits(), pre_cost.to_bits());
                    assert_eq!(seq_up.len(), scratch.upgraded().len());
                    for (a, b) in seq_up.iter().zip(scratch.upgraded()) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
    }
}
