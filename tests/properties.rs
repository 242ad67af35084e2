//! Randomized-input tests over the core invariants. Formerly proptest;
//! now deterministic loops over cases drawn from the in-repo PRNG (the
//! offline environment cannot pull `proptest`), with the generators'
//! shapes preserved: quantized coordinates for ties/duplicates, small
//! stores, per-case seeds.

use skyup::core::cost::{CostFunction, SumCost};
use skyup::core::join::{lbc_entry, lbc_entry_admissible};
use skyup::core::{upgrade_single, UpgradeConfig};
use skyup::data::Rng;
use skyup::geom::dominance::{compare, dominates, dominates_or_equal, DomRelation};
use skyup::geom::{PointId, PointStore, Rect};
use skyup::rtree::{RTree, RTreeParams};
use skyup::skyline::{skyline_bbs, skyline_bnl, skyline_naive, skyline_sfs};

const DIMS: usize = 3;
const CASES: u64 = 128;

/// Quantized coordinate in `{0.00, 0.01, …, 0.99}` — plenty of ties and
/// duplicates, as the proptest strategy produced.
fn coord(rng: &mut Rng) -> f64 {
    rng.range_usize(100) as f64 / 100.0
}

fn point(rng: &mut Rng) -> Vec<f64> {
    (0..DIMS).map(|_| coord(rng)).collect()
}

/// Between 1 and `max - 1` quantized points.
fn points(rng: &mut Rng, max: usize) -> Vec<Vec<f64>> {
    let n = 1 + rng.range_usize(max - 1);
    (0..n).map(|_| point(rng)).collect()
}

fn store_of(rows: &[Vec<f64>]) -> PointStore {
    PointStore::from_rows(DIMS, rows.iter().cloned())
}

/// Runs `f` once per case with a per-case seeded generator.
fn for_each_case(test_tag: u64, f: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(test_tag.wrapping_mul(0x9e37_79b9).wrapping_add(case));
        f(&mut rng);
    }
}

/// Dominance is a strict partial order: irreflexive, asymmetric,
/// transitive; `compare` is consistent with `dominates`.
#[test]
fn dominance_partial_order() {
    for_each_case(1, |rng| {
        let (a, b, c) = (point(rng), point(rng), point(rng));
        assert!(!dominates(&a, &a));
        if dominates(&a, &b) {
            assert!(!dominates(&b, &a));
            assert!(dominates_or_equal(&a, &b));
            assert_eq!(compare(&a, &b), DomRelation::Dominates);
        }
        if dominates(&a, &b) && dominates(&b, &c) {
            assert!(dominates(&a, &c));
        }
    });
}

/// All five skyline algorithms return exactly the same id set.
#[test]
fn skyline_algorithms_agree() {
    for_each_case(2, |rng| {
        let store = store_of(&points(rng, 120));
        let ids: Vec<PointId> = store.ids().collect();
        let mut naive = skyline_naive(&store, &ids);
        let mut bnl = skyline_bnl(&store, &ids);
        let mut sfs = skyline_sfs(&store, &ids);
        let mut dnc = skyup::skyline::skyline_dnc(&store, &ids);
        let tree = RTree::bulk_load(&store, RTreeParams::with_max_entries(4));
        let mut bbs = skyline_bbs(&store, &tree);
        naive.sort();
        bnl.sort();
        sfs.sort();
        dnc.sort();
        bbs.sort();
        assert_eq!(naive, bnl);
        assert_eq!(naive, sfs);
        assert_eq!(naive, dnc);
        assert_eq!(naive, bbs);
    });
}

/// k-skybands nest, the 1-skyband is the skyline, and reported
/// dominator counts are exact.
#[test]
fn skyband_properties() {
    for_each_case(3, |rng| {
        let store = store_of(&points(rng, 80));
        let k = 1 + rng.range_usize(5);
        let ids: Vec<PointId> = store.ids().collect();
        let band = skyup::skyline::skyband(&store, &ids, k);
        let next = skyup::skyline::skyband(&store, &ids, k + 1);
        let band_ids: std::collections::HashSet<PointId> = band.iter().map(|(p, _)| *p).collect();
        let next_ids: std::collections::HashSet<PointId> = next.iter().map(|(p, _)| *p).collect();
        assert!(band_ids.is_subset(&next_ids), "skybands must nest");
        for (p, count) in &band {
            let exact = ids
                .iter()
                .filter(|&&q| q != *p && dominates(store.point(q), store.point(*p)))
                .count();
            assert_eq!(*count, exact);
            assert!(*count < k);
        }
        if k == 1 {
            let mut sky = skyline_naive(&store, &ids);
            sky.sort();
            let mut got: Vec<PointId> = band.iter().map(|(p, _)| *p).collect();
            got.sort();
            assert_eq!(got, sky);
        }
    });
}

/// Store and tree persistence round-trips bit-exactly.
#[test]
fn persistence_roundtrip() {
    for_each_case(5, |rng| {
        let store = store_of(&points(rng, 60));
        let back = PointStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(store, back);
        let tree = RTree::bulk_load(&store, RTreeParams::with_max_entries(4));
        let tree_back = RTree::from_bytes(&tree.to_bytes(), &back).unwrap();
        assert!(tree_back.validate(&back).is_ok());
        assert_eq!(tree_back.len(), tree.len());
    });
}

/// A bulk-loaded R-tree validates and contains exactly its input;
/// range queries match linear scans.
#[test]
fn rtree_roundtrip_and_range() {
    for_each_case(6, |rng| {
        let store = store_of(&points(rng, 150));
        let tree = RTree::bulk_load(&store, RTreeParams::with_max_entries(4));
        assert!(tree.validate(&store).is_ok());

        let lo = point(rng);
        let span = point(rng);
        let hi: Vec<f64> = lo.iter().zip(&span).map(|(l, s)| l + s).collect();
        let range = Rect::new(&lo, &hi);
        let mut got = tree.range_query(&store, &range);
        got.sort();
        let mut want: Vec<PointId> = store
            .iter()
            .filter(|(_, c)| range.contains_point(c))
            .map(|(id, _)| id)
            .collect();
        want.sort();
        assert_eq!(got, want);
    });
}

/// Insertion-built trees validate and index the same point set.
#[test]
fn rtree_insertion_equivalence() {
    for_each_case(7, |rng| {
        let store = store_of(&points(rng, 80));
        let tree = RTree::from_insertion(&store, RTreeParams::with_max_entries(4));
        assert!(tree.validate(&store).is_ok());
        let mut pts = tree.iter_points();
        pts.sort();
        assert_eq!(pts, store.ids().collect::<Vec<_>>());
    });
}

/// Algorithm 1: the upgraded product is never dominated by any
/// competitor (not just the skyline), never worsens an attribute, has
/// non-negative cost equal to the product-cost delta, and costs zero
/// iff the product was already non-dominated.
#[test]
fn upgrade_single_invariants() {
    for_each_case(8, |rng| {
        let store = store_of(&points(rng, 100));
        let t = point(rng);
        let dominators: Vec<PointId> = store
            .iter()
            .filter(|(_, c)| dominates(c, &t))
            .map(|(id, _)| id)
            .collect();
        let skyline = skyline_naive(&store, &dominators);
        let cost_fn = SumCost::reciprocal(DIMS, 1e-2);
        let cfg = UpgradeConfig::with_epsilon(1e-4);
        let (cost, upgraded) = upgrade_single(&store, &skyline, &t, &cost_fn, &cfg);

        assert!(cost >= 0.0);
        assert!(upgraded.iter().zip(&t).all(|(u, o)| u <= o));
        for (_, c) in store.iter() {
            assert!(
                !dominates(c, &upgraded),
                "upgraded {upgraded:?} dominated by {c:?}"
            );
        }
        let delta = cost_fn.product_cost(&upgraded) - cost_fn.product_cost(&t);
        assert!((cost - delta).abs() < 1e-9);
        if dominators.is_empty() {
            assert_eq!(cost, 0.0);
            assert_eq!(upgraded, t);
        } else {
            assert!(cost > 0.0);
        }
    });
}

/// The extended candidate set never increases the reported cost.
#[test]
fn extended_candidates_never_worse() {
    for_each_case(9, |rng| {
        let store = store_of(&points(rng, 60));
        let t = point(rng);
        let dominators: Vec<PointId> = store
            .iter()
            .filter(|(_, c)| dominates(c, &t))
            .map(|(id, _)| id)
            .collect();
        let skyline = skyline_naive(&store, &dominators);
        let cost_fn = SumCost::reciprocal(DIMS, 1e-2);
        let base_cfg = UpgradeConfig::with_epsilon(1e-4);
        let ext_cfg = UpgradeConfig {
            extended_candidates: true,
            ..base_cfg
        };
        let (base, _) = upgrade_single(&store, &skyline, &t, &cost_fn, &base_cfg);
        let (ext, up) = upgrade_single(&store, &skyline, &t, &cost_fn, &ext_cfg);
        assert!(ext <= base + 1e-12);
        for (_, c) in store.iter() {
            assert!(!dominates(c, &up));
        }
    });
}

/// The admissible per-entry bound never exceeds the true cost of
/// upgrading any product in the `e_T` box against the points inside the
/// `e_P` box — and never exceeds the paper's LBC.
#[test]
fn admissible_bound_is_admissible() {
    for_each_case(10, |rng| {
        let e_t_min = point(rng);
        let store = store_of(&points(rng, 30));
        let t_offset = point(rng);
        // e_P = MBR of the generated points.
        let mut lo = vec![f64::INFINITY; DIMS];
        let mut hi = vec![f64::NEG_INFINITY; DIMS];
        for (_, c) in store.iter() {
            for i in 0..DIMS {
                lo[i] = lo[i].min(c[i]);
                hi[i] = hi[i].max(c[i]);
            }
        }
        let cost_fn = SumCost::reciprocal(DIMS, 1e-2);
        let adm = lbc_entry_admissible(&e_t_min, &hi, &cost_fn);
        let paper = lbc_entry(&e_t_min, &lo, &hi, &cost_fn).cost;
        assert!(adm <= paper + 1e-12, "admissible {adm} > paper {paper}");

        // A representative product in e_T's box: e_t_min shifted up.
        let t: Vec<f64> = e_t_min.iter().zip(&t_offset).map(|(a, b)| a + b).collect();
        let dominators: Vec<PointId> = store
            .iter()
            .filter(|(_, c)| dominates(c, &t))
            .map(|(id, _)| id)
            .collect();
        let skyline = skyline_naive(&store, &dominators);
        let cfg = UpgradeConfig::with_epsilon(1e-6);
        let (exact, _) = upgrade_single(&store, &skyline, &t, &cost_fn, &cfg);
        assert!(
            adm <= exact + 1e-9,
            "admissible bound {adm} exceeds exact cost {exact}"
        );
    });
}

/// Monotonicity of the experiment cost function: a dominating product
/// never costs less.
#[test]
fn cost_function_monotone() {
    for_each_case(11, |rng| {
        let (a, b) = (point(rng), point(rng));
        let cost_fn = SumCost::reciprocal(DIMS, 1e-2);
        if dominates(&a, &b) {
            assert!(cost_fn.product_cost(&a) >= cost_fn.product_cost(&b));
        }
    });
}

/// Lays out `rows` dims-major with `stride == rows.len()` for the free
/// columnar kernels.
fn to_cols(rows: &[Vec<f64>]) -> Vec<f64> {
    let n = rows.len();
    let mut cols = vec![0.0; DIMS * n];
    for (i, p) in rows.iter().enumerate() {
        for (d, &x) in p.iter().enumerate() {
            cols[d * n + i] = x;
        }
    }
    cols
}

/// A quantized coordinate that is sometimes `-0.0`: the kernels compare
/// raw `f64`s, and IEEE `-0.0 == +0.0` must hold through the mask loop
/// and the zone maps alike.
fn coord_signed_zero(rng: &mut Rng) -> f64 {
    let c = rng.range_usize(4) as f64 / 4.0;
    if c == 0.0 && rng.range_usize(2) == 0 {
        -0.0
    } else {
        c
    }
}

/// The three dominance scans — scalar loop, branch-free columnar
/// kernel, zone-mapped [`ColumnarPoints`] — agree bit-for-bit on
/// verdicts and dominator position lists, with exact work accounting,
/// at every block-boundary size and with duplicate and `±0.0`
/// coordinates.
#[test]
fn kernel_scalar_equivalence_across_paths() {
    use skyup::geom::{collect_dominators_cols, dominated_by_any_cols, ColumnarPoints, DOM_BLOCK};
    for_each_case(12, |rng| {
        // Sizes straddling the 64-lane block boundary, plus a random
        // small size for the degenerate shapes.
        let sizes = [63, 64, 65, 128, 129, 1 + rng.range_usize(62)];
        let n = sizes[rng.range_usize(sizes.len())];
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..DIMS).map(|_| coord_signed_zero(rng)).collect())
            .collect();
        let cols_raw = to_cols(&rows);
        let mut cols = ColumnarPoints::new(DIMS);
        for r in &rows {
            cols.push(r);
        }
        let total_blocks = n.div_ceil(DOM_BLOCK) as u64;
        for _ in 0..8 {
            let t: Vec<f64> = (0..DIMS).map(|_| coord_signed_zero(rng)).collect();
            let scalar_positions: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter(|(_, p)| dominates(p, &t))
                .map(|(i, _)| i as u32)
                .collect();
            let scalar_dominated = !scalar_positions.is_empty();

            // Membership: identical verdicts on both columnar paths.
            let raw = dominated_by_any_cols(&cols_raw, n, n, &t);
            let zoned = cols.dominated_by_any(&t);
            assert_eq!(raw.dominated, scalar_dominated, "raw kernel verdict");
            assert_eq!(zoned.dominated, scalar_dominated, "zoned verdict");
            // A non-dominated membership scan runs to completion, so
            // the conservation law is exact on it too.
            if !scalar_dominated {
                assert_eq!(raw.blocks, total_blocks);
                assert_eq!(zoned.blocks + zoned.skipped, total_blocks);
            }

            // Collect: identical position lists, exact accounting.
            let mut raw_out = Vec::new();
            let raw = collect_dominators_cols(&cols_raw, n, n, &t, &mut raw_out);
            let mut zoned_out = Vec::new();
            let zoned = cols.collect_dominators(&t, &mut zoned_out);
            assert_eq!(raw_out, scalar_positions, "raw collect positions");
            assert_eq!(zoned_out, scalar_positions, "zoned collect positions");
            assert_eq!(raw.points, n as u64);
            assert_eq!(raw.blocks, total_blocks);
            assert_eq!(raw.skipped, 0, "free kernel carries no zone maps");
            assert_eq!(
                zoned.blocks + zoned.skipped,
                total_blocks,
                "collect conservation law"
            );
            // Points covered == total minus the points of skipped
            // blocks. Only the tail block is partial, so the deficit is
            // `skipped * 64`, less `64 - tail` when the skipped set
            // included the tail block.
            let deficit = n as u64 - zoned.points;
            let tail = (n % DOM_BLOCK) as u64;
            let all_full = zoned.skipped * DOM_BLOCK as u64;
            let with_tail = if tail != 0 && zoned.skipped > 0 {
                all_full - DOM_BLOCK as u64 + tail
            } else {
                all_full
            };
            assert!(
                deficit == all_full || deficit == with_tail,
                "covered points {} inconsistent with {} skipped blocks of {n}",
                zoned.points,
                zoned.skipped
            );
        }
    });
}

/// Zone-map soundness oracle: a block whose min corner does not admit
/// the target (the skip condition) contains no dominator — checked
/// point-by-point — and the skip *count* matches the number of
/// non-admitting blocks exactly on full collect scans.
#[test]
fn zone_map_skips_are_sound_and_exactly_counted() {
    use skyup::geom::{ColumnarPoints, DOM_BLOCK};
    for_each_case(13, |rng| {
        let rows = points(rng, 200);
        let n = rows.len();
        let mut cols = ColumnarPoints::new(DIMS);
        for r in &rows {
            cols.push(r);
        }
        for _ in 0..8 {
            let t = point(rng);
            let mut non_admitting = 0u64;
            for b in 0..cols.blocks() {
                let (lo, hi) = cols.block_bounds(b).expect("block in range");
                assert_eq!(lo.len(), DIMS);
                assert_eq!(hi.len(), DIMS);
                let admits = lo.iter().zip(&t).all(|(&l, &y)| l <= y);
                if admits {
                    continue;
                }
                non_admitting += 1;
                // The oracle: every point of a non-admitting block is
                // individually unable to dominate the target.
                let lo_i = b * DOM_BLOCK;
                let hi_i = ((b + 1) * DOM_BLOCK).min(n);
                for p in &rows[lo_i..hi_i] {
                    assert!(
                        !dominates(p, &t),
                        "zone map would skip a block holding dominator {p:?} of {t:?}"
                    );
                }
            }
            let mut out = Vec::new();
            let scan = cols.collect_dominators(&t, &mut out);
            assert_eq!(
                scan.skipped, non_admitting,
                "skip count != non-admitting block count"
            );
            assert_eq!(
                scan.blocks + scan.skipped,
                cols.blocks() as u64,
                "collect conservation law"
            );
        }
    });
}
