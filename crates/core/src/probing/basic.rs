//! Algorithm 2: the basic probing baseline.

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use crate::error::{validate_query, SkyupError};
use crate::probing::record_guard;
use crate::result::{AnytimeTopK, UpgradeResult};
use crate::topk::TopK;
use crate::upgrade::upgrade_single;
use skyup_geom::dominance::dominates;
use skyup_geom::{PointId, PointStore, Rect};
use skyup_obs::{
    timed, Completion, Counter, ExecGuard, ExecutionLimits, NullRecorder, Phase, Recorder,
};
use skyup_rtree::RTree;
use skyup_skyline::skyline_sfs_rec;

/// Runs the basic probing algorithm: for every `t ∈ T`, fetch all
/// dominators with a range query over `ADR(t)`, compute their skyline in
/// memory, upgrade `t` with Algorithm 1, and return the `k` cheapest
/// upgrades sorted by `(cost, product id)`.
///
/// `p_tree` must index exactly the points of `p_store`.
///
/// Note: points *equal* to `t` fall inside `ADR(t)` but do not dominate
/// `t`; they are filtered out before the skyline step so that a product
/// tying with a competitor is correctly reported as already competitive.
pub fn basic_probing_topk<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
) -> Vec<UpgradeResult> {
    basic_probing_topk_rec(p_store, p_tree, t_store, k, cost_fn, cfg, &mut NullRecorder)
}

/// [`basic_probing_topk`] with instrumentation: times the probe loop and
/// its per-product range-query (`DominatingSky`) and upgrade phases,
/// counts ADR candidates, dominance tests, R-tree accesses, and products
/// evaluated.
#[allow(clippy::too_many_arguments)]
pub fn basic_probing_topk_rec<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    rec: &mut R,
) -> Vec<UpgradeResult> {
    assert_eq!(
        p_store.dims(),
        t_store.dims(),
        "P and T dimensionality differ"
    );
    if t_store.is_empty() {
        return Vec::new();
    }
    let guard = &mut ExecGuard::unlimited();
    basic_probe_loop(p_store, p_tree, t_store, k, cost_fn, cfg, guard, rec).results
}

/// Fallible, guarded basic probing: validates the inputs up front
/// (dimensionalities, `k >= 1`, non-empty `P`, index cardinality,
/// cost-function monotonicity on sampled data) and runs the probe loop
/// under `limits`. When a limit fires the loop stops between products
/// and the exact top-k over the fully evaluated prefix of `T` is
/// returned tagged [`Completion::Partial`]; with no limits the output
/// is bit-identical to [`basic_probing_topk_rec`] (both run the same
/// loop).
#[allow(clippy::too_many_arguments)]
pub fn try_basic_probing_topk<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    limits: &ExecutionLimits,
    rec: &mut R,
) -> Result<AnytimeTopK, SkyupError> {
    validate_query(p_store, p_tree, t_store, k, cost_fn)?;
    let mut guard = limits.start();
    let out = basic_probe_loop(p_store, p_tree, t_store, k, cost_fn, cfg, &mut guard, rec);
    record_guard(rec, guard.node_visits(), out.completion);
    Ok(out)
}

/// The basic probe loop behind every entry point above. The guard is
/// checked between products and charged for every range-query node
/// read; an interrupted product is discarded whole.
#[allow(clippy::too_many_arguments)]
fn basic_probe_loop<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    guard: &mut ExecGuard,
    rec: &mut R,
) -> AnytimeTopK {
    let dims = p_store.dims();
    let mut topk = TopK::new(k);
    let mut completion = Completion::Exact;
    let mut evaluated = 0usize;
    let mut candidates: Vec<PointId> = Vec::new();

    timed(rec, Phase::ProbeLoop, |rec| {
        for (tid, t) in t_store.iter() {
            if let Err(i) = guard.checkpoint() {
                completion = Completion::Partial(i);
                break;
            }
            // Lines 3-4: dominators <- RangeQuery(R_P, ADR(t)), then their
            // skyline — the basic algorithm's stand-in for Algorithm 3.
            let sky_res = timed(rec, Phase::DominatingSky, |rec| {
                let dominators: Vec<PointId> = if p_tree.is_empty() {
                    Vec::new()
                } else {
                    let root_lo = p_tree.root().mbr().lo();
                    let adr_lo: Vec<f64> = (0..dims).map(|i| root_lo[i].min(t[i])).collect();
                    let adr = Rect::new(&adr_lo, t);
                    p_tree.range_query_into_lim(p_store, &adr, &mut candidates, rec, guard)?;
                    rec.incr(Counter::AdrCandidates, candidates.len() as u64);
                    candidates
                        .iter()
                        .copied()
                        .filter(|&p| {
                            rec.bump(Counter::DominanceTests);
                            dominates(p_store.point(p), t)
                        })
                        .collect()
                };
                Ok(skyline_sfs_rec(p_store, &dominators, rec))
            });
            let skyline = match sky_res {
                Ok(s) => s,
                Err(i) => {
                    // A truncated dominator set is unsound for upgrades.
                    completion = Completion::Partial(i);
                    break;
                }
            };

            // Line 5: upgrade(S, t, f_p).
            let (cost, upgraded) = timed(rec, Phase::Upgrade, |_| {
                upgrade_single(p_store, &skyline, t, cost_fn, cfg)
            });
            rec.bump(Counter::ProductsEvaluated);
            evaluated += 1;
            topk.offer(UpgradeResult {
                product: tid,
                original: t.to_vec(),
                upgraded,
                cost,
            });
        }
    });
    let results = topk.into_sorted();
    rec.incr(Counter::ResultsEmitted, results.len() as u64);
    AnytimeTopK {
        results,
        completion,
        evaluated,
    }
}
