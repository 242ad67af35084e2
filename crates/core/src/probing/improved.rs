//! The improved probing algorithm: Algorithm 2 with lines 3–4 replaced by
//! `getDominatingSky` (Algorithm 3).

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use crate::error::{validate_query, SkyupError};
use crate::probing::record_guard;
use crate::result::{AnytimeTopK, UpgradeResult};
use crate::topk::TopK;
use crate::upgrade::upgrade_single;
use skyup_geom::PointStore;
use skyup_obs::{
    timed, Completion, Counter, ExecGuard, ExecutionLimits, NullRecorder, Phase, Recorder,
};
use skyup_rtree::RTree;
use skyup_skyline::dominating_skyline_lim;

/// Runs the improved probing algorithm: for every `t ∈ T`, the skyline
/// of `t`'s dominators is computed directly by a constrained BBS
/// traversal of `R_P` — R-tree nodes whose minimum corner is dominated
/// by an already-found skyline point are pruned without being read
/// (paper Figure 2) — then `t` is upgraded with Algorithm 1. Returns the
/// `k` cheapest upgrades sorted by `(cost, product id)`.
pub fn improved_probing_topk<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
) -> Vec<UpgradeResult> {
    improved_probing_topk_rec(p_store, p_tree, t_store, k, cost_fn, cfg, &mut NullRecorder)
}

/// [`improved_probing_topk`] with instrumentation: times the probe loop
/// and its `getDominatingSky` / upgrade phases, counts R-tree accesses,
/// dominance tests, and products evaluated.
#[allow(clippy::too_many_arguments)]
pub fn improved_probing_topk_rec<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
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
    improved_probe_loop(p_store, p_tree, t_store, k, cost_fn, cfg, guard, rec).results
}

/// Fallible, guarded improved probing: input validation as in
/// [`crate::probing::try_basic_probing_topk`], then the probe loop runs
/// under `limits` with every `getDominatingSky` traversal charged to
/// the guard. On interruption the exact top-k over the fully evaluated
/// prefix of `T` comes back tagged [`Completion::Partial`]; unlimited
/// runs are bit-identical to [`improved_probing_topk_rec`] (both run
/// the same loop).
#[allow(clippy::too_many_arguments)]
pub fn try_improved_probing_topk<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
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
    let out = improved_probe_loop(p_store, p_tree, t_store, k, cost_fn, cfg, &mut guard, rec);
    record_guard(rec, guard.node_visits(), out.completion);
    Ok(out)
}

/// The improved probe loop behind every entry point above. The guard is
/// checked between products and charged inside every
/// `getDominatingSky` traversal; an interrupted product is discarded
/// whole.
#[allow(clippy::too_many_arguments)]
fn improved_probe_loop<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    guard: &mut ExecGuard,
    rec: &mut R,
) -> AnytimeTopK {
    let mut topk = TopK::new(k);
    let mut completion = Completion::Exact;
    let mut evaluated = 0usize;

    timed(rec, Phase::ProbeLoop, |rec| {
        for (tid, t) in t_store.iter() {
            if let Err(i) = guard.checkpoint() {
                completion = Completion::Partial(i);
                break;
            }
            let sky_res = timed(rec, Phase::DominatingSky, |rec| {
                dominating_skyline_lim(p_store, p_tree, t, rec, guard)
            });
            let skyline = match sky_res {
                Ok(s) => s,
                Err(i) => {
                    completion = Completion::Partial(i);
                    break;
                }
            };
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
