//! Exact work-count pins for the paper's traversals, in the tier-1
//! suite: the join resolving one product at a time, root-seeded
//! Algorithm 3 (`dominating_skyline_rec`), plain BBS (`skyline_bbs_rec`)
//! and 1-thread bound-sorted improved probing, on seeded instances in
//! two domains. Every nonzero counter and every result bit is pinned.
//! Scheduled probing walks `R_P` once, for `skyline(P)`, so its R-tree
//! and heap counts equal the BBS line's.
//!
//! No timing is read, so the pins hold on any host and in any build
//! profile; CI runs this file in debug (the workspace sweep) and in
//! release (next to the vectorized kernel tests).

use skyup::core::cost::{AttributeCost, LinearCost, SumCost};
use skyup::core::join::{JoinUpgrader, LowerBound};
use skyup::core::{
    improved_probing_topk_scheduled_rec, ExecutionLimits, ProbeStrategy, UpgradeConfig,
    UpgradeResult,
};
use skyup::data::synthetic::{generate, paper_products, Distribution, SyntheticConfig};
use skyup::geom::{PointId, PointStore};
use skyup::obs::{Counter, QueryMetrics};
use skyup::rtree::{RTree, RTreeParams};
use skyup::skyline::{dominating_skyline_rec, skyline_bbs_rec};

const DIMS: usize = 3;
const K: usize = 10;
/// Products of `T` whose dominator skyline is computed root-seeded.
const SEEDED_PRODUCTS: usize = 24;

/// One line per `(domain, path)`: every nonzero counter in
/// `Counter::ALL` order, then a digest of the path's result bits. A
/// change that only makes these paths faster must leave every line as
/// it is; a changed line means changed work or changed answers.
const EXPECTED: &[(&str, &str)] = &[
    (
        "interleaved/join",
        "DominanceTests=3512142 RtreeNodeAccesses=2379 RtreeEntryAccesses=143243 SkylinePointsRetained=12316 LowerBoundEvals=412 HeapPushes=52450 HeapPops=52095 TNodesExpanded=8 PNodesExpanded=2 JlEntriesPruned=21 ExactUpgrades=180 ResultsEmitted=10 GuardedNodeVisits=2389 KernelBlockScans=80481 KernelBlocksSkipped=10416 bits=153638e04df4e267",
    ),
    (
        "interleaved/dominating_sky",
        "DominanceTests=787512 RtreeNodeAccesses=402 RtreeEntryAccesses=24098 SkylinePointsRetained=2264 HeapPushes=10409 HeapPops=10409 KernelBlockScans=18091 KernelBlocksSkipped=1779 bits=dae568d3f7604d14",
    ),
    (
        "interleaved/bbs",
        "DominanceTests=91542 RtreeNodeAccesses=27 RtreeEntryAccesses=1599 SkylinePointsRetained=179 HeapPushes=942 HeapPops=942 KernelBlockScans=2033 KernelBlocksSkipped=83 bits=64a768c7454fffe3",
    ),
    (
        "interleaved/bound_sorted_1t",
        "DominanceTests=117318 RtreeNodeAccesses=27 RtreeEntryAccesses=1599 SkylinePointsRetained=179 LowerBoundEvals=400 ThresholdPrunes=257 ProductsEvaluated=143 HeapPushes=942 HeapPops=942 ResultsEmitted=10 StealEvents=144 SharedThresholdUpdates=21 KernelBlockScans=2462 KernelBlocksSkipped=83 bits=7c3d974529d676b7",
    ),
    (
        "paper/join",
        "DominanceTests=83250 SkylinePointsRetained=1310 LowerBoundEvals=312 HeapPushes=1471 HeapPops=1351 TNodesExpanded=3 PNodesExpanded=18 JlEntriesPruned=823 ExactUpgrades=10 ResultsEmitted=10 GuardedNodeVisits=21 KernelBlockScans=1820 KernelBlocksSkipped=160 bits=557c2337652ad0ce",
    ),
    (
        "paper/dominating_sky",
        "DominanceTests=1231176 RtreeNodeAccesses=408 RtreeEntryAccesses=22200 SkylinePointsRetained=3144 HeapPushes=15648 HeapPops=15648 KernelBlockScans=25032 KernelBlocksSkipped=3864 bits=a1627562831c1b25",
    ),
    (
        "paper/bbs",
        "DominanceTests=51168 RtreeNodeAccesses=17 RtreeEntryAccesses=925 SkylinePointsRetained=131 HeapPushes=652 HeapPops=652 KernelBlockScans=1043 KernelBlocksSkipped=161 bits=4bada69790752265",
    ),
    (
        "paper/bound_sorted_1t",
        "DominanceTests=74748 RtreeNodeAccesses=17 RtreeEntryAccesses=925 SkylinePointsRetained=131 LowerBoundEvals=200 ThresholdPrunes=21 ProductsEvaluated=179 HeapPushes=652 HeapPops=652 ResultsEmitted=10 StealEvents=180 SharedThresholdUpdates=15 KernelBlockScans=1580 KernelBlocksSkipped=161 bits=5a9444d79e9dbd56",
    ),
];

/// The per-attribute linear cost the `paper_topk` workload uses.
fn linear_cost() -> SumCost {
    SumCost::new(
        (0..DIMS)
            .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
            .collect(),
    )
}

/// Competitors anti-correlated on `[0, 1]³`; products either on
/// `[0.3, 1.3]³` (interleaved with `P`, like `paper_topk`) or on the
/// paper's `(1, 2]³`, where every product is dominated by all of
/// `skyline(P)`.
fn domains() -> Vec<(&'static str, PointStore, PointStore)> {
    let p = |n, seed| {
        generate(
            n,
            &SyntheticConfig::unit(DIMS, Distribution::AntiCorrelated, seed),
        )
    };
    let interleaved_t = generate(
        400,
        &SyntheticConfig {
            dims: DIMS,
            distribution: Distribution::Independent,
            lo: 0.3,
            hi: 1.3,
            seed: 2603,
        },
    );
    vec![
        ("interleaved", p(2_000, 2601), interleaved_t),
        (
            "paper",
            p(1_000, 2611),
            paper_products(200, DIMS, Distribution::Independent, 2613),
        ),
    ]
}

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn results_digest(rs: &[UpgradeResult]) -> u64 {
    fnv(rs.iter().flat_map(|r| {
        std::iter::once(u64::from(r.product.0))
            .chain(std::iter::once(r.cost.to_bits()))
            .chain(r.original.iter().chain(&r.upgraded).map(|x| x.to_bits()))
    }))
}

fn ids_digest<'a>(lists: impl IntoIterator<Item = &'a [PointId]>) -> u64 {
    fnv(lists.into_iter().flat_map(|ids| {
        std::iter::once(ids.len() as u64).chain(ids.iter().map(|p| u64::from(p.0)))
    }))
}

/// Every nonzero counter in `Counter::ALL` order, then the digest.
fn pin_line(m: &QueryMetrics, digest: u64) -> String {
    let mut line: Vec<String> = Counter::ALL
        .iter()
        .filter(|&&c| m.get(c) != 0)
        .map(|&c| format!("{c:?}={}", m.get(c)))
        .collect();
    line.push(format!("bits={digest:016x}"));
    line.join(" ")
}

/// The pin lines of every path on one domain.
fn measure(name: &str, p: &PointStore, t: &PointStore) -> Vec<(String, String)> {
    let rp = RTree::bulk_load(p, RTreeParams::default());
    let rt = RTree::bulk_load(t, RTreeParams::default());
    let cost = linear_cost();
    let cfg = UpgradeConfig::default();
    let mut out = Vec::new();

    // An armed limit resolves one product at a time on the caller; a
    // budget of u64::MAX node visits is never hit.
    let limits = ExecutionLimits::none().with_max_node_visits(u64::MAX);
    let mut join = JoinUpgrader::new(p, &rp, t, &rt, &cost, cfg, LowerBound::Conservative)
        .with_limits(&limits);
    let top = join.collect_topk(K);
    assert!(top.completion.is_exact(), "{name}: the budget was hit");
    assert_eq!(top.results.len(), K, "{name}: join top-k");
    out.push((
        format!("{name}/join"),
        pin_line(join.metrics(), results_digest(&top.results)),
    ));

    let mut m = QueryMetrics::new();
    let skylines: Vec<Vec<PointId>> = (0..SEEDED_PRODUCTS as u32)
        .map(|i| dominating_skyline_rec(p, &rp, t.point(PointId(i)), &mut m))
        .collect();
    let digest = ids_digest(skylines.iter().map(Vec::as_slice));
    out.push((format!("{name}/dominating_sky"), pin_line(&m, digest)));

    let mut m = QueryMetrics::new();
    let sky = skyline_bbs_rec(p, &rp, &mut m);
    out.push((format!("{name}/bbs"), pin_line(&m, ids_digest([&sky[..]]))));

    let mut m = QueryMetrics::new();
    let (probed, _) = improved_probing_topk_scheduled_rec(
        p,
        &rp,
        t,
        K,
        &cost,
        &cfg,
        1,
        ProbeStrategy::BoundSorted,
        &mut m,
    );
    assert_eq!(probed.len(), K, "{name}: probing top-k");
    out.push((
        format!("{name}/bound_sorted_1t"),
        pin_line(&m, results_digest(&probed)),
    ));
    out
}

#[test]
fn traversal_work_and_answers_are_pinned() {
    let got: Vec<(String, String)> = domains()
        .iter()
        .flat_map(|(name, p, t)| measure(name, p, t))
        .collect();
    let table: String = got
        .iter()
        .map(|(k, v)| format!("    (\n        \"{k}\",\n        \"{v}\",\n    ),\n"))
        .collect();
    let want: Vec<(String, String)> = EXPECTED
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    assert!(
        got == want,
        "traversal pins differ; this tree measured:\n{table}"
    );
}
