//! Exact shape pins for STR bulk loading (`RTree::bulk_load`): every
//! node of every tree below, in arena order, is folded into one digest
//! together with the root id, so a change that only makes the bulk load
//! faster must leave every line as it is.
//!
//! The inputs cover the shapes the repo builds (the `paper_topk`
//! competitor and product sets, the wine stand-in of Figures 4–9 at
//! three fanouts), the tie-heavy case (a 2-d grid whose coordinates
//! repeat every 7 and 5 steps, so most sort keys are tied and the order
//! of tied entries is part of what is pinned), 1-d and 4-d sets, and the
//! single-leaf boundary sizes 1, M and M + 1.
//!
//! The digest reads the tree through its public accessors only; it does
//! not depend on any serialization format.

use skyup::data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup::data::{wine_dataset, WineAttr};
use skyup::geom::PointStore;
use skyup::rtree::{NodeId, RTree, RTreeParams};

/// One line per input: reachable node count, height, then the digest of
/// the root id and every node (id, level, MBR bits, entries).
const EXPECTED: &[(&str, &str)] = &[
    ("paper_topk/p", "nodes=83 height=3 digest=c388ed76805e7951"),
    ("paper_topk/t", "nodes=19 height=2 digest=5cb90ec33bb05d13"),
    ("wine_cst/m8", "nodes=759 height=5 digest=05647a5ebc0a9740"),
    ("wine_cst/m16", "nodes=373 height=4 digest=c5d7a307dc8a4a22"),
    ("wine_cst/m64", "nodes=83 height=3 digest=4c6a05a9f143e129"),
    ("tie_grid/m8", "nodes=467 height=5 digest=3955da8a44efdc3e"),
    ("tie_grid/m64", "nodes=57 height=2 digest=54d939acc77bfccf"),
    ("line_1d", "nodes=201 height=3 digest=6f362cd7cfc8e26f"),
    ("anti_4d", "nodes=209 height=3 digest=ffb7281cc6bb6687"),
    ("size_1", "nodes=1 height=1 digest=05d80e3c5bdce444"),
    ("size_64", "nodes=1 height=1 digest=3645ebe752c82153"),
    ("size_65", "nodes=3 height=2 digest=fc3182d488de5815"),
];

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

/// The ids of every node reachable from the root, in arena order.
fn arena_order(tree: &RTree) -> Vec<NodeId> {
    let mut ids = Vec::new();
    let mut stack = vec![tree.root_id()];
    while let Some(id) = stack.pop() {
        ids.push(id);
        stack.extend_from_slice(tree.node(id).children());
    }
    ids.sort_unstable();
    ids
}

fn pin_line(tree: &RTree) -> String {
    let ids = arena_order(tree);
    let mut words = vec![u64::from(tree.root_id().0)];
    for &id in &ids {
        let node = tree.node(id);
        words.push(u64::from(id.0));
        words.push(u64::from(node.level()));
        words.extend(node.mbr().lo().iter().map(|x| x.to_bits()));
        words.extend(node.mbr().hi().iter().map(|x| x.to_bits()));
        words.push(node.children().len() as u64);
        words.extend(node.children().iter().map(|c| u64::from(c.0)));
        words.push(node.points().len() as u64);
        words.extend(node.points().iter().map(|p| u64::from(p.0)));
    }
    format!(
        "nodes={} height={} digest={:016x}",
        ids.len(),
        tree.height(),
        fnv(words)
    )
}

fn unit(n: usize, dims: usize, distribution: Distribution, seed: u64) -> PointStore {
    generate(n, &SyntheticConfig::unit(dims, distribution, seed))
}

/// `(name, points, fanout)` for every pinned tree.
fn inputs() -> Vec<(String, PointStore, usize)> {
    let mut out = vec![
        (
            "paper_topk/p".to_string(),
            unit(5_000, 3, Distribution::AntiCorrelated, 2801),
            64,
        ),
        (
            "paper_topk/t".to_string(),
            generate(
                1_000,
                &SyntheticConfig {
                    dims: 3,
                    distribution: Distribution::Independent,
                    lo: 0.3,
                    hi: 1.3,
                    seed: 2802,
                },
            ),
            64,
        ),
    ];
    let wine = wine_dataset(
        &[
            WineAttr::Chlorides,
            WineAttr::Sulphates,
            WineAttr::TotalSulfurDioxide,
        ],
        2012,
    );
    for fanout in [8, 16, 64] {
        out.push((format!("wine_cst/m{fanout}"), wine.clone(), fanout));
    }
    let mut grid = PointStore::new(2);
    for i in 0..70 {
        for j in 0..45 {
            grid.push(&[(i % 7) as f64, (j % 5) as f64]);
        }
    }
    for fanout in [8, 64] {
        out.push((format!("tie_grid/m{fanout}"), grid.clone(), fanout));
    }
    out.push((
        "line_1d".to_string(),
        unit(3_000, 1, Distribution::Independent, 2803),
        16,
    ));
    out.push((
        "anti_4d".to_string(),
        unit(3_000, 4, Distribution::AntiCorrelated, 2804),
        16,
    ));
    let m = RTreeParams::default().max_entries;
    for n in [1, m, m + 1] {
        out.push((
            format!("size_{n}"),
            unit(n, 3, Distribution::Independent, 2805),
            m,
        ));
    }
    out
}

#[test]
fn str_trees_are_pinned() {
    let got: Vec<(String, String)> = inputs()
        .into_iter()
        .map(|(name, store, fanout)| {
            let tree = RTree::bulk_load(&store, RTreeParams::with_max_entries(fanout));
            tree.validate(&store)
                .unwrap_or_else(|e| panic!("{name}: invalid tree: {e:?}"));
            assert_eq!(tree.len(), store.len(), "{name}: point count");
            (name, pin_line(&tree))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", \"{v}\"),\n"))
        .collect();
    let want: Vec<(String, String)> = EXPECTED
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    assert!(
        got == want,
        "STR tree pins differ; this tree built:\n{table}"
    );
}
