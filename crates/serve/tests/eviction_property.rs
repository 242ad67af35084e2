//! Property suite for the cache's delete-invalidation rule.
//!
//! The cache evicts, on a remove, the entries whose product the removed
//! competitor strictly dominates — and only when that competitor was a
//! skyline member. The rule it must reproduce records each entry's
//! dominator skyline as competitor ids when the entry is cached, and
//! evicts exactly the entries whose list holds the removed id. A shadow
//! cache runs that rule over a mirrored live set, and every mutation's
//! `evicted` count and every `cached` size must match it.
//!
//! Coordinates sit on a coarse grid, so exact-duplicate competitors,
//! adds that land exactly on a cached product (`p == t`) and repeated
//! products all occur; remove-heavy phases push the engine through
//! rebuilds and through removals of skyline members, twins included.

use skyup_data::rng::Rng;
use skyup_geom::dominance::dominates;
use skyup_geom::point_in_adr;
use skyup_serve::{
    execute_query, CompetitorId, CostSpec, Engine, EngineConfig, Mutation, QueryRequest,
    ServeConfig, ServeHandle,
};
use std::collections::HashMap;
use std::sync::Arc;

const DIMS: usize = 3;
const COSTS: [CostSpec; 2] = [CostSpec::Reciprocal(1e-3), CostSpec::Linear(2.0)];

fn grid_point(rng: &mut Rng) -> Vec<f64> {
    (0..DIMS).map(|_| rng.range_usize(5) as f64 / 4.0).collect()
}

/// The dominator skyline of `t` over the live set, by brute force: the
/// live points that strictly dominate `t` and that no live point
/// strictly dominates.
fn dominator_skyline(live: &[(CompetitorId, Vec<f64>)], t: &[f64]) -> Vec<CompetitorId> {
    live.iter()
        .filter(|(_, s)| dominates(s, t))
        .filter(|(_, s)| !live.iter().any(|(_, q)| dominates(q, s)))
        .map(|(cid, _)| *cid)
        .collect()
}

type ShadowKey = (Vec<u64>, usize);

/// The id-list rule: each entry keeps the dominator ids it was cached
/// with.
#[derive(Default)]
struct Shadow {
    entries: HashMap<ShadowKey, (Vec<f64>, Vec<CompetitorId>)>,
}

impl Shadow {
    /// Mirrors the cache fill: a product evaluated while absent is
    /// admitted with its current dominator ids; a present one was a hit.
    fn answered(&mut self, live: &[(CompetitorId, Vec<f64>)], t: &[f64], cost: usize) {
        let key = (t.iter().map(|v| v.to_bits()).collect(), cost);
        self.entries
            .entry(key)
            .or_insert_with(|| (t.to_vec(), dominator_skyline(live, t)));
    }

    fn evict(&mut self, doomed: impl Fn(&[f64], &[CompetitorId]) -> bool) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|_, (t, used)| !doomed(t, used));
        (before - self.entries.len()) as u64
    }
}

#[derive(Debug, Default)]
struct Exercised {
    rebuilds: u64,
    evicting_removes: u64,
    adds_onto_cached_products: u64,
    duplicate_adds: u64,
}

fn run_seed(seed: u64, ops: usize) -> Exercised {
    let mut rng = Rng::seed_from_u64(seed);
    let cfg = EngineConfig {
        rebuild_min_dead: 4,
        ..EngineConfig::default()
    };
    let engine = Arc::new(Engine::new(DIMS, cfg));
    // Two pool workers answer some query rounds concurrently.
    let handle = ServeHandle::start(
        Arc::clone(&engine),
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    );
    let mut live: Vec<(CompetitorId, Vec<f64>)> = Vec::new();
    let mut shadow = Shadow::default();
    let mut seen = Exercised::default();
    // Products recur from a small pool, so entries outlive mutations.
    let pool: Vec<Vec<f64>> = (0..40).map(|_| grid_point(&mut rng)).collect();

    for op in 0..ops {
        // Alternate growing and shrinking phases of 250 ops each (40%
        // adds and 20% removes, then the reverse), so the live set
        // swings between empty and ~50 points.
        let shrinking = (op / 250) % 2 == 1;
        let roll = rng.range_usize(10);
        if roll < 4 {
            let costs: Vec<usize> = (0..1 + rng.range_usize(3))
                .map(|_| rng.range_usize(COSTS.len()))
                .collect();
            let requests: Vec<QueryRequest> = costs
                .iter()
                .map(|&cost| QueryRequest {
                    products: (0..1 + rng.range_usize(3))
                        .map(|_| pool[rng.range_usize(pool.len())].clone())
                        .collect(),
                    k: 2,
                    cost: COSTS[cost],
                    max_products: None,
                    deadline: None,
                })
                .collect();
            if rng.range_usize(2) == 0 {
                for req in &requests {
                    execute_query(&engine, req).expect("valid query");
                }
            } else {
                let tickets: Vec<_> = requests
                    .iter()
                    .map(|req| handle.query_async(req.clone()).expect("valid query"))
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("valid query");
                }
            }
            for (req, &cost) in requests.iter().zip(&costs) {
                for t in &req.products {
                    shadow.answered(&live, t, cost);
                }
            }
        } else if roll < if shrinking { 6 } else { 8 } {
            let p = if rng.range_usize(4) == 0 {
                pool[rng.range_usize(pool.len())].clone()
            } else {
                grid_point(&mut rng)
            };
            if shadow.entries.values().any(|(t, _)| *t == p) {
                seen.adds_onto_cached_products += 1;
            }
            if live.iter().any(|(_, q)| *q == p) {
                seen.duplicate_adds += 1;
            }
            let out = engine
                .apply(Mutation::AddCompetitor(p.clone()))
                .expect("valid add");
            let want = shadow.evict(|t, _| point_in_adr(&p, t));
            assert_eq!(out.evicted, want, "seed {seed} op {op}: add {p:?}");
            live.push((out.cid.expect("add assigns a cid"), p));
            seen.rebuilds += u64::from(out.rebuilt);
        } else {
            let cid = if live.is_empty() || rng.range_usize(20) == 0 {
                u64::MAX - rng.range_usize(4) as u64
            } else {
                live[rng.range_usize(live.len())].0
            };
            let out = engine
                .apply(Mutation::RemoveCompetitor(cid))
                .expect("remove never errors");
            let known = live.iter().any(|(c, _)| *c == cid);
            assert_eq!(out.removed, known, "seed {seed} op {op}");
            let want = if known {
                shadow.evict(|_, used| used.contains(&cid))
            } else {
                0
            };
            assert_eq!(out.evicted, want, "seed {seed} op {op}: remove {cid}");
            live.retain(|(c, _)| *c != cid);
            seen.rebuilds += u64::from(out.rebuilt);
            seen.evicting_removes += u64::from(want > 0);
        }
        assert_eq!(
            engine.stats().cached,
            shadow.entries.len(),
            "seed {seed} op {op}: cache size"
        );
    }
    assert_eq!(engine.stats().live, live.len());
    handle.shutdown();
    seen
}

#[test]
fn remove_evictions_match_the_dominator_id_rule() {
    for seed in 1..=6 {
        let seen = run_seed(seed, 8_000);
        // The run must have exercised what it claims to check.
        assert!(seen.rebuilds >= 10, "seed {seed}: {seen:?}");
        assert!(seen.evicting_removes >= 50, "seed {seed}: {seen:?}");
        assert!(
            seen.adds_onto_cached_products >= 10,
            "seed {seed}: {seen:?}"
        );
        assert!(seen.duplicate_adds >= 10, "seed {seed}: {seen:?}");
    }
}
