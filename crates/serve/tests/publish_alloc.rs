//! Allocation accounting for epoch publication: a snapshot holds only
//! the live-set skyline rows and their ids, so publishing a mutation
//! that leaves the skyline alone costs O(|skyline|) bytes, not a copy
//! of the whole competitor store and R-tree.
//!
//! This file holds a single test, as `counting_alloc` requires.

mod counting_alloc;

use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_serve::{CompetitorId, Engine, EngineConfig, Mutation};
use std::collections::HashSet;

fn assert_snapshot_is_skyline_only(engine: &Engine, when: &str) {
    let snap = engine.snapshot();
    assert_eq!(snap.store().len(), snap.skyline().len(), "{when}");
    assert_eq!(snap.live_count(), engine.stats().live, "{when}");
}

#[test]
fn publishing_a_non_skyline_remove_allocates_o_skyline_bytes() {
    let n = 20_000;
    let store = generate(
        n,
        &SyntheticConfig::unit(3, Distribution::AntiCorrelated, 0x5eed),
    );
    let engine = Engine::with_competitors(store, EngineConfig::default());
    assert_snapshot_is_skyline_only(&engine, "seeded");

    let snap = engine.snapshot();
    let on_skyline: HashSet<CompetitorId> = snap.skyline().iter().map(|&p| snap.cid(p)).collect();
    drop(snap);
    let victims: Vec<CompetitorId> = (0..n as CompetitorId)
        .filter(|cid| !on_skyline.contains(cid))
        .step_by(97)
        .take(20)
        .collect();

    let mut bytes = Vec::with_capacity(victims.len());
    for &cid in &victims {
        let before = counting_alloc::requested();
        let out = engine
            .apply(Mutation::RemoveCompetitor(cid))
            .expect("remove never errors");
        bytes.push(counting_alloc::requested() - before);
        assert!(out.removed && !out.rebuilt, "cid {cid}: {out:?}");
    }
    // Every one of them, not just the median: the writer keeps no
    // index, so nothing on its side of a publish allocates in
    // proportion to |P|.
    bytes.sort_unstable();
    let max = bytes[bytes.len() - 1];
    assert!(
        max < 32 * 1024,
        "a publish of a non-skyline remove allocated {max} bytes (sorted: {bytes:?})"
    );
    assert_snapshot_is_skyline_only(&engine, "after non-skyline removes");

    // Skyline churn keeps the snapshot skyline-only.
    for coords in [[0.0, 0.0, 1.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]] {
        let out = engine.apply(Mutation::AddCompetitor(coords.to_vec()));
        assert!(out.expect("valid add").cid.is_some());
    }
    assert_snapshot_is_skyline_only(&engine, "after adds");
    let snap = engine.snapshot();
    let members: Vec<CompetitorId> = snap.skyline().iter().map(|&p| snap.cid(p)).collect();
    drop(snap);
    for &cid in members.iter().take(5) {
        let out = engine.apply(Mutation::RemoveCompetitor(cid));
        assert!(out.expect("remove never errors").removed);
    }
    assert_snapshot_is_skyline_only(&engine, "after skyline removes");

    // A rebuild compacts the writer's store; the snapshot it publishes
    // is still the skyline alone. (A small set keeps the remove loop
    // that reaches the tombstone threshold short.)
    let small = Engine::with_competitors(
        generate(
            400,
            &SyntheticConfig::unit(3, Distribution::AntiCorrelated, 0x5eed),
        ),
        EngineConfig::default(),
    );
    let rebuilt = (0..400).any(|cid| {
        small
            .apply(Mutation::RemoveCompetitor(cid))
            .unwrap()
            .rebuilt
    });
    assert!(rebuilt, "removing most of the set must rebuild");
    assert_snapshot_is_skyline_only(&small, "after a rebuild");
}
