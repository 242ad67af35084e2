//! Property suite for the sharded topology.
//!
//! The anchor claim of the replicated-skyline design: a coordinator over
//! N partition shards is *bit-identical* to a single engine holding the
//! full competitor set at the same epoch — for every shard count, at
//! every epoch of a long mutation/query interleaving, across mid-stream
//! shard rebuilds and exposures that bring old rows back into the
//! replica, and under injected faults (lost flip-acks, unreachable
//! shards, a publish blocked mid-flip) the answer is either byte-for-byte
//! the oracle's or an honestly-labelled partial — never a wrong exact
//! answer. Queries make no shard calls at all.

use skyup_data::rng::Rng;
use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_geom::PointStore;
use skyup_obs::{Completion, Interrupt};
use skyup_serve::proto::render_query_response;
use skyup_serve::{
    execute_query, Coordinator, CostSpec, Engine, EngineConfig, FlipAck, LocalLink, Mutation,
    Partition, QueryRequest, ServeConfig, ServeHandle, ShardLink, ShardState, SkylineRows,
    StagedOp,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Barriers a gated flip waits on, in order, before it runs: the first
/// tells the test the flip started, the second releases it.
type FlipGate = Option<(Arc<Barrier>, Arc<Barrier>)>;

/// A [`LocalLink`] with fault injection and accounting taps, so one
/// coordinator type covers the healthy path and every failure-matrix
/// row.
#[derive(Clone)]
struct TestLink {
    inner: LocalLink,
    /// Fail every call, as a dead shard process would.
    unreachable: Arc<AtomicBool>,
    /// Fail every flip before it reaches the shard.
    drop_flips: Arc<AtomicBool>,
    /// Apply every flip on the shard, then lose its ack.
    lose_flip_acks: Arc<AtomicBool>,
    /// The gate the next flip waits on.
    flip_gate: Arc<Mutex<FlipGate>>,
    /// Every call made on this link.
    calls: Arc<AtomicUsize>,
}

impl TestLink {
    fn healthy(state: Arc<ShardState>) -> TestLink {
        TestLink {
            inner: LocalLink(state),
            unreachable: Arc::new(AtomicBool::new(false)),
            drop_flips: Arc::new(AtomicBool::new(false)),
            lose_flip_acks: Arc::new(AtomicBool::new(false)),
            flip_gate: Arc::new(Mutex::new(None)),
            calls: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Counts the call; fails it when the shard is unreachable.
    fn call(&self) -> Result<(), String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.unreachable.load(Ordering::SeqCst) {
            return Err("injected: shard unreachable".into());
        }
        Ok(())
    }
}

impl ShardLink for TestLink {
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String> {
        self.call()?;
        self.inner.stage(epoch, op)
    }

    fn flip(&self, epoch: u64) -> Result<FlipAck, String> {
        self.call()?;
        if self.drop_flips.load(Ordering::SeqCst) {
            return Err("injected: flip dropped".into());
        }
        let gate = self.flip_gate.lock().unwrap().take();
        if let Some((started, release)) = gate {
            started.wait();
            release.wait();
        }
        let ack = self.inner.flip(epoch)?;
        if self.lose_flip_acks.load(Ordering::SeqCst) {
            return Err("injected: flip-ack lost".into());
        }
        Ok(ack)
    }

    fn local_skyline(&self) -> Result<(u64, SkylineRows), String> {
        self.call()?;
        self.inner.local_skyline()
    }

    fn reachable(&self) -> bool {
        self.call().is_ok()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

fn seed_store(n: usize, dims: usize) -> PointStore {
    // Anti-correlated: large skylines, so per-shard skylines overlap in
    // dominance and the merge filter actually drops points.
    generate(
        n,
        &SyntheticConfig::unit(dims, Distribution::AntiCorrelated, 0x5AD5),
    )
}

/// An aggressive rebuild threshold so compaction renumbers rows many
/// times mid-stream — the bit-identity claim must survive it on both
/// the shards and the oracle.
fn engine_cfg() -> EngineConfig {
    EngineConfig {
        rebuild_min_dead: 4,
        ..EngineConfig::default()
    }
}

/// Spawns `shards` shard servers seeded from slabs of `store` and
/// returns fault-injectable links plus the states (for label asserts
/// and shutdown).
fn make_topology(store: &PointStore, shards: u32) -> (Vec<TestLink>, Vec<Arc<ShardState>>) {
    let partition = Partition::new(shards).unwrap();
    let mut links = Vec::new();
    let mut states = Vec::new();
    for id in 0..shards {
        let (slab, cid_of) = partition.shard_seed(store, id);
        let engine =
            Engine::with_identified_competitors(slab, cid_of, store.len() as u64, engine_cfg())
                .unwrap();
        let state = Arc::new(ShardState::new(
            ServeHandle::start(Arc::new(engine), ServeConfig::default()),
            id,
            shards,
        ));
        links.push(TestLink::healthy(Arc::clone(&state)));
        states.push(state);
    }
    (links, states)
}

fn shutdown(states: &[Arc<ShardState>]) {
    for s in states {
        s.handle().shutdown();
    }
}

fn random_point(rng: &mut Rng, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| rng.range_f64(0.05, 1.1)).collect()
}

fn random_request(rng: &mut Rng, dims: usize) -> QueryRequest {
    let n_products = 1 + rng.range_usize(3);
    QueryRequest {
        products: (0..n_products).map(|_| random_point(rng, dims)).collect(),
        k: 1 + rng.range_usize(3),
        cost: if rng.range_usize(3) == 0 {
            CostSpec::Linear(2.0)
        } else {
            CostSpec::Reciprocal(1e-3)
        },
        // Budget-cut partials must be bit-identical too (admission is
        // replayed, not timed); deadlines are exercised separately —
        // their cut point is inherently nondeterministic.
        max_products: (rng.range_usize(6) == 0).then(|| rng.range_usize(3) as u64),
        deadline: None,
    }
}

/// A request no admission budget can cut to zero products.
fn unbudgeted_request(rng: &mut Rng, dims: usize) -> QueryRequest {
    QueryRequest {
        max_products: None,
        ..random_request(rng, dims)
    }
}

/// Asserts the coordinator and the oracle render `req` identically and
/// publish the same skyline rows in the same (cid) order.
fn assert_identical<L: ShardLink>(
    coordinator: &Coordinator<L>,
    oracle: &Engine,
    req: &QueryRequest,
    what: &str,
) {
    let got = coordinator.query(req).unwrap();
    let want = execute_query(oracle, req).unwrap();
    assert_eq!(
        render_query_response(&got),
        render_query_response(&want),
        "{what}: rendered response"
    );
    let (snap, oracle_snap) = (coordinator.snapshot(), oracle.snapshot());
    assert!(
        snap.rows().eq(oracle_snap.rows()),
        "{what}: published skyline rows differ"
    );
}

/// The tentpole anchor: a 10k-op mutation/query interleaving, replayed
/// against a single-engine oracle, at shard counts 1, 2, and 4. Every
/// query response must render byte-identically; every mutation ack must
/// agree on epoch, assigned cid, removal, and — since the coordinator's
/// cache evicts by the global rules — the eviction count (only the
/// per-shard `rebuilt` legitimately differs).
#[test]
fn coordinator_is_bit_identical_to_single_engine_across_shard_counts() {
    let dims = 3;
    let store = seed_store(120, dims);
    for shards in [1u32, 2, 4] {
        let (links, states) = make_topology(&store, shards);
        let coordinator = Coordinator::new(links, Partition::new(shards).unwrap(), &store).unwrap();
        let oracle = Engine::with_competitors(store.clone(), engine_cfg());

        let mut rng = Rng::seed_from_u64(0x5ca77e4 + shards as u64);
        let mut live: Vec<u64> = (0..store.len() as u64).collect();
        let mut evicted = 0;
        for op in 0..10_000 {
            match rng.range_usize(10) {
                // Add a competitor.
                0..=3 => {
                    let point = random_point(&mut rng, dims);
                    let got = coordinator
                        .mutate(Mutation::AddCompetitor(point.clone()))
                        .unwrap();
                    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
                    assert_eq!(got.epoch, want.epoch, "shards={shards} op={op}: add epoch");
                    assert_eq!(got.cid, want.cid, "shards={shards} op={op}: assigned cid");
                    assert_eq!(
                        got.evicted, want.evicted,
                        "shards={shards} op={op}: evicted"
                    );
                    evicted += got.evicted;
                    live.push(got.cid.unwrap());
                }
                // Remove a live competitor — or, sometimes, a spent cid
                // (the no-op path must not publish an epoch).
                4..=5 => {
                    let cid = if rng.range_usize(8) == 0 || live.is_empty() {
                        u64::MAX
                    } else {
                        live.swap_remove(rng.range_usize(live.len()))
                    };
                    let got = coordinator.mutate(Mutation::RemoveCompetitor(cid)).unwrap();
                    let want = oracle.apply(Mutation::RemoveCompetitor(cid)).unwrap();
                    assert_eq!(got.epoch, want.epoch, "shards={shards} op={op}: rm epoch");
                    assert_eq!(
                        got.removed, want.removed,
                        "shards={shards} op={op}: removed"
                    );
                    assert_eq!(
                        got.evicted, want.evicted,
                        "shards={shards} op={op}: evicted"
                    );
                    evicted += got.evicted;
                }
                // Query.
                _ => {
                    let req = random_request(&mut rng, dims);
                    let got = coordinator.query(&req).unwrap();
                    let want = execute_query(&oracle, &req).unwrap();
                    assert_eq!(
                        render_query_response(&got),
                        render_query_response(&want),
                        "shards={shards} op={op}: rendered response"
                    );
                }
            }
        }
        assert!(evicted > 0, "shards={shards}: the stream never evicted");
        assert_eq!(coordinator.epoch(), oracle.snapshot().epoch());
        assert!(coordinator.snapshot().rows().eq(oracle.snapshot().rows()));
        for state in &states {
            assert_eq!(state.label(), coordinator.epoch(), "published labels agree");
        }
        shutdown(&states);
    }
}

/// The replica keeps U in cid order even when a remove brings back a
/// row older than rows already there: on the removed row's own shard
/// (the owner's delta carries it) and on another shard (it was in U all
/// along, and only re-enters skyline(U)). Checked at 1, 2 and 4 shards
/// after every step, rows and rendered answers byte for byte.
#[test]
fn exposed_rows_older_than_the_replica_keep_cid_order() {
    let mut store = PointStore::new(2);
    store.push(&[0.30, 0.70]); // cid 0: later dominated by d1, same slab
    store.push(&[0.60, 0.40]); // cid 1: later dominated by d2, other slab
    store.push(&[0.05, 0.95]); // cid 2
    store.push(&[0.95, 0.05]); // cid 3
    let adds = [
        [0.28, 0.60], // cid 4 = d1: evicts cid 0 from its own local skyline
        [0.40, 0.55], // cid 5: newer row on cid 0's slab
        [0.45, 0.35], // cid 6 = d2: dominates cid 1 from another slab
        [0.70, 0.30], // cid 7: newer row on cid 1's slab
    ];
    let products = vec![
        vec![0.9, 0.9],
        vec![0.65, 0.75],
        vec![0.62, 0.45],
        vec![0.35, 0.72],
    ];
    let req = QueryRequest {
        products,
        k: 4,
        cost: CostSpec::Reciprocal(1e-3),
        max_products: None,
        deadline: None,
    };
    for shards in [1u32, 2, 4] {
        let (links, states) = make_topology(&store, shards);
        let coordinator = Coordinator::new(links, Partition::new(shards).unwrap(), &store).unwrap();
        let oracle = Engine::with_competitors(store.clone(), engine_cfg());
        let step = |m: Mutation, what: &str| {
            let got = coordinator.mutate(m.clone()).unwrap();
            let want = oracle.apply(m).unwrap();
            assert_eq!((got.epoch, got.evicted), (want.epoch, want.evicted));
            assert_identical(
                &coordinator,
                &oracle,
                &req,
                &format!("shards={shards} {what}"),
            );
        };
        assert_identical(&coordinator, &oracle, &req, "bootstrap");
        for p in adds {
            step(Mutation::AddCompetitor(p.to_vec()), "add");
        }
        let cids = |c: &Coordinator<TestLink>| -> Vec<u64> {
            c.snapshot().rows().map(|(cid, _)| cid).collect()
        };
        assert!(!cids(&coordinator).contains(&0) && !cids(&coordinator).contains(&1));
        step(Mutation::RemoveCompetitor(4), "remove d1");
        assert!(cids(&coordinator).contains(&0), "cid 0 re-entered");
        step(Mutation::RemoveCompetitor(6), "remove d2");
        assert_eq!(cids(&coordinator), vec![0, 1, 2, 3, 5, 7]);
        shutdown(&states);
    }
}

/// Failure-matrix rows: a shard the bootstrap cannot reach leaves
/// queries an honest empty partial until it answers; once the replica
/// is synced, an unreachable shard no longer degrades reads — queries
/// stay exact and byte-identical — while every mutation aborts before
/// its commit point with an error naming the shard.
#[test]
fn unreachable_shard_keeps_reads_exact_and_aborts_mutations() {
    let dims = 3;
    let store = seed_store(60, dims);
    let (links, states) = make_topology(&store, 2);
    let unreachable = Arc::clone(&links[0].unreachable);
    let coordinator = Coordinator::new(links, Partition::new(2).unwrap(), &store).unwrap();
    let oracle = Engine::with_competitors(store.clone(), engine_cfg());

    let mut rng = Rng::seed_from_u64(0xdead22);
    unreachable.store(true, Ordering::SeqCst);
    let req = unbudgeted_request(&mut rng, dims);
    let partial = coordinator.query(&req).unwrap();
    assert_eq!(
        partial.completion,
        Completion::Partial(Interrupt::Overloaded)
    );
    assert!(partial.results.is_empty());
    unreachable.store(false, Ordering::SeqCst);
    assert_identical(&coordinator, &oracle, &req, "bootstrapped");

    unreachable.store(true, Ordering::SeqCst);
    for _ in 0..8 {
        let req = unbudgeted_request(&mut rng, dims);
        assert_identical(&coordinator, &oracle, &req, "shard 0 down");
    }
    let epoch = coordinator.epoch();
    for m in [
        Mutation::AddCompetitor(random_point(&mut rng, dims)),
        Mutation::RemoveCompetitor(3),
    ] {
        let err = coordinator.mutate(m).unwrap_err();
        assert!(err.to_string().contains("shard 0"), "surfaced: {err}");
        assert_eq!(coordinator.epoch(), epoch, "pre-commit abort");
    }
    assert!(coordinator.health_json().contains("\"reachable\":false"));

    unreachable.store(false, Ordering::SeqCst);
    let point = random_point(&mut rng, dims);
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    assert_eq!((got.epoch, got.cid), (want.epoch, want.cid));
    let req = unbudgeted_request(&mut rng, dims);
    assert_identical(&coordinator, &oracle, &req, "healed");
    shutdown(&states);
}

/// Failure-matrix row: the owner applies a flip but every ack is lost.
/// The mutation still acks (the commit point is the stage round); the
/// next query resyncs the owner before it answers, and answers an empty
/// partial while the resync cannot reach it. A non-owner that loses its
/// flip-ack is re-flipped (an idempotent ack) before the next stage
/// round instead, and reads never wait for it — not even while it stays
/// unreachable.
#[test]
fn lost_flip_acks_are_repaired_before_anything_reads_them() {
    let dims = 3;
    let store = seed_store(60, dims);
    let (links, states) = make_topology(&store, 2);
    let lose: Vec<_> = links
        .iter()
        .map(|l| Arc::clone(&l.lose_flip_acks))
        .collect();
    let down: Vec<_> = links.iter().map(|l| Arc::clone(&l.unreachable)).collect();
    let (lose_acks, unreachable) = (&lose[0], &down[0]);
    let coordinator = Coordinator::new(links, Partition::new(2).unwrap(), &store).unwrap();
    let oracle = Engine::with_competitors(store.clone(), engine_cfg());
    let mut rng = Rng::seed_from_u64(0xdead33);

    // Shard 0 owns the slab x < 0.5: it applies the add, the ack is lost.
    lose_acks.store(true, Ordering::SeqCst);
    let point = vec![0.1, 0.2, 0.3];
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    assert_eq!((got.epoch, got.cid), (want.epoch, want.cid), "committed");
    assert_eq!(states[0].label(), got.epoch, "the owner applied it");
    lose_acks.store(false, Ordering::SeqCst);

    // The resync cannot reach the owner: an honest empty partial.
    unreachable.store(true, Ordering::SeqCst);
    let req = unbudgeted_request(&mut rng, dims);
    let partial = coordinator.query(&req).unwrap();
    assert_eq!(
        partial.completion,
        Completion::Partial(Interrupt::Overloaded)
    );
    assert_eq!((partial.evaluated, partial.epoch), (0, got.epoch));
    assert!(partial.results.is_empty());

    // Healed: the next query resyncs first and is already exact.
    unreachable.store(false, Ordering::SeqCst);
    assert_identical(&coordinator, &oracle, &req, "resynced owner");

    // Shard 0 is a non-owner of an add at x >= 0.5 and loses its ack.
    lose_acks.store(true, Ordering::SeqCst);
    let point = vec![0.9, 0.2, 0.3];
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    assert_eq!((got.epoch, got.evicted), (want.epoch, want.evicted));
    lose_acks.store(false, Ordering::SeqCst);
    let req = unbudgeted_request(&mut rng, dims);
    assert_identical(&coordinator, &oracle, &req, "non-owner lagging");
    let point = random_point(&mut rng, dims);
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    assert_eq!((got.epoch, got.evicted), (want.epoch, want.evicted));
    assert_identical(
        &coordinator,
        &oracle,
        &req,
        "after the repaired stage round",
    );

    // Both shards lose the acks of an add shard 0 owns, then shard 1 —
    // lagging, not unsynced — stays unreachable: a read resyncs the
    // owner and is exact, while writes fail until shard 1 is back.
    lose.iter().for_each(|l| l.store(true, Ordering::SeqCst));
    let point = vec![0.2, 0.1, 0.1];
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    lose.iter().for_each(|l| l.store(false, Ordering::SeqCst));
    down[1].store(true, Ordering::SeqCst);
    assert_identical(&coordinator, &oracle, &req, "owner resynced, shard 1 down");
    let err = coordinator
        .mutate(Mutation::AddCompetitor(vec![0.3, 0.3, 0.3]))
        .unwrap_err();
    assert!(err.to_string().contains("shard 1"), "surfaced: {err}");
    assert_eq!(coordinator.epoch(), got.epoch, "pre-commit abort");
    down[1].store(false, Ordering::SeqCst);
    let point = random_point(&mut rng, dims);
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    assert_eq!((got.epoch, got.evicted), (want.epoch, want.evicted));
    assert_identical(&coordinator, &oracle, &req, "all repaired");
    for state in &states {
        assert_eq!(state.label(), coordinator.epoch());
    }
    shutdown(&states);
}

/// Failure-matrix rows: a flip that never reaches its shard, at 2 and
/// 4 shards. The owner keeps its old label and the staged op; the
/// mutation still acks, queries answer an empty partial while the
/// re-flip fails, and the next query that can reach the owner re-flips
/// it — applying the op — and resyncs it before answering. A non-owner
/// that missed its flip keeps its old label while reads stay exact, and
/// is re-flipped before the next stage round.
#[test]
fn missed_flips_are_repaired_before_anything_reads_them() {
    let dims = 3;
    let store = seed_store(60, dims);
    for shards in [2u32, 4] {
        let (links, states) = make_topology(&store, shards);
        let drop_flips = Arc::clone(&links[0].drop_flips);
        let coordinator = Coordinator::new(links, Partition::new(shards).unwrap(), &store).unwrap();
        let oracle = Engine::with_competitors(store.clone(), engine_cfg());
        let mut rng = Rng::seed_from_u64(0xdead66 + shards as u64);
        let req = unbudgeted_request(&mut rng, dims);
        assert_identical(&coordinator, &oracle, &req, "bootstrapped");

        // Shard 0 owns the slab x < 1/shards; its flip never arrives.
        drop_flips.store(true, Ordering::SeqCst);
        let point = vec![0.1, 0.2, 0.3];
        let got = coordinator
            .mutate(Mutation::AddCompetitor(point.clone()))
            .unwrap();
        let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
        assert_eq!((got.epoch, got.cid), (want.epoch, want.cid), "committed");
        assert_eq!(
            states[0].label(),
            got.epoch - 1,
            "the owner missed its flip"
        );
        let partial = coordinator.query(&req).unwrap();
        assert_eq!(
            partial.completion,
            Completion::Partial(Interrupt::Overloaded),
            "shards={shards}: the re-flip fails"
        );
        assert_eq!((partial.evaluated, partial.epoch), (0, got.epoch));
        assert!(partial.results.is_empty());
        assert_eq!(states[0].label(), got.epoch - 1, "still unflipped");
        drop_flips.store(false, Ordering::SeqCst);
        assert_identical(
            &coordinator,
            &oracle,
            &req,
            &format!("shards={shards}: owner re-flipped on read"),
        );
        assert_eq!(
            states[0].label(),
            got.epoch,
            "the query re-flipped the owner"
        );

        // Shard 0 is a non-owner of an add at x = 0.9 and misses its flip.
        drop_flips.store(true, Ordering::SeqCst);
        let point = vec![0.9, 0.2, 0.3];
        let got = coordinator
            .mutate(Mutation::AddCompetitor(point.clone()))
            .unwrap();
        let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
        assert_eq!((got.epoch, got.evicted), (want.epoch, want.evicted));
        drop_flips.store(false, Ordering::SeqCst);
        assert_eq!(
            states[0].label(),
            got.epoch - 1,
            "the non-owner missed its flip"
        );
        let req = unbudgeted_request(&mut rng, dims);
        assert_identical(
            &coordinator,
            &oracle,
            &req,
            &format!("shards={shards}: non-owner lagging"),
        );
        assert_eq!(states[0].label(), got.epoch - 1, "reads do not repair it");
        let point = random_point(&mut rng, dims);
        let got = coordinator
            .mutate(Mutation::AddCompetitor(point.clone()))
            .unwrap();
        let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
        assert_eq!(
            (got.epoch, got.cid, got.evicted),
            (want.epoch, want.cid, want.evicted)
        );
        for state in &states {
            assert_eq!(
                state.label(),
                got.epoch,
                "re-flipped before the stage round"
            );
        }
        assert_identical(
            &coordinator,
            &oracle,
            &req,
            &format!("shards={shards}: after the repaired stage round"),
        );
        shutdown(&states);
    }
}

/// Failure-matrix row: a stage failure aborts *before* the commit
/// point — the client sees the error, no epoch is published anywhere,
/// and the next publish (which re-stages the same epoch number over the
/// leftovers) keeps the topology bit-identical.
#[test]
fn stage_failure_aborts_cleanly_and_epoch_is_reused() {
    let dims = 3;
    let store = seed_store(60, dims);
    let (links, states) = make_topology(&store, 2);
    let unreachable = Arc::clone(&links[1].unreachable);
    let coordinator = Coordinator::new(links, Partition::new(2).unwrap(), &store).unwrap();
    let oracle = Engine::with_competitors(store.clone(), engine_cfg());

    let mut rng = Rng::seed_from_u64(0xdead44);
    let req = unbudgeted_request(&mut rng, dims);
    assert_identical(&coordinator, &oracle, &req, "bootstrapped");
    let epoch_before = coordinator.epoch();
    unreachable.store(true, Ordering::SeqCst);
    let point = random_point(&mut rng, dims);
    let err = coordinator
        .mutate(Mutation::AddCompetitor(point))
        .unwrap_err();
    assert!(err.to_string().contains("stage"), "surfaced: {err}");
    assert_eq!(coordinator.epoch(), epoch_before, "pre-commit abort");

    // Shard 0 staged epoch_before+1 and was left hanging; the retry
    // overwrites that staged slot with the new op and commits.
    unreachable.store(false, Ordering::SeqCst);
    let point = random_point(&mut rng, dims);
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    assert_eq!(got.epoch, want.epoch);
    assert_eq!(got.cid, want.cid);

    let req = unbudgeted_request(&mut rng, dims);
    assert_identical(&coordinator, &oracle, &req, "after the retry");
    shutdown(&states);
}

/// A publish blocked inside its flip round (the state lock held, the
/// stage round committed) does not block queries: they return at the
/// old epoch, byte-identical to the oracle before the mutation, and the
/// next query after the publish sees the new epoch.
#[test]
fn queries_answer_at_the_old_epoch_during_a_publish() {
    let dims = 3;
    let store = seed_store(60, dims);
    let (links, states) = make_topology(&store, 2);
    let (started, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    *links[1].flip_gate.lock().unwrap() = Some((Arc::clone(&started), Arc::clone(&release)));
    let coordinator = Coordinator::new(links, Partition::new(2).unwrap(), &store).unwrap();
    let oracle = Engine::with_competitors(store.clone(), engine_cfg());
    let mut rng = Rng::seed_from_u64(0xdead55);
    let reqs: Vec<QueryRequest> = (0..6).map(|_| unbudgeted_request(&mut rng, dims)).collect();
    let point = vec![0.2, 0.2, 0.2];

    let epoch = coordinator.epoch();
    std::thread::scope(|s| {
        let publish = s.spawn(|| coordinator.mutate(Mutation::AddCompetitor(point.clone())));
        started.wait();
        for req in &reqs {
            let got = coordinator.query(req).unwrap();
            assert_eq!(got.epoch, epoch, "answered at the old epoch");
            assert_identical(&coordinator, &oracle, req, "mid-publish");
        }
        release.wait();
        let got = publish.join().unwrap().unwrap();
        assert_eq!(got.epoch, epoch + 1);
    });
    oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    for req in &reqs {
        assert_identical(&coordinator, &oracle, req, "after the publish");
    }
    shutdown(&states);
}

/// Queries never call a shard: a window of queries leaves every link's
/// call count where the last mutation left it.
#[test]
fn query_only_window_makes_zero_shard_calls() {
    let dims = 3;
    let store = seed_store(120, dims);
    for shards in [1u32, 2, 4] {
        let (links, states) = make_topology(&store, shards);
        let calls: Vec<Arc<AtomicUsize>> = links.iter().map(|l| Arc::clone(&l.calls)).collect();
        let coordinator = Coordinator::new(links, Partition::new(shards).unwrap(), &store).unwrap();
        let mut rng = Rng::seed_from_u64(0xca11 + shards as u64);
        for _ in 0..20 {
            let point = random_point(&mut rng, dims);
            coordinator.mutate(Mutation::AddCompetitor(point)).unwrap();
        }
        let before: Vec<usize> = calls.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        assert!(before.iter().all(|&n| n > 0));
        for _ in 0..200 {
            coordinator.query(&random_request(&mut rng, dims)).unwrap();
        }
        let after: Vec<usize> = calls.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        assert_eq!(before, after, "shards={shards}: queries called a shard");
        shutdown(&states);
    }
}
