//! Property suite for the serving pool: every answer, whatever the
//! worker count, the interleaving or the cache state, is the one a
//! cacheless cold recompute gives at the response's epoch.
//!
//! Two anchors:
//!
//! 1. A fixed mix of requests (multi-product, budgeted, invalid) sent
//!    through pools of 1, 2 and 5 workers, cold and then cache-warm:
//!    every response is bit-identical to [`execute_query`] on a
//!    pristine engine and to the cold oracle, and every invalid request
//!    fails on its own.
//! 2. A live pool of 3 workers under the 10k-op interleaving —
//!    pipelined clients, interleaved mutations, zero and microsecond
//!    deadlines, product budgets — over a competitor set whose skyline
//!    is large enough for the snapshot view's dominator memo, so the
//!    workers fill one epoch's memo concurrently. Every response must
//!    match the cold oracle at its epoch over its evaluated prefix, bit
//!    for bit.

use skyup_core::probing::MEMO_MIN_SKYLINE;
use skyup_core::{dominators_from_skyline, upgrade_single, UpgradeConfig};
use skyup_data::rng::Rng;
use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_geom::{PointId, PointStore};
use skyup_obs::{Completion, Counter, Interrupt, NullRecorder};
use skyup_serve::{
    execute_query, CompetitorId, CostSpec, Engine, EngineConfig, QueryRequest, QueryResponse,
    ServeConfig, ServeHandle,
};
use skyup_skyline::skyline_sfs;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn random_point(rng: &mut Rng, dims: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..dims).map(|_| rng.range_f64(lo, hi)).collect()
}

fn random_request(rng: &mut Rng, dims: usize) -> QueryRequest {
    let n_products = 1 + rng.range_usize(3);
    QueryRequest {
        products: (0..n_products)
            .map(|_| random_point(rng, dims, 0.2, 1.2))
            .collect(),
        k: 1 + rng.range_usize(3),
        cost: if rng.range_usize(3) == 0 {
            CostSpec::Linear(2.0)
        } else {
            CostSpec::Reciprocal(1e-3)
        },
        max_products: (rng.range_usize(5) == 0).then(|| rng.range_usize(3) as u64),
        deadline: None,
    }
}

fn assert_responses_bit_identical(a: &QueryResponse, b: &QueryResponse, what: &str) {
    assert_eq!(a.epoch, b.epoch, "{what}: epoch");
    assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
    assert_eq!(
        format!("{:?}", a.completion),
        format!("{:?}", b.completion),
        "{what}: completion"
    );
    assert_eq!(a.results.len(), b.results.len(), "{what}: result count");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.index, y.index, "{what}: index");
        assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "{what}: cost bits");
        assert_eq!(x.upgraded.len(), y.upgraded.len(), "{what}: dims");
        for (u, v) in x.upgraded.iter().zip(&y.upgraded) {
            assert_eq!(u.to_bits(), v.to_bits(), "{what}: upgraded bits");
        }
    }
}

/// The live set at one epoch, in insertion order — which is the order
/// the engine's store keeps (compaction preserves it; see
/// cache_property.rs), so the oracle's id-sorted skyline filters
/// identically to the engine's.
type LiveSet = Vec<Vec<f64>>;

/// Per-epoch oracle context: the cold-rebuilt store and its id-sorted
/// skyline, shared by every product verified at that epoch.
struct OracleCtx {
    store: PointStore,
    skyline: Vec<PointId>,
}

impl OracleCtx {
    fn new(live: &LiveSet, dims: usize) -> Self {
        let store = PointStore::from_rows(dims, live.iter().cloned());
        let all: Vec<PointId> = store.ids().collect();
        let mut skyline = skyline_sfs(&store, &all);
        skyline.sort_unstable();
        Self { store, skyline }
    }

    /// Cold recompute of one response's results, replicating the
    /// server's merge: per-product Algorithm 1 over the evaluated
    /// prefix, then the (cost, index) top-k.
    fn results(&self, req: &QueryRequest, evaluated: usize) -> Vec<(usize, f64, Vec<f64>)> {
        let cost_fn = req.cost.cost_fn(self.store.dims());
        let mut answers: Vec<(usize, f64, Vec<f64>)> = req.products[..evaluated]
            .iter()
            .enumerate()
            .map(|(index, t)| {
                let dominators =
                    dominators_from_skyline(&self.store, &self.skyline, t, &mut NullRecorder);
                let (cost, upgraded) = upgrade_single(
                    &self.store,
                    &dominators,
                    t,
                    &cost_fn,
                    &UpgradeConfig::default(),
                );
                (index, cost, upgraded)
            })
            .collect();
        answers.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        answers.truncate(req.k);
        answers
    }
}

/// What the responses verified against the oracle exercised.
#[derive(Debug, Default)]
struct Cuts {
    deadline: usize,
    budget: usize,
    shed: usize,
}

/// Checks one response against the cold oracle at its epoch: the
/// completion agrees with the evaluated prefix, and the results are the
/// oracle's top-k over that prefix, bit for bit.
fn check_response(
    ctx: &OracleCtx,
    req: &QueryRequest,
    resp: &QueryResponse,
    cuts: &mut Cuts,
    what: &str,
) {
    match resp.completion {
        Completion::Exact => assert_eq!(resp.evaluated, req.products.len(), "{what}"),
        Completion::Partial(Interrupt::DeadlineExceeded) => {
            assert!(resp.evaluated < req.products.len(), "{what}");
            cuts.deadline += 1;
        }
        Completion::Partial(Interrupt::NodeVisitBudget) => {
            let budget = req.max_products.expect("budget cut needs a budget") as usize;
            assert_eq!(resp.evaluated, budget.min(req.products.len()), "{what}");
            cuts.budget += 1;
        }
        Completion::Partial(Interrupt::Overloaded) => {
            assert_eq!(resp.evaluated, 0, "{what}: a shed response must be empty");
            cuts.shed += 1;
        }
        other => panic!("{what}: unexpected completion {other:?}"),
    }
    let expected = ctx.results(req, resp.evaluated);
    assert_eq!(resp.results.len(), expected.len(), "{what}");
    for (got, (index, cost, upgraded)) in resp.results.iter().zip(&expected) {
        assert_eq!(got.index, *index, "{what}");
        assert_eq!(
            got.cost.to_bits(),
            cost.to_bits(),
            "{what}: cost drifted from the cold oracle"
        );
        assert_eq!(got.upgraded.len(), upgraded.len(), "{what}");
        for (a, b) in got.upgraded.iter().zip(upgraded) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: upgrade coords drifted");
        }
    }
}

/// Anchor 1: a mixed request set through pools of 1, 2 and 5 workers,
/// cold and cache-warm, against [`execute_query`] on a pristine engine
/// and the cold oracle.
#[test]
fn pool_answers_are_bit_identical_to_execute_query_and_the_oracle() {
    let dims = 3;
    let mut rng = Rng::seed_from_u64(0xba7c4);
    // Anti-correlated competitors: a skyline large enough that the
    // snapshot view's dominator memo engages.
    let competitors = generate(
        800,
        &SyntheticConfig::unit(dims, Distribution::AntiCorrelated, 11),
    );
    let live: LiveSet = competitors.iter().map(|(_, c)| c.to_vec()).collect();
    let ctx = OracleCtx::new(&live, dims);
    assert!(
        ctx.skyline.len() >= MEMO_MIN_SKYLINE,
        "workload must enable the memo"
    );

    let mut reqs: Vec<QueryRequest> = (0..96).map(|_| random_request(&mut rng, dims)).collect();
    // Sprinkle invalid requests: each must fail on its own without
    // disturbing the rest.
    reqs[17].products[0].push(0.5); // wrong dimensionality
    reqs[53].k = 0;

    // The direct path's answers, computed on a pristine engine.
    let direct_engine = Engine::with_competitors(competitors.clone(), EngineConfig::default());
    let direct: Vec<Result<QueryResponse, String>> = reqs
        .iter()
        .map(|r| execute_query(&direct_engine, r).map_err(|e| e.to_string()))
        .collect();

    let mut cuts = Cuts::default();
    for threads in [1usize, 2, 5] {
        // Fresh engine per worker count so each run starts from the same
        // cold cache; a second pass then re-runs over the warm cache.
        let engine = Arc::new(Engine::with_competitors(
            competitors.clone(),
            EngineConfig::default(),
        ));
        let handle = ServeHandle::start(
            Arc::clone(&engine),
            ServeConfig {
                threads,
                queue_cap: reqs.len(),
                ..ServeConfig::default()
            },
        );
        for pass in ["cold", "warm"] {
            // All in flight at once, so the workers answer concurrently.
            let tickets: Vec<_> = reqs.iter().map(|r| handle.query_async(r.clone())).collect();
            for (slot, ticket) in tickets.into_iter().enumerate() {
                let what = format!("threads={threads} {pass} slot={slot}");
                match (&direct[slot], ticket.and_then(|t| t.wait())) {
                    (Ok(want), Ok(have)) => {
                        assert_responses_bit_identical(want, &have, &what);
                        check_response(&ctx, &reqs[slot], &have, &mut cuts, &what);
                    }
                    (Err(_), Err(_)) => {}
                    (want, have) => panic!("{what}: expected {want:?}, got {have:?}"),
                }
            }
        }
        handle.shutdown();
        let m = engine.metrics();
        assert!(
            m.get(Counter::CacheHit) > 0,
            "warm pass never hit the cache"
        );
        assert!(
            m.get(Counter::DominatorMemoHits) > 0,
            "threads={threads}: the dominator memo never hit"
        );
    }
    assert!(cuts.budget > 0, "no budget ever cut a request");
}

/// Anchor 2: the 10k-op interleaving. One mutator publishes epochs and
/// journals each epoch's live set; three pipelined clients push queries
/// through a 3-worker [`ServeHandle`] — some under product budgets,
/// some with already-expired or microsecond deadlines that cut inside a
/// request. The competitors and every added point are anti-correlated,
/// so the skyline stays large enough for the dominator memo and the
/// workers fill each epoch's memo concurrently. Post-hoc, every
/// response must match the cold oracle at its epoch over its evaluated
/// prefix, bit for bit.
#[test]
fn interleaved_pool_serving_matches_cold_oracle() {
    const MUTATIONS: usize = 600;
    const CLIENTS: usize = 3;
    const QUERIES_PER_CLIENT: usize = 3200;
    const PIPELINE: usize = 8;
    let dims = 3;
    let anti = |n: usize, seed: u64| -> Vec<Vec<f64>> {
        let store = generate(
            n,
            &SyntheticConfig::unit(dims, Distribution::AntiCorrelated, seed),
        );
        store.iter().map(|(_, c)| c.to_vec()).collect()
    };

    let initial = anti(1200, 0x10a0b5);
    assert!(
        OracleCtx::new(&initial, dims).skyline.len() >= MEMO_MIN_SKYLINE,
        "the initial skyline must enable the memo"
    );
    let store = PointStore::from_rows(dims, initial.iter().cloned());
    let engine = Arc::new(Engine::with_competitors(store, EngineConfig::default()));
    let handle = ServeHandle::start(
        Arc::clone(&engine),
        ServeConfig {
            threads: 3,
            queue_cap: 64,
            ..ServeConfig::default()
        },
    );

    // Epoch journal. The mutator is the only writer of engine state, so
    // its local mirror after the i-th mutation IS the live set at the
    // epoch that mutation published; verification reads the journal only
    // after every thread has joined.
    let journal: Arc<Mutex<HashMap<u64, LiveSet>>> = Arc::new(Mutex::new(HashMap::new()));
    journal
        .lock()
        .unwrap()
        .insert(engine.snapshot().epoch(), initial.clone());

    let mutator = {
        let handle = handle.clone();
        let journal = Arc::clone(&journal);
        let mut rng = Rng::seed_from_u64(0x3a70);
        let mut fresh = anti(MUTATIONS, 0x3a71).into_iter();
        // `with_competitors` assigns cids by row index, like the engine.
        let mut live: Vec<(CompetitorId, Vec<f64>)> = initial
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, c)| (i as CompetitorId, c))
            .collect();
        std::thread::spawn(move || {
            for op in 0..MUTATIONS {
                let epoch = if rng.range_usize(3) != 0 {
                    let coords = fresh.next().expect("one fresh point per mutation");
                    let out = handle
                        .add_competitor(coords.clone())
                        .expect("add is always valid");
                    live.push((out.cid.expect("add assigns a cid"), coords));
                    out.epoch
                } else {
                    let pick = rng.range_usize(live.len());
                    // Ordinary remove, not swap_remove: the mirror must
                    // keep insertion order.
                    let (cid, _) = live.remove(pick);
                    let out = handle.remove_competitor(cid).expect("cid was live");
                    assert!(out.removed, "removing a live cid must succeed");
                    out.epoch
                };
                let set: LiveSet = live.iter().map(|(_, c)| c.clone()).collect();
                journal.lock().unwrap().insert(epoch, set);
                if op % 3 == 0 {
                    // Stretch the mutation stream across the query burst
                    // so epochs actually swap under in-flight requests.
                    std::thread::yield_now();
                }
            }
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let mut rng = Rng::seed_from_u64(0xc11e47 + c as u64);
            // A recurring product pool per client so repeat queries can
            // hit the cache across epochs.
            let pool: Vec<Vec<f64>> = (0..16)
                .map(|_| random_point(&mut rng, dims, 0.2, 1.1))
                .collect();
            std::thread::spawn(move || {
                let mut done: Vec<(QueryRequest, QueryResponse)> =
                    Vec::with_capacity(QUERIES_PER_CLIENT);
                let mut inflight: std::collections::VecDeque<(
                    QueryRequest,
                    skyup_serve::QueryTicket,
                )> = std::collections::VecDeque::new();
                for q in 0..QUERIES_PER_CLIENT {
                    if inflight.len() >= PIPELINE {
                        let (req, ticket) = inflight.pop_front().expect("non-empty");
                        done.push((req, ticket.wait().expect("valid query")));
                    }
                    let mut req = random_request(&mut rng, dims);
                    if rng.range_usize(2) == 0 {
                        req.products = (0..req.products.len())
                            .map(|_| pool[rng.range_usize(pool.len())].clone())
                            .collect();
                    }
                    match q % 16 {
                        // Already expired on arrival: must come back
                        // Partial and empty, never wedge a worker.
                        3 => req.deadline = Some(Duration::ZERO),
                        // Tight enough to sometimes fire mid-request,
                        // loose enough to sometimes finish.
                        9 => req.deadline = Some(Duration::from_micros(20)),
                        // Guaranteed budget cut inside the request.
                        13 => {
                            req.products = (0..3)
                                .map(|_| random_point(&mut rng, dims, 0.2, 1.2))
                                .collect();
                            req.max_products = Some(1);
                        }
                        _ => {}
                    }
                    let ticket = handle.query_async(req.clone()).expect("valid query");
                    inflight.push_back((req, ticket));
                }
                while let Some((req, ticket)) = inflight.pop_front() {
                    done.push((req, ticket.wait().expect("valid query")));
                }
                done
            })
        })
        .collect();

    mutator.join().expect("mutator thread");
    let responses: Vec<(QueryRequest, QueryResponse)> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    let journal = Arc::try_unwrap(journal)
        .expect("all threads joined")
        .into_inner()
        .unwrap();

    // Post-hoc verification: every response against the cold oracle at
    // its own epoch.
    let mut contexts: HashMap<u64, OracleCtx> = HashMap::new();
    let mut cuts = Cuts::default();
    let mut at_memo_epochs = 0usize;
    for (i, (req, resp)) in responses.iter().enumerate() {
        let live = journal
            .get(&resp.epoch)
            .unwrap_or_else(|| panic!("response {i}: unjournaled epoch {}", resp.epoch));
        let ctx = contexts
            .entry(resp.epoch)
            .or_insert_with(|| OracleCtx::new(live, dims));
        at_memo_epochs += usize::from(ctx.skyline.len() >= MEMO_MIN_SKYLINE);
        check_response(ctx, req, resp, &mut cuts, &format!("response {i}"));
    }
    handle.shutdown();

    // The interleaving must have exercised what it claims to: epochs
    // swapped under in-flight requests, limits cut inside requests, the
    // cache both hit and missed across epochs, and the workers answered
    // through memo-enabled views.
    assert_eq!(responses.len(), CLIENTS * QUERIES_PER_CLIENT);
    assert!(
        responses.len() + MUTATIONS > 10_000,
        "interleaving shrank below the 10k-op bar"
    );
    assert!(
        at_memo_epochs * 2 > responses.len(),
        "most responses must come from epochs whose skyline enables the memo \
         ({at_memo_epochs} of {})",
        responses.len()
    );
    let metrics = engine.metrics();
    assert!(metrics.get(Counter::EpochSwaps) >= MUTATIONS as u64);
    assert!(metrics.get(Counter::CacheHit) > 0, "cache never hit");
    assert!(metrics.get(Counter::CacheMiss) > 0, "cache never missed");
    assert!(
        metrics.get(Counter::DominatorMemoHits) > 0,
        "the dominator memo never hit"
    );
    assert!(cuts.deadline > 0, "no deadline ever cut a request");
    assert!(cuts.budget > 0, "no budget ever cut a request");
    // Shedding is allowed (deadline already passed on arrival) but the
    // pipeline is sized to keep it rare; all kinds were verified above.
}
