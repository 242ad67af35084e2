//! The request front-end: a fixed worker pool draining a bounded queue,
//! with per-request deadlines and budgets mapped onto
//! [`ExecutionLimits`] and overload shed as a first-class answer.
//!
//! Shedding never blocks and never errors: a request that cannot be
//! queued (queue full) or that arrived already dead (zero deadline)
//! comes back immediately as an empty
//! [`Completion::Partial`]([`Interrupt::Overloaded`]) response, so a
//! client under overload degrades exactly like a client whose budget
//! fired mid-query — one code path for both.
//!
//! Budget accounting is deliberately cache-independent: one node-visit
//! unit is charged per product *processed*, hit or miss, so a budgeted
//! query sheds at the same product index whether the cache is cold or
//! warm. That determinism is what lets the property suite compare
//! partial answers bit-for-bit against a cacheless oracle.

use crate::cache::CostTag;
use crate::engine::{Engine, EngineStats, Mutation, MutationOutcome, Published};
use crate::telemetry::Telemetry;
use crate::CompetitorId;
use skyup_core::cost::{AttributeCost, LinearCost, SumCost};
use skyup_core::{SkyupError, UpgradeConfig};
use skyup_obs::{
    clocked, Completion, Counter, ExecutionLimits, Interrupt, QueryMetrics, Recorder, Trace,
    TraceClass, TraceId,
};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The cost function a request asks for, mirroring the CLI's
/// `--cost reciprocal:<eps> | linear:<slope>` vocabulary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CostSpec {
    /// `SumCost::reciprocal(dims, eps)`.
    Reciprocal(f64),
    /// Linear per-attribute cost with this slope.
    Linear(f64),
}

impl Default for CostSpec {
    fn default() -> Self {
        CostSpec::Reciprocal(1e-3)
    }
}

impl CostSpec {
    /// The cache tag identifying this cost function.
    pub fn tag(self) -> CostTag {
        match self {
            CostSpec::Reciprocal(eps) => CostTag::Reciprocal(eps.to_bits()),
            CostSpec::Linear(slope) => CostTag::Linear(slope.to_bits()),
        }
    }

    /// Materializes the cost function for `dims` dimensions, matching
    /// the CLI's construction so served answers and offline runs agree.
    pub fn cost_fn(self, dims: usize) -> SumCost {
        match self {
            CostSpec::Reciprocal(eps) => SumCost::reciprocal(dims, eps),
            CostSpec::Linear(slope) => SumCost::new(
                (0..dims)
                    .map(|_| {
                        Box::new(LinearCost::new(1000.0 * slope, slope)) as Box<dyn AttributeCost>
                    })
                    .collect(),
            ),
        }
    }
}

/// A top-k upgrade query over a batch of products.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The products to evaluate, in request order.
    pub products: Vec<Vec<f64>>,
    /// How many cheapest upgrades to return.
    pub k: usize,
    /// Cost function.
    pub cost: CostSpec,
    /// Budget: at most this many products are processed.
    pub max_products: Option<u64>,
    /// Budget: wall-clock deadline for the evaluation loop.
    pub deadline: Option<Duration>,
}

/// One returned upgrade.
#[derive(Clone, Debug, PartialEq)]
pub struct ProductAnswer {
    /// Index of the product in [`QueryRequest::products`].
    pub index: usize,
    /// Minimal upgrade cost.
    pub cost: f64,
    /// The upgraded coordinates.
    pub upgraded: Vec<f64>,
}

/// The answer to a [`QueryRequest`], consistent with one epoch.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The epoch every result in this response was computed against.
    pub epoch: u64,
    /// Exact, or partial with the interrupt that fired.
    pub completion: Completion,
    /// Products fully processed before any interrupt.
    pub evaluated: usize,
    /// The top-k upgrades over the processed prefix, sorted by
    /// `(cost, index)`.
    pub results: Vec<ProductAnswer>,
}

/// Front-end sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads executing queries. With batching on, this is the
    /// shard-execution width inside each batch instead of the number of
    /// independent pool workers.
    pub threads: usize,
    /// Bounded queue capacity; a full queue sheds.
    pub queue_cap: usize,
    /// Admission window for the batch dispatcher, in microseconds.
    /// `0` (the default) disables batching entirely: requests run on
    /// the classic per-request worker pool. Non-zero, a single
    /// dispatcher thread waits up to this long after the first queued
    /// request for companions, then executes the window as one batch
    /// ([`crate::execute_batch`]).
    pub batch_window_us: u64,
    /// Most requests admitted into one batch (batching mode only).
    pub max_batch: usize,
    /// Slow-query threshold in milliseconds: completed traces at or
    /// over it enter the slow-query log. `0` disables the latency
    /// threshold (shed and partial traces are always kept).
    pub slow_ms: u64,
    /// Flight-recorder depth: how many completed traces the
    /// `{"op":"trace"}` ring (and the slow log) keeps.
    pub trace_buffer: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 2,
            queue_cap: 64,
            batch_window_us: 0,
            max_batch: 32,
            slow_ms: 100,
            trace_buffer: 256,
        }
    }
}

struct Job {
    req: QueryRequest,
    reply: mpsc::Sender<Result<QueryResponse, SkyupError>>,
    /// Trace id minted at ingress.
    id: TraceId,
    /// Ingress instant: queue wait and total latency are measured from
    /// here.
    ingress: Instant,
}

/// Records a completed trace and bumps the engine-wide trace counters.
/// Telemetry is strictly off the result path: callers invoke this after
/// the reply content is determined (and before sending it, so a client
/// that observes its own response also observes its trace).
fn finish_trace(tel: &Telemetry, engine: &Engine, trace: Trace) {
    let slow = tel.record(trace);
    engine.bump(Counter::TracesRecorded);
    if slow {
        engine.bump(Counter::SlowQueries);
    }
}

/// A trace for an unqueued admin operation (mutation or stats read):
/// no queue wait, the whole latency is execution.
fn admin_trace(id: TraceId, class: TraceClass, epoch: u64, nanos: u64) -> Trace {
    Trace {
        id,
        class,
        epoch,
        completion: Completion::Exact,
        shed: false,
        products: 0,
        evaluated: 0,
        cache_hits: 0,
        cache_misses: 0,
        memo_hits: 0,
        dominance_tests: 0,
        queue_nanos: 0,
        assemble_nanos: 0,
        exec_nanos: nanos,
        total_nanos: nanos,
    }
}

/// Request class of an executed (non-shed) query: everything answered
/// from the cache is `QueryCached`; anything that computed at least one
/// product is `QueryCold` or `QueryBatched` by scheduling path.
fn classify(cache_misses: u64, batched: bool) -> TraceClass {
    match (cache_misses, batched) {
        (0, _) => TraceClass::QueryCached,
        (_, true) => TraceClass::QueryBatched,
        (_, false) => TraceClass::QueryCold,
    }
}

enum TicketState {
    /// Queued; the answer arrives on this channel.
    Pending(mpsc::Receiver<Result<QueryResponse, SkyupError>>),
    /// Shed at submission; the (empty, `Partial(Overloaded)`) response
    /// is already known.
    Resolved(QueryResponse),
}

/// A pending answer from [`ServeHandle::query_async`].
pub struct QueryTicket {
    state: TicketState,
}

impl QueryTicket {
    fn resolved(resp: QueryResponse) -> QueryTicket {
        QueryTicket {
            state: TicketState::Resolved(resp),
        }
    }

    /// Blocks until the answer is available.
    pub fn wait(self) -> Result<QueryResponse, SkyupError> {
        match self.state {
            TicketState::Resolved(resp) => Ok(resp),
            TicketState::Pending(rx) => rx
                .recv()
                .map_err(|_| SkyupError::InvalidInput("worker pool dropped the request".into()))?,
        }
    }
}

struct Queue {
    jobs: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    cap: usize,
}

/// Handle to a running server: submit queries, apply mutations, read
/// stats, shut down. Cheap to clone; all clones share the engine and
/// the worker pool.
#[derive(Clone)]
pub struct ServeHandle {
    engine: Arc<Engine>,
    queue: Arc<Queue>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    telemetry: Arc<Telemetry>,
}

impl ServeHandle {
    /// Starts the worker pool (or, with `batch_window_us > 0`, the
    /// batch dispatcher) over `engine`.
    pub fn start(engine: Arc<Engine>, cfg: ServeConfig) -> ServeHandle {
        let threads = cfg.threads.max(1);
        let queue = Arc::new(Queue {
            jobs: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            cap: cfg.queue_cap.max(1),
        });
        let telemetry = Arc::new(Telemetry::new(cfg.slow_ms, cfg.trace_buffer));
        let mut workers = Vec::new();
        if cfg.batch_window_us > 0 {
            // One dispatcher drains admission windows and executes each
            // as a batch with `threads` shard workers.
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            let tel = Arc::clone(&telemetry);
            let window = Duration::from_micros(cfg.batch_window_us);
            let max_batch = cfg.max_batch.max(1);
            workers.push(std::thread::spawn(move || loop {
                let mut batch: Vec<Job> = Vec::new();
                {
                    let mut guard = queue.jobs.lock().unwrap();
                    // Wait for the window's first request (drain-then-exit
                    // on shutdown, like the classic pool).
                    loop {
                        if let Some(job) = guard.0.pop_front() {
                            batch.push(job);
                            break;
                        }
                        if guard.1 {
                            return;
                        }
                        guard = queue.ready.wait(guard).unwrap();
                    }
                    // Greedily drain whatever queued while the previous
                    // batch executed — under load, that backlog IS the
                    // batch, with no added latency. The admission window
                    // only delays a *lone* request, giving companions
                    // one chance to arrive before it executes solo.
                    let deadline = std::time::Instant::now() + window;
                    while batch.len() < max_batch {
                        if let Some(job) = guard.0.pop_front() {
                            batch.push(job);
                            continue;
                        }
                        if batch.len() > 1 || guard.1 {
                            break;
                        }
                        let now = std::time::Instant::now();
                        let Some(left) = deadline.checked_duration_since(now) else {
                            break;
                        };
                        if left.is_zero() {
                            break;
                        }
                        let (g, timeout) = queue.ready.wait_timeout(guard, left).unwrap();
                        guard = g;
                        if timeout.timed_out() && guard.0.is_empty() {
                            break;
                        }
                    }
                }
                // Queue wait ends for every member when the dispatcher
                // picks the window up.
                let queue_nanos: Vec<u64> = batch
                    .iter()
                    .map(|j| j.ingress.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                    .collect();
                let (reqs, rest): (Vec<QueryRequest>, Vec<_>) = batch
                    .into_iter()
                    .map(|j| (j.req, (j.reply, j.id, j.ingress)))
                    .unzip();
                let (results, stats) = crate::batch::execute_batch_stats(&engine, &reqs, threads);
                for (i, ((reply, id, ingress), res)) in rest.into_iter().zip(results).enumerate() {
                    if let Ok(resp) = &res {
                        let per = &stats.per_request[i];
                        // Assembly and kernel time are batch-level and
                        // therefore shared across the window's traces;
                        // queue wait and total latency are per-request.
                        finish_trace(
                            &tel,
                            &engine,
                            Trace {
                                id,
                                class: classify(per.cache_misses, true),
                                epoch: resp.epoch,
                                completion: resp.completion,
                                shed: false,
                                products: reqs[i].products.len() as u64,
                                evaluated: resp.evaluated as u64,
                                cache_hits: per.cache_hits,
                                cache_misses: per.cache_misses,
                                memo_hits: per.memo_hits,
                                // The shared columnar kernel does not
                                // attribute dominance tests per request.
                                dominance_tests: 0,
                                queue_nanos: queue_nanos[i],
                                assemble_nanos: stats.assemble_nanos,
                                exec_nanos: stats.exec_nanos,
                                total_nanos: ingress.elapsed().as_nanos().min(u64::MAX as u128)
                                    as u64,
                            },
                        );
                    }
                    // A dropped receiver (client gave up) is not an error.
                    let _ = reply.send(res);
                }
            }));
        } else {
            workers.reserve(threads);
            for _ in 0..threads {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&engine);
                let tel = Arc::clone(&telemetry);
                workers.push(std::thread::spawn(move || loop {
                    let job = {
                        let mut guard = queue.jobs.lock().unwrap();
                        loop {
                            if let Some(job) = guard.0.pop_front() {
                                break job;
                            }
                            if guard.1 {
                                return;
                            }
                            guard = queue.ready.wait(guard).unwrap();
                        }
                    };
                    let queue_nanos = job.ingress.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    let mut rec = QueryMetrics::new();
                    let (exec_nanos, res) =
                        clocked(|| execute_query_with(&engine, &job.req, &mut rec));
                    if let Ok(resp) = &res {
                        finish_trace(
                            &tel,
                            &engine,
                            Trace {
                                id: job.id,
                                class: classify(rec.get(Counter::CacheMiss), false),
                                epoch: resp.epoch,
                                completion: resp.completion,
                                shed: false,
                                products: job.req.products.len() as u64,
                                evaluated: resp.evaluated as u64,
                                cache_hits: rec.get(Counter::CacheHit),
                                cache_misses: rec.get(Counter::CacheMiss),
                                memo_hits: rec.get(Counter::DominatorMemoHits),
                                dominance_tests: rec.get(Counter::DominanceTests),
                                queue_nanos,
                                assemble_nanos: 0,
                                exec_nanos,
                                total_nanos: job.ingress.elapsed().as_nanos().min(u64::MAX as u128)
                                    as u64,
                            },
                        );
                    }
                    // A dropped receiver (client gave up) is not an error.
                    let _ = job.reply.send(res);
                }));
            }
        }
        ServeHandle {
            engine,
            queue,
            workers: Arc::new(Mutex::new(workers)),
            telemetry,
        }
    }

    /// The engine behind this handle.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Submits a query to the worker pool and waits for its answer.
    /// Overload (full queue, zero deadline on arrival, or a shutdown in
    /// progress) sheds: an empty `Partial(Overloaded)` response.
    pub fn query(&self, req: QueryRequest) -> Result<QueryResponse, SkyupError> {
        self.query_async(req)?.wait()
    }

    /// Submits a query without waiting: the returned [`QueryTicket`]
    /// resolves to the answer later. This is what lets a client keep
    /// many requests in flight — the feed pattern the batch dispatcher's
    /// admission window exists to coalesce. Shed decisions (zero
    /// deadline, full queue, shutdown) are still taken synchronously at
    /// submission.
    pub fn query_async(&self, req: QueryRequest) -> Result<QueryTicket, SkyupError> {
        validate_request(&req, self.engine.dims())?;
        let id = self.telemetry.mint();
        let ingress = Instant::now();
        if req.deadline == Some(Duration::ZERO) {
            return Ok(QueryTicket::resolved(self.shed(&req, id, ingress)));
        }
        let (reply, rx) = mpsc::channel();
        {
            let mut guard = self.queue.jobs.lock().unwrap();
            if guard.1 || guard.0.len() >= self.queue.cap {
                drop(guard);
                return Ok(QueryTicket::resolved(self.shed(&req, id, ingress)));
            }
            guard.0.push_back(Job {
                req,
                reply,
                id,
                ingress,
            });
        }
        self.queue.ready.notify_one();
        Ok(QueryTicket {
            state: TicketState::Pending(rx),
        })
    }

    fn shed(&self, req: &QueryRequest, id: TraceId, ingress: Instant) -> QueryResponse {
        self.engine.bump(Counter::RequestsShed);
        let epoch = self.engine.snapshot().epoch();
        // Shed requests leave timing evidence too: the ingress-to-shed
        // interval is their queue wait (and total latency), so the
        // `requests_shed` counter is attributable trace by trace.
        let waited = ingress.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        finish_trace(
            &self.telemetry,
            &self.engine,
            Trace {
                id,
                class: TraceClass::QueryShed,
                epoch,
                completion: Completion::Partial(Interrupt::Overloaded),
                shed: true,
                products: req.products.len() as u64,
                evaluated: 0,
                cache_hits: 0,
                cache_misses: 0,
                memo_hits: 0,
                dominance_tests: 0,
                queue_nanos: waited,
                assemble_nanos: 0,
                exec_nanos: 0,
                total_nanos: waited,
            },
        );
        QueryResponse {
            epoch,
            completion: Completion::Partial(Interrupt::Overloaded),
            evaluated: 0,
            results: Vec::new(),
        }
    }

    /// Adds a competitor; returns its stable id and the new epoch.
    pub fn add_competitor(&self, coords: Vec<f64>) -> Result<MutationOutcome, SkyupError> {
        self.traced_mutation(Mutation::AddCompetitor(coords))
    }

    /// Removes a competitor by id.
    pub fn remove_competitor(&self, cid: CompetitorId) -> Result<MutationOutcome, SkyupError> {
        self.traced_mutation(Mutation::RemoveCompetitor(cid))
    }

    /// Applies a pre-routed mutation — the shard flip path, where the
    /// coordinator has already assigned the competitor id. Traced like
    /// [`ServeHandle::add_competitor`] / [`ServeHandle::remove_competitor`].
    pub fn apply_mutation(&self, m: Mutation) -> Result<MutationOutcome, SkyupError> {
        self.traced_mutation(m)
    }

    fn traced_mutation(&self, m: Mutation) -> Result<MutationOutcome, SkyupError> {
        let id = self.telemetry.mint();
        let (nanos, out) = clocked(|| self.engine.apply(m));
        if let Ok(o) = &out {
            finish_trace(
                &self.telemetry,
                &self.engine,
                admin_trace(id, TraceClass::Mutation, o.epoch, nanos),
            );
        }
        out
    }

    /// Engine stats plus the serving counters.
    pub fn stats(&self) -> (EngineStats, QueryMetrics) {
        let id = self.telemetry.mint();
        let (nanos, out) = clocked(|| (self.engine.stats(), self.engine.metrics()));
        // Recorded after the metrics snapshot: a stats reply's counters
        // never include the trace of the read that produced them.
        finish_trace(
            &self.telemetry,
            &self.engine,
            admin_trace(id, TraceClass::Stats, out.0.epoch, nanos),
        );
        out
    }

    /// The telemetry store behind this handle (histograms, flight
    /// recorder, slow log).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Requests currently waiting in the bounded queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.jobs.lock().unwrap().0.len()
    }

    /// The currently published epoch (untraced; health verb).
    pub fn epoch(&self) -> u64 {
        self.engine.snapshot().epoch
    }

    /// Durability state for the health verb; `None` without `--wal`.
    pub fn durability(&self) -> Option<crate::engine::DurabilityStatus> {
        self.engine.durability()
    }

    /// Stops the workers after the queue drains and joins them, then
    /// forces buffered WAL records durable so a *clean* shutdown loses
    /// nothing even under `--fsync interval`/`never`.
    /// Idempotent; later queries shed.
    pub fn shutdown(&self) {
        {
            let mut guard = self.queue.jobs.lock().unwrap();
            guard.1 = true;
        }
        self.queue.ready.notify_all();
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        let _ = self.engine.flush_wal();
    }
}

pub(crate) fn validate_request(req: &QueryRequest, dims: usize) -> Result<(), SkyupError> {
    if req.k == 0 {
        return Err(SkyupError::InvalidConfig("k must be at least 1".into()));
    }
    if req.products.is_empty() {
        return Err(SkyupError::InvalidInput("no products to evaluate".into()));
    }
    for (i, t) in req.products.iter().enumerate() {
        if t.len() != dims {
            return Err(SkyupError::InvalidInput(format!(
                "product {i} has {} coordinates, expected {dims}",
                t.len()
            )));
        }
        if t.iter().any(|v| !v.is_finite()) {
            return Err(SkyupError::InvalidInput(format!(
                "product {i} has a non-finite coordinate"
            )));
        }
    }
    match req.cost {
        CostSpec::Reciprocal(eps) if !(eps.is_finite() && eps > 0.0) => Err(
            SkyupError::InvalidConfig("reciprocal cost needs a positive epsilon".into()),
        ),
        CostSpec::Linear(slope) if !(slope.is_finite() && slope > 0.0) => Err(
            SkyupError::InvalidConfig("linear cost needs a positive slope".into()),
        ),
        _ => Ok(()),
    }
}

/// Evaluates a query against one pinned snapshot of `published` — an
/// [`Engine`] (through its deref) or a coordinator's replica. Public so
/// the bench harness and the property suite can bypass the pool and
/// drive the exact code path the workers run.
pub fn execute_query(
    published: &Published,
    req: &QueryRequest,
) -> Result<QueryResponse, SkyupError> {
    let mut rec = QueryMetrics::new();
    execute_query_with(published, req, &mut rec)
}

/// [`execute_query`] recording into a caller-owned [`QueryMetrics`], so
/// the worker can read this request's counters (cache hits/misses,
/// dominance tests) for its trace after the answer is determined. The
/// metrics are still absorbed into the published tally here.
pub(crate) fn execute_query_with(
    published: &Published,
    req: &QueryRequest,
    rec: &mut QueryMetrics,
) -> Result<QueryResponse, SkyupError> {
    validate_request(req, published.dims())?;
    let snap = published.snapshot();
    let cost_fn = req.cost.cost_fn(snap.dims());
    let tag = req.cost.tag();
    let cfg = UpgradeConfig::default();

    let mut limits = ExecutionLimits::default();
    if let Some(n) = req.max_products {
        limits = limits.with_max_node_visits(n);
    }
    if let Some(d) = req.deadline {
        limits = limits.with_deadline(d);
    }
    let mut guard = limits.start();

    let mut completion = Completion::Exact;
    let mut evaluated = 0usize;
    let mut answers: Vec<ProductAnswer> = Vec::new();
    for (index, t) in req.products.iter().enumerate() {
        // One unit per product, hit or miss — see the module docs.
        if let Err(i) = guard.visit_node() {
            completion = Completion::Partial(i);
            break;
        }
        let answer = published.answer_product(&snap, t, &cost_fn, tag, &cfg, rec);
        evaluated += 1;
        answers.push(ProductAnswer {
            index,
            cost: answer.cost,
            upgraded: answer.upgraded,
        });
    }
    answers.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.index.cmp(&b.index)));
    answers.truncate(req.k);
    rec.incr(Counter::ResultsEmitted, answers.len() as u64);
    if !completion.is_exact() {
        rec.bump(Counter::LimitInterrupts);
    }
    published.absorb_metrics(rec);
    Ok(QueryResponse {
        epoch: snap.epoch(),
        completion,
        evaluated,
        results: answers,
    })
}
