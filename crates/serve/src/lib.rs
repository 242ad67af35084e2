//! `skyup-serve`: a long-lived query service over the upgrading
//! algorithms.
//!
//! The paper evaluates one-shot top-k upgrade queries against a static
//! competitor set; this crate is the online counterpart the ROADMAP's
//! production north-star asks for. Three pieces, each its own module:
//!
//! * [`engine`] — the epoch-based engine: a single writer applies
//!   competitor mutations ([`Mutation`]) to a working copy and
//!   atomically publishes immutable [`Snapshot`]s (the precomputed
//!   live-set skyline rows and their competitor ids) that query workers
//!   read lock-free after one `Arc` clone. A degradation heuristic triggers periodic
//!   STR rebuilds with store compaction; stable competitor ids survive
//!   the renumbering.
//! * [`cache`] — the dominance-aware result cache: completed
//!   per-product answers invalidated *selectively* on mutation (ADR
//!   test for inserts, strict dominance by a removed skyline member for
//!   deletes) instead of flushed per epoch.
//! * [`server`] / [`net`] / [`proto`] — the front-end: a fixed worker
//!   pool draining a bounded queue, per-request deadlines and budgets
//!   mapped onto [`skyup_obs::ExecutionLimits`], overload shed as
//!   `Completion::Partial(Interrupt::Overloaded)`, exposed in-process
//!   ([`ServeHandle`]) and as newline-delimited JSON over TCP.
//! * [`telemetry`] — request observability, off the result path:
//!   per-request traces ([`skyup_obs::Trace`]) with queue/assembly/
//!   execution phase breakdowns, per-class log-scale latency
//!   histograms, a fixed-size flight recorder of the last N traces,
//!   and an always-kept slow-query log — served by the `metrics` and
//!   `trace` protocol verbs.
//! * [`wal`] — crash-safe durability: an append-only, checksummed
//!   write-ahead log of mutations appended *before* each epoch is
//!   published, periodic atomic checkpoints bounding replay, and
//!   torn-tail-tolerant recovery ([`Engine::recover`]).
//! * [`shard`] / [`coordinator`] — horizontal scale-out: the
//!   competitor set partitioned across N shard processes (each a full
//!   epoch engine under globally assigned ids), and a coordinator that
//!   replicates the union of the shards' local skylines from the deltas
//!   their flip acks carry, publishes its skyline (the global one)
//!   through the same [`Published`] reader half an engine uses, and so
//!   answers queries without a shard round trip, bit-identically to a
//!   single-engine oracle at every epoch. Mutations run a two-phase
//!   epoch publish (`stage` on every shard, collect acks, `flip`).
//!
//! Everything is std-only, like the rest of the workspace.

pub mod batch;
pub mod cache;
pub mod coordinator;
pub mod engine;
pub mod net;
pub mod proto;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod telemetry;
pub mod wal;

/// Stable identity of a competitor across its lifetime: assigned at
/// insertion, never reused, and unaffected by index rebuilds (unlike
/// [`skyup_geom::PointId`], which is a store row index and shifts when
/// compaction drops tombstones).
pub type CompetitorId = u64;

pub use batch::{execute_batch, execute_batch_stats, BatchRequestStats, BatchStats};
pub use cache::{CacheKey, CostTag, ResultCache};
pub use coordinator::{Coordinator, CoordinatorDispatch, LocalLink, ShardLink, TcpLink};
pub use engine::{
    DurabilityStatus, Engine, EngineConfig, EngineStats, Mutation, MutationOutcome, Published,
};
pub use net::{bind_local, handle_lines, serve, Client, ClientPool, Dispatch, MAX_LINE_BYTES};
pub use server::{
    execute_query, CostSpec, ProductAnswer, QueryRequest, QueryResponse, QueryTicket, ServeConfig,
    ServeHandle,
};
pub use shard::{FlipAck, Partition, ShardDispatch, ShardState, SkylineRows, StagedOp};
pub use snapshot::{Answer, Snapshot};
pub use telemetry::Telemetry;
pub use wal::{FsyncPolicy, RecoveryReport, WalConfig};
