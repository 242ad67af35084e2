//! The closed vocabulary of counters and phases.

/// Named counters covering the paper's cost model (Section IV measures
/// node accesses, dominance tests, and pruning effectiveness across the
/// probing and join algorithms) plus the library's own extensions.
///
/// The set is closed on purpose: a fixed `#[repr(usize)]` enum indexes a
/// flat array in [`crate::QueryMetrics`], so recording is one add with
/// no hashing or allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Point-vs-point dominance tests (`dominates` evaluations) in the
    /// skyline and screening code paths.
    DominanceTests,
    /// R-tree nodes read during traversals — the paper's node/page
    /// access metric.
    RtreeNodeAccesses,
    /// R-tree entries (child node refs or leaf points) examined during
    /// traversals.
    RtreeEntryAccesses,
    /// Points returned by ADR range queries before the exact dominance
    /// filter (basic probing's candidate volume).
    AdrCandidates,
    /// Skyline points retained across skyline computations.
    SkylinePointsRetained,
    /// Lower-bound evaluations (`LBC` list bounds, NLB/CLB/ALB, and the
    /// bound-sorted probe scheduler's sort).
    LowerBoundEvals,
    /// Products short-circuited by the top-k threshold before full
    /// evaluation (the bound-sorted scheduler's pruned tail).
    ThresholdPrunes,
    /// Products fully evaluated (dominator skyline + Algorithm 1).
    ProductsEvaluated,
    /// Pushes onto a best-first priority queue (join heap).
    HeapPushes,
    /// Pops from a best-first priority queue (join heap).
    HeapPops,
    /// `R_T` nodes expanded by the join (Heuristic 1 or the all-points
    /// fallback).
    TNodesExpanded,
    /// `R_P` nodes expanded out of join lists (Heuristic 2).
    PNodesExpanded,
    /// Join-list entries dropped by the mutual-dominance check.
    JlEntriesPruned,
    /// Exact upgrades computed with Algorithm 1.
    ExactUpgrades,
    /// Results emitted to the caller.
    ResultsEmitted,
    /// R-tree node visits charged against an execution budget (guarded
    /// traversals only; unlimited guards still count their own visits).
    GuardedNodeVisits,
    /// Queries cut short by an execution limit (deadline, budget, or
    /// cancellation) — each partial completion bumps this once.
    LimitInterrupts,
    /// Worker panics contained by the probe scheduler's unwind barrier.
    WorkerPanics,
    /// Probe tasks claimed dynamically from the shared work-stealing
    /// counter.
    StealEvents,
    /// Successful CAS improvements of the shared top-k threshold cell
    /// published by bound-sorted probe scheduler workers.
    SharedThresholdUpdates,
    /// 64-point blocks scanned by the columnar dominance kernel.
    KernelBlockScans,
    /// 64-point blocks skipped wholesale by the kernel's per-block zone
    /// maps: the block's min corner proved it could hold no dominator
    /// (equivalently, its MBR misses the target's ADR), so not one of
    /// its lanes was compared. On full enumerating scans the exact
    /// conservation law `KernelBlockScans + KernelBlocksSkipped ==
    /// scans × total blocks` holds.
    KernelBlocksSkipped,
    /// Per-product answers served from the dominance-aware result cache
    /// without recomputation (`skyup-serve`).
    CacheHit,
    /// Per-product answers that missed the result cache and were
    /// computed against the current snapshot (`skyup-serve`).
    CacheMiss,
    /// Cache entries evicted by selective invalidation after a
    /// competitor mutation (`skyup-serve`).
    CacheEvictions,
    /// Epoch snapshots published by the serve writer (one per applied
    /// mutation batch or index rebuild).
    EpochSwaps,
    /// Requests shed by the serve front-end instead of queued (bounded
    /// queue full, or the request deadline had already passed).
    RequestsShed,
    /// Products whose dominator list came from a skyline view's memo
    /// (an exact repeat, or a filter of a memoized ADR-containing
    /// superset) instead of a full skyline scan.
    DominatorMemoHits,
    /// Completed request traces recorded into the serve flight recorder
    /// (one per request that reached the telemetry layer, shed or not).
    TracesRecorded,
    /// Traces that also entered the slow-query log: latency over the
    /// `--slow-ms` threshold, shed, or partial completion.
    SlowQueries,
    /// Mutation records appended to the write-ahead log, before the
    /// epoch was published or the ack sent (`skyup-serve --wal`).
    WalAppends,
    /// Bytes written to the write-ahead log (record headers included).
    WalBytes,
    /// `fsync`/`fdatasync` calls issued on the write-ahead log file
    /// (one per append under `--fsync always`; every Nth append under
    /// `--fsync interval:N`; zero under `--fsync never`).
    WalFsyncs,
    /// Durable checkpoints written (atomic temp + rename + dir-fsync
    /// snapshot of the live competitor set, then WAL truncation).
    CheckpointsWritten,
    /// WAL records replayed into the engine during crash recovery.
    RecoveryReplayedRecords,
    /// Torn WAL tails discarded during recovery: an incomplete or
    /// checksum-failed final record left by a crash mid-append (never
    /// an abort — recovery keeps the longest valid prefix).
    TornTailTruncated,
    /// Local-skyline rows a coordinator received from its shards: the
    /// rows that entered a shard's skyline, carried by flip acks, plus
    /// every row of each whole-skyline resync.
    SkylineRowsSynced,
    /// Whole local skylines a coordinator fetched from a shard: one per
    /// shard at bootstrap, then one per repair of a lost owner
    /// flip-ack.
    ShardResyncs,
    /// Stage acknowledgements collected during two-phase epoch
    /// publishes (a committed publish acks once per shard, so
    /// `stage_acks == epoch_flips * shards`).
    StageAcks,
    /// Two-phase epoch publishes committed by the coordinator (the
    /// flip round after all shards acked the staged epoch).
    EpochFlips,
    /// Rows accepted by the `skyup ingest` loader into a point store
    /// (after schema inference, column selection, and the finite-value
    /// checks all passed for the row).
    RowsIngested,
    /// Rows the ingest path refused: malformed cells, ragged column
    /// counts, non-finite values, or (in profiling mode) null cells
    /// that make the row unusable as a point.
    RowsRejected,
    /// Scenario files executed by the `skyup test --suite` harness
    /// (skipped scenarios are not counted).
    ScenariosRun,
}

impl Counter {
    /// Every counter, in declaration (= array) order.
    pub const ALL: [Counter; 43] = [
        Counter::DominanceTests,
        Counter::RtreeNodeAccesses,
        Counter::RtreeEntryAccesses,
        Counter::AdrCandidates,
        Counter::SkylinePointsRetained,
        Counter::LowerBoundEvals,
        Counter::ThresholdPrunes,
        Counter::ProductsEvaluated,
        Counter::HeapPushes,
        Counter::HeapPops,
        Counter::TNodesExpanded,
        Counter::PNodesExpanded,
        Counter::JlEntriesPruned,
        Counter::ExactUpgrades,
        Counter::ResultsEmitted,
        Counter::GuardedNodeVisits,
        Counter::LimitInterrupts,
        Counter::WorkerPanics,
        Counter::StealEvents,
        Counter::SharedThresholdUpdates,
        Counter::KernelBlockScans,
        Counter::KernelBlocksSkipped,
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::CacheEvictions,
        Counter::EpochSwaps,
        Counter::RequestsShed,
        Counter::DominatorMemoHits,
        Counter::TracesRecorded,
        Counter::SlowQueries,
        Counter::WalAppends,
        Counter::WalBytes,
        Counter::WalFsyncs,
        Counter::CheckpointsWritten,
        Counter::RecoveryReplayedRecords,
        Counter::TornTailTruncated,
        Counter::SkylineRowsSynced,
        Counter::ShardResyncs,
        Counter::StageAcks,
        Counter::EpochFlips,
        Counter::RowsIngested,
        Counter::RowsRejected,
        Counter::ScenariosRun,
    ];

    /// Number of counters (the metrics array length).
    pub const COUNT: usize = Self::ALL.len();

    /// The stable snake_case name used as the JSON key and text label.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DominanceTests => "dominance_tests",
            Counter::RtreeNodeAccesses => "rtree_node_accesses",
            Counter::RtreeEntryAccesses => "rtree_entry_accesses",
            Counter::AdrCandidates => "adr_candidates",
            Counter::SkylinePointsRetained => "skyline_points_retained",
            Counter::LowerBoundEvals => "lower_bound_evals",
            Counter::ThresholdPrunes => "threshold_prunes",
            Counter::ProductsEvaluated => "products_evaluated",
            Counter::HeapPushes => "heap_pushes",
            Counter::HeapPops => "heap_pops",
            Counter::TNodesExpanded => "t_nodes_expanded",
            Counter::PNodesExpanded => "p_nodes_expanded",
            Counter::JlEntriesPruned => "jl_entries_pruned",
            Counter::ExactUpgrades => "exact_upgrades",
            Counter::ResultsEmitted => "results_emitted",
            Counter::GuardedNodeVisits => "guarded_node_visits",
            Counter::LimitInterrupts => "limit_interrupts",
            Counter::WorkerPanics => "worker_panics",
            Counter::StealEvents => "steal_events",
            Counter::SharedThresholdUpdates => "shared_threshold_updates",
            Counter::KernelBlockScans => "kernel_block_scans",
            Counter::KernelBlocksSkipped => "kernel_blocks_skipped",
            Counter::CacheHit => "cache_hit",
            Counter::CacheMiss => "cache_miss",
            Counter::CacheEvictions => "cache_evictions",
            Counter::EpochSwaps => "epoch_swaps",
            Counter::RequestsShed => "requests_shed",
            Counter::DominatorMemoHits => "dominator_memo_hits",
            Counter::TracesRecorded => "traces_recorded",
            Counter::SlowQueries => "slow_queries",
            Counter::WalAppends => "wal_appends",
            Counter::WalBytes => "wal_bytes",
            Counter::WalFsyncs => "wal_fsyncs",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::RecoveryReplayedRecords => "recovery_replayed_records",
            Counter::TornTailTruncated => "torn_tail_truncated",
            Counter::SkylineRowsSynced => "skyline_rows_synced",
            Counter::ShardResyncs => "shard_resyncs",
            Counter::StageAcks => "stage_acks",
            Counter::EpochFlips => "epoch_flips",
            Counter::RowsIngested => "rows_ingested",
            Counter::RowsRejected => "rows_rejected",
            Counter::ScenariosRun => "scenarios_run",
        }
    }

    /// Array slot of this counter.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// The coarse query phases timed by span recorders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// R-tree construction (bulk load or insertion build).
    IndexBuild,
    /// The per-product probing loop (basic, improved, or the probe
    /// scheduler's workers).
    ProbeLoop,
    /// `getDominatingSky` traversals (Algorithm 3) and the basic
    /// algorithm's range-query + skyline replacement for it.
    DominatingSky,
    /// Join heap processing: target/join-list expansion and product
    /// resolution (Algorithm 4).
    JoinExpansion,
    /// Algorithm 1 exact upgrades (the per-product optimization step).
    Upgrade,
    /// Probe-order preparation for the bound-sorted scheduler: screen
    /// lower-bound evaluation over `T` plus the ascending sort.
    BoundSort,
}

impl Phase {
    /// Every phase, in declaration (= array) order.
    pub const ALL: [Phase; 6] = [
        Phase::IndexBuild,
        Phase::ProbeLoop,
        Phase::DominatingSky,
        Phase::JoinExpansion,
        Phase::Upgrade,
        Phase::BoundSort,
    ];

    /// Number of phases (the metrics array length).
    pub const COUNT: usize = Self::ALL.len();

    /// The stable snake_case name used as the JSON key and text label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::IndexBuild => "index_build",
            Phase::ProbeLoop => "probe_loop",
            Phase::DominatingSky => "dominating_sky",
            Phase::JoinExpansion => "join_expansion",
            Phase::Upgrade => "upgrade",
            Phase::BoundSort => "bound_sort",
        }
    }

    /// Array slot of this phase.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.name()), "duplicate phase name {}", p.name());
        }
    }

    #[test]
    fn indices_match_declaration_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
