//! `skyup-ledger`: one benchmark for what a skyup client pays, end to
//! end and layer by layer. See `ledger/README.md` for the workloads,
//! the metrics and what each layer metric should move.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics of
//! [`END_TO_END`]; a traced run (`--trace 1`) repeats the untraced
//! measurement, measures the same workload again with tracing on, and
//! reports the per-layer metrics of [`PER_LAYER`].

pub mod host;
pub mod ops;
pub mod oracle;
pub mod paper;
pub mod procs;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod wire;

use skyup_obs::json::Json;
use stats::{Metric, Metrics};
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that
/// does not run on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query_p99_us", "us"),
    ("mutation_p50_us", "us"),
    ("mutation_p99_us", "us"),
    ("join_p50_ms", "ms"),
    ("probe_p50_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("net.unattributed_p50_us", "us"),
    ("net.unattributed_p99_us", "us"),
    ("proto.parse_us", "us"),
    ("proto.render_us", "us"),
    ("server.queue_p50_us", "us"),
    ("server.queue_p99_us", "us"),
    ("server.exec_p50_us", "us"),
    ("server.exec_p99_us", "us"),
    ("server.shed_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_mutation", "count"),
    ("engine.answer_us", "us"),
    ("engine.apply_p50_us", "us"),
    ("engine.apply_p99_us", "us"),
    ("engine.apply_rebuild_us", "us"),
    ("engine.rebuilds", "count"),
    ("wal.fsyncs_per_mutation", "count"),
    ("wal.bytes_per_mutation", "B"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_apply_us", "us"),
    ("core.dominators_us", "us"),
    ("core.upgrade_us", "us"),
    ("core.join_expansion_ms", "ms"),
    ("core.dominating_sky_ms", "ms"),
    ("core.bound_sort_ms", "ms"),
    ("core.probe_loop_ms", "ms"),
    ("core.evaluated_ratio", "ratio"),
    ("core.dominance_tests_per_query", "count"),
    ("rtree.bulk_load_ms", "ms"),
    ("rtree.node_accesses_per_query", "count"),
    ("skyline.points_retained_per_query", "count"),
    ("geom.kernel_skip_ratio", "ratio"),
    ("coordinator.shard0.probe_rtt_p50_us", "us"),
    ("coordinator.shard0.probe_rtt_p99_us", "us"),
    ("coordinator.shard1.probe_rtt_p50_us", "us"),
    ("coordinator.shard1.probe_rtt_p99_us", "us"),
    ("coordinator.merge_drop_ratio", "ratio"),
    ("coordinator.gather_points_per_query", "count"),
    ("coordinator.stage_acks_per_mutation", "count"),
    ("ledger.queue_share", "ratio"),
    ("ledger.exec_share", "ratio"),
    ("ledger.other_share", "ratio"),
    ("ledger.unattributed_share", "ratio"),
    ("trace.overhead_query_p50_us", "us"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperTopk,
    ServeRead,
    ServeChurn,
    ShardedRead,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTopk,
        Workload::ServeRead,
        Workload::ServeChurn,
        Workload::ShardedRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTopk => "paper_topk",
            Workload::ServeRead => "serve_read",
            Workload::ServeChurn => "serve_churn",
            Workload::ShardedRead => "sharded_read",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark; `Tiny` is for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// The `skyup` binary the serve workloads spawn.
    pub skyup: PathBuf,
    /// Scratch directory for this run (WALs, the competitor file).
    pub work_dir: PathBuf,
    /// Flip one served answer before the correctness gate (the gate's
    /// negative test).
    pub corrupt_answer: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, metrics: Metrics, notes: Vec<String>) -> Outcome {
        Outcome {
            correct: failed == 0,
            attempted: attempted.max(1),
            failed,
            metrics: metrics.0,
            notes,
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A run that failed the correctness gate reports no numbers.
    pub fn to_json(&self) -> Json {
        let metrics = if self.correct {
            Json::Obj(
                self.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            )
        } else {
            Json::Obj(Vec::new())
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Uint(self.attempted)),
            ("failed", Json::Uint(self.failed)),
            ("metrics", metrics),
        ])
    }
}

/// Runs one workload and returns its metrics in catalogue order, every
/// catalogued metric present (0 for a layer the workload does not run).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let mut out = match cfg.workload {
        Workload::PaperTopk => paper::run(cfg),
        Workload::ServeRead => serve::run(cfg, &serve::ServeSpec::serve_read(cfg.scale)),
        Workload::ServeChurn => serve::run(cfg, &serve::ServeSpec::serve_churn(cfg.scale)),
        Workload::ShardedRead => serve::run(cfg, &serve::ServeSpec::sharded_read(cfg.scale)),
    }?;
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    out.metrics = catalogue
        .iter()
        .map(
            |&(name, unit)| match out.metrics.iter().find(|m| m.name == name) {
                Some(m) => {
                    assert_eq!(m.unit, unit, "{name} reported in the wrong unit");
                    m.clone()
                }
                None => Metric {
                    name,
                    value: 0.0,
                    unit,
                },
            },
        )
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn a_failed_gate_reports_no_numbers() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.0, "s");
        let out = Outcome::new(10, 1, m, Vec::new());
        assert!(!out.correct);
        assert_eq!(out.to_json().get("metrics"), Some(&Json::Obj(Vec::new())));
    }
}
