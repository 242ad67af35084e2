//! CI perf-regression gate: compares a freshly generated bench report
//! against the committed baseline and fails on regression.
//!
//! ```text
//! bench_gate <serve|probing> <fresh.json> <baseline.json>
//! ```
//!
//! Exit codes: `0` pass, `1` one or more checks failed (each reason on
//! stderr), `2` usage / unreadable / unparsable input.
//!
//! Two kinds of check, deliberately separated:
//!
//! * **Machine-independent invariants** are exact. Bit-identity flags,
//!   cache hit/miss counts, the 1-thread serve pass's memo and kernel
//!   counts, and evaluated-product counts are pure functions of the
//!   committed workload — any drift is a behavior change, not noise, so
//!   the tolerance is zero. Quantities that are genuinely
//!   timing-dependent (which products four serve workers memoize, what
//!   a racy shared threshold pruned at >1 threads) get structural
//!   checks instead of exact ones.
//! * **Wall-clock** is one-sided with a 25% tolerance: fresh may not be
//!   more than 1.25x slower than baseline (per row). Faster never
//!   fails; the driver script retries the whole run to ride out
//!   scheduler noise on shared hardware.
//!
//! The serve gate additionally audits the telemetry snapshots the bench
//! emits ([`gate_serve_latency`]): trace count == requests served,
//! per-class histogram bucket counts conserve, per-class trace counts
//! match the baseline exactly, and the slow log stays empty on the
//! all-exact workload. Bucket *placement* — the latencies themselves —
//! is never compared. Likewise the mutation storm ([`gate_serve_storm`])
//! is gated on bit-identity and its exact counts, never on its latency
//! tails.

use skyup_obs::json::{parse, Json};
use std::process::ExitCode;

/// Fresh wall-clock may lag baseline by at most this factor.
const WALL_TOLERANCE: f64 = 1.25;

struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn new() -> Self {
        Gate {
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Exact match of a numeric field between fresh and baseline.
    fn exact(&mut self, what: &str, key: &str, fresh: &Json, baseline: &Json) {
        let f = num(fresh, key);
        let b = num(baseline, key);
        match (f, b) {
            (Some(f), Some(b)) => self.check(f == b, || {
                format!("{what}: {key} changed: fresh {f} vs baseline {b}")
            }),
            _ => self.fail(format!(
                "{what}: {key} missing (fresh {f:?}, baseline {b:?})"
            )),
        }
    }

    /// One-sided wall-clock check: fresh may not exceed baseline by
    /// more than [`WALL_TOLERANCE`]. `key` holds a duration (smaller is
    /// better).
    fn wall(&mut self, what: &str, key: &str, fresh: &Json, baseline: &Json) {
        match (num(fresh, key), num(baseline, key)) {
            (Some(f), Some(b)) => self.check(f <= b * WALL_TOLERANCE, || {
                format!(
                    "{what}: {key} regressed: fresh {f:.1} vs baseline {b:.1} \
                     (tolerance {WALL_TOLERANCE}x)"
                )
            }),
            (f, b) => self.fail(format!(
                "{what}: {key} missing (fresh {f:?}, baseline {b:?})"
            )),
        }
    }

    /// One-sided throughput check: fresh may not fall below baseline by
    /// more than [`WALL_TOLERANCE`]. `key` holds a rate (bigger is
    /// better).
    fn rate(&mut self, what: &str, key: &str, fresh: &Json, baseline: &Json) {
        match (num(fresh, key), num(baseline, key)) {
            (Some(f), Some(b)) => self.check(f * WALL_TOLERANCE >= b, || {
                format!(
                    "{what}: {key} regressed: fresh {f:.0} vs baseline {b:.0} \
                     (tolerance {WALL_TOLERANCE}x)"
                )
            }),
            (f, b) => self.fail(format!(
                "{what}: {key} missing (fresh {f:?}, baseline {b:?})"
            )),
        }
    }

    /// Every field of the baseline's `workload` object must match the
    /// fresh one exactly: a gate run at a different scale or seed is
    /// comparing apples to oranges and must say so rather than pass
    /// vacuously.
    fn workload(&mut self, fresh: &Json, baseline: &Json) {
        let (Some(Json::Obj(bf)), Some(fw)) = (baseline.get("workload"), fresh.get("workload"))
        else {
            self.fail("workload object missing".into());
            return;
        };
        for (key, want) in bf {
            match fw.get(key) {
                Some(have) if render(have) == render(want) => {}
                Some(have) => self.fail(format!(
                    "workload.{key} differs: fresh {} vs baseline {} \
                     (rerun the gate at the committed scale/seed)",
                    render(have),
                    render(want)
                )),
                None => self.fail(format!("workload.{key} missing from fresh report")),
            }
        }
    }
}

fn num(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(|v| v.as_f64())
}

fn is_true(doc: &Json, key: &str) -> bool {
    matches!(doc.get(key), Some(Json::Bool(true)))
}

fn render(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) => format!("{n}"),
        Json::Uint(n) => format!("{n}"),
        Json::Bool(b) => format!("{b}"),
        other => format!("{other:?}"),
    }
}

fn rows<'a>(doc: &'a Json, key: &str) -> Option<&'a [Json]> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Some(items),
        _ => None,
    }
}

/// Class keys the serve telemetry snapshot must carry, mirroring
/// `skyup_obs::TraceClass::ALL`.
const TRACE_CLASSES: [&str; 5] = [
    "query_cached",
    "query_cold",
    "query_shed",
    "mutation",
    "stats",
];

/// Structural checks on the telemetry snapshots (`latency` rows) the
/// serve bench emits: trace accounting must balance exactly.
///
/// Bucket *placement* is machine-dependent (it is the latency), so the
/// gate never compares bucket bounds — only the conservation laws and
/// the per-class trace counts, which are pure functions of the
/// committed workload (one cold pass + the warm passes on the surviving
/// engine, nothing shed, no mutations, slow threshold 0). Only the
/// cumulative histograms are checked; the rolling view depends on how
/// wall-clock windows sliced the run.
fn gate_serve_latency(gate: &mut Gate, fresh: &Json, baseline: &Json) {
    let (Some(fresh_rows), Some(base_rows)) = (rows(fresh, "latency"), rows(baseline, "latency"))
    else {
        gate.fail("latency array missing (telemetry snapshots not emitted)".into());
        return;
    };
    let key = |row: &Json| num(row, "threads").unwrap_or(-1.0) as i64;
    for brow in base_rows {
        let threads = key(brow);
        let what = format!("serve latency {threads}t");
        let Some(frow) = fresh_rows.iter().find(|r| key(r) == key(brow)) else {
            gate.fail(format!("{what}: missing from fresh report"));
            continue;
        };
        gate.exact(&what, "requests_served", frow, brow);
        let (Some(fm), Some(bm)) = (frow.get("metrics"), brow.get("metrics")) else {
            gate.fail(format!("{what}: metrics object missing"));
            continue;
        };
        // Every request the surviving handle served must have produced
        // exactly one trace — the tentpole's accounting invariant.
        let served = num(frow, "requests_served").unwrap_or(-1.0);
        let recorded = num(fm, "traces_recorded").unwrap_or(-2.0);
        gate.check(served == recorded, || {
            format!("{what}: traces_recorded {recorded} != requests_served {served}")
        });
        // slow_ms is 0 and the workload never sheds or runs partial, so
        // the slow log is deterministically empty.
        let slow = num(fm, "slow_recorded").unwrap_or(-1.0);
        gate.check(slow == 0.0, || {
            format!("{what}: slow log not empty ({slow} entries) on an all-exact workload")
        });
        let (Some(fc), Some(bc)) = (fm.get("classes"), bm.get("classes")) else {
            gate.fail(format!("{what}: classes object missing"));
            continue;
        };
        let mut class_total = 0.0;
        for class in TRACE_CLASSES {
            let cwhat = format!("{what} class {class}");
            let (Some(fcum), Some(bcum)) = (
                fc.get(class).and_then(|c| c.get("cumulative")),
                bc.get(class).and_then(|c| c.get("cumulative")),
            ) else {
                gate.fail(format!("{cwhat}: cumulative histogram missing"));
                continue;
            };
            // Per-class counts are machine-independent; check exactly.
            gate.exact(&cwhat, "count", fcum, bcum);
            let count = num(fcum, "count").unwrap_or(0.0);
            class_total += count;
            // Conservation: the bucket array accounts for every trace.
            let bucket_sum: f64 = match fcum.get("buckets") {
                Some(Json::Arr(bs)) => bs.iter().filter_map(|b| num(b, "count")).sum(),
                _ => {
                    gate.fail(format!("{cwhat}: buckets array missing"));
                    continue;
                }
            };
            gate.check(bucket_sum == count, || {
                format!("{cwhat}: bucket counts sum to {bucket_sum}, histogram count {count}")
            });
        }
        gate.check(class_total == recorded, || {
            format!(
                "{what}: per-class counts sum to {class_total}, \
                 traces_recorded {recorded} (traces lost or double-counted)"
            )
        });
    }
    gate.check(fresh_rows.len() == base_rows.len(), || {
        format!(
            "serve latency row count changed: fresh {} vs baseline {}",
            fresh_rows.len(),
            base_rows.len()
        )
    });
}

/// Checks on the durability section of the serve report.
///
/// The counters are pure functions of the committed workload (every
/// mutation appends exactly one record; the fsync count follows from
/// the policy), so they are exact. The recovered-state checksum and the
/// clean-shutdown torn-tail count are self-invariants of the fresh run.
/// Mutation throughput and replay rate are wall-clock: one-sided with
/// the usual tolerance — except under `always`, where the time is
/// dominated by the device's fsync latency and a rate check would gate
/// the disk, not the code; there the structure is checked instead.
fn gate_serve_durability(gate: &mut Gate, fresh: &Json, baseline: &Json) {
    let (Some(fresh_rows), Some(base_rows)) =
        (rows(fresh, "durability"), rows(baseline, "durability"))
    else {
        gate.fail("durability array missing".into());
        return;
    };
    let policy = |row: &Json| {
        row.get("policy")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    for brow in base_rows {
        let name = policy(brow);
        let what = format!("serve durability {name}");
        let Some(frow) = fresh_rows.iter().find(|r| policy(r) == name) else {
            gate.fail(format!("{what}: missing from fresh report"));
            continue;
        };
        for field in ["mutations", "wal_appends", "wal_bytes", "wal_fsyncs"] {
            gate.exact(&what, field, frow, brow);
        }
        // The tentpole's accounting law: one durable record per acked
        // mutation, no more, no fewer.
        let muts = num(frow, "mutations").unwrap_or(-1.0);
        let appends = num(frow, "wal_appends").unwrap_or(-2.0);
        gate.check(muts == appends, || {
            format!("{what}: wal_appends {appends} != acked mutations {muts}")
        });
        if name != "always" {
            gate.rate(&what, "mps", frow, brow);
        }
    }
    gate.check(fresh_rows.len() == base_rows.len(), || {
        format!(
            "serve durability row count changed: fresh {} vs baseline {}",
            fresh_rows.len(),
            base_rows.len()
        )
    });

    let (Some(fr), Some(br)) = (
        fresh.get("recovery_replay"),
        baseline.get("recovery_replay"),
    ) else {
        gate.fail("recovery_replay object missing".into());
        return;
    };
    gate.exact("serve recovery", "replayed", fr, br);
    gate.rate("serve recovery", "replay_rps", fr, br);
    gate.check(is_true(fr, "checksum_equal"), || {
        "serve recovery: recovered state does not hash identically to the \
         pre-recovery engine"
            .into()
    });
    let torn = num(fr, "torn_truncated").unwrap_or(-1.0);
    gate.check(torn == 0.0, || {
        format!("serve recovery: {torn} torn tails after a clean shutdown")
    });
}

/// Work counters every serve row reports. They are exact on every row
/// but the 4-thread cold pass: warm passes compute nothing, and one
/// worker answers the cold pool in FIFO order, so which products the
/// memo answers is fixed. Four workers race to fill the memo, so there
/// only a hit is required.
const SERVE_WORK: [&str; 4] = [
    "dominator_memo_hits",
    "dominance_tests",
    "kernel_block_scans",
    "kernel_blocks_skipped",
];

/// Gate for `serve_throughput` reports (`BENCH_serve.json`). Rows are
/// keyed by `(threads, phase)`.
fn gate_serve(gate: &mut Gate, fresh: &Json, baseline: &Json) {
    gate.workload(fresh, baseline);
    gate.check(is_true(fresh, "all_modes_bit_identical"), || {
        "all_modes_bit_identical is not true: warm or 4-thread answers \
         diverged from the 1-thread cold computation"
            .into()
    });

    let (Some(fresh_rows), Some(base_rows)) = (rows(fresh, "runs"), rows(baseline, "runs")) else {
        gate.fail("runs array missing".into());
        return;
    };
    let key = |row: &Json| {
        (
            num(row, "threads").unwrap_or(-1.0) as i64,
            row.get("phase")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string(),
        )
    };
    for brow in base_rows {
        let (threads, phase) = key(brow);
        let what = format!("serve row {threads}t/{phase}");
        let Some(frow) = fresh_rows.iter().find(|r| key(r) == key(brow)) else {
            gate.fail(format!("{what}: missing from fresh report"));
            continue;
        };
        // Machine-independent: the cache behavior of the committed
        // workload is deterministic per pass.
        for field in ["requests", "cache_hit", "cache_miss"] {
            gate.exact(&what, field, frow, brow);
        }
        if threads == 1 || phase != "cold" {
            for field in SERVE_WORK {
                gate.exact(&what, field, frow, brow);
            }
        } else {
            let memo = num(frow, "dominator_memo_hits").unwrap_or(0.0);
            gate.check(memo >= 1.0, || {
                format!("{what}: the dominator memo never hit")
            });
        }
        gate.rate(&what, "qps", frow, brow);
    }
    gate.check(fresh_rows.len() == base_rows.len(), || {
        format!(
            "serve run count changed: fresh {} vs baseline {}",
            fresh_rows.len(),
            base_rows.len()
        )
    });
    gate_serve_latency(gate, fresh, baseline);
    gate_serve_durability(gate, fresh, baseline);
    gate_serve_scatter(gate, fresh, baseline);
    gate_serve_storm(gate, fresh, baseline);
}

/// Mutation-storm rows (`mutation_storm`, keyed by competitor count):
/// the storm engine must match a cold engine over its final live set
/// bit for bit, and the op counts, compactions, checkpoints and final
/// live/skyline sizes are exact functions of the committed workload.
/// The latency summaries are reported, never gated: on shared hardware
/// their tails measure the host as much as the code.
fn gate_serve_storm(gate: &mut Gate, fresh: &Json, baseline: &Json) {
    gate.check(is_true(fresh, "mutation_storm_bit_identical"), || {
        "mutation_storm_bit_identical is not true: the storm engine diverged from a \
         cold engine over its final live set"
            .into()
    });
    let (Some(frows), Some(brows)) = (
        rows(fresh, "mutation_storm"),
        rows(baseline, "mutation_storm"),
    ) else {
        gate.fail("mutation_storm array missing".into());
        return;
    };
    for brow in brows {
        let n = num(brow, "competitors").unwrap_or(-1.0);
        let what = format!("mutation_storm {n}");
        let Some(frow) = frows.iter().find(|r| num(r, "competitors") == Some(n)) else {
            gate.fail(format!("{what}: missing from fresh report"));
            continue;
        };
        for field in [
            "adds",
            "removes",
            "skyline_removes",
            "rebuilds",
            "checkpoints_written",
            "final_live",
            "final_skyline",
            "identity_checks",
        ] {
            gate.exact(&what, field, frow, brow);
        }
    }
    gate.check(frows.len() == brows.len(), || {
        format!(
            "mutation_storm row count changed: fresh {} vs baseline {}",
            frows.len(),
            brows.len()
        )
    });
}

/// Sharded-topology rows (`scatter_gather`, keyed by shard count): the
/// coordinator's answer must stay bit-identical to the single-engine
/// oracle, the publish and replica counters are exact functions of the
/// committed workload, queries must make no shard call, the rows synced
/// must equal the rows the links delivered, the only resyncs are the
/// bootstrap's, the replica must hold |U| >= |global skyline| == the
/// oracle's skyline >= 1, and query qps / publish throughput are
/// wall-clock with the usual one-sided tolerance.
fn gate_serve_scatter(gate: &mut Gate, fresh: &Json, baseline: &Json) {
    gate.check(is_true(fresh, "scatter_gather_bit_identical"), || {
        "scatter_gather_bit_identical is not true: a coordinator answer \
         diverged from the single-engine oracle"
            .into()
    });
    let (Some(frows), Some(brows)) = (
        rows(fresh, "scatter_gather"),
        rows(baseline, "scatter_gather"),
    ) else {
        gate.fail("scatter_gather array missing".into());
        return;
    };
    for brow in brows {
        let shards = num(brow, "shards").unwrap_or(-1.0);
        let what = format!("scatter_gather {shards}-shard");
        let Some(frow) = frows.iter().find(|r| num(r, "shards") == Some(shards)) else {
            gate.fail(format!("{what}: missing from fresh report"));
            continue;
        };
        // Machine-independent: deterministic functions of the committed
        // workload and seed.
        for field in [
            "mutations",
            "identity_checks",
            "queries",
            "stage_acks",
            "epoch_flips",
            "query_shard_calls",
            "skyline_rows_synced",
            "link_rows",
            "shard_resyncs",
            "union_rows",
            "global_skyline",
            "oracle_skyline",
        ] {
            gate.exact(&what, field, frow, brow);
        }
        let g = |key: &str| num(frow, key).unwrap_or(-1.0);
        gate.check(g("query_shard_calls") == 0.0, || {
            format!(
                "{what}: queries made {} shard calls",
                g("query_shard_calls")
            )
        });
        gate.check(g("skyline_rows_synced") == g("link_rows"), || {
            format!(
                "{what}: {} rows synced for {} rows the links delivered",
                g("skyline_rows_synced"),
                g("link_rows")
            )
        });
        gate.check(g("shard_resyncs") == shards, || {
            format!(
                "{what}: {} resyncs for {shards} shards bootstrapped",
                g("shard_resyncs")
            )
        });
        gate.check(g("stage_acks") == g("epoch_flips") * shards, || {
            format!(
                "{what}: two-phase accounting broke: {} stage acks for {} flips x {shards} \
                 shards",
                g("stage_acks"),
                g("epoch_flips")
            )
        });
        gate.check(g("epoch_flips") == g("mutations"), || {
            format!(
                "{what}: {} publishes for {} mutations",
                g("epoch_flips"),
                g("mutations")
            )
        });
        gate.check(
            g("union_rows") >= g("global_skyline")
                && g("global_skyline") == g("oracle_skyline")
                && g("global_skyline") >= 1.0,
            || {
                format!(
                    "{what}: replica broke: |U| {} >= |global skyline| {} == oracle {} >= 1 \
                     must hold",
                    g("union_rows"),
                    g("global_skyline"),
                    g("oracle_skyline")
                )
            },
        );
        gate.rate(&what, "qps", frow, brow);
        gate.rate(&what, "publish_mps", frow, brow);
    }
    gate.check(frows.len() == brows.len(), || {
        format!(
            "scatter_gather row count changed: fresh {} vs baseline {}",
            frows.len(),
            brows.len()
        )
    });
}

/// Gate for `probe_sched` reports (`BENCH_probing.json`). Rows are
/// keyed by `(strategy, threads)`.
fn gate_probing(gate: &mut Gate, fresh: &Json, baseline: &Json) {
    for (f, b) in [
        (fresh.get("schema"), baseline.get("schema")),
        (
            fresh.get("samples_per_config"),
            baseline.get("samples_per_config"),
        ),
    ] {
        match (f, b) {
            (Some(f), Some(b)) if render(f) == render(b) => {}
            (f, b) => gate.fail(format!(
                "probing header mismatch: fresh {f:?} vs baseline {b:?}"
            )),
        }
    }
    gate.workload(fresh, baseline);
    gate.wall("probing", "sequential_wall_us", fresh, baseline);

    let (Some(fresh_rows), Some(base_rows)) = (rows(fresh, "runs"), rows(baseline, "runs")) else {
        gate.fail("runs array missing".into());
        return;
    };
    let t_size = baseline
        .get("workload")
        .and_then(|w| num(w, "t_size"))
        .unwrap_or(0.0);
    let key = |row: &Json| {
        (
            row.get("strategy")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string(),
            num(row, "threads").unwrap_or(-1.0) as i64,
        )
    };
    for brow in base_rows {
        let (strategy, threads) = key(brow);
        let what = format!("probing row {strategy}/{threads}t");
        let Some(frow) = fresh_rows.iter().find(|r| key(r) == key(brow)) else {
            gate.fail(format!("{what}: missing from fresh report"));
            continue;
        };
        gate.check(is_true(frow, "bit_identical_to_sequential"), || {
            format!("{what}: scheduled results diverged from the sequential oracle")
        });
        // Static-chunk and work-stealing evaluate every product; their
        // counts are deterministic. Bound-sorted pruning races on the
        // shared threshold above one thread, so there only the
        // conservation law evaluated + pruned == t_size is exact.
        if strategy != "bound_sorted" || threads == 1 {
            gate.exact(&what, "evaluated", frow, brow);
            gate.exact(&what, "pruned", frow, brow);
        } else {
            let e = num(frow, "evaluated").unwrap_or(-1.0);
            let p = num(frow, "pruned").unwrap_or(-1.0);
            gate.check(e + p == t_size, || {
                format!(
                    "{what}: evaluated {e} + pruned {p} != t_size {t_size} \
                     (products lost or double-counted)"
                )
            });
        }
        if let (Some(fc), Some(bc)) = (frow.get("counters"), brow.get("counters")) {
            gate.exact(&what, "results_emitted", fc, bc);
            let panics = num(fc, "worker_panics").unwrap_or(-1.0);
            gate.check(panics == 0.0, || format!("{what}: {panics} worker panics"));
        } else {
            gate.fail(format!("{what}: counters object missing"));
        }
        gate.wall(&what, "wall_us", frow, brow);
    }
    gate.check(fresh_rows.len() == base_rows.len(), || {
        format!(
            "probing run count changed: fresh {} vs baseline {}",
            fresh_rows.len(),
            base_rows.len()
        )
    });
}

/// Gate for `kernel_bench` reports (`BENCH_kernel.json`). Rows are
/// keyed by `(dataset, variant)`.
///
/// Everything but the wall-clock is machine-independent here: the bench
/// is single-threaded and the datasets are seeded, so dominated-target
/// counts, dominator totals, and the blocks scanned/skipped by the
/// zone maps are pure functions of the committed workload and are
/// checked exactly. The conservation law `blocks_scanned +
/// blocks_skipped == total_blocks` and the bit-identity of every
/// variant against the scalar oracle are self-invariants of the fresh
/// run; `skewed_blocks_skipped > 0` pins the pruning path alive.
fn gate_kernel(gate: &mut Gate, fresh: &Json, baseline: &Json) {
    for (f, b) in [
        (fresh.get("schema"), baseline.get("schema")),
        (
            fresh.get("samples_per_config"),
            baseline.get("samples_per_config"),
        ),
    ] {
        match (f, b) {
            (Some(f), Some(b)) if render(f) == render(b) => {}
            (f, b) => gate.fail(format!(
                "kernel header mismatch: fresh {f:?} vs baseline {b:?}"
            )),
        }
    }
    gate.workload(fresh, baseline);

    let Some(acc) = fresh.get("acceptance") else {
        gate.fail("kernel acceptance section missing from fresh report".into());
        return;
    };
    gate.check(is_true(acc, "all_identical_to_scalar"), || {
        "all_identical_to_scalar is not true: a kernel variant diverged \
         from the scalar dominance oracle"
            .into()
    });
    gate.check(is_true(acc, "conservation_ok"), || {
        "conservation_ok is not true: blocks_scanned + blocks_skipped \
         stopped equaling the total block count"
            .into()
    });
    let skipped = num(acc, "skewed_blocks_skipped").unwrap_or(-1.0);
    gate.check(skipped > 0.0, || {
        format!("skewed_blocks_skipped = {skipped}: the zone-map pruning path is dead")
    });
    gate.check(is_true(acc, "zoned_collect_beats_scalar_skewed"), || {
        "zoned collect scan no longer beats the scalar loop on the \
         skewed dataset"
            .into()
    });

    let (Some(fresh_ds), Some(base_ds)) = (rows(fresh, "datasets"), rows(baseline, "datasets"))
    else {
        gate.fail("kernel datasets section missing (report not from kernel_bench?)".into());
        return;
    };
    let ds_name = |row: &Json| {
        row.get("dataset")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    for bds in base_ds {
        let name = ds_name(bds);
        let Some(fds) = fresh_ds.iter().find(|d| ds_name(d) == name) else {
            gate.fail(format!("kernel dataset {name}: missing from fresh report"));
            continue;
        };
        gate.exact(&format!("kernel dataset {name}"), "total_blocks", fds, bds);
        let (Some(frows), Some(brows)) = (rows(fds, "runs"), rows(bds, "runs")) else {
            gate.fail(format!("kernel dataset {name}: runs array missing"));
            continue;
        };
        let variant = |row: &Json| {
            row.get("variant")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        for brow in brows {
            let what = format!("kernel {name}/{}", variant(brow));
            let Some(frow) = frows.iter().find(|r| variant(r) == variant(brow)) else {
                gate.fail(format!("{what}: missing from fresh report"));
                continue;
            };
            for field in [
                "dominated_targets",
                "dominators_total",
                "blocks_scanned",
                "blocks_skipped",
            ] {
                gate.exact(&what, field, frow, brow);
            }
            gate.check(is_true(frow, "identical_to_scalar"), || {
                format!("{what}: dominator lists diverged from the scalar oracle")
            });
            gate.check(is_true(frow, "conservation_ok"), || {
                format!("{what}: block accounting lost or double-counted blocks")
            });
            gate.wall(&what, "membership_wall_us", frow, brow);
            gate.wall(&what, "collect_wall_us", frow, brow);
        }
        gate.check(frows.len() == brows.len(), || {
            format!(
                "kernel dataset {name} run count changed: fresh {} vs baseline {}",
                frows.len(),
                brows.len()
            )
        });
    }
    gate.check(fresh_ds.len() == base_ds.len(), || {
        format!(
            "kernel dataset count changed: fresh {} vs baseline {}",
            fresh_ds.len(),
            base_ds.len()
        )
    });
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {path}: {e:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [kind, fresh_path, baseline_path] = &args[..] else {
        eprintln!("usage: bench_gate <serve|probing|kernel> <fresh.json> <baseline.json>");
        return ExitCode::from(2);
    };
    let (fresh, baseline) = match (load(fresh_path), load(baseline_path)) {
        (Ok(f), Ok(b)) => (f, b),
        (f, b) => {
            for r in [f, b] {
                if let Err(e) = r {
                    eprintln!("bench_gate: {e}");
                }
            }
            return ExitCode::from(2);
        }
    };

    let mut gate = Gate::new();
    match kind.as_str() {
        "serve" => gate_serve(&mut gate, &fresh, &baseline),
        "probing" => gate_probing(&mut gate, &fresh, &baseline),
        "kernel" => gate_kernel(&mut gate, &fresh, &baseline),
        other => {
            eprintln!("bench_gate: unknown kind {other:?} (want serve, probing, or kernel)");
            return ExitCode::from(2);
        }
    }

    if gate.failures.is_empty() {
        println!("bench_gate {kind}: OK ({fresh_path} vs {baseline_path})");
        ExitCode::SUCCESS
    } else {
        for f in &gate.failures {
            eprintln!("bench_gate {kind}: FAIL: {f}");
        }
        eprintln!(
            "bench_gate {kind}: {} check(s) failed ({fresh_path} vs {baseline_path})",
            gate.failures.len()
        );
        ExitCode::FAILURE
    }
}
