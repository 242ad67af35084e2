//! Tiny-scale smoke of every workload: each run must pass its
//! correctness gate and print every metric `BENCHMARK.json` names, with
//! its unit; a corrupted answer must fail the gate.
//!
//! The serve workloads spawn the `skyup` binary: `SKYUP_BIN` names it,
//! or it is looked up (and built if missing) under the cargo target
//! directory of the repository.

use skyup_ledger::{run, Config, Outcome, Scale, Workload, END_TO_END, PER_LAYER};
use skyup_obs::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the ledger lives inside the repository")
        .to_path_buf()
}

/// The `skyup` binary, built once per test process if needed.
fn skyup() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("SKYUP_BIN") {
            return PathBuf::from(bin);
        }
        let root = repo_root();
        let dir =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
        // A relative CARGO_TARGET_DIR is relative to wherever cargo ran:
        // the repository root or the ledger package.
        let candidates = [root.join(&dir), root.join("ledger").join(&dir)];
        let bin_in = |t: &Path| t.join("release").join("skyup");
        if let Some(t) = candidates.iter().find(|t| bin_in(t).exists()) {
            return bin_in(t);
        }
        let target = candidates[0].clone();
        let bin = bin_in(&target);
        if !bin.exists() {
            let status = Command::new(env!("CARGO"))
                .args(["build", "--release", "--offline", "--bin", "skyup"])
                .current_dir(&root)
                .env("CARGO_TARGET_DIR", &target)
                .status()
                .expect("run cargo");
            assert!(status.success(), "building skyup failed");
        }
        bin
    })
}

fn tiny(workload: Workload, trace: bool, corrupt: bool) -> Outcome {
    let work_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "skyup-ledger-smoke-{}-{}-{}-{}",
        workload.name(),
        u8::from(trace),
        u8::from(corrupt),
        std::process::id()
    ));
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        skyup: skyup().to_path_buf(),
        work_dir: work_dir.clone(),
        corrupt_answer: corrupt,
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let _ = std::fs::remove_dir_all(&work_dir);
    out
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(workload: Workload, trace: bool) {
    let out = tiny(workload, trace, false);
    assert!(
        out.correct && out.failed == 0,
        "{}: gate failed: {:?}",
        workload.name(),
        out.notes
    );
    assert!(out.attempted >= 1);
    let printed: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let list = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(printed, declared(list), "{}", workload.name());
    let json = out.to_json();
    for (name, unit) in &printed {
        let m = json.get("metrics").and_then(|ms| ms.get(name)).unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let value = m.get("value").and_then(Json::as_f64).unwrap();
        if !trace {
            assert!(value > 0.0, "{}: {name} reads {value}", workload.name());
        }
    }
}

#[test]
fn paper_topk_reports_every_metric() {
    check(Workload::PaperTopk, false);
    check(Workload::PaperTopk, true);
}

#[test]
fn serve_read_reports_every_metric() {
    check(Workload::ServeRead, false);
    check(Workload::ServeRead, true);
}

#[test]
fn serve_churn_reports_every_metric() {
    check(Workload::ServeChurn, false);
    check(Workload::ServeChurn, true);
}

#[test]
fn sharded_read_reports_every_metric() {
    check(Workload::ShardedRead, false);
    check(Workload::ShardedRead, true);
}

#[test]
fn a_corrupted_answer_fails_the_gate() {
    for workload in [Workload::PaperTopk, Workload::ServeRead] {
        let out = tiny(workload, false, true);
        assert!(
            !out.correct,
            "{}: corruption went unnoticed",
            workload.name()
        );
        assert!(out.failed >= 1);
        assert_eq!(
            out.to_json().get("metrics"),
            Some(&Json::Obj(Vec::new())),
            "a failed run reports no numbers"
        );
    }
}

#[test]
fn benchmark_json_names_the_catalogue() {
    let names = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), names(END_TO_END));
    assert_eq!(declared("per_layer"), names(PER_LAYER));
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = parse(&text).unwrap();
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads");
    };
    let declared: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, known);
}
