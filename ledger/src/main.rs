//! Command line of the ledger benchmark:
//!
//! ```text
//! skyup-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              --skyup <path to the skyup binary> --work-dir <dir>
//! ```
//!
//! Prints the host block, one line per metric, and as its last line the
//! JSON result. Each run also saves its result under `<work-dir>/..`
//! (`.ledger_out/`) and warns when the previous result of the same
//! workload came from a different host.

use skyup_ledger::host::Host;
use skyup_ledger::{run, Config, Scale, Workload};
use skyup_obs::json::{parse, Json};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut skyup = None;
    let mut work_dir = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--skyup" => skyup = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let workload: Workload = workload.ok_or("--workload is required")?;
    let seed: u64 = seed.ok_or("--seed is required")?;
    let work_dir: PathBuf = work_dir.ok_or("--work-dir is required")?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        skyup: skyup.ok_or("--skyup is required")?,
        work_dir: work_dir.join(format!("{}-{seed}-{}", workload.name(), std::process::id())),
        corrupt_answer: false,
    })
}

/// Saves the result with its host block and returns the differences
/// from the previous result's host, if there was one.
fn save_and_compare(cfg: &Config, host: &Host, result: &Json) -> Vec<String> {
    let dir = cfg
        .work_dir
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join(".ledger_out"))
        .unwrap_or_else(|| PathBuf::from(".ledger_out"));
    let path = dir.join(format!(
        "{}-trace{}.json",
        cfg.workload.name(),
        u8::from(cfg.trace)
    ));
    let previous = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse(&text).ok());
    let diff = previous
        .as_ref()
        .and_then(|p| p.get("host"))
        .map(|h| host.differences(h))
        .unwrap_or_default();
    let doc = Json::obj(vec![
        ("workload", Json::Str(cfg.workload.name().into())),
        ("seed", Json::Uint(cfg.seed)),
        ("host", host.to_json()),
        ("result", result.clone()),
    ]);
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(&path, doc.render_pretty());
    }
    diff
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("skyup-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!("host {}", host.to_json().render());
    let outcome = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("skyup-ledger: {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let result = outcome.to_json();
    for d in save_and_compare(&cfg, &host, &result) {
        println!("# WARNING: host differs from the previous result ({d}); do not compare them");
    }
    println!("{}", result.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
