//! Exit-code contract of the `skyup` binary, exercised end to end:
//! `0` = exact answer, `2` = partial answer (a limit fired), `1` =
//! error. Spawns the real binary via `CARGO_BIN_EXE_skyup`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_skyup"))
}

/// Writes a small competitor/product fixture pair under a per-test
/// directory (tests in this file run concurrently).
fn fixture(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("skyup-cli-contract-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut competitors = String::new();
    // A 6x6 grid of competitors in (0, 1.2)^2.
    for i in 0..6 {
        for j in 0..6 {
            competitors.push_str(&format!(
                "{},{}\n",
                0.2 * (i + 1) as f64,
                0.2 * (j + 1) as f64
            ));
        }
    }
    let products = "0.9,0.8\n1.1,1.0\n0.7,1.1\n0.95,0.95\n1.0,0.6\n";
    let comp = dir.join("competitors.csv");
    let prod = dir.join("products.csv");
    std::fs::write(&comp, competitors).unwrap();
    std::fs::write(&prod, products).unwrap();
    (comp, prod)
}

fn run(comp: &PathBuf, prod: &PathBuf, extra: &[&str]) -> Output {
    bin()
        .arg("--competitors")
        .arg(comp)
        .arg("--products")
        .arg(prod)
        .args(extra)
        .output()
        .expect("failed to spawn the skyup binary")
}

#[test]
fn exact_answer_exits_zero() {
    let (comp, prod) = fixture("exact");
    for algorithm in ["basic", "probing", "join"] {
        let out = run(&comp, &prod, &["-k", "3", "--algorithm", algorithm]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{algorithm}: {stdout}");
        assert!(stdout.contains("k = 3"), "{algorithm}: {stdout}");
        assert!(stdout.contains("#1 product"), "{algorithm}: {stdout}");
        // Unlimited runs keep the historical report format verbatim.
        assert!(!stdout.contains("completion:"), "{algorithm}: {stdout}");
    }
}

#[test]
fn help_exits_zero() {
    let out = bin().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: skyup"));
}

#[test]
fn guarded_exact_run_still_exits_zero() {
    let (comp, prod) = fixture("guarded-exact");
    let out = run(
        &comp,
        &prod,
        &[
            "-k",
            "2",
            "--algorithm",
            "probing",
            "--max-node-visits",
            "1000000",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("completion: exact"), "{stdout}");
}

#[test]
fn exhausted_budget_exits_two_with_partial_answer() {
    let (comp, prod) = fixture("partial");
    for algorithm in ["basic", "probing", "join"] {
        let out = run(
            &comp,
            &prod,
            &[
                "-k",
                "3",
                "--algorithm",
                algorithm,
                "--max-node-visits",
                "1",
            ],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{algorithm}: {stdout}");
        assert!(
            stdout.contains("completion: partial (node visit budget exhausted)"),
            "{algorithm}: {stdout}"
        );
    }
}

/// A tie-heavy grid fixture: competitors on the plane
/// `x + y + z = 1.5` with step 1/8 (every other point twice), products
/// with step 1/4 in `[0.25, 1.25]³`, so dominators tie on every
/// dimension and products tie on cost.
fn grid_fixture(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("skyup-cli-contract-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut competitors = String::new();
    for i in 0..=8u32 {
        for j in 0..=(12 - i).min(8) {
            let l = 12 - i - j;
            if l > 8 {
                continue;
            }
            let row = format!("{},{},{}\n", i as f64 / 8.0, j as f64 / 8.0, l as f64 / 8.0);
            competitors.push_str(&row);
            if (i + j) % 2 == 0 {
                competitors.push_str(&row);
            }
        }
    }
    let mut products = String::new();
    for a in 1..=5u32 {
        for b in 1..=5u32 {
            for c in 1..=5u32 {
                let [x, y, z] = [a, b, c].map(|v| v as f64 / 4.0);
                products.push_str(&format!("{x},{y},{z}\n"));
            }
        }
    }
    let comp = dir.join("competitors.csv");
    let prod = dir.join("products.csv");
    std::fs::write(&comp, competitors).unwrap();
    std::fs::write(&prod, products).unwrap();
    (comp, prod)
}

/// `--threads 1` runs improved probing (Algorithm 3 per product) and
/// `--threads 2` the scheduler's skyline view; on a grid full of ties
/// both print the same bytes.
#[test]
fn threaded_probing_prints_the_sequential_answer() {
    let (comp, prod) = grid_fixture("threads");
    let outputs: Vec<String> = ["1", "2"]
        .iter()
        .map(|threads| {
            let out = run(
                &comp,
                &prod,
                &[
                    "-k",
                    "40",
                    "--algorithm",
                    "probing",
                    "--cost",
                    "linear:1.0",
                    "--threads",
                    threads,
                ],
            );
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert_eq!(out.status.code(), Some(0), "--threads {threads}: {stdout}");
            stdout
        })
        .collect();
    assert!(outputs[0].contains("#40 product"), "{}", outputs[0]);
    assert_eq!(outputs[0], outputs[1]);
}

#[test]
fn bad_arguments_exit_one() {
    let out = bin().arg("--no-such-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(!out.stderr.is_empty());

    let (comp, prod) = fixture("bad-args");
    let out = run(&comp, &prod, &["--max-node-visits", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-node-visits"));
}

#[test]
fn unreadable_input_exits_one() {
    let missing = std::env::temp_dir().join("skyup-cli-contract-nope/does-not-exist.csv");
    let (_, prod) = fixture("missing");
    let out = run(&missing, &prod, &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));
}

#[test]
fn malformed_data_exits_one_with_line_context() {
    let dir = std::env::temp_dir().join("skyup-cli-contract-malformed");
    std::fs::create_dir_all(&dir).unwrap();
    let comp = dir.join("competitors.csv");
    let prod = dir.join("products.csv");
    std::fs::write(&comp, "0.5,0.5\n0.4,inf\n").unwrap();
    std::fs::write(&prod, "0.9,0.8\n").unwrap();
    let out = run(&comp, &prod, &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

/// `query --connect` against a dead port retries connection-refused
/// with backoff — exactly 3 attempts, a stderr line per retry — and
/// exits 1 when the server never appears. (A live-server recovery of
/// the same path is exercised by the crash harness.)
#[test]
fn query_connect_refused_retries_then_exits_one() {
    // Bind-then-drop reserves a port that nothing is listening on.
    let port = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let start = std::time::Instant::now();
    let out = bin()
        .args(["query", "--connect", &addr, "--health"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.matches("retrying in").count(),
        2,
        "3 attempts means 2 retry notices: {stderr}"
    );
    assert!(
        stderr.contains("connection refused after 3 attempts"),
        "{stderr}"
    );
    // Two backoff sleeps (base 50ms then 100ms) must actually happen.
    assert!(
        start.elapsed() >= std::time::Duration::from_millis(150),
        "backoff was skipped: {:?}",
        start.elapsed()
    );
}

// ---------------------------------------------------------------------
// `skyup ingest` error contract: every rejected file names its line in
// a structured `SkyupError::DataLoad`, rendered on stderr as
// `error: <source>: line <n>: <what>`, with exit code 1.
// ---------------------------------------------------------------------

/// Runs `skyup ingest` over a scratch file with the given contents.
fn run_ingest(tag: &str, file_name: &str, contents: &str, extra: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("skyup-cli-contract-ingest-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file_name);
    std::fs::write(&path, contents).unwrap();
    bin()
        .arg("ingest")
        .arg(&path)
        .args(extra)
        .output()
        .expect("failed to spawn the skyup binary")
}

#[test]
fn ingest_malformed_cell_names_its_line() {
    let out = run_ingest(
        "malformed",
        "bad.csv",
        "0.5,0.5\n0.4,potato\n0.3,0.3\n",
        &[],
    );
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("potato"), "{stderr}");
}

#[test]
fn ingest_non_finite_value_names_its_line() {
    let out = run_ingest("nonfinite", "inf.csv", "0.5,0.5\n0.4,0.4\n-inf,0.3\n", &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
    assert!(stderr.contains("non-finite"), "{stderr}");
}

#[test]
fn ingest_ragged_row_names_its_line() {
    let out = run_ingest("ragged", "ragged.csv", "0.5,0.5\n0.4,0.4,0.9\n", &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("3 columns"), "{stderr}");
}

#[test]
fn ingest_empty_file_is_a_whole_file_error() {
    let out = run_ingest("empty", "empty.csv", "", &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // line == 0 renders without a line number: the file as a whole.
    assert!(stderr.contains("empty file"), "{stderr}");
    assert!(!stderr.contains("line 0"), "{stderr}");
}

#[test]
fn ingest_profile_succeeds_on_clean_data() {
    let out = run_ingest(
        "profile",
        "clean.csv",
        "price,rating\n10,4\n20,5\n15,3\n",
        &["--profile", "--negate", "1"],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ingested 3 rows x 2 columns"), "{stdout}");
    assert!(stdout.contains("max (negated)"), "{stdout}");
}

// ---------------------------------------------------------------------
// Hostile nesting: a document nested 100,000 deep is a parse error
// (exit 1), never a stack overflow that aborts the process.
// ---------------------------------------------------------------------

/// `depth` nested empty arrays: `[[…]]`.
fn nested_arrays(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

#[test]
fn ingest_deeply_nested_ndjson_line_exits_one() {
    let contents = format!("[0.5, 0.5]\n{}\n", nested_arrays(100_000));
    let out = run_ingest("deep-ndjson", "deep.ndjson", &contents, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("nesting deeper than 64 levels"), "{stderr}");
}

#[test]
fn suite_with_a_deeply_nested_toml_array_exits_one() {
    let dir = std::env::temp_dir().join("skyup-cli-contract-deep-toml");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let toml = format!("[dataset]\ncompetitors = {}\n", nested_arrays(100_000));
    std::fs::write(dir.join("deep.toml"), toml).unwrap();
    let out = bin()
        .args(["test", "--suite"])
        .arg(&dir)
        .output()
        .expect("failed to spawn the skyup binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL deep.toml"), "{stdout}");
    assert!(stdout.contains("nesting deeper than 64 levels"), "{stdout}");
}
