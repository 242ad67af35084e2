#!/usr/bin/env bash
# Offline-safe CI gate: formatting, lints, the tier-1 build + test
# suite, the ledger benchmark's own build + tests, the declarative
# scenario suite, and the perf-regression bench gate.
#
# Exit-code contract (what a red run means):
#   0    every step passed
#   124  a test step exceeded its hard wall-clock cap
#        ($SKYUP_CI_TEST_TIMEOUT, default 900 s, for the workspace
#        tests; each dedicated step below has its own, e.g.
#        $SKYUP_CI_LEDGER_TIMEOUT, default 300 s, for the ledger). The
#        guardrail suite deliberately injects stalls and
#        unbounded-looking budgets, so a hang must fail loudly instead
#        of wedging CI.
#   1    any other step failed; `set -e` aborts at the first failing
#        step and this script exits with that step's status. In
#        particular scripts/bench_gate.sh exits 1 only after
#        $SKYUP_GATE_ATTEMPTS full re-runs, so a bench-gate red is a
#        reproducible regression, not first-attempt scheduler noise.
#        The scenario-suite step surfaces `skyup test`'s own contract:
#        1 = a scenario failed (the step prints which, with the
#        mismatches), 2 = all passed but some were skipped — the
#        committed corpus must never skip, so both turn CI red.
#
# Everything runs with --offline so an unreachable registry can never
# fail the build (the workspace has zero external dependencies).
#
# The step list is deliberately deduplicated: `cargo test --workspace`
# already runs every unit, integration (chaos, CLI contract, serve
# smoke, serve property suites), and doc test in the workspace, so no
# test binary is invoked twice in the same profile (the geom kernel
# tests and the traversal count pins run once more in release, where
# the kernel is vectorized). The
# kernel, probe-scheduler and serve benches also run at a tiny scale
# before the bench gate: their self-asserts (bit-identity against an
# oracle) are machine-independent, so they still run when the timing
# gate is skipped.
#
# `ledger/` (the end-to-end benchmark) is its own cargo workspace, so
# `cargo test --workspace` never compiles it. A dedicated step builds
# it and runs its tests in release mode (unit tests plus a tiny-scale
# smoke of every workload), so a public-API change in `crates/*` that
# breaks the benchmark turns CI red here instead of in a benchmark run.
# From a cold `ledger/target` it took ~38 s on a 2-vCPU host, ~16 s of
# it in the smoke tests; the 300 s default cap leaves room for slower
# runners.
#
# Each step's wall-clock is recorded; a plain-text timing summary is
# printed at the end (also on failure, covering the steps that ran) and
# appended to $GITHUB_STEP_SUMMARY when GitHub Actions sets it.
set -euo pipefail
cd "$(dirname "$0")/.."

# Hard wall-clock cap per test command (seconds).
TEST_TIMEOUT="${SKYUP_CI_TEST_TIMEOUT:-900}"

# Scratch output of the bench smokes; removed on every exit path.
KERNEL_BENCH_OUT="$(mktemp)"
PROBE_BENCH_OUT="$(mktemp)"
SERVE_BENCH_OUT="$(mktemp)"

STEP_NAMES=()
STEP_SECS=()

# step <name> <command...> — announces the step, runs it, records its
# wall-clock seconds for the summary. `set -e` still aborts the script
# on the first failing step.
step() {
    local name="$1"
    shift
    echo "== $name =="
    local t0=$SECONDS
    "$@"
    STEP_NAMES+=("$name")
    STEP_SECS+=("$((SECONDS - t0))")
}

print_timings() {
    [ "${#STEP_NAMES[@]}" -gt 0 ] || return 0
    echo
    echo "step timing summary:"
    local i
    for i in "${!STEP_NAMES[@]}"; do
        printf '  %-64s %4ss\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
    done
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            echo "### CI step timings"
            echo
            echo "| step | seconds |"
            echo "| --- | ---: |"
            for i in "${!STEP_NAMES[@]}"; do
                echo "| ${STEP_NAMES[$i]} | ${STEP_SECS[$i]} |"
            done
        } >>"$GITHUB_STEP_SUMMARY"
    fi
}

on_exit() {
    rm -f "$KERNEL_BENCH_OUT" "$PROBE_BENCH_OUT" "$SERVE_BENCH_OUT"
    print_timings
}
trap on_exit EXIT

step "cargo fmt --check" \
    cargo fmt --all -- --check

step "cargo clippy (workspace, deny warnings)" \
    cargo clippy --offline --workspace --all-targets -- -D warnings

# The release build below runs with this pin in effect; losing the
# declaration would silently float the MSRV to whatever toolchain CI
# happens to have installed.
step "MSRV pin declared" \
    grep -q '^rust-version = ' Cargo.toml

step "tier-1: cargo build --release (MSRV-pinned, std-only)" \
    cargo build --offline --release

step "tier-1 + workspace tests (unit, chaos, CLI contract, serve smoke, property suites)" \
    timeout "$TEST_TIMEOUT" cargo test --offline -q --workspace

# The sweep above is a debug build, where neither compiled copy of the
# dominance kernel's lane loop (portable, AVX2) is vectorized. The
# kernel's property tests run again in the build that ships, which on a
# CPU with AVX2 compares both copies against each other and the scalar
# oracle. So do the tier-1 traversal count pins, so that the exact work
# counts and answers of the join, Algorithm 3, BBS and bound-sorted
# probing are checked against the vectorized fixed-width lane loop too.
step "geom kernel tests + traversal count pins in release (the vectorized copies)" \
    timeout "$TEST_TIMEOUT" bash -c \
    'cargo test --release --offline -q -p skyup-geom &&
     cargo test --release --offline -q --test traversal_pins'

# The ledger is a separate cargo workspace with path dependencies on
# crates/*; building it here catches API drift the workspace sweep
# cannot see. Release mode, because its smoke tests run every workload;
# they drive the target/release/skyup built by the tier-1 step above.
step "ledger benchmark: build + tests (own workspace, dedicated hard cap)" \
    timeout "${SKYUP_CI_LEDGER_TIMEOUT:-300}" \
    cargo test --release --offline -q --manifest-path ledger/Cargo.toml

# Runs again outside the workspace sweep, under its own much tighter
# wall-clock cap: the harness SIGKILLs real server processes and
# restarts them against the surviving WAL, and a recovery bug whose
# failure mode is a hang (replay loop, torn-tail misparse, a child
# that never prints its listen line) must turn CI red in seconds, not
# eat the whole suite budget.
step "kill-crash durability harness (dedicated hard cap)" \
    timeout "${SKYUP_CI_CRASH_TIMEOUT:-120}" cargo test --offline -q --test crash_recovery

# Spawns two real shard server processes and a real coordinator, drives
# mixed mutations/queries over TCP, and asserts every answer
# byte-identical to a single-engine oracle plus the replica's counter
# invariants, then kills a shard and checks reads stay exact while
# writes fail cleanly. Like the crash harness, its failure mode is a
# wedged child process (a shard that never flips, a coordinator blocked
# on a dead socket), so it gets its own tight wall-clock cap.
step "multi-shard smoke (2 shards + coordinator, dedicated hard cap)" \
    timeout "${SKYUP_CI_SHARD_TIMEOUT:-120}" cargo test --offline -q --test shard_smoke

# The committed regression corpus: every scenario under scenarios/ runs
# through ingestion, the serving engine, and the expected-answer
# comparator. `skyup test` exits 0 only when every scenario PASSes
# (1 = a failure, 2 = a skip — both red here). The cap bounds the whole
# suite: scenarios spawn no child processes without --serve, so a hang
# is an engine bug, not slow machinery.
step "scenario suite (committed corpus, declarative regression vehicle)" \
    timeout "${SKYUP_CI_SCENARIO_TIMEOUT:-120}" \
    cargo run --offline --release -q --bin skyup -- test --suite scenarios/

# The dominance-kernel bench at a tiny scale, under its own hard cap.
# No baseline comparison here (wall-clock at smoke scale is noise) —
# the value is the binary's self-asserts: every variant's dominator
# lists bit-identical to the scalar oracle, the zone-map conservation
# law blocks + skipped == total, and a live pruning path on the skewed
# dataset. These are machine-independent, so this step runs even when
# the timing gate below is skipped. The report lands in a mktemp file
# cleaned up by the EXIT trap.
step "kernel bench smoke (tiny scale, self-asserting)" \
    env SKYUP_BENCH_OUT="$KERNEL_BENCH_OUT" SKYUP_SCALE=0.002 \
    timeout "${SKYUP_CI_KERNEL_TIMEOUT:-120}" \
    cargo run --offline --release -q -p skyup-bench --bin kernel_bench

# The probe-scheduler bench at a tiny scale, under a hard cap, likewise
# without a baseline comparison. Its self-assert: every scheduled run
# (work stealing and bound-sorted, 1/2/4/8 threads) is bit-identical
# to sequential improved probing. The report lands in a mktemp file
# cleaned up by the EXIT trap.
step "probe scheduler bench smoke (tiny scale, self-asserting)" \
    env SKYUP_BENCH_OUT="$PROBE_BENCH_OUT" SKYUP_SCALE=0.002 \
    timeout 120 \
    cargo run --offline --release -q -p skyup-bench --bin probe_sched

# The serving bench at a tiny scale, under a hard cap, likewise without
# a baseline comparison. Its self-asserts: warm and 4-worker answers
# bit-identical to the 1-worker cold computation, coordinator
# answers to a single-engine oracle, and the mutation storm's engine
# (adds, removes and compactions against a durable WAL) to a cold
# engine over its final live set. The report lands in a mktemp file
# cleaned up by the EXIT trap.
step "serve bench smoke (tiny scale, self-asserting)" \
    env SKYUP_BENCH_OUT="$SERVE_BENCH_OUT" SKYUP_SCALE=0.002 \
    timeout 120 \
    cargo run --offline --release -q -p skyup-bench --bin serve_throughput

# Regenerates the serving, probe-scheduler, and dominance-kernel
# reports at the committed scale and gates wall-clock (one-sided, 25%
# tolerance) plus the exact
# machine-independent invariants: bit-identity, cache counters, the
# 1-worker cold pass's memo hits, dominance tests and kernel block
# counts (a FIFO pool answers it in a fixed order; 4 workers must still
# hit the memo), and the telemetry accounting on the
# serve report (trace count == requests served, histogram bucket
# conservation, exact per-class trace counts). Set
# SKYUP_CI_SKIP_BENCH_GATE=1 to skip on hardware too noisy for timing
# checks.
bench_gate() {
    if [ "${SKYUP_CI_SKIP_BENCH_GATE:-0}" = 1 ]; then
        echo "skipped (SKYUP_CI_SKIP_BENCH_GATE=1)"
    else
        scripts/bench_gate.sh
    fi
}
step "bench gate: perf regression vs committed baselines" \
    bench_gate

echo "CI OK"
