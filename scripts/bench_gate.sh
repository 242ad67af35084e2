#!/usr/bin/env bash
# Perf-regression gate: regenerates the serving, probe-scheduler, and
# dominance-kernel bench reports at the committed scale and compares
# them against the checked-in baselines with `bench_gate`.
#
# Exit codes:
#   0  every invariant and wall-clock check passed (possibly on a retry)
#   1  a check still failed after $SKYUP_GATE_ATTEMPTS attempts
#   other  build failure or unexpected error (set -e)
#
# Invariant failures (bit-identity, cache counts, the 1-worker serve
# pass's memo and kernel counts, the
# telemetry accounting on the serve report's latency rows: trace count
# == requests served, per-class histogram bucket conservation, exact
# per-class trace counts) are deterministic and will fail every
# attempt; only wall-clock noise on shared hardware benefits from the
# retries, which re-run the benches from scratch each time.
set -euo pipefail
cd "$(dirname "$0")/.."

ATTEMPTS="${SKYUP_GATE_ATTEMPTS:-3}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

echo "== bench gate: building release binaries =="
cargo build --offline --release -q -p skyup-bench

GATE=(cargo run --offline --release -q -p skyup-bench --bin bench_gate --)

for attempt in $(seq 1 "$ATTEMPTS"); do
    echo "== bench gate: attempt $attempt/$ATTEMPTS =="

    echo "-- serve_throughput (committed scale) --"
    SKYUP_BENCH_OUT="$OUT_DIR/serve.json" \
        cargo run --offline --release -q -p skyup-bench --bin serve_throughput

    echo "-- probe_sched (committed scale) --"
    SKYUP_BENCH_OUT="$OUT_DIR/probing.json" \
        cargo run --offline --release -q -p skyup-bench --bin probe_sched

    echo "-- kernel_bench (committed scale) --"
    SKYUP_BENCH_OUT="$OUT_DIR/kernel.json" \
        cargo run --offline --release -q -p skyup-bench --bin kernel_bench

    ok=1
    "${GATE[@]}" serve "$OUT_DIR/serve.json" bench_results/BENCH_serve.json || ok=0
    "${GATE[@]}" probing "$OUT_DIR/probing.json" bench_results/BENCH_probing.json || ok=0
    "${GATE[@]}" kernel "$OUT_DIR/kernel.json" bench_results/BENCH_kernel.json || ok=0
    if [ "$ok" = 1 ]; then
        echo "bench gate: OK (attempt $attempt)"
        exit 0
    fi
    echo "bench gate: attempt $attempt failed"
done

echo "bench gate: FAILED after $ATTEMPTS attempts" >&2
exit 1
