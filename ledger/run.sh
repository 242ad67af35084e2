#!/usr/bin/env bash
# Builds the `skyup` binary and the ledger benchmark from source, then
# runs one workload:
#
#   bash ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result. CARGO_TARGET_DIR
# defaults to .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/serve" || ! -f "$root/ledger/Cargo.toml" ]]; then
    echo "ledger: run from the root of a skyup checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --bin skyup 1>&2
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml 1>&2

exec "$target/release/skyup-ledger" --skyup "$target/release/skyup" --work-dir "$root/.ledger_tmp" "$@"
