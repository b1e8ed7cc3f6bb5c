#!/usr/bin/env bash
# Builds the `staub` binary and the end-to-end benchmark (release), then
# runs the benchmark with the arguments given, for example:
#
#   bash e2e-bench/run.sh --workload fragments --seed 1 --seconds 15 --trace 0
#
# Artifacts go to $CARGO_TARGET_DIR (default: target/ at the repository
# root); server persistence logs go to a directory under it, removed after
# each run. See src/main.rs for the workloads and metrics.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$root/target}")"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin staub >&2
cargo build --release --offline --quiet --manifest-path "$root/e2e-bench/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/e2e_bench" \
    --staub "$CARGO_TARGET_DIR/release/staub" \
    --scratch "$CARGO_TARGET_DIR/e2e-bench" \
    "$@"
