#!/usr/bin/env bash
# Refreshes the machine-readable perf snapshots (BENCH_ml.json,
# BENCH_store.json and BENCH_pipeline.json) used to track the
# performance trajectory across PRs. Each binary measures every entry on
# all cores and again in a child run under `taskset -c 0`.
#
#   ./scripts/bench_snapshot.sh                 # full run
#   BENCH_QUICK=1 ./scripts/bench_snapshot.sh   # CI smoke: one rep per
#                                               # entry, smaller workloads
set -euo pipefail
cd "$(dirname "$0")/.."

# A perf snapshot from a tree that violates its own invariants is not a
# trustworthy data point: run the workspace lint first and refuse to
# emit BENCH_*.json if it fails.
if ! cargo run --release -q -p cwsmooth-lint -- --workspace; then
    echo "bench_snapshot: workspace lint failed; refusing to emit BENCH snapshots" >&2
    exit 1
fi

cargo run --release -p cwsmooth-bench --bin bench_snapshot
cargo run --release -p cwsmooth-bench --bin bench_store_snapshot
cargo run --release -p cwsmooth-bench --bin bench_pipeline_snapshot
echo "== BENCH_ml.json =="
cat BENCH_ml.json
echo "== BENCH_store.json =="
cat BENCH_store.json
echo "== BENCH_pipeline.json =="
cat BENCH_pipeline.json
