#!/usr/bin/env bash
# Runs every workload of the benchmark, untraced and traced, and prints
# each run's report (end-to-end metrics, then per-layer metrics).
#
#   bash perfbench/run_all.sh [seed] [seconds]
#
# Run from the repository root. Records land in perfbench/out/records/.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
for workload in sweep fleet chaos; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed '$d'
        echo
    done
done
