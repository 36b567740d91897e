#!/usr/bin/env bash
# Prints every end-to-end metric of every workload, one process each.
# Run from the repository root: bash sprintbench/run_all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-2012}"
seconds="${2:-20}"
for workload in phone_bursts facility_diurnal sparse_fleet; do
    echo "== ${workload}"
    cargo run --release --quiet --offline --manifest-path sprintbench/Cargo.toml -- \
        --workload "${workload}" --seed "${seed}" --seconds "${seconds}" --trace 0
done
