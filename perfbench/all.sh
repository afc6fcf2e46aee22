#!/bin/sh
# Runs every workload untraced, then traced, and prints each run's
# metrics by name with their units. Run from the repository root:
#   sh perfbench/all.sh [SEED] [SECONDS]
set -eu
seed=${1:-1}
seconds=${2:-27}
for workload in fullcell serve_hot serve_miss; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --locked \
            --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
