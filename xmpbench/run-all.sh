#!/usr/bin/env bash
# Run every benchmark workload end to end and traced, printing each run's
# report and metrics. Run from the repository root:
#   xmpbench/run-all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-42}"
seconds="${2:-30}"
for workload in perm-k8 hybrid-k8 wave-k16-2w; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path xmpbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
