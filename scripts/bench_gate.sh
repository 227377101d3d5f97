#!/usr/bin/env bash
# Benchmark regression gate.
#
#   scripts/bench_gate.sh              # run the overhead benches, then gate
#   scripts/bench_gate.sh --check-only # gate an existing BENCH_results.json
#
# The overhead benches (fault_overhead, telemetry_overhead) and the
# full-die scale sweep (scale_sweep, streaming 256x the base region slab
# by slab with O(slab) memory) record their headline numbers into BENCH_results.json;
# the bench_gate binary compares them against the committed
# BENCH_baseline.json and fails on any metric more than 15% over baseline
# (BENCH_GATE_TOLERANCE_PCT to override; paired-ratio "percent" metrics
# additionally get one absolute point of allowance, and "per_sec"
# throughput rates gate in the opposite direction — see
# crates/bench/src/results.rs for the exact rules).
#
# Wall-clock ("ms") baselines are machine-dependent. After a genuine,
# intended performance change — or on new hardware — regenerate with:
#
#   scripts/bench_gate.sh && cp BENCH_results.json BENCH_baseline.json
#
# and commit the new baseline alongside the change that justifies it.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" != "--check-only" ]]; then
    rm -f BENCH_results.json
    echo "==> overhead benches (fault_overhead, telemetry_overhead)"
    cargo bench --offline --locked -p hifi-bench \
        --bench fault_overhead --bench telemetry_overhead
    echo "==> full-die scale sweep (1x/16x/256x, streamed slab by slab)"
    cargo bench --offline --locked -p hifi-bench \
        --features hifi-telemetry/alloc-track --bench scale_sweep
    echo "==> MNA Monte-Carlo throughput (mna_montecarlo)"
    cargo bench --offline --locked -p hifi-bench --bench mna_montecarlo
    echo "==> serve throughput (load_test --bench)"
    cargo build --release --offline --locked -p hifi-serve --bin load_test
    target/release/load_test --jobs 300 --distinct 32 --workers 4 --clients 8 --bench
fi

echo "==> bench_gate: BENCH_results.json vs BENCH_baseline.json"
cargo run -q --release --offline --locked -p hifi-bench --bin bench_gate
