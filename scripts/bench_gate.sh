#!/usr/bin/env bash
# Benchmark regression gate.
#
#   scripts/bench_gate.sh              # run the benches, then gate
#   scripts/bench_gate.sh --check-only # gate an existing BENCH_results.json
#
# What records into BENCH_results.json:
#
# - the overhead benches (fault_overhead, telemetry_overhead: paired
#   ratios against the 2% budgets) and the full-die scale sweep
#   (scale_sweep, streaming 256x the base region slab by slab; under
#   alloc-track it asserts O(slab) peak memory);
# - perfbench, the repository benchmark: mna_sweep, serve_mix and
#   imaged_chip run 3 times each, round-robin, at perfbench's defaults
#   (seed 24301, 10 s). Each run's last stdout line goes to
#   BENCH_perfbench_runs.txt, and record_perfbench records the median of
#   each mapped metric (crates/bench/src/results.rs, PERFBENCH_METRICS).
#   A run with a failed output check fails the gate.
#
# Two benches only assert: cold_vs_warm (a warm store run is >=5x faster
# than a cold one) and pipeline_scaling (>=1.5x at 4 threads; skipped on
# hosts with fewer than 4 cores).
#
# The bench_gate binary then compares BENCH_results.json against the
# committed BENCH_baseline.json and fails on any metric more than 15%
# worse than baseline (BENCH_GATE_TOLERANCE_PCT to override; paired-ratio
# "percent" metrics additionally get one absolute point of allowance, and
# "per_sec" throughput rates gate in the opposite direction — see
# crates/bench/src/results.rs for the exact rules). 2-3.5 minutes on a
# 2-vCPU host once built.
#
# Wall-clock ("ms") and rate baselines are machine-dependent. After a
# genuine, intended performance change — or on new hardware — regenerate
# with:
#
#   scripts/bench_gate.sh && cp BENCH_results.json BENCH_baseline.json
#
# and commit the new baseline alongside the change that justifies it.
set -euo pipefail

cd "$(dirname "$0")/.."

PERFBENCH_RUNS="BENCH_perfbench_runs.txt"

if [[ "${1:-}" != "--check-only" ]]; then
    rm -f BENCH_results.json "$PERFBENCH_RUNS"
    echo "==> overhead benches (fault_overhead, telemetry_overhead)"
    cargo bench --offline --locked -p hifi-bench \
        --bench fault_overhead --bench telemetry_overhead
    echo "==> full-die scale sweep (1x/16x/256x, streamed slab by slab)"
    cargo bench --offline --locked -p hifi-bench \
        --features hifi-telemetry/alloc-track --bench scale_sweep
    echo "==> asserting benches (cold_vs_warm, pipeline_scaling)"
    cargo bench --offline --locked -p hifi-bench \
        --bench cold_vs_warm --bench pipeline_scaling
    echo "==> perfbench: mna_sweep, serve_mix, imaged_chip, 3 runs each"
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml \
        --target-dir target/perfbench
    for run in 1 2 3; do
        for workload in mna_sweep serve_mix imaged_chip; do
            echo "--> $workload, run $run"
            out="$(target/perfbench/release/perfbench --workload "$workload")"
            printf '%s\n' "$out"
            printf '%s %s\n' "$workload" "$(tail -n 1 <<<"$out")" >> "$PERFBENCH_RUNS"
        done
    done
    cargo run -q --release --offline --locked -p hifi-bench --bin record_perfbench -- \
        "$PERFBENCH_RUNS"
fi

echo "==> bench_gate: BENCH_results.json vs BENCH_baseline.json"
cargo run -q --release --offline --locked -p hifi-bench --bin bench_gate
