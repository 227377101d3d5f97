#!/usr/bin/env bash
# The CI pipeline, runnable locally job-by-job. `.github/workflows/ci.yml`
# invokes exactly these entry points, so "passes locally" and "passes in
# CI" mean the same thing.
#
#   scripts/ci.sh               # run every job in order
#   scripts/ci.sh <job> [...]   # run specific jobs
#
# Jobs:
#   lint          cargo fmt --check + clippy -D warnings + rustdoc -D warnings
#   test          every workspace crate's tests at 1 thread, the tier-1
#                 (root package) suite at available_parallelism, the
#                 vendored crates' own tests (tiny_http, rayon, fnv,
#                 proptest, rand, serde, serde_json), then the perfbench/
#                 package's build and tests
#   regen-drift   regen snapshot drift + artifact-store cold/warm/gc round
#                 trip (scripts/check.sh --drift-only)
#   fault-matrix  tests/fault_recovery.rs under fault seeds; honours
#                 HIFI_FAULT_SEED (one seed, as the CI matrix does), else
#                 runs the default 3-seed matrix
#   conformance   randomized ground-truth campaigns (bin conformance);
#                 honours HIFI_CONFORMANCE_SEED (one seed, as the CI
#                 matrix does), else sweeps the default 2-seed matrix
#   rev-campaign  black-box reverse-engineering campaigns (bin
#                 rev_campaign) cross-validated against the imaging
#                 route; honours HIFI_REV_SEED (one seed, as the CI
#                 matrix does) and HIFI_REV_RUNS, else sweeps the
#                 default 2-seed matrix
#   mna-oracle    MNA waveform oracle (bin mna_oracle): activation
#                 schedules + extracted-netlist verdicts + a reduced
#                 Monte-Carlo sweep, each seed at 1 and at 2 threads with
#                 the two JSON reports compared byte for byte; honours
#                 HIFI_MNA_SEED (one seed, as the CI matrix does) and
#                 HIFI_MNA_SAMPLES, else sweeps the default 2-seed matrix
#   scale-smoke   16x-scale streaming sweep (scale_sweep bench capped via
#                 SCALE_SWEEP_MAX=16) under the counting allocator; proves
#                 the slab-streaming path's O(slab) peak memory without
#                 the full 256x run (that stays bench-gate-only)
#   serve-smoke   start the hifi-serve daemon, push two load_test batches
#                 through it over HTTP (the second resubmits completed
#                 specs, which must dedup against the shared store), then
#                 SIGTERM and assert a clean drained shutdown
#   bench-gate    overhead benches + full-die scale sweep (256x) +
#                 the asserting cold_vs_warm and pipeline_scaling
#                 benches + perfbench's mna_sweep, serve_mix and
#                 imaged_chip (3 runs each, medians recorded; built into
#                 target/perfbench like the test job's), then the
#                 regression gate vs BENCH_baseline.json
#                 (scripts/bench_gate.sh)
#   profile-gate  quickstart under HIFI_TRACE, trace validation (parses,
#                 required stage spans present, nesting balanced), then
#                 `hifi-trace diff` of the run's profile against the
#                 committed PROFILE_baseline.json; honours
#                 HIFI_PROFILE_TOLERANCE_PCT
#
# Everything builds --offline --locked: the vendored crates under vendor/
# are the only dependency source, and Cargo.lock is authoritative.
#
# Each job ends with a "done in Ns" summary line so slow jobs stand out
# in both local runs and the Actions log. Campaign JSON reports land in
# target/ci-artifacts/ so the workflow can upload them when a job fails.
set -euo pipefail

cd "$(dirname "$0")/.."

# Seeds the fault-matrix job sweeps when HIFI_FAULT_SEED is unset. Values
# are arbitrary but pinned: the suite must pass for any seed, and a pinned
# matrix makes failures reproducible.
FAULT_SEEDS=(3 42 20240805)

# Seeds the conformance job sweeps when HIFI_CONFORMANCE_SEED is unset.
# Seed 42 is the acceptance campaign; seed 7 adds an independent spec
# stream. Runs are few because every imaged spec costs ~10 pristine ones.
CONFORMANCE_SEEDS=(42 7)
CONFORMANCE_RUNS="${HIFI_CONFORMANCE_RUNS:-4}"

# Seeds the rev-campaign job sweeps when HIFI_REV_SEED is unset. Seed 42
# is the acceptance campaign (same stream the regen snapshot pins); seed
# 7 proves the inference generalizes to an independent spec stream.
REV_SEEDS=(42 7)
REV_RUNS="${HIFI_REV_RUNS:-4}"

# Seeds the mna-oracle job sweeps when HIFI_MNA_SEED is unset — the same
# pair the conformance job uses, so the waveform oracle and the
# isomorphism oracles judge the same spec streams.
MNA_SEEDS=(42 7)
MNA_SAMPLES="${HIFI_MNA_SAMPLES:-8}"

# Campaign binaries write their JSON reports here so a failing workflow
# run can upload them as artifacts for post-mortem diffing.
ARTIFACT_DIR="target/ci-artifacts"

job_lint() {
    echo "=== job: lint ==="
    scripts/check.sh --no-drift
}

job_test() {
    echo "=== job: test ==="
    local threads
    threads="$(nproc 2>/dev/null || echo 1)"
    echo "==> cargo build --release (tier-1 gate)"
    cargo build --release --offline --locked
    # `--workspace`: a bare `cargo test` at the root runs only the root
    # package's tests, never the crates' own unit and property suites.
    echo "==> workspace tests @ 1 thread"
    HIFI_THREADS=1 cargo test -q --offline --locked --workspace
    if [[ "$threads" -gt 1 ]]; then
        echo "==> tier-1 tests @ ${threads} threads"
        HIFI_THREADS="$threads" cargo test -q --offline --locked
    else
        echo "==> tier-1 tests @ available_parallelism: skipped (1 core)"
    fi
    # The vendored crates are not workspace members, so `--workspace`
    # skips their own tests: the HTTP parser's line and header limits,
    # rayon's ordering and thread-count tests, and the rest.
    echo "==> vendored crates' tests"
    cargo test -q --offline --locked -p tiny_http
    cargo test -q --offline --locked -p rayon -p fnv -p proptest -p rand -p serde -p serde_json
    # perfbench/ is its own package outside the workspace; build and test
    # it here so an API change that breaks the benchmark fails CI. Its
    # build goes under target/ so the CI target/ cache covers it.
    echo "==> perfbench build + tests"
    cargo test --offline --locked --manifest-path perfbench/Cargo.toml \
        --target-dir target/perfbench
}

job_regen_drift() {
    echo "=== job: regen-drift ==="
    scripts/check.sh --drift-only
}

job_fault_matrix() {
    echo "=== job: fault-matrix ==="
    local seeds=("${FAULT_SEEDS[@]}")
    if [[ -n "${HIFI_FAULT_SEED:-}" ]]; then
        seeds=("$HIFI_FAULT_SEED")
    fi
    for seed in "${seeds[@]}"; do
        echo "==> fault_recovery suite @ seed ${seed}"
        HIFI_FAULT_SEED="$seed" cargo test -q --offline --locked --test fault_recovery
    done
}

job_conformance() {
    echo "=== job: conformance ==="
    local seeds=("${CONFORMANCE_SEEDS[@]}")
    if [[ -n "${HIFI_CONFORMANCE_SEED:-}" ]]; then
        seeds=("$HIFI_CONFORMANCE_SEED")
    fi
    cargo build --release --offline --locked --bin conformance
    mkdir -p "$ARTIFACT_DIR"
    for seed in "${seeds[@]}"; do
        echo "==> conformance campaign @ seed ${seed} (${CONFORMANCE_RUNS} runs)"
        cargo run --release --offline --locked --bin conformance -- \
            --runs "$CONFORMANCE_RUNS" --seed "$seed" \
            > "$ARTIFACT_DIR/conformance_seed_${seed}.json"
    done
}

job_rev_campaign() {
    echo "=== job: rev-campaign ==="
    local seeds=("${REV_SEEDS[@]}")
    if [[ -n "${HIFI_REV_SEED:-}" ]]; then
        seeds=("$HIFI_REV_SEED")
    fi
    cargo build --release --offline --locked --bin rev_campaign
    mkdir -p "$ARTIFACT_DIR"
    for seed in "${seeds[@]}"; do
        echo "==> rev campaign @ seed ${seed} (${REV_RUNS} runs, two-route)"
        cargo run --release --offline --locked --bin rev_campaign -- \
            --runs "$REV_RUNS" --seed "$seed" \
            > "$ARTIFACT_DIR/rev_seed_${seed}.json"
    done
}

job_mna_oracle() {
    echo "=== job: mna-oracle ==="
    local seeds=("${MNA_SEEDS[@]}")
    if [[ -n "${HIFI_MNA_SEED:-}" ]]; then
        seeds=("$HIFI_MNA_SEED")
    fi
    cargo build --release --offline --locked --bin mna_oracle
    mkdir -p "$ARTIFACT_DIR"
    for seed in "${seeds[@]}"; do
        local report="$ARTIFACT_DIR/mna_oracle_seed_${seed}"
        for threads in 1 2; do
            echo "==> MNA waveform oracle @ seed ${seed} (${MNA_SAMPLES} MC samples, ${threads} thread(s))"
            cargo run --release --offline --locked --bin mna_oracle -- \
                --seed "$seed" --samples "$MNA_SAMPLES" --threads "$threads" \
                > "${report}_threads_${threads}.json"
        done
        # `--threads` changes wall time, never bytes.
        echo "==> mna_oracle report @ seed ${seed}: 1 thread vs 2 threads"
        cmp "${report}_threads_1.json" "${report}_threads_2.json"
    done
}

job_scale_smoke() {
    echo "=== job: scale-smoke ==="
    local tmp
    tmp="$(mktemp -d)"
    # shellcheck disable=SC2064 # expand now: the dir name is fixed here
    trap "rm -rf '$tmp'" RETURN
    # Results go to a temp file: the smoke tier proves the streaming path
    # completes at 16x with O(slab) peak allocation (the bench asserts it
    # under alloc-track); only the bench-gate job's full 256x numbers are
    # compared against the committed baseline.
    echo "==> scale_sweep @ ≤16x under the counting allocator"
    SCALE_SWEEP_MAX=16 BENCH_RESULTS="$tmp/results.json" \
        cargo bench --offline --locked -p hifi-bench \
        --features hifi-telemetry/alloc-track --bench scale_sweep
}

# serve-smoke state shared with its EXIT trap. A RETURN trap is not
# enough here: under `set -e` a failing load_test aborts the whole
# script, and only the EXIT trap still runs — without it the backgrounded
# hifi-serve daemon would outlive CI.
SERVE_SMOKE_PID=""
SERVE_SMOKE_TMP=""

serve_smoke_cleanup() {
    if [[ -n "$SERVE_SMOKE_PID" ]]; then
        kill "$SERVE_SMOKE_PID" 2>/dev/null || true
        wait "$SERVE_SMOKE_PID" 2>/dev/null || true
        SERVE_SMOKE_PID=""
    fi
    if [[ -n "$SERVE_SMOKE_TMP" ]]; then
        rm -rf "$SERVE_SMOKE_TMP"
        SERVE_SMOKE_TMP=""
    fi
}

job_serve_smoke() {
    echo "=== job: serve-smoke ==="
    cargo build --release --offline --locked -p hifi-serve --bins
    SERVE_SMOKE_TMP="$(mktemp -d)"
    trap serve_smoke_cleanup EXIT
    local tmp="$SERVE_SMOKE_TMP"
    echo "==> start daemon on an ephemeral port"
    target/release/hifi-serve --addr 127.0.0.1:0 --workers 2 --capacity 16 \
        --store "$tmp/store" > "$tmp/serve.out" 2> "$tmp/serve.err" &
    SERVE_SMOKE_PID=$!
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's#^hifi-serve listening on http://##p' "$tmp/serve.out")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "serve-smoke: daemon never reported its address" >&2
        cat "$tmp/serve.err" >&2 || true
        exit 1
    fi
    echo "==> batch 1: 40 jobs over 8 distinct specs @ $addr"
    target/release/load_test --connect "$addr" --jobs 40 --distinct 8 --clients 4
    echo "==> batch 2: resubmit completed specs (must dedup via store hits)"
    target/release/load_test --connect "$addr" --jobs 16 --distinct 8 --clients 4
    echo "==> SIGTERM: daemon must drain and exit 0"
    kill -TERM "$SERVE_SMOKE_PID"
    local status=0
    wait "$SERVE_SMOKE_PID" || status=$?
    SERVE_SMOKE_PID=""
    if [[ "$status" -ne 0 ]]; then
        echo "serve-smoke: daemon exited $status on SIGTERM" >&2
        cat "$tmp/serve.err" >&2 || true
        exit 1
    fi
    grep -q "hifi-serve: stopped" "$tmp/serve.err"
    serve_smoke_cleanup
    trap - EXIT
}

job_bench_gate() {
    echo "=== job: bench-gate ==="
    scripts/bench_gate.sh
}

job_profile_gate() {
    echo "=== job: profile-gate ==="
    cargo build --release --offline --locked --example quickstart --bin hifi-trace
    local trace_dir
    trace_dir="$(mktemp -d)"
    # shellcheck disable=SC2064 # expand now: the dir name is fixed here
    trap "rm -rf '$trace_dir'" RETURN
    echo "==> quickstart with HIFI_TRACE=$trace_dir/trace.json"
    HIFI_TRACE="$trace_dir/trace.json" target/release/examples/quickstart > /dev/null
    echo "==> validate exported Chrome trace"
    target/release/hifi-trace validate "$trace_dir/trace.json"
    echo "==> profile summary"
    target/release/hifi-trace summarize "$trace_dir/trace.json.profile.json"
    echo "==> profile gate vs PROFILE_baseline.json"
    target/release/hifi-trace diff \
        "$trace_dir/trace.json.profile.json" PROFILE_baseline.json
}

run_job() {
    local start="$SECONDS"
    case "$1" in
        lint) job_lint ;;
        test) job_test ;;
        regen-drift) job_regen_drift ;;
        fault-matrix) job_fault_matrix ;;
        conformance) job_conformance ;;
        rev-campaign) job_rev_campaign ;;
        mna-oracle) job_mna_oracle ;;
        scale-smoke) job_scale_smoke ;;
        serve-smoke) job_serve_smoke ;;
        bench-gate) job_bench_gate ;;
        profile-gate) job_profile_gate ;;
        *)
            echo "unknown job: $1" >&2
            echo "jobs: lint test regen-drift fault-matrix conformance rev-campaign mna-oracle scale-smoke serve-smoke bench-gate profile-gate" >&2
            exit 2
            ;;
    esac
    echo "=== job: $1 done in $((SECONDS - start))s ==="
}

if [[ "$#" -eq 0 ]]; then
    set -- lint test regen-drift fault-matrix conformance rev-campaign mna-oracle scale-smoke serve-smoke bench-gate profile-gate
fi
for job in "$@"; do
    run_job "$job"
done
echo "ci: all requested jobs passed"
