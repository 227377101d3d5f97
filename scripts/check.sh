#!/usr/bin/env bash
# Repo health gate: formatting, lints, rustdoc links, thread-count
# determinism, and regen-output drift.
#
#   scripts/check.sh              # run everything
#   scripts/check.sh --no-drift   # lint only: skip tests + regen drift
#   scripts/check.sh --drift-only # regen/store drift only: skip lint + tests
#                                 # (CI runs lint and tests as separate jobs)
#
# The drift check enumerates every regen binary under
# crates/bench/src/bin/ and requires each to be accounted for:
#
#   - regen_outputs/<name>.txt   — pinned snapshot; the binary's stdout is
#     diffed byte-for-byte against it, once with the thread count forced
#     to 1 and once at available_parallelism (HIFI_THREADS, see
#     vendor/rayon): parallel execution must be a pure performance knob.
#   - regen_outputs/<name>.skip  — marker excluding the binary from the
#     drift check; the file's contents state why (e.g. regen_telemetry
#     embeds wall times, which are non-deterministic by design).
#
# A regen binary with neither file fails the gate: new artefacts must be
# pinned or explicitly skipped, never silently unchecked. The tier-1 test
# suite likewise runs at both thread counts.
set -euo pipefail

cd "$(dirname "$0")/.."

run_lint=1
run_tests=1
run_drift=1
case "${1:-}" in
    --no-drift)
        run_tests=0
        run_drift=0
        ;;
    --drift-only)
        run_lint=0
        run_tests=0
        ;;
esac

threads="$(nproc 2>/dev/null || echo 1)"

if [[ "$run_lint" -eq 1 ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets --offline --locked -- -D warnings

    echo "==> cargo doc --workspace (rustdoc warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked
fi

if [[ "$run_tests" -eq 1 ]]; then
    echo "==> tier-1 tests @ 1 thread"
    HIFI_THREADS=1 cargo test -q --offline --locked

    if [[ "$threads" -gt 1 ]]; then
        echo "==> tier-1 tests @ ${threads} threads"
        HIFI_THREADS="$threads" cargo test -q --offline --locked
    else
        echo "==> tier-1 tests @ available_parallelism: skipped (1 core)"
    fi
fi

if [[ "$run_drift" -eq 1 ]]; then
    echo "==> regen drift check (1 thread and ${threads} threads)"
    cargo build --release --offline --locked -p hifi-bench --bins
    failed=0
    for src in crates/bench/src/bin/regen_*.rs; do
        name="$(basename "$src" .rs)"
        name="${name#regen_}"
        snapshot="regen_outputs/${name}.txt"
        skip_marker="regen_outputs/${name}.skip"
        if [[ -f "$skip_marker" ]]; then
            echo "skip         ${name} ($(head -n1 "$skip_marker"))"
            continue
        fi
        if [[ ! -f "$snapshot" ]]; then
            echo "UNACCOUNTED  ${name}: pin ${snapshot} or add ${skip_marker} with a reason"
            failed=1
            continue
        fi
        bin="target/release/regen_${name}"
        if [[ ! -x "$bin" ]]; then
            echo "MISSING BIN  regen_${name} (snapshot ${snapshot})"
            failed=1
            continue
        fi
        ok=1
        thread_list=(1)
        if [[ "$threads" -gt 1 ]]; then
            thread_list+=("$threads")
        fi
        for n in "${thread_list[@]}"; do
            if ! HIFI_THREADS="$n" "$bin" | diff -u "$snapshot" - > /dev/null 2>&1; then
                ok=0
                echo "DRIFT        ${name} @ ${n} thread(s)  (run: cargo run --release -p hifi-bench --bin regen_${name} > ${snapshot})"
            fi
        done
        if [[ "$ok" -eq 1 ]]; then
            echo "ok           ${name} (thread-count independent)"
        fi
        if [[ "$ok" -ne 1 ]]; then
            failed=1
        fi
    done
    # Stale snapshots/markers without a matching binary are drift too.
    for pinned in regen_outputs/*.txt regen_outputs/*.skip; do
        [[ -e "$pinned" ]] || continue
        name="$(basename "$pinned")"
        name="${name%.*}"
        if [[ ! -f "crates/bench/src/bin/regen_${name}.rs" ]]; then
            echo "STALE        ${pinned}: no crates/bench/src/bin/regen_${name}.rs"
            failed=1
        fi
    done
    if [[ "$failed" -ne 0 ]]; then
        echo "regen drift detected" >&2
        exit 1
    fi

    # Artifact-store round trip: the same regen suite against a throwaway
    # store must (a) leave the pinned stdout snapshots untouched on both
    # the cold and the warm pass, (b) serve the warm pass entirely from
    # cache, and (c) survive `hifi-store gc` with the snapshots intact.
    echo "==> artifact store: cold + warm regen passes against a temp store"
    store_dir="$(mktemp -d)"
    trap 'rm -rf "$store_dir"' EXIT
    store_bins=(pipeline_fidelity measurements)
    for pass in cold warm; do
        for name in "${store_bins[@]}"; do
            summary="$(HIFI_STORE="$store_dir" "target/release/regen_${name}" 2>&1 >/dev/null || true)"
            if ! HIFI_STORE="$store_dir" "target/release/regen_${name}" 2>/dev/null \
                    | diff -u "regen_outputs/${name}.txt" - > /dev/null; then
                echo "STORE DRIFT  ${name} (${pass} pass changed the pinned snapshot)" >&2
                exit 1
            fi
            echo "ok           ${name} (${pass} pass, snapshot intact)${summary:+  [$summary]}"
        done
    done
    misses="$(HIFI_STORE="$store_dir" target/release/regen_pipeline_fidelity 2>&1 >/dev/null \
        | sed -n 's/.* \([0-9]*\) misses.*/\1/p')"
    if [[ "${misses:-1}" -ne 0 ]]; then
        echo "warm regen pass was not fully cached (${misses:-?} misses)" >&2
        exit 1
    fi
    echo "ok           warm pass fully cached (0 misses)"

    echo "==> artifact store: gc + re-verify"
    cargo run --release --offline --locked -q -p hifi-store --bin hifi-store -- stats "$store_dir"
    cargo run --release --offline --locked -q -p hifi-store --bin hifi-store -- verify "$store_dir"
    # Halve the store; survivors must still verify and the regen output
    # must still match the snapshot (evicted stages recompute).
    bytes="$(cargo run --release --offline --locked -q -p hifi-store --bin hifi-store -- stats "$store_dir" | sed -n 's/^bytes //p')"
    cargo run --release --offline --locked -q -p hifi-store --bin hifi-store -- gc "$store_dir" "$((bytes / 2))"
    cargo run --release --offline --locked -q -p hifi-store --bin hifi-store -- verify "$store_dir"
    if ! HIFI_STORE="$store_dir" target/release/regen_pipeline_fidelity 2>/dev/null \
            | diff -u regen_outputs/pipeline_fidelity.txt - > /dev/null; then
        echo "STORE DRIFT  pipeline_fidelity (after gc)" >&2
        exit 1
    fi
    echo "ok           pipeline_fidelity (post-gc recompute, snapshot intact)"
fi

echo "all checks passed"
