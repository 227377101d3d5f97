//! Benchmark regression gate.
//!
//! Compares `BENCH_results.json` (written by the benches) against the
//! committed `BENCH_baseline.json` and exits non-zero when any metric
//! regressed past the tolerance (default 15%, `BENCH_GATE_TOLERANCE_PCT`
//! to override; anything but a number is an error). Every baseline
//! metric must be present in the results — a bench that silently stops
//! reporting is a gate failure, not a pass.
//! Metrics in the results but not in the baseline are listed as new so
//! the baseline can be extended deliberately.
//!
//! Usage: `bench_gate [results.json [baseline.json]]`; paths default to
//! `BENCH_RESULTS` / `BENCH_BASELINE`, then the workspace root files.

use std::path::PathBuf;
use std::process::ExitCode;

use hifi_bench::results::{baseline_path, gate_metric, results_path, BenchResults, Verdict};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let results_file = args.next().map_or_else(results_path, PathBuf::from);
    let baseline_file = args.next().map_or_else(baseline_path, PathBuf::from);
    let tolerance = std::env::var_os("BENCH_GATE_TOLERANCE_PCT")
        .map_or(Ok(15.0), |v| v.to_string_lossy().parse::<f64>());
    let Ok(tolerance_pct) = tolerance else {
        eprintln!("bench_gate: BENCH_GATE_TOLERANCE_PCT needs a number");
        return ExitCode::FAILURE;
    };

    let baseline = match BenchResults::load(&baseline_file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: cannot load baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let results = match BenchResults::load(&results_file) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: cannot load results: {e}");
            eprintln!("bench_gate: run the benches first (scripts/bench_gate.sh)");
            return ExitCode::FAILURE;
        }
    };
    if baseline.metrics.is_empty() {
        eprintln!(
            "bench_gate: baseline {} has no metrics",
            baseline_file.display()
        );
        return ExitCode::FAILURE;
    }

    println!(
        "bench_gate: {} vs baseline {} (tolerance {tolerance_pct}%)",
        results_file.display(),
        baseline_file.display()
    );
    let mut failed = false;
    for base in &baseline.metrics {
        let measured = results.get(&base.name).map(|m| m.value);
        let verdict = gate_metric(base, measured, tolerance_pct);
        let shown = measured.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
        println!(
            "  {:<45} baseline {:>10.3} {:<7} measured {:>10} {}",
            base.name, base.value, base.unit, shown, verdict
        );
        failed |= verdict != Verdict::Ok;
    }
    for fresh in &results.metrics {
        if baseline.get(&fresh.name).is_none() {
            println!(
                "  {:<45} NEW ({:.3} {}) — add to {} to gate it",
                fresh.name,
                fresh.value,
                fresh.unit,
                baseline_file.display()
            );
        }
    }

    if failed {
        eprintln!("bench_gate: regression detected");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all metrics within tolerance");
        ExitCode::SUCCESS
    }
}
