//! Cold vs. warm artifact-store runs (CACHE experiment).
//!
//! The first imaged run against an empty store computes and persists every
//! stage artifact (cold); the next run replays all five from disk (warm).
//! This harness times both against a throwaway store directory, prints the
//! ratio, and enforces the acceptance gate: the warm run must be at least
//! 5x faster than the cold one, reuse every stage (zero misses in the
//! RunReport), and produce the same findings as a store-less run.

use std::time::Instant;

use hifi_bench::results::time_secs;
use hifi_circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig};
use hifi_imaging::ImagingConfig;
use hifi_telemetry::names;

/// The imaged OCSA configuration the fidelity snapshot uses.
fn config() -> PipelineConfig {
    let imaging = ImagingConfig {
        dwell_us: 6.0,
        drift_sigma_px: 0.6,
        brightness_wander: 1.0,
        slice_voxels: 2,
        ..ImagingConfig::default()
    };
    PipelineConfig::with_imaging(SaTopologyKind::OffsetCancellation, imaging)
}

fn store_root() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hifi-cold-vs-warm-{}", std::process::id()))
}

fn main() {
    let root = store_root();
    let _ = std::fs::remove_dir_all(&root);
    let baseline = Pipeline::new(config());
    let cached = Pipeline::new(config().with_store(&root));

    // Warm-up outside the store so first-touch costs (page cache, lazy
    // statics) hit neither measured run.
    let plain = baseline.run().expect("store-less run");

    let start = Instant::now();
    let cold_report = cached.run().expect("cold run");
    let cold_s = start.elapsed().as_secs_f64();

    // Time several warm runs and keep the fastest: disk replay is noisy
    // at the millisecond scale.
    let warm_s = (0..3)
        .map(|_| time_secs(&mut || cached.run().expect("warm run")))
        .fold(f64::INFINITY, f64::min);
    let speedup = cold_s / warm_s;

    // The warm run replays every stage: five hits, zero misses, no writes.
    let warm_report = cached.run_instrumented().expect("instrumented warm run");
    let telemetry = warm_report.telemetry.as_ref().expect("telemetry");
    assert_eq!(telemetry.counter(names::STORE_HIT), 5, "warm hits");
    assert_eq!(telemetry.counter(names::STORE_MISS), 0, "warm misses");
    assert_eq!(
        telemetry.counter(names::STORE_BYTES_WRITTEN),
        0,
        "warm run must not rewrite artifacts"
    );

    // Replayed artifacts are bit-transparent: same findings as no store.
    assert_eq!(plain.identified, warm_report.identified);
    assert_eq!(plain.device_count, warm_report.device_count);
    assert_eq!(
        plain.alignment_corrections,
        warm_report.alignment_corrections
    );
    assert_eq!(plain.measurement, warm_report.measurement);
    assert_eq!(cold_report.measurement, warm_report.measurement);

    println!(
        "cold {:.1} ms, warm {:.1} ms: {speedup:.1}x \
         ({} payload bytes replayed per warm run)",
        cold_s * 1e3,
        warm_s * 1e3,
        telemetry.counter(names::STORE_BYTES_READ),
    );
    assert!(
        speedup >= 5.0,
        "warm run must be at least 5x faster than cold (got {speedup:.2}x)"
    );
    let _ = std::fs::remove_dir_all(&root);
}
