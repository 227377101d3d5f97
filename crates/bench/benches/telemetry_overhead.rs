//! Cost of the telemetry layer (OBS experiment).
//!
//! Two variants of the pristine pipeline are timed:
//!
//! 1. `uninstrumented` — the stages composed directly from the public
//!    APIs, with no recorder anywhere (what `Pipeline::run` compiled to
//!    before the telemetry layer existed),
//! 2. `noop_recorder` — `Pipeline::run()`, which routes through
//!    `run_with(&mut NoopRecorder)`.
//!
//! The harness measures them head-to-head and prints the relative
//! overhead; the telemetry design requires the no-op path to stay within
//! 2% of the uninstrumented baseline.

use std::hint::black_box;

use hifi_bench::results::{median, results_path, time_secs, BenchResults};
use hifi_circuit::identify::TopologyLibrary;
use hifi_circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig};
use hifi_extract::measure;
use hifi_synth::generate_region;

fn config() -> PipelineConfig {
    PipelineConfig::pristine(SaTopologyKind::Classic)
}

/// The pristine pipeline composed from the stage APIs with no recorder in
/// sight — the baseline `Pipeline::run` is compared against.
fn uninstrumented(cfg: &PipelineConfig) -> usize {
    let region = generate_region(&cfg.spec);
    let volume = region.voxelize();
    let window = region.cell_window(cfg.window_pair);
    let voxel = volume.voxel_nm();
    let to_vox = |nm: i64| ((nm as f64) / voxel).round().max(0.0) as usize;
    let cropped = volume.crop(
        to_vox(window.min().x),
        to_vox(window.max().x),
        to_vox(window.min().y),
        to_vox(window.max().y),
    );
    let extraction = hifi_extract::extract(&cropped).expect("extraction");
    let identified = TopologyLibrary::standard().identify(&extraction.netlist);
    let measurement = measure(&extraction);
    let worst = measurement.worst_deviation(&region.ground_truth().cell.dims_by_class);
    assert!(identified.is_some() && worst.is_some());
    extraction.devices.len()
}

fn main() {
    // Head-to-head: the two variants are timed in adjacent pairs and each
    // pair yields one noop/baseline ratio. Slow load drift hits both
    // members of a pair roughly equally and cancels in the ratio;
    // alternating which variant runs first cancels order bias; a load
    // spike contaminates only its own pair, and the median over all pairs
    // discards those outliers. A real regression shifts *every* ratio, so
    // it moves the median where noise cannot.
    const PAIRS: usize = 60;
    const BUDGET_PCT: f64 = 2.0;
    let cfg = config();
    let pipeline = Pipeline::new(config());
    let mut run_base = || uninstrumented(&cfg);
    let mut run_noop = || pipeline.run().expect("pipeline");
    // Warm-up both paths once.
    black_box(run_base());
    black_box(run_noop());
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut base_times = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let (base, noop) = if i % 2 == 0 {
            let base = time_secs(&mut run_base);
            let noop = time_secs(&mut run_noop);
            (base, noop)
        } else {
            let noop = time_secs(&mut run_noop);
            let base = time_secs(&mut run_base);
            (base, noop)
        };
        ratios.push(noop / base);
        base_times.push(base);
    }
    let overhead = (median(&ratios) - 1.0) * 100.0;
    let base_ms = median(&base_times) * 1e3;
    println!(
        "noop-recorder overhead (median of {PAIRS} paired ratios): {overhead:+.2}%  \
         (median uninstrumented {base_ms:.1} ms)"
    );

    let mut results = BenchResults::default();
    results.record("telemetry_overhead.noop_recorder_pct", overhead, "percent");
    results.record("telemetry_overhead.uninstrumented_median_ms", base_ms, "ms");
    let path = results_path();
    results.merge_into(&path).expect("record bench results");
    println!("recorded → {}", path.display());

    assert!(
        overhead < BUDGET_PCT,
        "NoopRecorder overhead {overhead:.2}% exceeds the {BUDGET_PCT}% budget"
    );
}
