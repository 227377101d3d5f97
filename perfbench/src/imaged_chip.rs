//! `imaged_chip`: the paper's end-to-end reverse-engineering flow (§IV
//! imaging → §V extraction) on the fixed imaged reference chip.
//!
//! One classic-SA pair, default imaging with 4-voxel FIB slices (136
//! slices), store off, untiled. The workload seed is the acquisition seed,
//! so the default seed images the chip exactly as `ImagingConfig::default`
//! does. One op is one `Pipeline::run`.

use std::time::Instant;

use hifi_circuit::identify::TopologyLibrary;
use hifi_circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig};
use hifi_extract::measure;
use hifi_imaging::{
    acquire, align, denoise, metrics, reconstruct, AcquirePlan, AlignMethod, DriftTruth,
    ImagingConfig,
};
use hifi_synth::generate_region;

use crate::report::{Extra, Outcome};
use crate::{record_end_to_end, repeated_setup, stats, Ctx, Laps, OpLog};

pub const LAYERS: &[&str] = &[
    "synth.generate_region_ms",
    "synth.voxelize_ms",
    "imaging.acquire_ms",
    "imaging.normalize_ms",
    "imaging.align_ms",
    "imaging.denoise_ms",
    "imaging.reconstruct_ms",
    "imaging.align_candidates",
    "imaging.align_us_per_candidate",
    "extract.crop_ms",
    "extract.extract_ms",
    "circuit.identify_ms",
    "extract.measure_ms",
    "core.unaccounted_ms",
    "trace.overhead_pct",
];

/// The stages of `Pipeline::run` as the traced run composes them, in
/// order; every name is also a per-layer metric.
const STAGES: [&str; 11] = [
    "synth.generate_region_ms",
    "synth.voxelize_ms",
    "imaging.acquire_ms",
    "imaging.normalize_ms",
    "imaging.align_ms",
    "imaging.denoise_ms",
    "imaging.reconstruct_ms",
    "extract.crop_ms",
    "extract.extract_ms",
    "circuit.identify_ms",
    "extract.measure_ms",
];

/// Ground truth every op is checked against.
struct Reference {
    cfg: PipelineConfig,
    truth: DriftTruth,
    budget_px: f64,
    devices: usize,
}

impl Reference {
    fn build(ctx: &Ctx) -> Result<Self, String> {
        let imaging = ImagingConfig {
            slice_voxels: 4,
            seed: ctx.seed,
            ..ImagingConfig::default()
        };
        let cfg = PipelineConfig::with_imaging(SaTopologyKind::Classic, imaging.clone());
        let region = generate_region(&cfg.spec);
        let pristine = region.voxelize();
        // The acquisition schedule alone gives the true drift; no render.
        let truth = AcquirePlan::for_volume(&pristine, &imaging).truth().clone();
        let (_, _, nz) = pristine.dims();
        let budget_px = metrics::alignment_budget_px(nz + 2 * imaging.frame_margin_px);
        let devices = region.window_netlist().device_count();
        Ok(Self {
            cfg,
            truth,
            budget_px,
            devices,
        })
    }

    fn imaging(&self) -> &ImagingConfig {
        self.cfg.imaging.as_ref().expect("imaged workload")
    }

    /// Checks one op's findings; returns the residual drift (px/slice).
    fn check(
        &self,
        out: &mut Outcome,
        what: &str,
        identified: Option<SaTopologyKind>,
        devices: usize,
        corrections: &[(i32, i32)],
    ) -> f64 {
        let drift = metrics::residual_drift(corrections, &self.truth);
        if identified != Some(SaTopologyKind::Classic) {
            out.fail(format!(
                "{what}: identified {identified:?}, expected Classic"
            ));
        } else if devices != self.devices {
            out.fail(format!(
                "{what}: {devices} devices, ground truth has {}",
                self.devices
            ));
        } else if drift > self.budget_px {
            out.fail(format!(
                "{what}: residual drift {drift:.3} px exceeds the {:.3} px budget",
                self.budget_px
            ));
        }
        drift
    }
}

/// End-to-end run: `Pipeline::run` back to back for the timed phase.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (reference, setup_s) = repeated_setup(|| Reference::build(ctx))?;
    let pipeline = Pipeline::new(reference.cfg.clone());
    let mut out = Outcome::default();
    let mut log = OpLog::default();
    let mut last = None;
    let start = Instant::now();
    while log.latency_ms.is_empty() || !ctx.expired(start) {
        out.attempted += 1;
        match log.time(1, || pipeline.run()) {
            Ok(report) => last = Some(report),
            Err(e) => out.fail(format!("Pipeline::run: {e}")),
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    record_end_to_end(&mut out, setup_s, &log, timed_s);
    if let Some(report) = last {
        // Runs are deterministic, so the last report stands for all.
        let drift = reference.check(
            &mut out,
            "Pipeline::run",
            report.identified,
            report.device_count,
            &report.alignment_corrections,
        );
        out.extra(
            Extra::new("residual_drift_px", drift, "px")
                .with_note(format!("budget {:.3} px", reference.budget_px)),
        );
        if let Some(worst) = report.worst_dimension_deviation {
            out.extra(Extra::new("worst_dim_dev_pct", worst.value() * 100.0, "%"));
        }
    }
    Ok(out)
}

/// What the composed stage chain found.
struct ChainResult {
    stage_ms: [f64; STAGES.len()],
    corrections: Vec<(i32, i32)>,
    identified: Option<SaTopologyKind>,
    devices: usize,
    voxel_accuracy: f64,
    worst_dim_dev: Option<f64>,
    slices: usize,
}

/// `Pipeline::run`'s stage chain, composed from the crates' public calls
/// and timed call by call.
fn chain(reference: &Reference) -> Result<ChainResult, String> {
    let cfg = &reference.cfg;
    let mut laps = Laps::start();
    let region = generate_region(&cfg.spec);
    laps.lap();
    let pristine = region.voxelize();
    laps.lap();
    let (mut stack, truth) = acquire(&pristine, reference.imaging());
    laps.lap();
    stack.normalize_brightness();
    laps.lap();
    let corrections = align(&mut stack, AlignMethod::MutualInformation, cfg.align_window);
    laps.lap();
    denoise(&mut stack, cfg.denoise_lambda, cfg.denoise_iterations);
    laps.lap();
    let volume = reconstruct(&stack);
    laps.lap();
    let cropped = region.window_volume(&volume, cfg.window_pair);
    laps.lap();
    let extraction = cropped.map(|c| hifi_extract::extract(&c));
    laps.lap();
    let identified = match &extraction {
        Some(Ok(e)) => TopologyLibrary::standard().identify(&e.netlist),
        _ => None,
    };
    laps.lap();
    let worst = match &extraction {
        Some(Ok(e)) => measure(e).worst_deviation(&region.ground_truth().cell.dims_by_class),
        _ => None,
    };
    laps.lap();

    if truth != reference.truth {
        return Err("acquisition drift differs from the planned schedule".into());
    }
    let extraction = extraction
        .ok_or("reconstruction does not reach the cell window")?
        .map_err(|e| format!("extract: {e}"))?;
    Ok(ChainResult {
        stage_ms: laps.ms.try_into().expect("one lap per stage"),
        corrections,
        identified,
        devices: extraction.devices.len(),
        voxel_accuracy: metrics::voxel_accuracy(&volume, &pristine),
        worst_dim_dev: worst.map(|w| w.value()),
        slices: stack.len(),
    })
}

/// Traced run: alternates the composed chain (timed per stage) with an
/// untraced `Pipeline::run`, and checks the two agree.
pub fn trace(ctx: &Ctx) -> Result<Outcome, String> {
    let reference = Reference::build(ctx)?;
    let pipeline = Pipeline::new(reference.cfg.clone());
    let mut out = Outcome::default();
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let (mut chain_ms, mut run_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while chain_ms.is_empty() || !ctx.expired(start) {
        out.attempted += 2;
        let t0 = Instant::now();
        let traced = chain(&reference);
        chain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let plain = pipeline.run();
        run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let (traced, plain) = match (traced, plain) {
            (Ok(t), Ok(p)) => (t, p),
            (t, p) => {
                out.fail(format!(
                    "chain: {:?}, Pipeline::run: {:?}",
                    t.err(),
                    p.err().map(|e| e.to_string())
                ));
                continue;
            }
        };
        for (times, ms) in stage_ms.iter_mut().zip(traced.stage_ms) {
            times.push(ms);
        }
        let drift = reference.check(
            &mut out,
            "chain",
            traced.identified,
            traced.devices,
            &traced.corrections,
        );
        // Faithfulness: the per-layer split must describe Pipeline::run.
        out.check(
            traced.corrections == plain.alignment_corrections
                && traced.identified == plain.identified
                && traced.devices == plain.device_count,
            || "the composed chain and Pipeline::run disagree".into(),
        );
        last = Some((traced, drift));
    }
    // Runs are deterministic, so the last chain stands for all.
    let Some((traced, drift)) = last else {
        return Ok(out);
    };
    out.extra(Extra::new("voxel_accuracy", traced.voxel_accuracy, "ratio"));
    out.extra(Extra::new("residual_drift_px", drift, "px"));
    if let Some(w) = traced.worst_dim_dev {
        out.extra(Extra::new("worst_dim_dev_pct", w * 100.0, "%"));
    }
    let medians: Vec<f64> = stage_ms.iter().map(|t| stats::median(t)).collect();
    for (name, ms) in STAGES.iter().zip(&medians) {
        out.metrics.set(name, *ms);
    }
    let window = i64::from(reference.cfg.align_window);
    // Slice 0 is the reference; every later slice scores each offset of
    // the (2·window+1)² search square once.
    let candidates =
        traced.slices.saturating_sub(1) as f64 * ((2 * window + 1) * (2 * window + 1)) as f64;
    out.metrics.set("imaging.align_candidates", candidates);
    let align_ms = out.metrics.get("imaging.align_ms").unwrap_or(0.0);
    out.metrics.set(
        "imaging.align_us_per_candidate",
        align_ms * 1e3 / candidates.max(1.0),
    );
    let run_p50 = stats::median(&run_ms);
    out.metrics
        .set("core.unaccounted_ms", run_p50 - medians.iter().sum::<f64>());
    out.metrics.set(
        "trace.overhead_pct",
        (stats::median(&chain_ms) / run_p50 - 1.0) * 100.0,
    );
    Ok(out)
}
