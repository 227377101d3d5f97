//! `die_stream`: a periodic die several base periods wide, streamed one
//! x-slab at a time through `periodic_slab_x` → `AcquirePlan::render` →
//! `chambolle_tv` → `reconstruct`, without ever materialising the die.
//!
//! This is the full-die streaming path (O(tile) memory). Each die gets its
//! own acquisition seed and its artefact schedule is planned once; one op
//! is one base-period slab. Each slab's reconstruction is checked against
//! the pristine slab it images, outside the timed clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hifi_circuit::topology::SaTopologyKind;
use hifi_imaging::{chambolle_tv, metrics, reconstruct, AcquirePlan, ImageStack, ImagingConfig};
use hifi_synth::{generate_region, MaterialVolume, SaRegionSpec};

use crate::report::{Extra, Outcome};
use crate::{record_end_to_end, repeated_setup, stats, Ctx, OpLog};

pub const LAYERS: &[&str] = &[
    "imaging.plan_ms",
    "synth.periodic_slab_ms",
    "imaging.render_ms",
    "imaging.tv_ms",
    "imaging.slab_reconstruct_ms",
    "die_stream.busy_frac",
];

/// Base periods per die.
const PERIODS: usize = 16;

/// FIB slice thickness: thick slices bound the slice count at die scale.
const SLICE_VOXELS: usize = 8;

/// Light TV denoising, as in the scale sweep.
const LAMBDA: f32 = 4.0;
const TV_ITERS: usize = 5;

/// Every slab's reconstruction must match its pristine slab this well.
const ACCURACY_FLOOR: f64 = 0.75;

/// The base period the die repeats: one classic pair behind a MAT strip.
fn base_period() -> MaterialVolume {
    generate_region(
        &SaRegionSpec::new(SaTopologyKind::Classic)
            .with_pairs(1)
            .with_mat_strip(true),
    )
    .voxelize()
}

fn imaging(ctx: &Ctx, die: u64) -> ImagingConfig {
    ImagingConfig {
        slice_voxels: SLICE_VOXELS,
        seed: ctx.derive(4, die),
        ..ImagingConfig::default()
    }
}

/// Per-slab timings of the traced run (ms; render and TV are summed over
/// the worker threads).
#[derive(Default)]
struct SlabTrace {
    periodic_slab_ms: f64,
    render_ms: f64,
    tv_ms: f64,
    reconstruct_ms: f64,
    fan_out_wall_ms: f64,
}

/// Streams slab `k` of a die: render and denoise its slices in parallel,
/// then reconstruct them. Returns the reconstruction and the x of its
/// first plane, or `None` when no slice falls inside the slab.
fn stream_slab(
    base: &MaterialVolume,
    plan: &AcquirePlan,
    cfg: &ImagingConfig,
    k: usize,
    trace: Option<&mut SlabTrace>,
) -> Option<(MaterialVolume, usize)> {
    let width = base.dims().0;
    let (x0, x1) = (k * width, (k + 1) * width);
    let t0 = Instant::now();
    let slab = base.periodic_slab_x(x0, x1);
    let periodic_slab_ms = t0.elapsed().as_secs_f64() * 1e3;
    let indices: Vec<usize> = plan.slices_in_slab(x0, x1).collect();
    let first_x = plan.slice_x(*indices.first()?);
    // Two clock reads per ms-long slice: negligible, so both runs time.
    let (render_ns, tv_ns) = (AtomicU64::new(0), AtomicU64::new(0));
    let t0 = Instant::now();
    let denoised = rayon::par_map(&indices, |&i| {
        let t0 = Instant::now();
        let raw = plan.render(&slab, x0, i, cfg);
        let t1 = Instant::now();
        let image = chambolle_tv(&raw, LAMBDA, TV_ITERS);
        render_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        tv_ns.fetch_add(t1.elapsed().as_nanos() as u64, Ordering::Relaxed);
        image
    });
    let fan_out_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let stack = ImageStack::from_slices(denoised, base.voxel_nm(), cfg.slice_voxels, cfg.detector)
        .with_frame_margin(cfg.frame_margin_px);
    let volume = reconstruct(&stack);
    if let Some(trace) = trace {
        *trace = SlabTrace {
            periodic_slab_ms,
            render_ms: render_ns.into_inner() as f64 / 1e6,
            tv_ms: tv_ns.into_inner() as f64 / 1e6,
            reconstruct_ms: t0.elapsed().as_secs_f64() * 1e3,
            fan_out_wall_ms,
        };
    }
    Some((volume, first_x))
}

/// Voxel accuracy of a slab reconstruction against the pristine die
/// columns its slices image.
fn slab_accuracy(base: &MaterialVolume, volume: &MaterialVolume, first_x: usize) -> f64 {
    let pristine = base.periodic_slab_x(first_x, first_x + volume.dims().0);
    metrics::voxel_accuracy(volume, &pristine)
}

/// Streams dies slab by slab until the phase is over, calling `on_slab`
/// with each die's plan and imaging config and the slab index. Returns
/// the per-die plan times (ms).
fn stream(
    ctx: &Ctx,
    base: &MaterialVolume,
    mut on_slab: impl FnMut(&AcquirePlan, &ImagingConfig, usize),
) -> Vec<f64> {
    let (bnx, ny, nz) = base.dims();
    let start = Instant::now();
    let mut plan_ms = Vec::new();
    for die in 0.. {
        let cfg = imaging(ctx, die);
        let t0 = Instant::now();
        let plan = AcquirePlan::for_dims(bnx * PERIODS, ny, nz, &cfg);
        plan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for k in 0..PERIODS {
            on_slab(&plan, &cfg, k);
            if ctx.expired(start) {
                return plan_ms;
            }
        }
    }
    unreachable!("the stream ends when the phase expires")
}

/// End-to-end run: slabs back to back; checks pause the clock.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up builds the base period and streams one warm-up slab.
    let (base, setup_s) = repeated_setup(|| {
        let base = base_period();
        let (nx, ny, nz) = base.dims();
        let cfg = imaging(ctx, 0);
        let plan = AcquirePlan::for_dims(nx * PERIODS, ny, nz, &cfg);
        stream_slab(&base, &plan, &cfg, 0, None).ok_or("the first slab holds no slice")?;
        Ok(base)
    })?;
    let mut out = Outcome::default();
    let mut log = OpLog::default();
    let mut accuracies = Vec::new();
    let mut checks_s = 0.0;
    let start = Instant::now();
    let plan_ms = stream(ctx, &base, |plan, cfg, k| {
        out.attempted += 1;
        let slab = log.time(1, || stream_slab(&base, plan, cfg, k, None));
        let t0 = Instant::now();
        match slab {
            Some((volume, first_x)) => accuracies.push(slab_accuracy(&base, &volume, first_x)),
            None => out.fail(format!("slab {k} holds no slice")),
        }
        checks_s += t0.elapsed().as_secs_f64();
    });
    let timed_s = start.elapsed().as_secs_f64() - checks_s;
    record_end_to_end(&mut out, setup_s, &log, timed_s);
    check_accuracies(&mut out, &accuracies);
    out.extra(
        Extra::new("plan_ms", stats::median(&plan_ms), "ms")
            .with_note(format!("{} dies of {PERIODS} periods", plan_ms.len())),
    );
    Ok(out)
}

fn check_accuracies(out: &mut Outcome, accuracies: &[f64]) {
    let worst = accuracies.iter().copied().fold(f64::INFINITY, f64::min);
    for (k, a) in accuracies.iter().enumerate() {
        out.check(*a >= ACCURACY_FLOOR, || {
            format!("slab {k}: voxel accuracy {a:.4} is below {ACCURACY_FLOOR}")
        });
    }
    out.extra(
        Extra::new("voxel_accuracy", stats::median(accuracies), "ratio")
            .with_note(format!("median over slabs, worst {worst:.4}")),
    );
}

/// Traced run: the same stream with every call timed.
pub fn trace(ctx: &Ctx) -> Result<Outcome, String> {
    let base = base_period();
    let mut out = Outcome::default();
    let mut traces = Vec::new();
    let mut accuracies = Vec::new();
    let plan_ms = stream(ctx, &base, |plan, cfg, k| {
        out.attempted += 1;
        let mut trace = SlabTrace::default();
        match stream_slab(&base, plan, cfg, k, Some(&mut trace)) {
            Some((volume, first_x)) => accuracies.push(slab_accuracy(&base, &volume, first_x)),
            None => out.fail(format!("slab {k} holds no slice")),
        }
        traces.push(trace);
    });
    check_accuracies(&mut out, &accuracies);
    let median =
        |f: fn(&SlabTrace) -> f64| stats::median(&traces.iter().map(f).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.set("imaging.plan_ms", stats::median(&plan_ms));
    m.set("synth.periodic_slab_ms", median(|t| t.periodic_slab_ms));
    m.set("imaging.render_ms", median(|t| t.render_ms));
    m.set("imaging.tv_ms", median(|t| t.tv_ms));
    m.set("imaging.slab_reconstruct_ms", median(|t| t.reconstruct_ms));
    let busy: f64 = traces.iter().map(|t| t.render_ms + t.tv_ms).sum();
    let wall: f64 = traces.iter().map(|t| t.fan_out_wall_ms).sum();
    m.set(
        "die_stream.busy_frac",
        busy / (ctx.threads as f64 * wall).max(1e-9),
    );
    Ok(out)
}
