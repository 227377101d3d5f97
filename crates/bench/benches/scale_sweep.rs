//! Full-die scale sweep: throughput and memory of the slab-streaming path.
//!
//! The paper's die-scale ambition (Section VII extrapolates from one SA
//! region to full-die imaging) needs the imaging flow to process volumes
//! far larger than RAM. `Pipeline::run` holds whole volumes, so this bench
//! streams synthetic dies of 1×, 16× and 256× the base MAT+SA region slab
//! by slab through render → denoise → reconstruct:
//!
//! - the die is **never materialized** — `periodic_slab_x` synthesizes one
//!   x-slab at a time from the base region's periodic repetition,
//! - the [`AcquirePlan`] walks the whole die's artefact schedule up front
//!   (O(slices) memory) so every slab renders bit-identically to a
//!   whole-volume `acquire`,
//! - each slab's slices are rendered in parallel, TV-denoised, folded into
//!   a slab reconstruction and dropped before the next slab begins.
//!
//! Peak working memory is therefore O(slab), not O(die) — asserted via the
//! counting allocator when the `alloc-track` feature is enabled. Headline
//! numbers (`scale_sweep.voxels_per_sec`, `scale_sweep.slices_per_sec_256x`)
//! land in `BENCH_results.json` as higher-is-better `per_sec` metrics for
//! the CI gate.
//!
//! `SCALE_SWEEP_MAX=<n>` caps the largest scale (CI smoke runs 16×).

use std::hint::black_box;
use std::time::Instant;

use hifi_circuit::topology::SaTopologyKind;
use hifi_imaging::{chambolle_tv, reconstruct, AcquirePlan, ImageStack, ImagingConfig, SemImage};
use hifi_synth::{generate_region, MaterialVolume, SaRegionSpec};

/// TV strength/iterations for the sweep: light denoising keeps the bench
/// dominated by the streaming path rather than the TV solver.
const LAMBDA: f32 = 4.0;
const TV_ITERS: usize = 5;

struct SweepStats {
    scale: usize,
    voxels: usize,
    slices: usize,
    secs: f64,
    peak_bytes: Option<usize>,
}

/// Streams a `scale`× periodic die through acquire→denoise→reconstruct,
/// one `tile_x`-column slab at a time.
fn sweep(base: &MaterialVolume, cfg: &ImagingConfig, scale: usize, tile_x: usize) -> SweepStats {
    let (bnx, ny, nz) = base.dims();
    let die_nx = bnx * scale;
    hifi_telemetry::alloc::reset_peak();
    let t0 = Instant::now();
    // The schedule walk covers the whole die but holds O(slices) state.
    let plan = AcquirePlan::for_dims(die_nx, ny, nz, cfg);
    let mut slices_done = 0usize;
    let mut x0 = 0usize;
    while x0 < die_nx {
        let x1 = (x0 + tile_x).min(die_nx);
        let slab = base.periodic_slab_x(x0, x1);
        let indices: Vec<usize> = plan.slices_in_slab(x0, x1).collect();
        if !indices.is_empty() {
            let denoised: Vec<SemImage> = rayon::par_map(&indices, |&i| {
                let raw = plan.render(&slab, x0, i, cfg);
                chambolle_tv(&raw, LAMBDA, TV_ITERS)
            });
            slices_done += denoised.len();
            let stack =
                ImageStack::from_slices(denoised, base.voxel_nm(), cfg.slice_voxels, cfg.detector)
                    .with_frame_margin(cfg.frame_margin_px);
            // The slab reconstruction is consumed (here: summarized) and
            // dropped before the next slab streams in.
            black_box(reconstruct(&stack).len());
        }
        x0 = x1;
    }
    SweepStats {
        scale,
        voxels: die_nx * ny * nz,
        slices: slices_done,
        secs: t0.elapsed().as_secs_f64(),
        peak_bytes: hifi_telemetry::alloc::peak_bytes().map(|b| b as usize),
    }
}

fn main() {
    let max_scale = std::env::var("SCALE_SWEEP_MAX")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(256);

    let base = generate_region(
        &SaRegionSpec::new(SaTopologyKind::Classic)
            .with_pairs(1)
            .with_mat_strip(true),
    )
    .voxelize();
    let (bnx, ny, nz) = base.dims();
    // Thick slices bound the slice count at die scale; the per-slice work
    // is unchanged, so throughput numbers stay representative.
    let cfg = ImagingConfig {
        slice_voxels: 8,
        ..ImagingConfig::default()
    };
    let tile_x = bnx; // one base period per slab
    println!("scale_sweep: base {bnx}x{ny}x{nz} voxels, tile_x {tile_x}, max scale {max_scale}x");

    let mut last: Option<SweepStats> = None;
    for scale in [1usize, 16, 256] {
        if scale > max_scale {
            println!("  {scale:>4}x skipped (SCALE_SWEEP_MAX={max_scale})");
            continue;
        }
        let stats = sweep(&base, &cfg, scale, tile_x);
        let vps = stats.voxels as f64 / stats.secs;
        let sps = stats.slices as f64 / stats.secs;
        let peak = stats.peak_bytes.map_or("untracked".to_string(), |b| {
            format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
        });
        println!(
            "  {:>4}x: {:>12} voxels, {:>6} slices in {:>8.2}s — {:>12.0} vox/s, {:>7.1} slices/s, peak {}",
            stats.scale, stats.voxels, stats.slices, stats.secs, vps, sps, peak
        );
        // O(tile) memory: the peak must stay far below the die's own voxel
        // payload once the die is much larger than one tile. The bound is
        // generous (slab + parallel slice buffers + slab reconstruction),
        // but an O(die) materialization at 256× would blow through it.
        if let (Some(peak), true) = (stats.peak_bytes, stats.scale >= 16) {
            let die_bytes = stats.voxels;
            assert!(
                peak < die_bytes / 4,
                "peak allocation {peak} B is not O(tile): die is {die_bytes} B at {}x",
                stats.scale
            );
        }
        last = Some(stats);
    }

    let last = last.expect("at least the 1x sweep runs");
    let mut results = hifi_bench::results::BenchResults::default();
    results.record(
        "scale_sweep.voxels_per_sec",
        last.voxels as f64 / last.secs,
        "per_sec",
    );
    results.record(
        &format!("scale_sweep.slices_per_sec_{}x", last.scale),
        last.slices as f64 / last.secs,
        "per_sec",
    );
    let path = hifi_bench::results::results_path();
    results.merge_into(&path).expect("record bench results");
    println!("recorded → {}", path.display());
}
