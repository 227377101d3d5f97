//! Rebuilding a material volume from a processed image stack.
//!
//! This is the final step of the paper's Challenge C1: after denoising and
//! alignment, the cross-section stack becomes a 3-D reconstruction whose
//! planar slices drive the circuit reverse engineering (Fig. 7). Pixels are
//! classified to the nearest material intensity for the detector used.

use crate::sem::{DetectorKind, ImageStack};
use hifi_geometry::LayerStack;
use hifi_synth::{Material, MaterialVolume};

/// Classifies one intensity into the nearest material mean for a detector.
pub fn classify_pixel(intensity: f32, detector: DetectorKind) -> Material {
    let mut best = Material::Oxide;
    let mut best_d = f64::INFINITY;
    for m in Material::ALL {
        let mean = match detector {
            DetectorKind::Se => m.se_intensity(),
            DetectorKind::Bse => m.bse_intensity(),
        };
        let d = (intensity as f64 - mean).abs();
        if d < best_d {
            best_d = d;
            best = m;
        }
    }
    best
}

/// Reconstructs a material volume from a (denoised, aligned) stack.
///
/// Each slice becomes `slice_voxels` planes along X (nearest-neighbour
/// interpolation between FIB cuts, as in any serial-sectioning
/// reconstruction). Classification is purely per-pixel, so a streaming
/// consumer reconstructs a die slab by slab by passing each slab's slices
/// as a stack of their own.
///
/// # Panics
///
/// Panics if the stack is empty.
pub fn reconstruct(stack: &ImageStack) -> MaterialVolume {
    assert!(!stack.is_empty(), "cannot reconstruct an empty stack");
    let margin = stack.frame_margin_px();
    let (py, pz) = stack.slice(0).dims();
    let (ny, nz) = (py - 2 * margin, pz - 2 * margin);
    let step = stack.slice_voxels().max(1);
    let nx = stack.len() * step;
    let mut vol = MaterialVolume::new(nx, ny, nz, stack.pixel_nm(), LayerStack::default_dram());
    for (i, slice) in stack.slices().iter().enumerate() {
        for z in 0..nz {
            for y in 0..ny {
                let m = classify_pixel(slice.get(y + margin, z + margin), stack.detector());
                if m != Material::Oxide {
                    for dx in 0..step {
                        vol.set(i * step + dx, y, z, m);
                    }
                }
            }
        }
    }
    vol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{align, AlignMethod};
    use crate::denoise::denoise;
    use crate::sem::{acquire, ImagingConfig};

    fn volume() -> MaterialVolume {
        let mut v = MaterialVolume::new(12, 40, 30, 5.0, LayerStack::default_dram());
        v.fill_box(0, 12, 10, 16, 20, 24, hifi_synth::Material::Metal1, true);
        v.fill_box(0, 12, 24, 32, 0, 6, hifi_synth::Material::ActiveSi, true);
        v.fill_box(2, 9, 5, 8, 8, 11, hifi_synth::Material::GatePoly, true);
        v
    }

    #[test]
    fn classification_recovers_exact_means() {
        for m in Material::ALL {
            assert_eq!(classify_pixel(m.se_intensity() as f32, DetectorKind::Se), m);
            assert_eq!(
                classify_pixel(m.bse_intensity() as f32, DetectorKind::Bse),
                m
            );
        }
    }

    fn voxel_accuracy(reconstructed: &MaterialVolume, truth: &MaterialVolume) -> f64 {
        let (nx, ny, nz) = truth.dims();
        let mut same = 0usize;
        let mut total = 0usize;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx.min(reconstructed.dims().0) {
                    total += 1;
                    if reconstructed.get(x, y, z) == truth.get(x, y, z) {
                        same += 1;
                    }
                }
            }
        }
        same as f64 / total as f64
    }

    #[test]
    fn noiseless_reconstruction_is_exact() {
        let v = volume();
        let cfg = ImagingConfig {
            dwell_us: 1e9,
            drift_sigma_px: 0.0,
            brightness_wander: 0.0,
            ..ImagingConfig::default()
        };
        let (stack, _) = acquire(&v, &cfg);
        let r = reconstruct(&stack);
        assert!(voxel_accuracy(&r, &v) > 0.999);
    }

    #[test]
    fn full_pipeline_recovers_noisy_drifted_stack() {
        let v = volume();
        let cfg = ImagingConfig {
            dwell_us: 6.0,
            drift_sigma_px: 0.8,
            brightness_wander: 1.0,
            seed: 1234,
            ..ImagingConfig::default()
        };
        let (mut stack, _) = acquire(&v, &cfg);
        stack.normalize_brightness();
        denoise(&mut stack, 8.0, 25);
        align(&mut stack, AlignMethod::MutualInformation, 4);
        let r = reconstruct(&stack);
        let acc = voxel_accuracy(&r, &v);
        assert!(acc > 0.93, "pipeline voxel accuracy {acc}");
    }

    #[test]
    fn skipping_alignment_hurts_accuracy() {
        let v = volume();
        let cfg = ImagingConfig {
            dwell_us: 50.0,
            drift_sigma_px: 1.2,
            brightness_wander: 0.0,
            seed: 77,
            ..ImagingConfig::default()
        };
        let (stack_raw, _) = acquire(&v, &cfg);
        let mut stack_aligned = stack_raw.clone();
        align(&mut stack_aligned, AlignMethod::MutualInformation, 5);
        let acc_raw = voxel_accuracy(&reconstruct(&stack_raw), &v);
        let acc_aligned = voxel_accuracy(&reconstruct(&stack_aligned), &v);
        assert!(
            acc_aligned > acc_raw,
            "alignment must help: {acc_raw} vs {acc_aligned}"
        );
    }

    /// What `die_stream` does per slab: reconstructing slices `[lo, hi)` as
    /// a stack of their own yields the same x-range of the full volume.
    #[test]
    fn sub_stack_reconstruction_matches_full_crop() {
        let v = volume();
        let cfg = ImagingConfig {
            dwell_us: 6.0,
            drift_sigma_px: 0.8,
            brightness_wander: 1.0,
            seed: 99,
            slice_voxels: 3,
            ..ImagingConfig::default()
        };
        let (stack, _) = acquire(&v, &cfg);
        let full = reconstruct(&stack);
        let step = stack.slice_voxels();
        for (lo, hi) in [(0, 1), (1, 3), (0, stack.len()), (2, stack.len())] {
            let sub = ImageStack::from_slices(
                stack.slices()[lo..hi].to_vec(),
                stack.pixel_nm(),
                step,
                stack.detector(),
            )
            .with_frame_margin(stack.frame_margin_px());
            let crop = full.crop(lo * step, hi * step, 0, full.dims().1);
            assert_eq!(reconstruct(&sub), crop, "slices [{lo}, {hi})");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_stack_rejected() {
        let stack = ImageStack::from_slices(vec![], 5.0, 1, DetectorKind::Bse);
        let _ = reconstruct(&stack);
    }
}
