//! Simulated FIB/SEM acquisition and the paper's post-processing pipeline.
//!
//! Section IV of the paper acquires cross-section slices with FIB/SEM and
//! fights two artefacts before any reverse engineering can happen: noise
//! (dwell-time limited) and inter-slice drift — the planar view tolerates
//! less than 0.77% misalignment per slice. This crate mirrors that pipeline
//! on synthetic volumes:
//!
//! - [`acquire`] — slices a [`hifi_synth::MaterialVolume`] like a Ga-FIB and
//!   renders SE/BSE images with shot noise, cumulative stage drift and
//!   brightness wander; [`acquire_with`] runs the same acquisition under
//!   a fault plan with per-slice retry, or lane-profiled, bit-identical to
//!   [`acquire`] unless a slice exhausts its retries; [`AcquirePlan`]
//!   renders any slice from an x-slab of the die, for streaming,
//! - [`denoise`] — Chambolle total-variation denoising (the same algorithm
//!   family the paper runs in Dragonfly),
//! - [`align`] — mutual-information rigid slice alignment, each slice against
//!   the previous one, exactly as described in Section IV-C,
//! - [`reconstruct`] — re-assembles the processed stack into a material
//!   volume for the extractor, completing the cross-section → planar pivot.
//!
//! # Examples
//!
//! ```
//! use hifi_synth::{generate_region, SaRegionSpec};
//! use hifi_circuit::topology::SaTopologyKind;
//! use hifi_imaging::{acquire, ImagingConfig};
//!
//! let region = generate_region(&SaRegionSpec::new(SaTopologyKind::Classic).with_pairs(1));
//! let volume = region.voxelize();
//! let (stack, truth) = acquire(&volume, &ImagingConfig::default());
//! assert_eq!(stack.len(), truth.shifts.len());
//! ```

mod align;
mod denoise;
pub mod metrics;
mod reconstruct;
mod sem;

pub use align::{align, align_with, AlignMethod};
pub use denoise::{
    chambolle_tv, chambolle_tv_with, denoise, denoise_profiled, median3x3, TvScratch,
};
pub use reconstruct::{classify_pixel, reconstruct};
pub use sem::{
    acquire, acquire_with, render_ideal, AcquireOpts, AcquireOutcome, AcquirePlan, DetectorKind,
    DriftTruth, ImageStack, ImagingConfig, SemImage,
};
