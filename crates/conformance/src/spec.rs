//! Randomized chip specifications: the campaign's input domain.
//!
//! A [`ChipSpec`] is a compact, order-free description of one differential
//! test case — which topology to fabricate, at what scale, through which
//! imaging conditions. Specs are generated from a single `u64` seed, so a
//! failing case is reproduced by its seed alone, and every field comes from
//! a small palette so the hand-written shrinker (see [`crate::shrink()`]) can
//! walk toward [`ChipSpec::minimal`] in a handful of steps.

use hifi_circuit::topology::{SaDimensions, SaTopologyKind};
use hifi_circuit::TransistorDims;
use hifi_dram::pipeline::PipelineConfig;
use hifi_imaging::ImagingConfig;
use hifi_synth::SaRegionSpec;
use hifi_units::Nanometers;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Imaging-noise knobs a spec may enable (a subset of [`ImagingConfig`],
/// restricted to palette values the pipeline is expected to survive).
#[derive(Debug, Clone, PartialEq)]
pub struct ImagingNoise {
    /// Dwell time per pixel (µs); noise σ scales as `1/√dwell`.
    pub dwell_us: f64,
    /// Per-slice stage-drift innovation σ (pixels).
    pub drift_sigma_px: f64,
    /// FIB slice thickness in voxels.
    pub slice_voxels: usize,
    /// Acquisition RNG seed.
    pub seed: u64,
}

impl ImagingNoise {
    /// Expands to a full [`ImagingConfig`] (remaining knobs at defaults).
    pub fn to_imaging_config(&self) -> ImagingConfig {
        ImagingConfig {
            dwell_us: self.dwell_us,
            drift_sigma_px: self.drift_sigma_px,
            slice_voxels: self.slice_voxels,
            seed: self.seed,
            ..ImagingConfig::default()
        }
    }
}

/// One randomized conformance case: a chip to fabricate and the conditions
/// to image and extract it under.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// SA circuit topology to lay out.
    pub topology: SaTopologyKind,
    /// Bitline pairs stacked in the region.
    pub n_pairs: usize,
    /// Which pair's cell window is extracted.
    pub window_pair: usize,
    /// Voxel edge (nm).
    pub voxel_nm: f64,
    /// Uniform transistor W/L scaling (percent of the default node).
    pub dim_scale_pct: u32,
    /// MAT→SA transition length (nm).
    pub transition_nm: i64,
    /// Whether a MAT capacitor strip precedes the SA region.
    pub mat_strip: bool,
    /// Simulated FIB/SEM imaging; `None` extracts the pristine volume.
    pub imaging: Option<ImagingNoise>,
}

impl ChipSpec {
    /// The smallest spec in the domain — the shrinker's fixpoint target.
    pub fn minimal() -> Self {
        Self {
            topology: SaTopologyKind::Classic,
            n_pairs: 1,
            window_pair: 0,
            voxel_nm: 8.0,
            dim_scale_pct: 100,
            transition_nm: 318,
            mat_strip: false,
            imaging: None,
        }
    }

    /// Draws a spec from the domain, deterministically from `seed`.
    ///
    /// Every field comes from a small palette of values the generator and
    /// extractor are specified to handle; the campaign's job is to prove
    /// they actually do, across the whole cross-product.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let topology = if rng.gen_bool(0.5) {
            SaTopologyKind::Classic
        } else {
            SaTopologyKind::OffsetCancellation
        };
        let n_pairs = rng.gen_range(1..=3usize);
        let window_pair = rng.gen_range(0..n_pairs);
        let voxel_nm = *pick(&mut rng, &[6.0, 8.0, 10.0]);
        let dim_scale_pct = *pick(&mut rng, &[90, 100, 110, 120]);
        let transition_nm = *pick(&mut rng, &[275, 318]);
        let mat_strip = rng.gen_bool(0.25);
        // Imaging multiplies run cost ~10×; sample it at the default voxel
        // pitch only, where the imaged pipeline's tolerances are validated.
        //
        // The fastest dwell (4 µs) is excluded when the MAT strip is
        // present: the strip skews the global normalization statistics
        // enough that the noisiest acquisitions fall outside the
        // denoiser's recovery envelope (campaign seed 7 shrank such a
        // failure to exactly `minimal + mat + dwell=4`; the limit is
        // pinned in tests/extraction_edge_cases.rs).
        let dwell_palette: &[f64] = if mat_strip {
            &[6.0, 9.0]
        } else {
            &[4.0, 6.0, 9.0]
        };
        let imaging = if voxel_nm == 8.0 && rng.gen_bool(0.4) {
            Some(ImagingNoise {
                dwell_us: *pick(&mut rng, dwell_palette),
                drift_sigma_px: *pick(&mut rng, &[0.3, 0.7]),
                slice_voxels: rng.gen_range(1..=2usize),
                seed: rng.next_u64(),
            })
        } else {
            None
        };
        Self {
            topology,
            n_pairs,
            window_pair,
            voxel_nm,
            dim_scale_pct,
            transition_nm,
            mat_strip,
            imaging,
        }
    }

    /// The generator dimensions this spec fabricates: every class's W/L
    /// scaled uniformly by [`Self::dim_scale_pct`] (uniform scaling
    /// preserves the class orderings classification relies on, e.g.
    /// pSA narrower than nSA).
    pub fn scaled_dims(&self) -> SaDimensions {
        let f = f64::from(self.dim_scale_pct) / 100.0;
        let scale = |d: TransistorDims| {
            TransistorDims::new(
                Nanometers(d.width.value() * f),
                Nanometers(d.length.value() * f),
            )
        };
        let d = SaDimensions::default();
        SaDimensions {
            nsa: scale(d.nsa),
            psa: scale(d.psa),
            precharge: scale(d.precharge),
            equalizer: scale(d.equalizer),
            column: scale(d.column),
            isolation: scale(d.isolation),
            offset_cancel: scale(d.offset_cancel),
        }
    }

    /// The generator spec for this chip.
    pub fn region_spec(&self) -> SaRegionSpec {
        SaRegionSpec::new(self.topology)
            .with_dims(self.scaled_dims())
            .with_pairs(self.n_pairs)
            .with_voxel_nm(self.voxel_nm)
            .with_transition_nm(self.transition_nm)
            .with_mat_strip(self.mat_strip)
    }

    /// The full pipeline configuration for this chip.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut cfg = match &self.imaging {
            Some(noise) => PipelineConfig::with_imaging(self.topology, noise.to_imaging_config()),
            None => PipelineConfig::pristine(self.topology),
        };
        cfg.spec = self.region_spec();
        cfg.window_pair = self.window_pair;
        cfg
    }

    /// This spec with imaging stripped (the zero-noise counterpart every
    /// metamorphic run is compared against).
    pub fn pristine_variant(&self) -> Self {
        Self {
            imaging: None,
            ..self.clone()
        }
    }

    /// Compact single-line rendering for reports and failure logs.
    pub fn describe(&self) -> String {
        let imaging = match &self.imaging {
            None => "off".to_string(),
            Some(n) => format!(
                "dwell={}us drift={}px slice={} seed={:#x}",
                n.dwell_us, n.drift_sigma_px, n.slice_voxels, n.seed
            ),
        };
        format!(
            "{} pairs={} window={} voxel={}nm scale={}% transition={}nm mat={} imaging[{}]",
            self.topology.name(),
            self.n_pairs,
            self.window_pair,
            self.voxel_nm,
            self.dim_scale_pct,
            self.transition_nm,
            if self.mat_strip { "on" } else { "off" },
            imaging,
        )
    }
}

/// Picks one element of a non-empty palette.
fn pick<'a, T>(rng: &mut StdRng, palette: &'a [T]) -> &'a T {
    &palette[rng.gen_range(0..palette.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in [0, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(ChipSpec::generate(seed), ChipSpec::generate(seed));
        }
        // The domain is not a single point.
        let distinct: std::collections::HashSet<String> =
            (0..64).map(|s| ChipSpec::generate(s).describe()).collect();
        assert!(
            distinct.len() > 10,
            "only {} distinct specs",
            distinct.len()
        );
    }

    #[test]
    fn every_generated_spec_is_well_formed() {
        for seed in 0..128 {
            let spec = ChipSpec::generate(seed);
            assert!(spec.n_pairs >= 1 && spec.n_pairs <= 3);
            assert!(spec.window_pair < spec.n_pairs, "{}", spec.describe());
            assert!(spec.voxel_nm > 0.0);
            // Must survive the builders' validation panics.
            let cfg = spec.pipeline_config();
            assert_eq!(cfg.spec.n_pairs, spec.n_pairs);
            assert_eq!(cfg.window_pair, spec.window_pair);
            assert_eq!(cfg.imaging.is_some(), spec.imaging.is_some());
        }
    }

    #[test]
    fn scaled_dims_scale_uniformly() {
        let spec = ChipSpec {
            dim_scale_pct: 110,
            ..ChipSpec::minimal()
        };
        let scaled = spec.scaled_dims();
        let base = SaDimensions::default();
        assert!((scaled.nsa.width.value() - base.nsa.width.value() * 1.1).abs() < 1e-9);
        assert!((scaled.psa.length.value() - base.psa.length.value() * 1.1).abs() < 1e-9);
        // Ordering invariants survive scaling.
        assert!(scaled.psa.width.value() < scaled.nsa.width.value());
    }
}
