//! Stable content fingerprints for cache keys.
//!
//! A cache key must be a pure function of everything that can change a
//! stage's output: the canonical encoding of its configuration, the key of
//! the stage that feeds it, and a per-stage *code-version salt* that is
//! bumped whenever the stage's implementation changes behaviour. Keys are
//! 128 bits: two independent 64-bit FNV-1a streams over the same canonical
//! bytes (the vendored `fnv` hasher is fully specified, so keys are stable
//! across platforms, processes and runs).

use std::hash::Hasher;

use hifi_imaging::{DetectorKind, ImagingConfig};
use hifi_synth::SaRegionSpec;

/// Per-stage code-version salts. Bump a salt when the corresponding
/// stage's implementation changes output for the same inputs — old cache
/// entries then simply miss instead of serving stale artifacts.
pub mod salts {
    /// `SaRegion::voxelize` over a generated region.
    pub const VOXELIZE: u64 = 0x564f_5831; // "VOX" v1
    /// `hifi_imaging::acquire` (stack + drift truth).
    pub const ACQUIRE: u64 = 0x4143_5131; // "ACQ" v1
    /// Post-processing: normalize + align + denoise (stack + corrections).
    pub const POSTPROC: u64 = 0x504f_5331; // "POS" v1
    /// `hifi_imaging::reconstruct` of the processed stack.
    pub const RECONSTRUCT: u64 = 0x5245_4331; // "REC" v1
    /// Crop + `hifi_extract::extract` + `measure` over the window.
    pub const EXTRACT: u64 = 0x4558_5431; // "EXT" v1
}

/// A 128-bit content fingerprint, used as the on-disk object address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    hi: u64,
    lo: u64,
}

impl Key {
    /// Rebuilds a key from its two halves.
    pub fn from_parts(hi: u64, lo: u64) -> Self {
        Self { hi, lo }
    }

    /// The two 64-bit halves.
    pub fn parts(&self) -> (u64, u64) {
        (self.hi, self.lo)
    }

    /// The 32-character lowercase hex form used as the object file name.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`Key::hex`] form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self { hi, lo })
    }
}

impl core::fmt::Display for Key {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Incremental fingerprint builder: a canonical, type-tagged byte encoding
/// fed to two independent FNV-1a streams.
///
/// Every write is prefixed with a one-byte type tag so that adjacent
/// fields cannot alias (`("ab", "c")` vs `("a", "bc")`, or an `f64` that
/// happens to share bits with a length). Floats are written as IEEE-754
/// bit patterns — fingerprinting is exact, not approximate.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    a: fnv::FnvHasher,
    b: fnv::FnvHasher,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

/// Second-stream key: an arbitrary odd constant so the `b` stream is
/// independent of the standard offset basis used by `a`.
const STREAM_B_BASIS: u64 = 0x9e37_79b9_7f4a_7c15;

impl Fingerprinter {
    /// Starts an empty fingerprint.
    pub fn new() -> Self {
        Self {
            a: fnv::FnvHasher::default(),
            b: fnv::FnvHasher::with_key(STREAM_B_BASIS),
        }
    }

    fn raw(&mut self, tag: u8, bytes: &[u8]) {
        self.a.write(&[tag]);
        self.a.write(bytes);
        self.b.write(&[tag]);
        self.b.write(bytes);
    }

    /// Feeds an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(b'u', &v.to_le_bytes());
        self
    }

    /// Feeds a signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.raw(b'i', &v.to_le_bytes());
        self
    }

    /// Feeds a float as its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.raw(b'f', &v.to_bits().to_le_bytes());
        self
    }

    /// Feeds a boolean.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(b'b', &[u8::from(v)]);
        self
    }

    /// Feeds a string (length-prefixed by the tag protocol).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.raw(b's', s.as_bytes());
        self
    }

    /// Feeds an upstream key, chaining this stage onto its input.
    pub fn key(&mut self, k: Key) -> &mut Self {
        self.raw(b'k', &k.hi.to_le_bytes());
        self.raw(b'k', &k.lo.to_le_bytes());
        self
    }

    /// Finishes the fingerprint.
    pub fn finish(&self) -> Key {
        Key {
            hi: self.a.finish(),
            lo: self.b.finish(),
        }
    }
}

/// Canonical fingerprint of a generator spec (every field that shapes the
/// voxelised region, including all per-class transistor dimensions).
pub fn spec_fingerprint(spec: &SaRegionSpec) -> Key {
    let mut f = Fingerprinter::new();
    f.str("SaRegionSpec.v1");
    f.str(spec.topology.name());
    for dims in [
        spec.dims.nsa,
        spec.dims.psa,
        spec.dims.precharge,
        spec.dims.equalizer,
        spec.dims.column,
        spec.dims.isolation,
        spec.dims.offset_cancel,
    ] {
        f.f64(dims.width.value()).f64(dims.length.value());
    }
    f.u64(spec.n_pairs as u64)
        .f64(spec.voxel_nm)
        .i64(spec.transition_nm)
        .bool(spec.include_mat)
        .i64(spec.mat_length_nm);
    f.finish()
}

/// Canonical fingerprint of an imaging configuration.
pub fn imaging_fingerprint(cfg: &ImagingConfig) -> Key {
    let mut f = Fingerprinter::new();
    f.str("ImagingConfig.v1");
    f.u64(match cfg.detector {
        DetectorKind::Se => 0,
        DetectorKind::Bse => 1,
    })
    .f64(cfg.dwell_us)
    .f64(cfg.drift_sigma_px)
    .f64(cfg.brightness_wander)
    .u64(cfg.slice_voxels as u64)
    .u64(cfg.seed)
    .u64(cfg.frame_margin_px as u64);
    f.finish()
}

/// Canonical fingerprint of a fault spec. Pipelines running under an
/// *enabled* fault plan salt their root stage key with this, so artifacts
/// produced under injection (possibly degraded) can never be served to a
/// fault-free run of the same configuration — and vice versa.
pub fn fault_fingerprint(spec: &hifi_faults::FaultSpec) -> Key {
    let mut f = Fingerprinter::new();
    f.str("FaultSpec.v1");
    f.u64(spec.seed);
    for kind in hifi_faults::FaultKind::ALL {
        f.f64(spec.rate(kind));
    }
    f.u64(u64::from(spec.max_consecutive));
    f.finish()
}

/// Chains a stage onto its upstream: `stage_key = H(salt ‖ upstream ‖ extras)`.
/// Call `.finish()` on the returned builder after feeding any stage-local
/// parameters (denoise strength, window index, …).
pub fn stage(salt: u64, upstream: Key) -> Fingerprinter {
    let mut f = Fingerprinter::new();
    f.u64(salt).key(upstream);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_circuit::topology::SaTopologyKind;

    #[test]
    fn hex_round_trips() {
        let k = Fingerprinter::new().str("x").finish();
        assert_eq!(Key::from_hex(&k.hex()), Some(k));
        assert_eq!(k.hex().len(), 32);
        assert_eq!(Key::from_hex("nope"), None);
        assert_eq!(Key::from_hex(&"g".repeat(32)), None);
        let (hi, lo) = k.parts();
        assert_eq!(Key::from_parts(hi, lo), k);
    }

    #[test]
    fn fingerprints_are_stable_across_calls() {
        let spec = SaRegionSpec::new(SaTopologyKind::Classic);
        assert_eq!(spec_fingerprint(&spec), spec_fingerprint(&spec));
        let img = ImagingConfig::default();
        assert_eq!(imaging_fingerprint(&img), imaging_fingerprint(&img));
    }

    #[test]
    fn any_spec_field_changes_the_key() {
        let base = SaRegionSpec::new(SaTopologyKind::Classic);
        let k0 = spec_fingerprint(&base);
        let variants = [
            SaRegionSpec::new(SaTopologyKind::OffsetCancellation),
            base.clone().with_pairs(3),
            base.clone().with_voxel_nm(5.0),
            base.clone().with_transition_nm(275),
            base.clone().with_mat_strip(true),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(spec_fingerprint(v), k0, "variant {i} collided");
        }
    }

    #[test]
    fn any_imaging_field_changes_the_key() {
        let base = ImagingConfig::default();
        let k0 = imaging_fingerprint(&base);
        let variants = [
            ImagingConfig {
                detector: DetectorKind::Se,
                ..base.clone()
            },
            ImagingConfig {
                dwell_us: 3.0,
                ..base.clone()
            },
            ImagingConfig {
                drift_sigma_px: 0.0,
                ..base.clone()
            },
            ImagingConfig {
                seed: 1,
                ..base.clone()
            },
            ImagingConfig {
                slice_voxels: 2,
                ..base.clone()
            },
            ImagingConfig {
                frame_margin_px: 0,
                ..base.clone()
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(imaging_fingerprint(v), k0, "variant {i} collided");
        }
    }

    #[test]
    fn chaining_differs_by_salt_and_upstream() {
        let up1 = Fingerprinter::new().str("a").finish();
        let up2 = Fingerprinter::new().str("b").finish();
        assert_ne!(stage(1, up1).finish(), stage(2, up1).finish());
        assert_ne!(stage(1, up1).finish(), stage(1, up2).finish());
        // Stage-local params fold in after the chain.
        assert_ne!(
            stage(1, up1).f64(2.0).finish(),
            stage(1, up1).f64(3.0).finish()
        );
    }

    #[test]
    fn any_fault_spec_field_changes_the_key() {
        use hifi_faults::{FaultKind, FaultSpec};
        let base = FaultSpec::uniform(7, 0.1);
        let k0 = fault_fingerprint(&base);
        assert_eq!(k0, fault_fingerprint(&base), "must be stable");
        let variants = [
            base.clone().with_seed(8),
            base.clone().with_rate(FaultKind::CorruptBlob, 0.2),
            base.clone().with_max_consecutive(3),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(fault_fingerprint(v), k0, "variant {i} collided");
        }
    }

    #[test]
    fn adjacent_fields_do_not_alias() {
        let ab = Fingerprinter::new().str("ab").str("c").finish();
        let a_bc = Fingerprinter::new().str("a").str("bc").finish();
        assert_ne!(ab, a_bc);
    }
}
