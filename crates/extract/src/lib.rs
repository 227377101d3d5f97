//! Automated circuit reverse engineering from a reconstructed chip volume.
//!
//! This crate implements Challenge C2 of the paper: starting from a (planar
//! view of a) 3-D reconstruction, recover the circuit — find gates, wires and
//! vias, trace intra- and inter-layer connections, recognise transistors
//! including their active regions, classify them by function, and measure
//! their dimensions (Section V). The input is a
//! [`hifi_synth::MaterialVolume`], either pristine from the generator or
//! reconstructed by `hifi-imaging` after the simulated FIB/SEM run.
//!
//! Pipeline:
//!
//! 1. [`slabs`] — collapse each process layer's z-band into a 2-D occupancy
//!    grid (the "selected planar slices" of Fig. 7d),
//! 2. [`components`] — 2-D connected components per layer,
//! 3. [`netlist`] — recognise channels (gate ∩ active), split source/drain,
//!    trace contacts and vias across layers, and emit a
//!    [`hifi_circuit::Netlist`],
//! 4. [`classify`](mod@classify) — assign functional classes using the paper's own
//!    heuristics (latch = gates on bitlines; common-gate strips =
//!    precharge/EQ/ISO/OC; pSA narrower than nSA; column first after MAT),
//! 5. [`measure`](mod@measure) — per-class dimension statistics (W from the gate∩active
//!    overlap, L from the source–drain pitch; Section V-B).
//!
//! # Examples
//!
//! ```
//! use hifi_synth::{generate_region, SaRegionSpec};
//! use hifi_circuit::topology::SaTopologyKind;
//! use hifi_circuit::identify::TopologyLibrary;
//!
//! let region = generate_region(&SaRegionSpec::new(SaTopologyKind::Classic).with_pairs(1));
//! let volume = region.voxelize();
//! let extraction = hifi_extract::extract(&volume)?;
//! let kind = TopologyLibrary::standard().identify(&extraction.netlist);
//! assert_eq!(kind, Some(SaTopologyKind::Classic));
//! # Ok::<(), hifi_extract::ExtractError>(())
//! ```

pub mod classify;
pub mod components;
pub mod measure;
pub mod netlist;
pub mod slabs;

use hifi_synth::MaterialVolume;

pub use classify::classify;
pub use measure::{measure, ClassMeasurement, MeasurementConfidence, MeasurementReport};
pub use netlist::{ExtractedDevice, Extraction};

/// Error produced during extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The volume contains no transistors (no gate ∩ active overlap).
    NoTransistors,
    /// A channel is partially connected: several substantial gates, or
    /// exactly one substantial source/drain region. Such a channel is a
    /// real-looking but malformed transistor, and silently dropping it
    /// would produce a plausible wrong netlist. Channels with *no*
    /// substantial gate or diffusion at all are reconstruction debris and
    /// are skipped instead (counted under
    /// `extract.rejected.orphan_channels`).
    MalformedChannel {
        /// Number of adjacent source/drain regions found.
        neighbours: usize,
    },
    /// Classification failed: the circuit does not expose the structure the
    /// paper's heuristics rely on.
    ClassificationFailed(String),
}

impl core::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExtractError::NoTransistors => write!(f, "no transistors found in the volume"),
            ExtractError::MalformedChannel { neighbours } => {
                write!(f, "channel with {neighbours} adjacent diffusion regions")
            }
            ExtractError::ClassificationFailed(m) => write!(f, "classification failed: {m}"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Runs the full extraction (netlist + classification) on a volume.
///
/// # Errors
///
/// Returns [`ExtractError`] if no transistors are present, a channel is
/// malformed, or the functional classification cannot be completed.
pub fn extract(volume: &MaterialVolume) -> Result<Extraction, ExtractError> {
    extract_with(volume, &mut hifi_telemetry::NoopRecorder)
}

/// [`extract`] with instrumentation: records per-layer component counts
/// (`extract.components.<layer>`), rejected-candidate counters
/// (`extract.rejected.speckle_channels`, `extract.rejected.small_gates`,
/// `extract.rejected.weak_diffusion_contacts`,
/// `extract.rejected.orphan_channels`) and the final device count
/// (`extract.devices`).
///
/// # Errors
///
/// Same as [`extract`].
pub fn extract_with<R: hifi_telemetry::Recorder>(
    volume: &MaterialVolume,
    rec: &mut R,
) -> Result<Extraction, ExtractError> {
    let mut extraction = netlist::extract_netlist_with(volume, rec)?;
    classify::classify(&mut extraction)?;
    rec.counter("extract.devices", extraction.devices.len() as u64);
    Ok(extraction)
}
