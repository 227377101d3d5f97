//! Monte-Carlo sensing-yield analysis.
//!
//! The paper explains *why* vendors moved to offset-cancellation designs:
//! packing more rows per MAT weakens the sensed signal while smaller nodes
//! increase transistor mismatch, raising the risk of "latching the opposite
//! value" (Section II-A). This module quantifies that trade-off on our
//! transistor-level testbench: sample threshold mismatch from a normal
//! distribution, run full activations, and report the fraction that sensed
//! correctly — for the classic SA and the OCSA.

use crate::events::{try_simulate, ActivationConfig};
use crate::montecarlo::pair_offset_v;
use hifi_circuit::topology::SaTopologyKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldConfig {
    /// Standard deviation of the latch threshold mismatch (mV). Pair
    /// mismatch is the difference of two device thresholds, so the sampled
    /// per-experiment offset uses `σ·√2`.
    pub sigma_mv: f64,
    /// Number of Monte-Carlo trials (each runs both stored values).
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Base testbench configuration.
    pub base: ActivationConfig,
}

impl YieldConfig {
    /// A config with the workspace-default testbench.
    pub fn new(sigma_mv: f64, trials: usize) -> Self {
        Self {
            sigma_mv,
            trials,
            seed: 0xD12A,
            base: ActivationConfig::default(),
        }
    }
}

/// Result of a yield run.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldReport {
    /// Topology simulated.
    pub topology: SaTopologyKind,
    /// Mismatch σ used (mV).
    pub sigma_mv: f64,
    /// Trials run.
    pub trials: usize,
    /// Fraction of trials in which **both** stored values sensed correctly.
    pub yield_fraction: f64,
}

/// Runs the Monte-Carlo yield experiment for one topology.
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn sensing_yield(topology: SaTopologyKind, config: &YieldConfig) -> YieldReport {
    assert!(config.trials > 0, "at least one trial required");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut good = 0usize;
    for _ in 0..config.trials {
        let offset_v = pair_offset_v(&mut rng, config.sigma_mv);
        let mut cfg = config.base.clone();
        cfg.nsa_vt_offset = offset_v;
        let ok = [false, true].iter().all(|&stored| {
            try_simulate(topology, &cfg, stored)
                .expect("testbench valid")
                .correct
        });
        if ok {
            good += 1;
        }
    }
    YieldReport {
        topology,
        sigma_mv: config.sigma_mv,
        trials: config.trials,
        yield_fraction: good as f64 / config.trials as f64,
    }
}

/// Sweeps mismatch σ and returns the yield curve for a topology.
pub fn yield_curve(
    topology: SaTopologyKind,
    sigmas_mv: &[f64],
    trials: usize,
    base: &ActivationConfig,
) -> Vec<YieldReport> {
    sigmas_mv
        .iter()
        .map(|&sigma_mv| {
            sensing_yield(
                topology,
                &YieldConfig {
                    sigma_mv,
                    trials,
                    seed: 0xD12A ^ (sigma_mv * 1000.0) as u64,
                    base: base.clone(),
                },
            )
        })
        .collect()
}

/// Analytic sensing-margin model (no transient): the charge-sharing signal
/// as a function of the cell/bitline capacitance ratio. More rows per MAT
/// means longer bitlines, higher `c_bl` and a weaker signal — the scaling
/// pressure that drove OCSA deployment.
pub fn signal_margin_mv(c_cell_ff: f64, c_bl_ff: f64, vdd: f64) -> f64 {
    hifi_units::charge_sharing_delta(
        hifi_units::Femtofarads(c_cell_ff),
        hifi_units::Volts(vdd),
        hifi_units::Femtofarads(c_bl_ff),
        hifi_units::Volts(vdd / 2.0),
    )
    .value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_mismatch_yields_one() {
        let cfg = YieldConfig::new(0.0, 3);
        for kind in [SaTopologyKind::Classic, SaTopologyKind::OffsetCancellation] {
            let r = sensing_yield(kind, &cfg);
            assert_eq!(r.yield_fraction, 1.0, "{kind}");
        }
    }

    #[test]
    fn ocsa_yield_dominates_classic_at_high_mismatch() {
        // Heavy mismatch (σ = 60 mV): the classic SA starts failing while
        // the OCSA cancels the offsets. Few trials keep the test fast; the
        // seed is fixed so the comparison is paired.
        let cfg = YieldConfig::new(60.0, 8);
        let classic = sensing_yield(SaTopologyKind::Classic, &cfg);
        let ocsa = sensing_yield(SaTopologyKind::OffsetCancellation, &cfg);
        assert!(
            ocsa.yield_fraction > classic.yield_fraction,
            "ocsa {} vs classic {}",
            ocsa.yield_fraction,
            classic.yield_fraction
        );
        assert!(classic.yield_fraction < 1.0, "classic must show failures");
    }

    #[test]
    fn signal_margin_shrinks_with_bitline_capacitance() {
        let short_bl = signal_margin_mv(18.0, 90.0, 1.1);
        let long_bl = signal_margin_mv(18.0, 360.0, 1.1);
        assert!(short_bl > long_bl);
        assert!(long_bl > 0.0);
        // Doubling rows (≈ doubling c_bl) roughly halves the signal.
        let halfish = signal_margin_mv(18.0, 180.0, 1.1);
        assert!((short_bl / halfish - 1.83).abs() < 0.2);
    }
}
