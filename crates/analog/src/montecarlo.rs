//! Seeded Monte-Carlo offset-tolerance sweeps on the MNA engine.
//!
//! The paper's §VI sensitivity analysis asks how much latch mismatch each SA
//! family survives. This module answers it statistically: sample per-device
//! threshold offsets from `N(0, σ·√2)` (pair mismatch is the difference of
//! two `N(0, σ)` thresholds), run an MNA activation per sample and stored
//! value, and fold the verdicts into an [`McReport`]. Each activation stops
//! at the read time, the end of restore: the verdict and the split time are
//! settled there, and the final precharge after it is a quarter of a
//! classic activation's steps.
//!
//! Determinism is a hard contract, shared with the conformance campaigns:
//! sample `i` derives its RNG seed from the sweep seed via SplitMix64
//! finalisation, the fan-out uses the vendored `rayon`'s order-preserving
//! `par_map`, and every aggregate is folded sequentially from the ordered
//! sample list — so a report is a pure function of its [`McConfig`],
//! bit-identical at any thread count.

use crate::events::{simulate_to_read, ActivationConfig};
use crate::mna::SolveStats;
use hifi_circuit::topology::SaTopologyKind;
use hifi_telemetry::{names, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Monte-Carlo sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Sweep seed; sample `i` uses `sample_seed(seed, i)`.
    pub seed: u64,
    /// Number of mismatch samples (each runs both stored values).
    pub samples: usize,
    /// Standard deviation of a single device's threshold mismatch (mV).
    pub sigma_mv: f64,
    /// Topology under test.
    pub topology: SaTopologyKind,
    /// Base testbench configuration.
    pub base: ActivationConfig,
}

impl McConfig {
    /// A sweep over the workspace-default testbench.
    pub fn new(topology: SaTopologyKind, sigma_mv: f64, samples: usize) -> Self {
        Self {
            seed: 0x0F_F5E7,
            samples,
            sigma_mv,
            topology,
            base: ActivationConfig::default(),
        }
    }
}

/// Derives sample `index`'s RNG seed from the sweep seed (SplitMix64
/// finalisation, so neighbouring indices land far apart in seed space).
pub fn sample_seed(sweep_seed: u64, index: u64) -> u64 {
    mix(sweep_seed.wrapping_add(mix(index
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(1))))
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Draws a latch pair-mismatch offset (V): the difference of two `N(0, σ)`
/// device thresholds, i.e. `N(0, σ·√2)`, by Box–Muller.
fn pair_offset_v(rng: &mut StdRng, sigma_mv: f64) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let gaussian = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    gaussian * sigma_mv * 1e-3 * std::f64::consts::SQRT_2
}

/// One Monte-Carlo sample's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct McSample {
    /// Sample index within the sweep.
    pub index: usize,
    /// Derived RNG seed (reproduces the sample in isolation).
    pub seed: u64,
    /// Sampled pair-mismatch offset (mV, signed).
    pub offset_mv: f64,
    /// Whether both stored values sensed correctly.
    pub correct: bool,
    /// Solver work summed over both activations (worst-case fields maxed).
    /// Each activation ends at the read time, so this counts no step of
    /// the final precharge.
    pub solve: SolveStats,
    /// Latch split time of the stored-1 activation (ps), when it split.
    pub split_ps: Option<f64>,
}

/// Aggregate of one Monte-Carlo sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct McReport {
    /// Topology swept.
    pub topology: SaTopologyKind,
    /// Mismatch σ used (mV).
    pub sigma_mv: f64,
    /// Sweep seed.
    pub seed: u64,
    /// Per-sample outcomes, in sample order.
    pub samples: Vec<McSample>,
    /// Samples in which at least one stored value mis-sensed.
    pub failures: usize,
    /// Fraction of samples in which both stored values sensed correctly.
    pub yield_fraction: f64,
    /// Smallest |offset| (mV) among failing samples, if any — the sweep's
    /// empirical tolerance edge.
    pub smallest_failing_offset_mv: Option<f64>,
    /// Solver work summed over every activation (worst-case fields maxed).
    /// Each activation ends at the read time, so this counts no step of
    /// the final precharge.
    pub solve: SolveStats,
}

impl McReport {
    /// Records the sweep into a telemetry [`Recorder`]: sample, failure and
    /// accepted/rejected step counters, the yield gauge, and per-sample
    /// histograms of Newton iteration counts and latch split times.
    pub fn record_to<R: Recorder + ?Sized>(&self, rec: &mut R) {
        rec.counter(names::MNA_SAMPLES, self.samples.len() as u64);
        rec.counter(names::MNA_FAILURES, self.failures as u64);
        rec.counter(names::MNA_STEPS, self.solve.steps as u64);
        rec.counter(names::MNA_REJECTED_STEPS, self.solve.rejected_steps as u64);
        rec.gauge(names::MNA_YIELD_PCT, self.yield_fraction * 100.0);
        for s in &self.samples {
            rec.histogram(
                names::HIST_MNA_NEWTON_ITERS,
                s.solve.max_newton_iterations as u64,
            );
            if let Some(ps) = s.split_ps {
                rec.histogram(names::HIST_MNA_SPLIT_PS, ps.round().max(0.0) as u64);
            }
        }
    }
}

/// Adds `run`'s step and Newton counts into `total` and maxes the
/// worst-case fields.
fn accumulate(total: &mut SolveStats, run: &SolveStats) {
    total.steps += run.steps;
    total.rejected_steps += run.rejected_steps;
    total.newton_iterations += run.newton_iterations;
    total.max_newton_iterations = total.max_newton_iterations.max(run.max_newton_iterations);
    total.worst_kcl_residual_amps = total
        .worst_kcl_residual_amps
        .max(run.worst_kcl_residual_amps);
}

fn run_sample(cfg: &McConfig, index: usize) -> McSample {
    let seed = sample_seed(cfg.seed, index as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let offset_v = pair_offset_v(&mut rng, cfg.sigma_mv);
    let mut activation = cfg.base.clone();
    activation.nsa_vt_offset = offset_v;

    let mut correct = true;
    let mut solve = SolveStats::default();
    let mut split_ps = None;
    for stored in [false, true] {
        let rep = simulate_to_read(cfg.topology, &activation, stored).expect("valid MC testbench");
        correct &= rep.correct;
        accumulate(&mut solve, &rep.solve_stats.unwrap_or_default());
        if stored {
            split_ps = rep.latch_split_time.map(|t| t * 1e12);
        }
    }
    McSample {
        index,
        seed,
        offset_mv: offset_v * 1e3,
        correct,
        solve,
        split_ps,
    }
}

/// Runs a Monte-Carlo offset-tolerance sweep.
///
/// The fan-out is thread-count invariant: run it under
/// `rayon::with_num_threads(n, ..)` for any `n` and the report is
/// bit-identical.
///
/// # Panics
///
/// Panics if `config.samples` is zero.
pub fn run_sweep(config: &McConfig) -> McReport {
    assert!(config.samples > 0, "at least one sample required");
    let indices: Vec<usize> = (0..config.samples).collect();
    let samples = rayon::par_map(&indices, |&i| run_sample(config, i));

    // Sequential fold over the ordered samples keeps aggregates exact.
    let mut failures = 0usize;
    let mut smallest_failing: Option<f64> = None;
    let mut solve = SolveStats::default();
    for s in &samples {
        if !s.correct {
            failures += 1;
            let mag = s.offset_mv.abs();
            smallest_failing = Some(match smallest_failing {
                Some(cur) if cur <= mag => cur,
                _ => mag,
            });
        }
        accumulate(&mut solve, &s.solve);
    }
    let yield_fraction = (config.samples - failures) as f64 / config.samples as f64;
    McReport {
        topology: config.topology,
        sigma_mv: config.sigma_mv,
        seed: config.seed,
        samples,
        failures,
        yield_fraction,
        smallest_failing_offset_mv: smallest_failing,
        solve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_telemetry::JsonRecorder;

    fn small_cfg(topology: SaTopologyKind, sigma_mv: f64) -> McConfig {
        McConfig {
            samples: 4,
            ..McConfig::new(topology, sigma_mv, 4)
        }
    }

    #[test]
    fn zero_mismatch_sweep_is_clean() {
        let rep = run_sweep(&small_cfg(SaTopologyKind::Classic, 0.0));
        assert_eq!(rep.failures, 0);
        assert_eq!(rep.yield_fraction, 1.0);
        assert_eq!(rep.smallest_failing_offset_mv, None);
        assert!(rep.solve.max_newton_iterations >= 1);
    }

    #[test]
    fn sample_seeds_are_spread_and_reproducible() {
        let a = sample_seed(7, 0);
        let b = sample_seed(7, 1);
        assert_ne!(a, b);
        assert_eq!(a, sample_seed(7, 0));
        // Different sweep seeds decorrelate the same index.
        assert_ne!(a, sample_seed(8, 0));
    }

    #[test]
    fn heavy_mismatch_fails_the_classic_latch() {
        let rep = run_sweep(&McConfig::new(SaTopologyKind::Classic, 90.0, 6));
        assert!(rep.failures > 0, "σ=90 mV must defeat some classic samples");
        let edge = rep.smallest_failing_offset_mv.expect("edge exists");
        assert!(edge > 0.0);
        // Every failing sample carries at least the edge magnitude.
        for s in rep.samples.iter().filter(|s| !s.correct) {
            assert!(s.offset_mv.abs() + 1e-12 >= edge);
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let cfg = small_cfg(SaTopologyKind::Classic, 40.0);
        let one = rayon::with_num_threads(1, || run_sweep(&cfg));
        let four = rayon::with_num_threads(4, || run_sweep(&cfg));
        assert_eq!(one, four);
    }

    #[test]
    fn report_solve_stats_total_every_activation() {
        let cfg = small_cfg(SaTopologyKind::Classic, 40.0);
        let rep = run_sweep(&cfg);
        // Step counts vary with the sample, so the report's totals must be
        // the sums of the samples', each of which covers two activations.
        assert!(rep.samples.iter().all(|s| s.solve.steps > 0));
        let total = |field: fn(&SolveStats) -> usize| -> usize {
            rep.samples.iter().map(|s| field(&s.solve)).sum()
        };
        assert_eq!(rep.solve.steps, total(|s| s.steps));
        assert_eq!(rep.solve.rejected_steps, total(|s| s.rejected_steps));
        assert_eq!(rep.solve.newton_iterations, total(|s| s.newton_iterations));
        assert!(rep.solve.newton_iterations >= rep.solve.steps);
    }

    #[test]
    fn step_counters_equal_the_report_totals() {
        let rep = run_sweep(&small_cfg(SaTopologyKind::OffsetCancellation, 40.0));
        assert!(rep.solve.rejected_steps > 0, "{:?}", rep.solve);
        let mut rec = JsonRecorder::new();
        rep.record_to(&mut rec);
        assert_eq!(rec.counter_total(names::MNA_STEPS), rep.solve.steps as u64);
        assert_eq!(
            rec.counter_total(names::MNA_REJECTED_STEPS),
            rep.solve.rejected_steps as u64
        );
    }

    #[test]
    fn report_records_counters_and_histograms() {
        let rep = run_sweep(&small_cfg(SaTopologyKind::Classic, 0.0));
        let mut rec = JsonRecorder::new();
        rep.record_to(&mut rec);
        assert_eq!(rec.counter_total(names::MNA_SAMPLES), 4);
        assert_eq!(rec.counter_total(names::MNA_FAILURES), 0);
        let json = rec.to_json();
        assert!(json.contains(names::HIST_MNA_NEWTON_ITERS), "{json}");
    }
}
