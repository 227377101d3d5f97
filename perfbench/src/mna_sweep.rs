//! `mna_sweep`: seeded Monte-Carlo Vt-mismatch sweeps on the MNA transient
//! engine (§VI), for the classic SA and the offset-cancellation SA.
//!
//! Each batch is one `run_sweep` call of one sample per thread at
//! σ = 45 mV; a round is two classic batches then one OCSA batch, which
//! splits the time about evenly between the topologies (an OCSA sample
//! costs about twice a classic one) and keeps the median op inside one
//! topology's latency cluster. One op is one sample: two activations
//! (stored 0 and stored 1). The ops of a batch run concurrently, so each
//! op's latency is its batch's wall time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hifi_analog::events::{try_simulate, ActivationConfig};
use hifi_analog::montecarlo::{run_sweep, McConfig};
use hifi_circuit::topology::SaTopologyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Extra, Outcome};
use crate::{record_end_to_end, repeated_setup, stats, Ctx, OpLog};

pub const LAYERS: &[&str] = &[
    "analog.classic.activation_ms",
    "analog.classic.steps",
    "analog.classic.newton_iters",
    "analog.classic.us_per_newton_iter",
    "analog.ocsa.activation_ms",
    "analog.ocsa.steps",
    "analog.ocsa.newton_iters",
    "analog.ocsa.us_per_newton_iter",
    "analog.sim_errors",
];

const SIGMA_MV: f64 = 45.0;

const TOPOLOGIES: [(SaTopologyKind, &str); 2] = [
    (SaTopologyKind::Classic, "classic"),
    (SaTopologyKind::OffsetCancellation, "ocsa"),
];

/// Index into [`TOPOLOGIES`] of batch `batch`: two classic, one OCSA.
fn topology_of(batch: u64) -> usize {
    usize::from(batch % 3 == 2)
}

/// `sensing_yield_pct` is taken over this many leading batches, so it is a
/// fixed statistic of the seed, whatever the machine's speed.
const YIELD_BATCHES: u64 = 24;

/// Zero-offset control activations, run on all threads: each topology
/// must sense both stored values. Doubles as the warm-up.
fn controls(out: &mut Outcome) {
    let cfg = ActivationConfig::default();
    let cases: Vec<(usize, bool)> = (0..TOPOLOGIES.len())
        .flat_map(|t| [(t, false), (t, true)])
        .collect();
    let results = rayon::par_map(&cases, |&(t, stored)| {
        try_simulate(TOPOLOGIES[t].0, &cfg, stored)
    });
    for (&(t, stored), result) in cases.iter().zip(results) {
        let name = TOPOLOGIES[t].1;
        match result {
            Ok(rep) if rep.correct => {}
            Ok(rep) => out.fail(format!(
                "{name} control stored {stored} sensed {}",
                rep.sensed_one
            )),
            Err(e) => out.fail(format!("{name} control stored {stored}: {e}")),
        }
    }
}

/// End-to-end run: `run_sweep` batches for the timed phase.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((), setup_s) = repeated_setup(|| {
        controls(&mut out);
        Ok(())
    })?;
    let mut log = OpLog::default();
    let (mut yield_ok, mut yield_n) = (0usize, 0usize);
    let start = Instant::now();
    let mut batch = 0u64;
    while batch < YIELD_BATCHES || !ctx.expired(start) {
        let (topology, name) = TOPOLOGIES[topology_of(batch)];
        let cfg = McConfig {
            seed: ctx.derive(1, batch),
            ..McConfig::new(topology, SIGMA_MV, ctx.threads)
        };
        out.attempted += ctx.threads as u64;
        let report = log.time(ctx.threads, || {
            catch_unwind(AssertUnwindSafe(|| run_sweep(&cfg)))
        });
        match report {
            Ok(report) => {
                if batch < YIELD_BATCHES {
                    yield_n += report.samples.len();
                    yield_ok += report.samples.len() - report.failures;
                }
            }
            Err(_) => {
                for _ in 0..ctx.threads {
                    out.fail(format!(
                        "{name} batch {batch}: the MNA engine raised an error"
                    ));
                }
            }
        }
        batch += 1;
    }
    let timed_s = start.elapsed().as_secs_f64();
    record_end_to_end(&mut out, setup_s, &log, timed_s);
    out.extra(
        Extra::new(
            "sensing_yield_pct",
            100.0 * yield_ok as f64 / yield_n.max(1) as f64,
            "%",
        )
        .with_note(format!("first {yield_n} samples")),
    );
    Ok(out)
}

/// One traced activation.
struct Activation {
    ms: f64,
    steps: usize,
    newton_iters: usize,
}

/// The threshold offset of sample `index`, drawn like `run_sweep` draws it:
/// the pair mismatch of two `N(0, σ)` thresholds.
fn sample_offset_v(ctx: &Ctx, index: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(ctx.derive(2, index));
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let gaussian = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    gaussian * SIGMA_MV * 1e-3 * std::f64::consts::SQRT_2
}

/// Traced run: the same sweep work, one `try_simulate` call per
/// activation, timed individually with its solver statistics.
pub fn trace(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    controls(&mut out);
    let mut per_topology: [Vec<Activation>; 2] = [Vec::new(), Vec::new()];
    let mut sim_errors = 0u64;
    let start = Instant::now();
    let mut batch = 0u64;
    while batch < 3 || !ctx.expired(start) {
        let t = topology_of(batch);
        let (kind, name) = TOPOLOGIES[t];
        let samples: Vec<u64> = (0..ctx.threads as u64)
            .map(|i| batch * ctx.threads as u64 + i)
            .collect();
        out.attempted += samples.len() as u64;
        let results = rayon::par_map(&samples, |&index| {
            let cfg = ActivationConfig {
                nsa_vt_offset: sample_offset_v(ctx, index),
                ..ActivationConfig::default()
            };
            [false, true].map(|stored| {
                let t0 = Instant::now();
                try_simulate(kind, &cfg, stored).map(|rep| {
                    let stats = rep.solve_stats.unwrap_or_default();
                    Activation {
                        ms: t0.elapsed().as_secs_f64() * 1e3,
                        steps: stats.steps,
                        newton_iters: stats.newton_iterations,
                    }
                })
            })
        });
        for (index, activations) in samples.iter().zip(results) {
            let mut failed = false;
            for a in activations {
                match a {
                    Ok(a) => per_topology[t].push(a),
                    Err(e) => {
                        sim_errors += 1;
                        if !failed {
                            out.fail(format!("{name} sample {index}: {e}"));
                        }
                        failed = true;
                    }
                }
            }
        }
        batch += 1;
    }
    for ((_, name), acts) in TOPOLOGIES.iter().zip(&per_topology) {
        let median =
            |f: &dyn Fn(&Activation) -> f64| stats::median(&acts.iter().map(f).collect::<Vec<_>>());
        out.metrics
            .set(&format!("analog.{name}.activation_ms"), median(&|a| a.ms));
        out.metrics
            .set(&format!("analog.{name}.steps"), median(&|a| a.steps as f64));
        out.metrics.set(
            &format!("analog.{name}.newton_iters"),
            median(&|a| a.newton_iters as f64),
        );
        out.metrics.set(
            &format!("analog.{name}.us_per_newton_iter"),
            median(&|a| a.ms * 1e3 / a.newton_iters.max(1) as f64),
        );
    }
    out.metrics.set("analog.sim_errors", sim_errors as f64);
    Ok(out)
}
