//! MNA waveform-oracle driver for CI.
//!
//! ```text
//! mna_oracle [--seed S] [--samples N] [--sigma-mv X] [--threads T]
//! ```
//!
//! Three seeded check families, printed as one JSON report on stdout with a
//! one-line summary on stderr (exit 1 on any failure):
//!
//! 1. **schedule** — both activation schedules (classic Fig. 2c, OCSA
//!    Fig. 9b) sense both stored values correctly on the MNA engine,
//! 2. **extract** — netlists extracted by the pristine imaging pipeline,
//!    with sense-amp roles inferred from connectivity alone, reproduce the
//!    same verdicts (the behavioural half of extraction fidelity),
//! 3. **montecarlo** — a reduced Vt-mismatch sweep stays solver-healthy
//!    (Newton far from the cap) and the OCSA never yields below the
//!    classic latch on the same noise draws. Each sweep's detail prints its
//!    accepted and rejected steps and Newton iterations.
//!
//! Every schedule, extract and montecarlo check also fails when its worst
//! KCL residual exceeds 1e-15 A, the bound the engine's own tests pin.
//!
//! The report is a pure function of `(--seed, --samples, --sigma-mv)`;
//! `--threads` changes wall time, never bytes.

use std::process::ExitCode;

use hifi_dram::analog::events::ActivationConfig;
use hifi_dram::analog::{run_sweep, McConfig};
use hifi_dram::circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig};

#[derive(serde::Serialize)]
struct Check {
    name: String,
    passed: bool,
    detail: String,
}

#[derive(serde::Serialize)]
struct OracleReport {
    seed: u64,
    samples: usize,
    sigma_mv: f64,
    passed: usize,
    failed: usize,
    checks: Vec<Check>,
}

fn main() -> ExitCode {
    let mut seed: u64 = 42;
    let mut samples: usize = 8;
    let mut sigma_mv: f64 = 45.0;
    let mut threads: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a u64"))
            }
            "--samples" => {
                samples = value("--samples")
                    .parse()
                    .unwrap_or_else(|_| die("--samples needs an unsigned integer"))
            }
            "--sigma-mv" => {
                sigma_mv = value("--sigma-mv")
                    .parse()
                    .unwrap_or_else(|_| die("--sigma-mv needs a number"))
            }
            "--threads" => {
                threads = Some(
                    value("--threads")
                        .parse()
                        .unwrap_or_else(|_| die("--threads needs an unsigned integer")),
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: mna_oracle [--seed S] [--samples N] [--sigma-mv X] [--threads T]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }

    let report = match threads {
        Some(t) => rayon::with_num_threads(t, || run_oracle(seed, samples, sigma_mv)),
        None => run_oracle(seed, samples, sigma_mv),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
    eprintln!(
        "mna_oracle: seed {seed}: {}/{} checks passed",
        report.passed,
        report.passed + report.failed
    );
    for check in report.checks.iter().filter(|c| !c.passed) {
        eprintln!("  FAIL {}: {}", check.name, check.detail);
    }
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Largest KCL residual (A) a check accepts.
const KCL_BOUND_AMPS: f64 = 1e-15;

/// Whether an activation sensed correctly with KCL intact, and its detail.
fn activation_check(r: &hifi_dram::analog::events::SenseReport) -> (bool, String) {
    let kcl = r.solve_stats.unwrap_or_default().worst_kcl_residual_amps;
    (r.correct && kcl <= KCL_BOUND_AMPS, verdict_detail(r))
}

fn run_oracle(seed: u64, samples: usize, sigma_mv: f64) -> OracleReport {
    let cfg = ActivationConfig::default();
    let topologies = [SaTopologyKind::Classic, SaTopologyKind::OffsetCancellation];
    let mut checks = Vec::new();

    // 1. The golden schedules on the schematic netlists.
    for kind in topologies {
        for stored in [false, true] {
            let (passed, detail) = match hifi_dram::analog::events::try_simulate(kind, &cfg, stored)
            {
                Ok(r) => activation_check(&r),
                Err(e) => (false, format!("simulation failed: {e}")),
            };
            checks.push(Check {
                name: format!("schedule.{kind}.stored{}", stored as u8),
                passed,
                detail,
            });
        }
    }

    // 2. The same verdicts through the full imaging pipeline: extraction →
    // role inference → MNA. A netlist can be graph-isomorphic to ground
    // truth and still sense wrong; this is the waveform-level oracle.
    for kind in topologies {
        match Pipeline::new(PipelineConfig::pristine(kind)).run() {
            Ok(pipeline) => {
                for stored in [false, true] {
                    let (passed, detail) = match pipeline.simulate_activation(&cfg, stored) {
                        Ok(r) => activation_check(&r),
                        Err(e) => (false, format!("simulation failed: {e}")),
                    };
                    checks.push(Check {
                        name: format!("extract.{kind}.stored{}", stored as u8),
                        passed,
                        detail,
                    });
                }
            }
            Err(e) => checks.push(Check {
                name: format!("extract.{kind}"),
                passed: false,
                detail: format!("pipeline failed: {e}"),
            }),
        }
    }

    // 3. Reduced Monte-Carlo sweep: solver health plus the Section V trend.
    let mut yields = Vec::new();
    for kind in topologies {
        let sweep = run_sweep(&McConfig {
            seed,
            ..McConfig::new(kind, sigma_mv, samples)
        });
        let solve = &sweep.solve;
        let healthy =
            solve.max_newton_iterations < 50 && solve.worst_kcl_residual_amps <= KCL_BOUND_AMPS;
        checks.push(Check {
            name: format!("montecarlo.{kind}"),
            passed: healthy,
            detail: format!(
                "yield {:.0}% over {samples} samples @ σ={sigma_mv} mV; {} steps, {} rejected, \
                 {} Newton iterations, worst Newton {} iters, worst KCL residual {:.2e} A",
                sweep.yield_fraction * 100.0,
                solve.steps,
                solve.rejected_steps,
                solve.newton_iterations,
                solve.max_newton_iterations,
                solve.worst_kcl_residual_amps
            ),
        });
        yields.push(sweep.yield_fraction);
    }
    checks.push(Check {
        name: "montecarlo.trend".to_owned(),
        passed: yields[1] >= yields[0],
        detail: format!(
            "classic yield {:.0}% vs OCSA {:.0}% on identical noise draws",
            yields[0] * 100.0,
            yields[1] * 100.0
        ),
    });

    let passed = checks.iter().filter(|c| c.passed).count();
    OracleReport {
        seed,
        samples,
        sigma_mv,
        passed,
        failed: checks.len() - passed,
        checks,
    }
}

fn verdict_detail(r: &hifi_dram::analog::events::SenseReport) -> String {
    let solve = r.solve_stats.unwrap_or_default();
    format!(
        "sensed {} ({} restored to {:.3} V); {} steps, {} rejected, worst KCL residual {:.2e} A",
        if r.sensed_one { "1" } else { "0" },
        r.topology,
        r.restored_level,
        solve.steps,
        solve.rejected_steps,
        solve.worst_kcl_residual_amps
    )
}

fn die(message: &str) -> ! {
    eprintln!("mna_oracle: {message}");
    std::process::exit(2)
}
