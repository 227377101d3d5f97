//! Conformance campaign driver.
//!
//! ```text
//! conformance [--runs N] [--seed S] [--threads T] [--store PATH] [--no-shrink]
//! ```
//!
//! Runs a seeded campaign, prints the deterministic JSON
//! [`ConformanceReport`](hifi_conformance::ConformanceReport) to stdout and
//! a one-line summary to stderr, and exits 1 if any oracle failed. The
//! report is a pure function of `(--runs, --seed)` — thread count changes
//! wall time, never bytes. Store and fault counters are per run, never
//! process-wide, and the campaign keeps no run reports: with
//! `HIFI_TRACE=<path>` set, `hifi-trace summarize <path>.profile.json`
//! prints the store totals of the campaign's instrumented runs.

use std::path::PathBuf;
use std::process::ExitCode;

use hifi_conformance::{run_campaign, CampaignConfig};

fn main() -> ExitCode {
    let mut cfg = CampaignConfig::default();
    let mut threads: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--runs" => {
                cfg.runs = value("--runs")
                    .parse()
                    .unwrap_or_else(|_| die("--runs needs an unsigned integer"))
            }
            "--seed" => {
                cfg.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a u64"))
            }
            "--threads" => {
                threads = Some(
                    value("--threads")
                        .parse()
                        .unwrap_or_else(|_| die("--threads needs an unsigned integer")),
                )
            }
            "--store" => cfg.store = Some(PathBuf::from(value("--store"))),
            "--no-shrink" => cfg.shrink_failures = false,
            "--help" | "-h" => {
                eprintln!(
                    "usage: conformance [--runs N] [--seed S] [--threads T] \
                     [--store PATH] [--no-shrink]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }

    let report = match threads {
        Some(t) => rayon::with_num_threads(t, || run_campaign(&cfg)),
        None => run_campaign(&cfg),
    };
    println!("{}", report.to_json());
    eprintln!("{}", report.summary_line());
    for failure in &report.failures {
        eprintln!(
            "  run {} (seed {:#x}) failed [{}]: {} — shrunk to: {}",
            failure.run_index,
            failure.seed,
            failure.failed_oracles.join(", "),
            failure.detail,
            failure.shrunk_spec,
        );
    }
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn die(message: &str) -> ! {
    eprintln!("conformance: {message}");
    std::process::exit(2)
}
