//! Command-issuing reverse-engineering campaign driver.
//!
//! ```text
//! rev_campaign [--runs N] [--seed S] [--threads T] [--no-imaging]
//! ```
//!
//! Runs a seeded black-box RE campaign over `hifi-dramsim` devices,
//! prints the deterministic JSON [`RevReport`](hifi_rev::RevReport) to
//! stdout and a one-line summary to stderr, and exits 1 if any device's
//! inference disagreed with ground truth or with the imaging route. The
//! report is a pure function of `(--runs, --seed, --no-imaging)` — thread
//! count changes wall time, never bytes. Only flags set the campaign; CI
//! matrices vary it through `--seed` and `--runs`.

use std::process::ExitCode;

use hifi_rev::{run_rev_campaign, RevCampaignConfig};

fn main() -> ExitCode {
    let mut cfg = RevCampaignConfig::default();
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
            "--no-imaging" => cfg.with_imaging = false,
            "--help" | "-h" => {
                eprintln!("usage: rev_campaign [--runs N] [--seed S] [--threads T] [--no-imaging]");
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }

    let report = match threads {
        Some(t) => rayon::with_num_threads(t, || run_rev_campaign(&cfg)),
        None => run_rev_campaign(&cfg),
    };
    println!("{}", report.to_json());
    eprintln!("{}", report.summary_line());
    for outcome in report.outcomes.iter().filter(|o| !o.passed) {
        for field in outcome.comparison.fields.iter().filter(|f| !f.agrees) {
            eprintln!(
                "  run {} (seed {:#x}) disagreed on {}: {}",
                outcome.run_index, outcome.seed, field.field, field.detail
            );
        }
    }
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn die(message: &str) -> ! {
    eprintln!("rev_campaign: {message}");
    std::process::exit(2)
}
