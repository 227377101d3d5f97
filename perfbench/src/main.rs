//! The repository benchmark: four seeded workloads over the HiFi-DRAM
//! crates, each reporting end-to-end metrics (untraced run) or per-layer
//! metrics (traced run), with every output checked against ground truth.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <imaged_chip|mna_sweep|serve_mix|die_stream> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print the same
//! metrics by name with their units, plus the values only some workloads
//! have. See `perfbench/README.md` for the workloads, their ops and the
//! map from per-layer to end-to-end metrics.

mod die_stream;
mod imaged_chip;
mod mna_sweep;
mod report;
mod serve_mix;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Contract, Extra, Outcome};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Run parameters shared by every workload.
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed (or traced) phase.
    pub seconds: f64,
    /// Worker threads for the parallel layers (`nproc`).
    pub threads: usize,
    /// Scratch directory inside the checkout, removed at exit.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Derives an independent 64-bit stream value from the workload seed.
    pub fn derive(&self, stream: u64, index: u64) -> u64 {
        mix(self.seed ^ mix(stream).wrapping_add(mix(index)))
    }

    /// Whether the timed phase that started at `start` is over.
    pub fn expired(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// SplitMix64 finaliser.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Wall-clock laps: each [`Laps::lap`] records the milliseconds since
/// the previous lap (or the start).
pub struct Laps {
    last: Instant,
    pub ms: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Self {
            last: Instant::now(),
            ms: Vec::new(),
        }
    }

    /// Records a lap and returns its length in milliseconds.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let ms = (now - self.last).as_secs_f64() * 1e3;
        self.ms.push(ms);
        self.last = now;
        ms
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last state with
/// the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous state first so set-ups do not overlap.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), stats::median(&times)))
}

/// Latency and memory of the ops of one timed phase.
#[derive(Default)]
pub struct OpLog {
    /// One latency per op, ms.
    pub latency_ms: Vec<f64>,
    /// One high-water RSS per timed call, MiB.
    pub rss_mib: Vec<f64>,
}

impl OpLog {
    /// Times `f`, a call that completes `ops` ops together, and records
    /// the process high-water RSS during the call: the mark is reset when
    /// the call starts.
    pub fn time<T>(&mut self, ops: usize, f: impl FnOnce() -> T) -> T {
        reset_peak_rss();
        let t0 = Instant::now();
        let value = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.latency_ms.extend(std::iter::repeat_n(ms, ops));
        self.rss_mib.extend(peak_rss_mib());
        value
    }
}

/// Records the end-to-end metrics every workload shares, from the
/// set-up time, the timed phase's ops and its length.
pub fn record_end_to_end(out: &mut Outcome, setup_s: f64, log: &OpLog, timed_s: f64) {
    let latencies_ms = &log.latency_ms;
    let ops = latencies_ms.len();
    out.metrics.set("setup_s", setup_s);
    out.metrics.set("ops_per_s", ops as f64 / timed_s.max(1e-9));
    out.metrics.set("op_p50_ms", stats::median(latencies_ms));
    if log.rss_mib.is_empty() {
        out.fail("cannot read the process high-water RSS");
    } else {
        out.metrics.set("peak_rss_mib", stats::median(&log.rss_mib));
    }
    match stats::tail(latencies_ms) {
        Some(t) => out.extra(Extra::new("op_tail_ms", t.value, "ms").with_note(format!(
            "p{} of {ops} ops, {} beyond",
            t.percentile, t.beyond
        ))),
        None => out.extra(Extra::new("op_tail_ms", 0.0, "ms").with_note(format!(
            "not defined: {ops} ops, {} needed",
            2 * stats::TAIL_MIN_BEYOND
        ))),
    }
}

/// High-water resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the high-water RSS mark to the current RSS (Linux ≥ 4.0). If
/// the kernel refuses, the mark stays process-wide, an upper bound.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Per-layer metric names each workload records in its traced run.
pub fn layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "imaged_chip" => imaged_chip::LAYERS,
        "mna_sweep" => mna_sweep::LAYERS,
        "serve_mix" => serve_mix::LAYERS,
        "die_stream" => die_stream::LAYERS,
        _ => &[],
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let contract = Contract::load()?;
    if !contract.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload {} (expected one of {:?})",
            args.workload, contract.workloads
        ));
    }
    // The benchmark pins the store off (serve_mix opens its own) and the
    // thread count to the machine's cores, whatever the environment says.
    std::env::remove_var("HIFI_STORE");
    std::env::remove_var("HIFI_TRACE");
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    rayon::set_num_threads(threads);
    let work_dir = PathBuf::from(".bench_build").join(format!(
        "perfbench-{}-{}",
        args.workload,
        std::process::id()
    ));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        work_dir,
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} threads {}",
        args.workload, ctx.seed, ctx.seconds, args.trace as u8, threads
    );
    let outcome = match (args.workload.as_str(), args.trace) {
        ("imaged_chip", false) => imaged_chip::run(&ctx),
        ("imaged_chip", true) => imaged_chip::trace(&ctx),
        ("mna_sweep", false) => mna_sweep::run(&ctx),
        ("mna_sweep", true) => mna_sweep::trace(&ctx),
        ("serve_mix", false) => serve_mix::run(&ctx),
        ("serve_mix", true) => serve_mix::trace(&ctx),
        ("die_stream", false) => die_stream::run(&ctx),
        ("die_stream", true) => die_stream::trace(&ctx),
        (other, _) => Err(format!("workload {other} is not implemented")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let mut outcome = outcome?;
    if outcome.attempted == 0 {
        return Err("no op was attempted".into());
    }
    outcome.extra(Extra::new(
        "failed_frac",
        outcome.failed as f64 / outcome.attempted as f64,
        "ratio",
    ));
    report::render(&contract, &outcome, args.trace)
}

fn main() -> ExitCode {
    match run() {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
