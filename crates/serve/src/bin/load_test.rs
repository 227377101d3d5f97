//! `load_test` — hammers a job server with conformance-style random specs.
//!
//! ```text
//! load_test [--jobs N] [--distinct D] [--clients N] [--seed N]
//!           [--workers N] [--capacity N] [--faulted [--fault-rate R]]
//!           [--imaged] [--connect HOST:PORT]
//! ```
//!
//! By default an in-process server is started on an ephemeral port with a
//! throw-away store; `--connect` targets an already-running daemon
//! instead. `N` jobs drawn from `D` distinct specs are submitted from
//! concurrent clients (duplicates are the point: they must dedup), every
//! `429` is retried after backing off, and the run then asserts:
//!
//! - zero lost jobs — every submission was eventually admitted and every
//!   admitted job reached a terminal state;
//! - zero failed jobs — under a recoverable fault plan too;
//! - deterministic results — all duplicates of a spec report the same
//!   digest regardless of which worker ran them (or whether they were
//!   aliased onto an in-flight run or re-ran warm);
//! - observable dedup — the dedup-hit counter or the shared store's hit
//!   counter moved.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hifi_conformance::run_seed;
use hifi_faults::FaultSpec;
use hifi_serve::{client, JobRequest, ServeConfig};
use serde::Value;

struct Args {
    jobs: usize,
    distinct: usize,
    clients: usize,
    seed: u64,
    workers: usize,
    capacity: usize,
    faulted: bool,
    fault_rate: f64,
    imaged: bool,
    connect: Option<SocketAddr>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            jobs: 1000,
            distinct: 64,
            clients: 8,
            seed: 42,
            workers: 4,
            capacity: 64,
            faulted: false,
            fault_rate: 0.25,
            imaged: false,
            connect: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: load_test [--jobs N] [--distinct D] [--clients N] [--seed N]\n\
         \x20                [--workers N] [--capacity N] [--faulted [--fault-rate R]]\n\
         \x20                [--imaged] [--connect HOST:PORT]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--jobs" => parsed.jobs = value("--jobs").parse().unwrap_or_else(|_| usage()),
            "--distinct" => {
                parsed.distinct = value("--distinct").parse().unwrap_or_else(|_| usage());
            }
            "--clients" => parsed.clients = value("--clients").parse().unwrap_or_else(|_| usage()),
            "--seed" => parsed.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--workers" => parsed.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--capacity" => {
                parsed.capacity = value("--capacity").parse().unwrap_or_else(|_| usage());
            }
            "--fault-rate" => {
                parsed.fault_rate = value("--fault-rate").parse().unwrap_or_else(|_| usage());
            }
            "--faulted" => parsed.faulted = true,
            "--imaged" => parsed.imaged = true,
            "--connect" => {
                parsed.connect = Some(value("--connect").parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    parsed.jobs = parsed.jobs.max(1);
    parsed.distinct = parsed.distinct.clamp(1, parsed.jobs);
    parsed.clients = parsed.clients.max(1);
    parsed
}

fn uint_field(value: &Value, name: &str) -> u64 {
    match value.field(name).unwrap_or(&Value::Null) {
        Value::UInt(v) => *v,
        Value::Int(v) if *v >= 0 => *v as u64,
        _ => 0,
    }
}

/// Submits one job, retrying `429` responses after backing off. Returns
/// the admitted job id.
fn submit_with_backoff(addr: SocketAddr, request: &JobRequest) -> Result<u64, String> {
    let body = request.to_json();
    let mut attempt = 0u32;
    loop {
        let resp = client::post(addr, "/jobs", &body).map_err(|e| format!("submit failed: {e}"))?;
        match resp.status {
            202 => {
                let value = resp.json()?;
                return Ok(uint_field(&value, "id"));
            }
            429 => {
                // Honor the advertised window, but probe well within it:
                // the queue drains continuously, and the load test's goal
                // is to observe backpressure, not to idle through it.
                let advertised_secs = resp
                    .header("Retry-After")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(1);
                let backoff = Duration::from_millis(10 + 10 * u64::from(attempt.min(20)));
                std::thread::sleep(backoff.min(Duration::from_secs(advertised_secs)));
                attempt += 1;
            }
            other => return Err(format!("unexpected status {other}: {}", resp.body)),
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let spec_seeds: Vec<u64> = (0..args.distinct)
        .map(|i| run_seed(args.seed, i as u64))
        .collect();

    // In-process server on an ephemeral port unless --connect was given.
    let mut store_root = None;
    let server = if args.connect.is_none() {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let root =
            std::env::temp_dir().join(format!("hifi-serve-load-{}-{nanos}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = ServeConfig::new(&root)
            .with_workers(args.workers)
            .with_capacity(args.capacity);
        if args.faulted {
            cfg = cfg.with_faults(FaultSpec::uniform(args.seed ^ 0x5eed, args.fault_rate));
        }
        store_root = Some(root);
        match hifi_serve::start(cfg) {
            Ok(server) => Some(server),
            Err(msg) => {
                eprintln!("load_test: {msg}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = args
        .connect
        .unwrap_or_else(|| server.as_ref().expect("in-process server").addr());

    eprintln!(
        "load_test: {} jobs over {} distinct specs, {} clients -> http://{addr}{}",
        args.jobs,
        args.distinct,
        args.clients,
        if args.faulted { " (faulted)" } else { "" },
    );

    // Phase 1: concurrent submission. Each client thread owns a strided
    // slice of the job indices; results land in a shared vector.
    let started = Instant::now();
    let admitted: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::with_capacity(args.jobs));
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client_idx in 0..args.clients {
            let admitted = &admitted;
            let errors = &errors;
            let spec_seeds = &spec_seeds;
            let args = &args;
            scope.spawn(move || {
                for job_idx in (client_idx..args.jobs).step_by(args.clients) {
                    let spec_idx = job_idx % args.distinct;
                    let request = JobRequest {
                        spec_seed: spec_seeds[spec_idx],
                        priority: (job_idx % 10) as u8,
                        pristine: !args.imaged,
                    };
                    match submit_with_backoff(addr, &request) {
                        Ok(id) => admitted.lock().unwrap().push((spec_idx, id)),
                        Err(msg) => errors.lock().unwrap().push(msg),
                    }
                }
            });
        }
    });
    let admitted = admitted.into_inner().unwrap();
    let submit_errors = errors.into_inner().unwrap();
    if !submit_errors.is_empty() {
        for msg in submit_errors.iter().take(5) {
            eprintln!("load_test: {msg}");
        }
        eprintln!("load_test: {} submissions lost", submit_errors.len());
        return ExitCode::FAILURE;
    }

    // Zero lost jobs, part 1: every submission admitted, ids unique.
    let unique_ids: HashSet<u64> = admitted.iter().map(|&(_, id)| id).collect();
    if admitted.len() != args.jobs || unique_ids.len() != args.jobs {
        eprintln!(
            "load_test: admitted {} jobs with {} unique ids, wanted {}",
            admitted.len(),
            unique_ids.len(),
            args.jobs
        );
        return ExitCode::FAILURE;
    }

    // Phase 2: poll every job to a terminal state.
    let mut digests: HashMap<usize, HashSet<String>> = HashMap::new();
    let mut failed = Vec::new();
    for &(spec_idx, id) in &admitted {
        loop {
            let resp = match client::get(addr, &format!("/jobs/{id}")) {
                Ok(resp) => resp,
                Err(e) => {
                    eprintln!("load_test: polling job {id}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let value = match resp.json() {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("load_test: job {id}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let status = match value.field("status").unwrap_or(&Value::Null) {
                Value::Str(s) => s.clone(),
                _ => String::new(),
            };
            match status.as_str() {
                "done" => {
                    let digest = match value.field("digest").unwrap_or(&Value::Null) {
                        Value::Str(s) => s.clone(),
                        _ => String::new(),
                    };
                    digests.entry(spec_idx).or_default().insert(digest);
                    break;
                }
                "failed" => {
                    failed.push((id, resp.body.clone()));
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
    let elapsed = started.elapsed();

    if !failed.is_empty() {
        for (id, body) in failed.iter().take(5) {
            eprintln!("load_test: job {id} failed: {body}");
        }
        eprintln!("load_test: {} jobs failed", failed.len());
        return ExitCode::FAILURE;
    }

    // Determinism: every duplicate of a spec produced the same digest.
    let mut nondeterministic = 0;
    for (spec_idx, set) in &digests {
        if set.len() != 1 || set.iter().any(String::is_empty) {
            eprintln!(
                "load_test: spec {spec_idx} produced {} distinct digests: {set:?}",
                set.len()
            );
            nondeterministic += 1;
        }
    }
    if nondeterministic > 0 {
        return ExitCode::FAILURE;
    }

    // Observable dedup + latency summary from the server.
    let stats = match client::get(addr, "/stats").and_then(|r| {
        r.json()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("load_test: /stats: {e}");
            return ExitCode::FAILURE;
        }
    };
    let jobs_stats = stats.field("jobs").unwrap_or(&Value::Null).clone();
    let store_stats = stats.field("store").unwrap_or(&Value::Null).clone();
    let dedup_hits = uint_field(&jobs_stats, "dedup_hits");
    let rejected = uint_field(&jobs_stats, "rejected");
    let store_hits = uint_field(&store_stats, "hits");
    let wait = stats.field("queue_wait_us").unwrap_or(&Value::Null).clone();
    let p99_wait_us = uint_field(&wait, "p99");

    if args.jobs > args.distinct && dedup_hits == 0 && store_hits == 0 {
        eprintln!(
            "load_test: {} duplicate submissions left no dedup trace (dedup_hits=0, store hits=0)",
            args.jobs - args.distinct
        );
        return ExitCode::FAILURE;
    }

    let jobs_per_sec = args.jobs as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "load_test: {} jobs in {:.2}s = {:.1} jobs/s (p99 queue wait {:.1} ms)",
        args.jobs,
        elapsed.as_secs_f64(),
        jobs_per_sec,
        p99_wait_us as f64 / 1000.0
    );
    println!(
        "load_test: dedup_hits {dedup_hits}, store hits {store_hits}, 429-rejections {rejected}, all digests deterministic"
    );

    if let Some(server) = server {
        server.stop();
    }
    if let Some(root) = store_root {
        let _ = std::fs::remove_dir_all(&root);
    }
    ExitCode::SUCCESS
}
