//! `serve_mix`: an in-process `hifi-serve` job server driven closed-loop
//! over HTTP, mixing cold first sightings with warm repeats.
//!
//! The server runs at most two workers over a fresh store; at most two
//! clients each submit a job, poll it to `done`, then submit the next.
//! Jobs are pristine conformance specs drawn from `run_seed(seed, i)`,
//! deduplicated by the server's job key so that every cold job is a first
//! sighting, and dealt evenly over job-size classes. Each client runs a
//! cold job, then two warm repeats of its own completed cold jobs, which
//! re-run from the store. Two warm jobs per cold one put the median op in
//! the warm (store-read) latency cluster; with an even split the median
//! would sit between the warm and cold clusters and swing between them
//! from run to run. One op is one job, timed from `POST /jobs` to the
//! poll that sees it `done`.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hifi_circuit::identify::TopologyLibrary;
use hifi_conformance::{run_seed, ChipSpec};
use hifi_extract::measure;
use hifi_serve::{client, JobRequest, RunningServer, ServeConfig, DEFAULT_PRIORITY};
use hifi_synth::generate_region;
use hifi_telemetry::{names, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Value};

use crate::report::{Extra, Outcome};
use crate::{
    peak_rss_mib, record_end_to_end, repeated_setup, reset_peak_rss, stats, Ctx, Laps, OpLog,
};

pub const LAYERS: &[&str] = &[
    "store.hits",
    "store.misses",
    "store.hit_ratio",
    "store.bytes_read",
    "store.bytes_written",
    "store.get_us_p50",
    "store.put_us_p50",
    "serve.submit_ms",
    "serve.poll_ms",
    "serve.queue_wait_ms",
    "serve.dedup_hits",
    "serve.rejected",
    "serve.job.voxelize_ms",
    "serve.job.extract_ms",
    "synth.generate_region_ms",
    "synth.voxelize_ms",
    "extract.crop_ms",
    "extract.extract_ms",
    "circuit.identify_ms",
    "extract.measure_ms",
];

/// Stages of a pristine job as the traced run composes them.
const CHAIN_STAGES: [&str; 6] = [
    "synth.generate_region_ms",
    "synth.voxelize_ms",
    "extract.crop_ms",
    "extract.extract_ms",
    "circuit.identify_ms",
    "extract.measure_ms",
];

/// Pause between status polls of a submitted job.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Length of the windows whose RSS high-water marks `peak_rss_mib` takes
/// the median of.
const RSS_WINDOW: Duration = Duration::from_secs(1);

/// A job not `done` after this long counts as lost.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// `run_seed` indices scanned for distinct specs: enough to meet nearly
/// all of the few hundred pristine specs the conformance domain holds.
const SPEC_DRAWS: u64 = 4096;

/// Cold specs the traced run re-runs as a composed stage chain.
const CHAIN_SPECS: usize = 16;

struct Server {
    running: RunningServer,
    addr: SocketAddr,
}

/// Starts a server over a fresh store under `root`.
fn start_server(ctx: &Ctx, root: PathBuf) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(&root);
    let running = hifi_serve::start(ServeConfig::new(root).with_workers(ctx.threads.min(2)))?;
    let addr = running.addr();
    let health = client::get(addr, "/healthz").map_err(|e| format!("/healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    Ok(Server { running, addr })
}

/// Seeds of distinct pristine specs from `run_seed(seed, i)`: no two share
/// a server job key, so every cold job is a first sighting. They are
/// dealt round-robin over size classes (topology × pairs × voxel pitch ×
/// MAT strip, which set a job's cost), each class in `run_seed` order, so
/// every seed runs the same mix of job sizes.
fn cold_specs(ctx: &Ctx) -> Vec<u64> {
    let mut seen = HashSet::new();
    let mut classes: BTreeMap<String, VecDeque<u64>> = BTreeMap::new();
    for spec_seed in (0..SPEC_DRAWS).map(|i| run_seed(ctx.seed, i)) {
        if seen.insert(request(spec_seed).cache_key(None)) {
            let spec = ChipSpec::generate(spec_seed);
            let class = format!(
                "{}/{}/{}/{}",
                spec.topology.name(),
                spec.n_pairs,
                spec.voxel_nm,
                spec.mat_strip
            );
            classes.entry(class).or_default().push_back(spec_seed);
        }
    }
    let mut dealt = Vec::with_capacity(seen.len());
    while dealt.len() < seen.len() {
        dealt.extend(classes.values_mut().filter_map(VecDeque::pop_front));
    }
    dealt
}

fn request(spec_seed: u64) -> JobRequest {
    JobRequest {
        spec_seed,
        priority: DEFAULT_PRIORITY,
        pristine: true,
    }
}

/// What one job did, as the client saw it.
struct JobOp {
    /// Index into the cold spec list.
    spec: usize,
    warm: bool,
    latency_ms: f64,
    submit_ms: f64,
    poll_ms: Vec<f64>,
    /// `Ok(digest)` once done, the reason otherwise.
    result: Result<String, String>,
    /// The job's run report (traced run only).
    report: Option<RunReport>,
}

fn uint(value: &Value, name: &str) -> u64 {
    match value.field(name) {
        Ok(Value::UInt(v)) => *v,
        Ok(Value::Int(v)) if *v >= 0 => *v as u64,
        _ => 0,
    }
}

fn string(value: &Value, name: &str) -> String {
    match value.field(name) {
        Ok(Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

/// Submits one job and polls it until it is `done` or `failed`.
fn run_job(addr: SocketAddr, spec_seed: u64) -> (f64, Vec<f64>, Result<(u64, String), String>) {
    let t0 = Instant::now();
    let submitted = client::post(addr, "/jobs", &request(spec_seed).to_json());
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut polls = Vec::new();
    let id = match submitted.map_err(|e| e.to_string()).and_then(|r| {
        if r.status == 202 {
            r.json().map(|v| uint(&v, "id"))
        } else {
            Err(format!("submit answered {}: {}", r.status, r.body))
        }
    }) {
        Ok(id) => id,
        Err(e) => return (submit_ms, polls, Err(e)),
    };
    loop {
        std::thread::sleep(POLL_INTERVAL);
        let p0 = Instant::now();
        let status = client::get(addr, &format!("/jobs/{id}"))
            .map_err(|e| e.to_string())
            .and_then(|r| r.json());
        polls.push(p0.elapsed().as_secs_f64() * 1e3);
        let status = match status {
            Ok(v) => v,
            Err(e) => return (submit_ms, polls, Err(format!("job {id}: {e}"))),
        };
        match string(&status, "status").as_str() {
            "done" => return (submit_ms, polls, Ok((id, string(&status, "digest")))),
            "failed" => {
                return (
                    submit_ms,
                    polls,
                    Err(format!("job {id} failed: {}", string(&status, "error"))),
                )
            }
            _ if t0.elapsed() > JOB_DEADLINE => {
                return (submit_ms, polls, Err(format!("job {id} lost")))
            }
            _ => {}
        }
    }
}

/// Fetches a finished job's run report.
fn fetch_report(addr: SocketAddr, id: u64) -> Result<RunReport, String> {
    let resp = client::get(addr, &format!("/jobs/{id}/report")).map_err(|e| e.to_string())?;
    let value = resp.json()?;
    let report = value.field("report").map_err(|e| e.to_string())?;
    RunReport::from_value(report).map_err(|e| format!("job {id} report: {e}"))
}

/// One closed-loop client: a cold job (its share of the cold spec list)
/// then two warm repeats of random ones of its completed cold jobs, over
/// and over until the timed phase is over.
fn client_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    cold: &[u64],
    (c, clients): (usize, usize),
    start: Instant,
    traced: bool,
) -> Vec<JobOp> {
    let mut rng = StdRng::seed_from_u64(ctx.derive(3, c as u64));
    let mut completed: Vec<usize> = Vec::new();
    let mut next_cold = c;
    let mut ops = Vec::new();
    while ops.is_empty() || !ctx.expired(start) {
        let warm = ops.len() % 3 != 0 && !completed.is_empty();
        let spec = if warm {
            completed[rng.gen_range(0..completed.len())]
        } else if next_cold < cold.len() {
            next_cold += clients;
            next_cold - clients
        } else {
            break;
        };
        let t0 = Instant::now();
        let (submit_ms, poll_ms, result) = run_job(addr, cold[spec]);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = match (&result, traced) {
            (Ok((id, _)), true) => fetch_report(addr, *id).ok(),
            _ => None,
        };
        if !warm && result.is_ok() {
            completed.push(spec);
        }
        ops.push(JobOp {
            spec,
            warm,
            latency_ms,
            submit_ms,
            poll_ms,
            result: result.map(|(_, digest)| digest),
            report,
        });
    }
    ops
}

/// What the serving phase produced.
struct Served {
    /// Every job, in client order.
    ops: Vec<JobOp>,
    log: OpLog,
    timed_s: f64,
    /// The server's `/stats` after the phase.
    server_stats: Value,
}

/// The serving phase shared by both runs, with its output checks.
///
/// Jobs overlap, so the RSS mark cannot be reset per job. While the
/// clients run, this thread reads and resets it every [`RSS_WINDOW`]
/// instead: the log holds one high-water mark per window.
fn serve(ctx: &Ctx, server: &Server, cold: &[u64], traced: bool, out: &mut Outcome) -> Served {
    let clients = ctx.threads.min(2);
    let addr = server.addr;
    let mut rss_mib = Vec::new();
    reset_peak_rss();
    let start = Instant::now();
    let ops: Vec<JobOp> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || client_loop(ctx, addr, cold, (c, clients), start, traced)))
            .collect();
        let mut window = Instant::now();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(10));
            if window.elapsed() >= RSS_WINDOW {
                rss_mib.extend(peak_rss_mib());
                reset_peak_rss();
                window = Instant::now();
            }
        }
        if rss_mib.is_empty() {
            rss_mib.extend(peak_rss_mib());
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let timed_s = start.elapsed().as_secs_f64();
    let log = OpLog {
        latency_ms: ops.iter().map(|op| op.latency_ms).collect(),
        rss_mib,
    };
    out.attempted += ops.len() as u64;

    // Every repeat of a spec must report the digest of its first run.
    let mut first: Vec<Option<&str>> = vec![None; cold.len()];
    for op in ops.iter().filter(|op| !op.warm) {
        if let Ok(digest) = &op.result {
            first[op.spec] = Some(digest);
        }
    }
    for op in &ops {
        match (&op.result, first[op.spec]) {
            (Err(e), _) => out.fail(e.clone()),
            (Ok(d), Some(f)) if d == f && !d.is_empty() => {}
            (Ok(d), f) => out.fail(format!(
                "spec {} ({}): digest {d} differs from its first run's {f:?}",
                op.spec,
                if op.warm { "warm" } else { "cold" },
            )),
        }
    }
    let server_stats = client::get(server.addr, "/stats")
        .map_err(|e| e.to_string())
        .and_then(|r| r.json())
        .unwrap_or(Value::Null);
    let store = server_stats.field("store").cloned().unwrap_or(Value::Null);
    out.check(uint(&store, "hits") > 0, || {
        "warm repeats left the store with zero hits".into()
    });
    Served {
        ops,
        log,
        timed_s,
        server_stats,
    }
}

struct Setup {
    server: Server,
    cold: Vec<u64>,
}

fn setup(ctx: &Ctx, attempt: &mut usize) -> Result<Setup, String> {
    *attempt += 1;
    let server = start_server(ctx, ctx.work_dir.join(format!("store-{attempt}")))?;
    Ok(Setup {
        server,
        cold: cold_specs(ctx),
    })
}

/// End-to-end run: the serving phase, untraced.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut attempt = 0;
    let (state, setup_s) = repeated_setup(|| setup(ctx, &mut attempt))?;
    let mut out = Outcome::default();
    let served = serve(ctx, &state.server, &state.cold, false, &mut out);
    state.server.running.stop();
    record_end_to_end(&mut out, setup_s, &served.log, served.timed_s);
    for warm in [true, false] {
        let times: Vec<f64> = served
            .ops
            .iter()
            .filter(|op| op.warm == warm)
            .map(|op| op.latency_ms)
            .collect();
        let kind = if warm { "warm" } else { "cold" };
        out.extra(
            Extra::new(&format!("op_p50_ms.{kind}"), stats::median(&times), "ms")
                .with_note(format!("{} {kind} jobs", times.len())),
        );
    }
    Ok(out)
}

/// Traced run: the serving phase with every job's report fetched, then
/// the pristine stage chain composed for the first cold specs.
pub fn trace(ctx: &Ctx) -> Result<Outcome, String> {
    let mut attempt = 0;
    let state = setup(ctx, &mut attempt)?;
    let mut out = Outcome::default();
    let Served {
        ops, server_stats, ..
    } = serve(ctx, &state.server, &state.cold, true, &mut out);
    state.server.running.stop();

    let m = &mut out.metrics;
    let median_of = |f: &dyn Fn(&JobOp) -> Option<f64>| {
        stats::median(&ops.iter().filter_map(f).collect::<Vec<_>>())
    };
    m.set("serve.submit_ms", median_of(&|op| Some(op.submit_ms)));
    m.set(
        "serve.poll_ms",
        stats::median(
            &ops.iter()
                .flat_map(|op| op.poll_ms.clone())
                .collect::<Vec<_>>(),
        ),
    );
    let stage_ms = |name: &'static str| {
        move |op: &JobOp| Some(op.report.as_ref()?.stage_us(name)? as f64 / 1e3)
    };
    m.set("serve.job.voxelize_ms", median_of(&stage_ms("voxelize")));
    m.set("serve.job.extract_ms", median_of(&stage_ms("extract")));
    let hist_p50 = |name: &'static str| {
        move |op: &JobOp| Some(op.report.as_ref()?.histogram(name)?.p50 as f64)
    };
    m.set(
        "store.get_us_p50",
        median_of(&hist_p50(names::HIST_STORE_GET_US)),
    );
    m.set(
        "store.put_us_p50",
        median_of(&hist_p50(names::HIST_STORE_PUT_US)),
    );

    let jobs = server_stats.field("jobs").cloned().unwrap_or(Value::Null);
    let store = server_stats.field("store").cloned().unwrap_or(Value::Null);
    let wait = server_stats
        .field("queue_wait_us")
        .cloned()
        .unwrap_or(Value::Null);
    m.set("serve.queue_wait_ms", uint(&wait, "p50") as f64 / 1e3);
    m.set("serve.dedup_hits", uint(&jobs, "dedup_hits") as f64);
    m.set("serve.rejected", uint(&jobs, "rejected") as f64);
    let (hits, misses) = (uint(&store, "hits"), uint(&store, "misses"));
    m.set("store.hits", hits as f64);
    m.set("store.misses", misses as f64);
    m.set(
        "store.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("store.bytes_read", uint(&store, "bytes_read") as f64);
    m.set("store.bytes_written", uint(&store, "bytes_written") as f64);

    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); CHAIN_STAGES.len()];
    let mut worst_dev = 0.0f64;
    for &spec_seed in state.cold.iter().take(CHAIN_SPECS) {
        out.attempted += 1;
        let spec = ChipSpec::generate(spec_seed);
        match chain(&spec) {
            Ok((laps, dev)) => {
                for (times, ms) in stage_ms.iter_mut().zip(laps) {
                    times.push(ms);
                }
                worst_dev = worst_dev.max(dev);
            }
            Err(e) => out.fail(format!("chain for `{}`: {e}", spec.describe())),
        }
    }
    for (name, times) in CHAIN_STAGES.iter().zip(&stage_ms) {
        out.metrics.set(name, stats::median(times));
    }
    out.extra(
        Extra::new("worst_dim_dev_pct", worst_dev * 100.0, "%")
            .with_note(format!("worst of the first {CHAIN_SPECS} cold specs")),
    );
    Ok(out)
}

/// A pristine job's stage chain, composed from the crates' public calls
/// and timed call by call; checked against the spec's ground truth.
/// Returns the stage times and the worst dimension deviation.
fn chain(spec: &ChipSpec) -> Result<(Vec<f64>, f64), String> {
    let mut laps = Laps::start();
    let region = generate_region(&spec.region_spec());
    laps.lap();
    let volume = region.voxelize();
    laps.lap();
    let cropped = region
        .window_volume(&volume, spec.window_pair)
        .ok_or("empty cell window")?;
    laps.lap();
    let extraction = hifi_extract::extract(&cropped).map_err(|e| e.to_string())?;
    laps.lap();
    let identified = TopologyLibrary::standard().identify(&extraction.netlist);
    laps.lap();
    let worst = measure(&extraction).worst_deviation(&region.ground_truth().cell.dims_by_class);
    laps.lap();
    if identified != Some(spec.topology) {
        return Err(format!("identified {identified:?}"));
    }
    let devices = region.window_netlist().device_count();
    match worst {
        Some(worst) if extraction.devices.len() == devices => Ok((laps.ms, worst.value())),
        _ => Err(format!(
            "{} devices of {devices}, worst deviation {worst:?}",
            extraction.devices.len()
        )),
    }
}
