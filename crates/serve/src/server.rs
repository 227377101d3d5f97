//! The job server: HTTP front-end, bounded priority queue, worker pool,
//! cross-tenant dedup and graceful drain.
//!
//! # Architecture
//!
//! One acceptor thread owns the listening socket and serves the JSON API;
//! `workers` pipeline threads claim jobs off a [`BoundedQueue`] and run
//! them through [`Pipeline::run_instrumented`] against one shared
//! [`ArtifactStore`] root (every worker sees every other worker's cached
//! stage artifacts, which is what makes cross-tenant dedup pay off).
//!
//! # Dedup
//!
//! Submissions are keyed by [`JobRequest::cache_key`]. A duplicate of an
//! *in-flight* job is admitted as an alias record — it occupies no queue
//! slot, keeps no status of its own and reads the original's status and
//! result through the original's record. A duplicate of a *completed* job
//! re-executes, but every pipeline stage hits the shared store, so the run
//! is cheap and its report carries the `store.hit` counters that make the
//! dedup observable to the tenant.
//!
//! # Shutdown
//!
//! Nothing polls: the acceptor blocks in [`Server::recv`] and the workers
//! in [`BoundedQueue::pop`]. Shutdown raises a flag and calls
//! [`Server::unblock`], which wakes the acceptor once; after the acceptor
//! has exited, nothing more is admitted, so the queue is closed then and
//! the workers drain every admitted job before they exit. Accepted work
//! is never dropped.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hifi_dram::pipeline::{Pipeline, PipelineReport};
use hifi_faults::FaultSpec;
use hifi_store::{ArtifactStore, Fingerprinter};
use hifi_telemetry::{names, Histogram, HistogramSummary};
use serde::Value;
use tiny_http::{Header, Request, Response, Server};

use crate::job::{JobRequest, JobStatus};
use crate::queue::BoundedQueue;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (the bound address is
    /// reported by [`RunningServer::addr`]).
    pub addr: String,
    /// Worker pipeline threads.
    pub workers: usize,
    /// Queue bound; submissions beyond it get `429 Too Many Requests`.
    pub capacity: usize,
    /// Root of the shared artifact store.
    pub store_root: PathBuf,
    /// Fault plan applied to every job (enabled plans also salt the job
    /// cache keys, exactly like pipeline stage keys).
    pub faults: Option<FaultSpec>,
    /// Value of the `Retry-After` header on backpressure responses.
    pub retry_after_secs: u64,
}

impl ServeConfig {
    /// Defaults: ephemeral port, 2 workers, 64-deep queue, no faults.
    pub fn new(store_root: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            capacity: 64,
            store_root: store_root.into(),
            faults: None,
            retry_after_secs: 1,
        }
    }

    /// Sets the listen address.
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker thread count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the queue bound (clamped to at least 1).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Applies a fault plan to every executed job.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the advertised backpressure retry window, seconds.
    #[must_use]
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after_secs = secs;
        self
    }
}

/// Result of a finished job, read by the original record and any dedup
/// aliases.
#[derive(Debug)]
pub struct JobOutcome {
    /// Content fingerprint of the analysis result (identification,
    /// measurements, device count — not timings), hex. Empty on failure.
    pub digest: String,
    /// `store.hit` counter from the run's telemetry.
    pub store_hits: u64,
    /// `store.miss` counter from the run's telemetry.
    pub store_misses: u64,
    /// Full `RunReport` JSON of the run.
    pub report_json: String,
    /// Pipeline error rendering, when the job failed.
    pub error: Option<String>,
}

struct JobRecord {
    id: u64,
    request: JobRequest,
    key: String,
    run: Run,
}

/// Where a job's status and outcome live.
enum Run {
    /// The job is an execution: its status and, once finished, outcome.
    Own(JobStatus, Option<JobOutcome>),
    /// A dedup alias of the execution with this id; it reads that
    /// execution's status and outcome (see [`Registry::run_of`]).
    Alias(u64),
}

impl JobRecord {
    fn dedup_of(&self) -> Option<u64> {
        match self.run {
            Run::Alias(id) => Some(id),
            Run::Own(..) => None,
        }
    }
}

/// The `/stats` `store` fields, each the sum of one per-run counter over
/// this server's finished executions.
const STORE_FIELDS: [(&str, &str); 5] = [
    ("hits", names::STORE_HIT),
    ("misses", names::STORE_MISS),
    ("bytes_read", names::STORE_BYTES_READ),
    ("bytes_written", names::STORE_BYTES_WRITTEN),
    ("corrupt", names::STORE_CORRUPT),
];

#[derive(Default)]
struct Registry {
    /// Records indexed by `id - 1`; ids are dense and start at 1.
    jobs: Vec<JobRecord>,
    /// Latest job id per cache key (the execution new duplicates attach to).
    by_key: HashMap<String, u64>,
    /// Submissions answered by aliasing onto an in-flight execution.
    dedup_hits: u64,
    /// Submissions refused with 429.
    rejected: u64,
    /// Store counters of finished executions, in [`STORE_FIELDS`] order.
    store: [u64; STORE_FIELDS.len()],
}

impl Registry {
    fn record(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get((id as usize).checked_sub(1)?)
    }

    fn record_mut(&mut self, id: u64) -> Option<&mut JobRecord> {
        self.jobs.get_mut((id as usize).checked_sub(1)?)
    }

    /// The status and outcome `record` reports: its own, or for an alias
    /// those of the execution it rides on, read when asked.
    fn run_of<'a>(&'a self, record: &'a JobRecord) -> (JobStatus, Option<&'a JobOutcome>) {
        match &record.run {
            Run::Own(status, outcome) => (*status, outcome.as_ref()),
            Run::Alias(id) => self.run_of(self.record(*id).expect("aliases ride on admitted jobs")),
        }
    }
}

struct State {
    cfg: ServeConfig,
    queue: BoundedQueue,
    registry: Mutex<Registry>,
    wait_hist: Mutex<Histogram>,
    depth_hist: Mutex<Histogram>,
    shutdown: AtomicBool,
    started: Instant,
}

impl State {
    fn new(cfg: ServeConfig) -> Self {
        Self {
            queue: BoundedQueue::new(cfg.capacity),
            cfg,
            registry: Mutex::new(Registry::default()),
            wait_hist: Mutex::new(Histogram::new()),
            depth_hist: Mutex::new(Histogram::new()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        }
    }
}

/// Handle to a started server; dropping it (or calling [`stop`]) drains
/// and joins every thread.
///
/// [`stop`]: RunningServer::stop
pub struct RunningServer {
    server: Arc<Server>,
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.server_addr()
    }

    /// Raises the shutdown flag and wakes the acceptor, which exits once
    /// it has answered the request it may be reading; workers keep
    /// draining until [`stop`](Self::stop) or drop closes the queue.
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.server.unblock();
    }

    /// Whether shutdown has been requested (by signal bridge, `stop`, or
    /// the `POST /shutdown` endpoint).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful stop: request shutdown, join the acceptor, then close the
    /// queue and join the workers, which drain it first.
    pub fn stop(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.request_shutdown();
        let _ = acceptor.join();
        // The acceptor admits nothing more, so closing now drops no job.
        self.state.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// Opens the store (so a bad root fails here, not in every job), binds the
/// listen socket and spawns the acceptor and worker threads.
///
/// # Errors
///
/// Returns a rendered message when the store cannot be opened or the
/// address cannot be bound.
pub fn start(cfg: ServeConfig) -> Result<RunningServer, String> {
    ArtifactStore::open(&cfg.store_root).map_err(|e| {
        format!(
            "cannot open artifact store at {}: {e}",
            cfg.store_root.display()
        )
    })?;
    let server = Arc::new(
        Server::http(cfg.addr.as_str()).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?,
    );

    let workers = cfg.workers.max(1);
    let state = Arc::new(State::new(cfg));

    let acceptor = {
        let (server, state) = (server.clone(), state.clone());
        std::thread::Builder::new()
            .name("serve-http".into())
            .spawn(move || acceptor_loop(&server, &state))
            .map_err(|e| format!("cannot spawn acceptor: {e}"))?
    };
    let worker_handles = (0..workers)
        .map(|i| {
            let state = state.clone();
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&state))
                .map_err(|e| format!("cannot spawn worker {i}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(RunningServer {
        server,
        state,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

fn acceptor_loop(server: &Server, state: &State) {
    while !state.shutdown.load(Ordering::SeqCst) {
        if let Ok(request) = server.recv() {
            handle_request(state, request);
        }
    }
}

fn worker_loop(state: &State) {
    while let Some(popped) = state.queue.pop() {
        let waited_us = u64::try_from(popped.waited.as_micros()).unwrap_or(u64::MAX);
        state.wait_hist.lock().unwrap().record(waited_us);
        execute(state, popped.job_id);
    }
}

// --- request handling -------------------------------------------------

fn handle_request(state: &State, request: Request) {
    let method = request.method().as_str().to_string();
    let url = request.url().to_string();
    let path = url.split('?').next().unwrap_or("");
    let body = String::from_utf8_lossy(request.body()).into_owned();

    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let (status, body, retry_after) = match (method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (200, "{\"status\":\"ok\"}".to_string(), None),
        ("GET", ["stats"]) => (200, stats_json(state), None),
        ("POST", ["jobs"]) => submit(state, &body),
        ("GET", ["jobs", id]) => job_status(state, id),
        ("GET", ["jobs", id, "report"]) => job_report(state, id),
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::SeqCst);
            (200, "{\"status\":\"shutting down\"}".to_string(), None)
        }
        _ => (
            404,
            error_json(&format!("no route for {method} {path}")),
            None,
        ),
    };

    let mut response = Response::from_string(body)
        .with_status_code(status)
        .with_header(
            Header::from_bytes("Content-Type", "application/json").expect("static header"),
        );
    if let Some(secs) = retry_after {
        response = response.with_header(
            Header::from_bytes("Retry-After", secs.to_string()).expect("numeric header"),
        );
    }
    let _ = request.respond(response);
}

/// Admits a submission. Duplicates of in-flight work become alias
/// records; duplicates of completed work re-execute warm; everything else
/// queues, or bounces with 429 + Retry-After when the queue is full.
fn submit(state: &State, body: &str) -> (u16, String, Option<u64>) {
    let request = match JobRequest::from_json(body) {
        Ok(r) => r,
        Err(msg) => return (400, error_json(&msg), None),
    };
    let key = request.cache_key(state.cfg.faults.as_ref()).hex();

    let mut registry = state.registry.lock().unwrap();

    // Duplicate of an in-flight execution: alias, no queue slot burned.
    if let Some(&existing_id) = registry.by_key.get(&key) {
        if let Some(existing) = registry.record(existing_id) {
            if !registry.run_of(existing).0.is_terminal() {
                let id = registry.jobs.len() as u64 + 1;
                registry.jobs.push(JobRecord {
                    id,
                    request,
                    key,
                    run: Run::Alias(existing_id),
                });
                registry.dedup_hits += 1;
                let rendered = render_job(&registry, registry.record(id).expect("just pushed"));
                return (202, rendered, None);
            }
        }
    }

    // Fresh execution (first sighting of the key, or the previous one
    // already completed — re-running is warm thanks to the shared store).
    let id = registry.jobs.len() as u64 + 1;
    match state.queue.push(id, request.priority) {
        Ok(depth) => {
            registry.jobs.push(JobRecord {
                id,
                request,
                key: key.clone(),
                run: Run::Own(JobStatus::Queued, None),
            });
            registry.by_key.insert(key, id);
            let rendered = render_job(&registry, registry.record(id).expect("just pushed"));
            drop(registry);
            state.depth_hist.lock().unwrap().record(depth as u64);
            (202, rendered, None)
        }
        Err(full) => {
            registry.rejected += 1;
            let body = Value::Object(vec![
                ("error".into(), Value::Str(full.to_string())),
                ("capacity".into(), Value::UInt(full.capacity as u64)),
                (
                    "retry_after_secs".into(),
                    Value::UInt(state.cfg.retry_after_secs),
                ),
            ]);
            (
                429,
                serde_json::to_string(&body).expect("static shape"),
                Some(state.cfg.retry_after_secs),
            )
        }
    }
}

fn job_status(state: &State, id: &str) -> (u16, String, Option<u64>) {
    let Ok(id) = id.parse::<u64>() else {
        return (400, error_json("job id must be a u64"), None);
    };
    let registry = state.registry.lock().unwrap();
    match registry.record(id) {
        Some(record) => (200, render_job(&registry, record), None),
        None => (404, error_json(&format!("no job {id}")), None),
    }
}

fn job_report(state: &State, id: &str) -> (u16, String, Option<u64>) {
    let Ok(id) = id.parse::<u64>() else {
        return (400, error_json("job id must be a u64"), None);
    };
    let registry = state.registry.lock().unwrap();
    let Some(record) = registry.record(id) else {
        return (404, error_json(&format!("no job {id}")), None);
    };
    match registry.run_of(record) {
        (JobStatus::Done, Some(outcome)) => {
            let report: Value = serde_json::from_str(&outcome.report_json).unwrap_or(Value::Null);
            let body = Value::Object(vec![
                ("id".into(), Value::UInt(record.id)),
                ("key".into(), Value::Str(record.key.clone())),
                ("digest".into(), Value::Str(outcome.digest.clone())),
                (
                    "dedup_of".into(),
                    record.dedup_of().map(Value::UInt).unwrap_or(Value::Null),
                ),
                (
                    "store".into(),
                    Value::Object(vec![
                        ("hits".into(), Value::UInt(outcome.store_hits)),
                        ("misses".into(), Value::UInt(outcome.store_misses)),
                    ]),
                ),
                ("report".into(), report),
            ]);
            (200, serde_json::to_string(&body).expect("value"), None)
        }
        (JobStatus::Failed, _) => (500, render_job(&registry, record), None),
        // Not finished: 409 with the current status so clients can poll.
        _ => (409, render_job(&registry, record), None),
    }
}

fn render_job(registry: &Registry, record: &JobRecord) -> String {
    let (status, outcome) = registry.run_of(record);
    let mut fields = vec![
        ("id".to_string(), Value::UInt(record.id)),
        (
            "status".to_string(),
            Value::Str(status.as_str().to_string()),
        ),
        (
            "spec_seed".to_string(),
            Value::UInt(record.request.spec_seed),
        ),
        (
            "priority".to_string(),
            Value::UInt(u64::from(record.request.priority)),
        ),
        ("pristine".to_string(), Value::Bool(record.request.pristine)),
        ("key".to_string(), Value::Str(record.key.clone())),
        (
            "dedup_of".to_string(),
            record.dedup_of().map(Value::UInt).unwrap_or(Value::Null),
        ),
    ];
    if let Some(outcome) = outcome {
        fields.push(("digest".into(), Value::Str(outcome.digest.clone())));
        fields.push(("store_hits".into(), Value::UInt(outcome.store_hits)));
        fields.push(("store_misses".into(), Value::UInt(outcome.store_misses)));
        if let Some(error) = &outcome.error {
            fields.push(("error".into(), Value::Str(error.clone())));
        }
    }
    serde_json::to_string(&Value::Object(fields)).expect("value")
}

fn error_json(msg: &str) -> String {
    serde_json::to_string(&Value::Object(vec![(
        "error".to_string(),
        Value::Str(msg.to_string()),
    )]))
    .expect("value")
}

/// A JSON object of named counts.
fn counts<'a>(fields: impl IntoIterator<Item = (&'a str, u64)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(name, n)| (name.into(), Value::UInt(n)))
            .collect(),
    )
}

fn summary_value(summary: &HistogramSummary) -> Value {
    Value::Object(vec![
        ("count".into(), Value::UInt(summary.count)),
        ("min".into(), Value::UInt(summary.min)),
        ("p50".into(), Value::UInt(summary.p50)),
        ("p90".into(), Value::UInt(summary.p90)),
        ("p99".into(), Value::UInt(summary.p99)),
        ("max".into(), Value::UInt(summary.max)),
    ])
}

fn stats_json(state: &State) -> String {
    let (jobs, store) = {
        let registry = state.registry.lock().unwrap();
        let mut by_status = [0u64; 4];
        for record in &registry.jobs {
            let idx = match registry.run_of(record).0 {
                JobStatus::Queued => 0,
                JobStatus::Running => 1,
                JobStatus::Done => 2,
                JobStatus::Failed => 3,
            };
            by_status[idx] += 1;
        }
        let [queued, running, done, failed] = by_status;
        let jobs = counts([
            ("total", registry.jobs.len() as u64),
            ("queued", queued),
            ("running", running),
            ("done", done),
            ("failed", failed),
            ("dedup_hits", registry.dedup_hits),
            ("rejected", registry.rejected),
        ]);
        let store = counts(STORE_FIELDS.iter().map(|f| f.0).zip(registry.store));
        (jobs, store)
    };
    let wait = state
        .wait_hist
        .lock()
        .unwrap()
        .summarize(names::HIST_SERVE_QUEUE_WAIT_US);
    let depth = state
        .depth_hist
        .lock()
        .unwrap()
        .summarize(names::HIST_SERVE_QUEUE_DEPTH);
    let uptime_ms = u64::try_from(state.started.elapsed().as_millis()).unwrap_or(u64::MAX);

    let body = Value::Object(vec![
        ("workers".into(), Value::UInt(state.cfg.workers as u64)),
        ("capacity".into(), Value::UInt(state.cfg.capacity as u64)),
        (
            "queue_depth".into(),
            Value::UInt(state.queue.depth() as u64),
        ),
        ("jobs".into(), jobs),
        ("store".into(), store),
        ("queue_wait_us".into(), summary_value(&wait)),
        ("queue_depth_seen".into(), summary_value(&depth)),
        ("uptime_ms".into(), Value::UInt(uptime_ms)),
    ]);
    serde_json::to_string(&body).expect("value")
}

// --- execution --------------------------------------------------------

/// Deterministic fingerprint of a run's *analysis result* — identified /
/// expected topology, measurements, device count, alignment corrections —
/// excluding wall-clock telemetry, so identical work yields identical
/// digests at any worker count.
pub fn report_digest(report: &PipelineReport) -> String {
    let mut fp = Fingerprinter::new();
    fp.str("serve.digest/v1")
        .str(&format!("{:?}", report.identified))
        .str(&format!("{:?}", report.expected))
        .u64(report.device_count as u64)
        .str(&format!("{:?}", report.alignment_corrections))
        .str(&format!("{:?}", report.measurement))
        .str(&format!("{:?}", report.worst_dimension_deviation));
    fp.finish().hex()
}

/// Marks execution `id` running (its aliases read this too) and returns
/// its request.
fn claim(state: &State, id: u64) -> Option<JobRequest> {
    let mut registry = state.registry.lock().unwrap();
    let record = registry.record_mut(id)?;
    record.run = Run::Own(JobStatus::Running, None);
    Some(record.request.clone())
}

fn execute(state: &State, id: u64) {
    let Some(request) = claim(state, id) else {
        return;
    };

    let spec = request.spec();
    let mut config = spec.pipeline_config().with_store(&state.cfg.store_root);
    if let Some(plan) = &state.cfg.faults {
        config = config.with_faults(plan.clone());
    }
    // A failed run reports no counters, so its partial traffic is not
    // summed into `/stats`.
    let mut store = [0; STORE_FIELDS.len()];
    let outcome = match Pipeline::new(config).run_instrumented() {
        Ok(report) => {
            let telemetry = report.telemetry.as_ref();
            let counter = |name: &str| telemetry.map_or(0, |t| t.counter(name));
            store = STORE_FIELDS.map(|(_, name)| counter(name));
            JobOutcome {
                digest: report_digest(&report),
                store_hits: counter(names::STORE_HIT),
                store_misses: counter(names::STORE_MISS),
                report_json: telemetry.map_or_else(|| "null".into(), |t| t.to_json()),
                error: None,
            }
        }
        Err(err) => JobOutcome {
            digest: String::new(),
            store_hits: 0,
            store_misses: 0,
            report_json: "null".to_string(),
            error: Some(err.to_string()),
        },
    };

    let status = if outcome.error.is_some() {
        JobStatus::Failed
    } else {
        JobStatus::Done
    };
    let mut registry = state.registry.lock().unwrap();
    for (sum, n) in registry.store.iter_mut().zip(store) {
        *sum += n;
    }
    // Aliases riding on this execution read the outcome through it.
    if let Some(record) = registry.record_mut(id) {
        record.run = Run::Own(status, Some(outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::time::Duration;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("hifi-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn submit_seed(addr: SocketAddr, seed: u64) -> u64 {
        let body = JobRequest {
            spec_seed: seed,
            priority: 5,
            pristine: true,
        }
        .to_json();
        let resp = client::post(addr, "/jobs", &body).expect("submit");
        assert_eq!(resp.status, 202, "body: {}", resp.body);
        num_field(&resp.json().unwrap(), "id")
    }

    fn wait_done(addr: SocketAddr, id: u64) -> Value {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let resp = client::get(addr, &format!("/jobs/{id}")).expect("poll");
            let value = resp.json().unwrap();
            let status = match value.field("status").unwrap() {
                Value::Str(s) => s.clone(),
                other => panic!("status not a string: {other:?}"),
            };
            match status.as_str() {
                "done" => return value,
                "failed" => panic!("job {id} failed: {}", resp.body),
                _ if Instant::now() > deadline => panic!("job {id} stuck at {status}"),
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    fn str_field(value: &Value, name: &str) -> String {
        match value.field(name).unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("{name} not a string: {other:?}"),
        }
    }

    // The JSON parser yields `Int` for small numbers and `UInt` past
    // `i64::MAX`; counters can come back as either.
    fn num_field(value: &Value, name: &str) -> u64 {
        match value.field(name).unwrap() {
            Value::UInt(v) => *v,
            Value::Int(v) if *v >= 0 => *v as u64,
            Value::Null => 0,
            other => panic!("{name} not a u64: {other:?}"),
        }
    }

    #[test]
    fn submit_poll_report_roundtrip_with_dedup() {
        let root = temp_root("roundtrip");
        let server = start(ServeConfig::new(&root).with_workers(2)).expect("start");
        let addr = server.addr();

        let health = client::get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200);

        // Two distinct specs plus a duplicate of the first.
        let a = submit_seed(addr, 11);
        let b = submit_seed(addr, 22);
        let a2 = submit_seed(addr, 11);

        let a_status = wait_done(addr, a);
        let b_status = wait_done(addr, b);
        let a2_status = wait_done(addr, a2);

        let digest_a = str_field(&a_status, "digest");
        let digest_b = str_field(&b_status, "digest");
        let digest_a2 = str_field(&a2_status, "digest");
        assert_eq!(digest_a, digest_a2, "duplicate must match the original");
        assert_ne!(digest_a, digest_b, "distinct specs must differ");

        // The duplicate was either aliased in-flight or re-ran warm; in
        // both cases the stats make the dedup observable.
        let stats = client::get(addr, "/stats").unwrap().json().unwrap();
        let jobs = stats.field("jobs").unwrap().clone();
        let dedup_hits = num_field(&jobs, "dedup_hits");
        let a2_hits = num_field(&a2_status, "store_hits");
        assert!(
            dedup_hits > 0 || a2_hits > 0,
            "dedup left no trace: dedup_hits={dedup_hits}, dup store_hits={a2_hits}"
        );

        // Full report endpoint carries the embedded RunReport.
        let report = client::get(addr, &format!("/jobs/{a}/report")).unwrap();
        assert_eq!(report.status, 200);
        let report_value = report.json().unwrap();
        assert_eq!(str_field(&report_value, "digest"), digest_a);
        assert!(matches!(
            report_value.field("report").unwrap(),
            Value::Object(_)
        ));

        // Unknown job: 404. Unparseable body: 400.
        assert_eq!(client::get(addr, "/jobs/9999").unwrap().status, 404);
        assert_eq!(client::post(addr, "/jobs", "{}").unwrap().status, 400);

        server.stop();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_alias_reads_its_execution_status_through() {
        // No threads: requests go straight to the handlers.
        let state = State::new(ServeConfig::new(temp_root("alias")));
        let body = JobRequest {
            spec_seed: 5,
            priority: 5,
            pristine: true,
        }
        .to_json();
        assert_eq!(submit(&state, &body).0, 202);
        // Admitted while its execution is still queued.
        let (code, alias, _) = submit(&state, &body);
        assert_eq!(code, 202);
        let alias: Value = serde_json::from_str(&alias).unwrap();
        assert_eq!(str_field(&alias, "status"), "queued");
        assert_eq!(num_field(&alias, "dedup_of"), 1);

        // A worker claims the execution: the alias follows it.
        claim(&state, 1).expect("job 1 admitted");
        let (code, alias, _) = job_status(&state, "2");
        assert_eq!(code, 200);
        let alias: Value = serde_json::from_str(&alias).unwrap();
        assert_eq!(str_field(&alias, "status"), "running");
        assert_eq!(job_report(&state, "2").0, 409, "not finished yet");
        let stats: Value = serde_json::from_str(&stats_json(&state)).unwrap();
        let jobs = stats.field("jobs").unwrap();
        assert_eq!(num_field(jobs, "running"), 2);
        assert_eq!(num_field(jobs, "queued"), 0);
        assert_eq!(num_field(jobs, "dedup_hits"), 1);
    }

    #[test]
    fn full_queue_bounces_with_retry_after() {
        let root = temp_root("backpressure");
        // No workers draining fast enough: 1 worker, capacity 1, and the
        // first job occupies it while a flood arrives.
        let server = start(
            ServeConfig::new(&root)
                .with_workers(1)
                .with_capacity(1)
                .with_retry_after(7),
        )
        .expect("start");
        let addr = server.addr();

        // Saturate: submissions are distinct specs so none dedup.
        let mut saw_429 = false;
        for seed in 0..12u64 {
            let body = JobRequest {
                spec_seed: seed,
                priority: 0,
                pristine: true,
            }
            .to_json();
            let resp = client::post(addr, "/jobs", &body).unwrap();
            match resp.status {
                202 => {}
                429 => {
                    saw_429 = true;
                    assert_eq!(resp.header("Retry-After"), Some("7"));
                    let value = resp.json().unwrap();
                    assert!(matches!(value.field("error").unwrap(), Value::Str(_)));
                    break;
                }
                other => panic!("unexpected status {other}: {}", resp.body),
            }
        }
        assert!(saw_429, "queue of capacity 1 never pushed back");

        server.stop();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shutdown_endpoint_drains_admitted_jobs() {
        let root = temp_root("drain");
        let server = start(ServeConfig::new(&root).with_workers(1)).expect("start");
        let addr = server.addr();

        let ids: Vec<u64> = (0..3).map(|s| submit_seed(addr, 100 + s)).collect();
        let resp = client::post(addr, "/shutdown", "").unwrap();
        assert_eq!(resp.status, 200);
        assert!(server.shutdown_requested());
        server.stop();

        // After the graceful stop every admitted job must have finished
        // (workers drain the queue before exiting). The HTTP endpoint is
        // down, so check through the registry-backed state directly: a
        // fresh server over the same store root re-runs the specs fully
        // warm only if the results were computed and persisted.
        let reopen = start(ServeConfig::new(&root).with_workers(1)).expect("reopen");
        let addr = reopen.addr();
        for (i, _) in ids.iter().enumerate() {
            let id = submit_seed(addr, 100 + i as u64);
            let status = wait_done(addr, id);
            let hits = num_field(&status, "store_hits");
            assert!(
                hits > 0,
                "drained job's artifacts missing from the store (seed {})",
                100 + i as u64
            );
        }
        reopen.stop();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_job_admitted_while_shutting_down_still_runs() {
        let root = temp_root("late-admit");
        let server = start(ServeConfig::new(&root).with_workers(1)).expect("start");
        let body = JobRequest {
            spec_seed: 7,
            priority: 5,
            pristine: true,
        }
        .to_json();
        // The acceptor is reading this request when shutdown begins.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let head = format!(
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("send head");
        std::thread::sleep(Duration::from_millis(100));
        server.request_shutdown();
        // The body arrives while `stop` below is already waiting on the
        // acceptor, and long after an idle worker could have left.
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            stream.write_all(body.as_bytes()).expect("send body");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read response");
            response
        });
        server.stop();
        let response = client.join().expect("client thread");
        assert!(response.starts_with("HTTP/1.1 202"), "{response}");

        let (objects, _) = ArtifactStore::open(&root).expect("reopen store").usage();
        assert!(objects > 0, "the admitted job never ran");
        let _ = std::fs::remove_dir_all(&root);
    }
}
