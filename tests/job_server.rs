//! End-to-end tests of the `hifi-serve` job server over its HTTP API:
//! submit/poll/report lifecycle, cross-tenant dedup with observable store
//! hits, per-server store counters, bounded-queue backpressure, and
//! worker-count invariance of the per-job result digests.

use std::fs;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hifi_conformance::run_seed;
use hifi_serve::{client, JobRequest, ServeConfig};
use serde::Value;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hifi-jobsrv-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn num(value: &Value, name: &str) -> u64 {
    match value.field(name).unwrap_or(&Value::Null) {
        Value::UInt(v) => *v,
        Value::Int(v) if *v >= 0 => *v as u64,
        _ => 0,
    }
}

fn text(value: &Value, name: &str) -> String {
    match value.field(name).unwrap_or(&Value::Null) {
        Value::Str(s) => s.clone(),
        _ => String::new(),
    }
}

fn submit(addr: SocketAddr, request: &JobRequest) -> u64 {
    let resp = client::post(addr, "/jobs", &request.to_json()).expect("submit");
    assert_eq!(resp.status, 202, "body: {}", resp.body);
    num(&resp.json().unwrap(), "id")
}

fn wait_done(addr: SocketAddr, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let value = client::get(addr, &format!("/jobs/{id}"))
            .expect("poll")
            .json()
            .unwrap();
        match text(&value, "status").as_str() {
            "done" => return value,
            "failed" => panic!("job {id} failed: {value:?}"),
            other if Instant::now() > deadline => panic!("job {id} stuck at `{other}`"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Submit → poll → report: the report endpoint answers 409 while the job
/// is pending and, once done, embeds the full `RunReport` alongside the
/// result digest. A duplicate submitted *after* completion re-runs warm,
/// reports store hits, and reproduces the digest exactly.
#[test]
fn lifecycle_and_completed_key_dedup_reports_store_hits() {
    let root = temp_root("lifecycle");
    let server = hifi_serve::start(ServeConfig::new(&root).with_workers(2)).expect("start");
    let addr = server.addr();

    let request = JobRequest {
        spec_seed: run_seed(7, 0),
        priority: 9,
        pristine: true,
    };
    let first = submit(addr, &request);
    let first_status = wait_done(addr, first);
    let first_digest = text(&first_status, "digest");
    assert!(!first_digest.is_empty());
    assert!(num(&first_status, "store_misses") > 0, "cold run must miss");

    // Same spec again, after completion: a fresh execution that hits the
    // shared store on every stage — the observable cache-hit report.
    let second = submit(addr, &request);
    let second_status = wait_done(addr, second);
    assert_eq!(text(&second_status, "digest"), first_digest);
    assert!(
        num(&second_status, "store_hits") > 0,
        "duplicate of a completed job must run warm: {second_status:?}"
    );
    assert_eq!(num(&second_status, "store_misses"), 0);

    let report = client::get(addr, &format!("/jobs/{second}/report")).unwrap();
    assert_eq!(report.status, 200);
    let report_value = report.json().unwrap();
    assert_eq!(text(&report_value, "digest"), first_digest);
    let embedded = report_value.field("report").unwrap().clone();
    assert!(
        matches!(embedded, Value::Object(_)),
        "report endpoint embeds the RunReport"
    );
    let store_counters = report_value.field("store").unwrap().clone();
    assert!(num(&store_counters, "hits") > 0);

    server.stop();
    let _ = fs::remove_dir_all(&root);
}

/// `/stats` counts the store traffic of this server's finished jobs only:
/// a second server in the same process starts at zero however busy the
/// first was, and then reads the sums of its own executions' counters.
#[test]
fn stats_store_block_sums_this_servers_jobs() {
    let store_stats = |addr| {
        let stats = client::get(addr, "/stats").unwrap().json().unwrap();
        stats.field("store").unwrap().clone()
    };
    let request = |seed| JobRequest {
        spec_seed: run_seed(seed, 0),
        priority: 4,
        pristine: true,
    };
    let (root_a, root_b) = (temp_root("stats-a"), temp_root("stats-b"));
    let a = hifi_serve::start(ServeConfig::new(&root_a).with_workers(1)).expect("start A");
    for seed in [31, 32] {
        wait_done(a.addr(), submit(a.addr(), &request(seed)));
    }
    assert!(num(&store_stats(a.addr()), "misses") > 0);

    let b = hifi_serve::start(ServeConfig::new(&root_b).with_workers(1)).expect("start B");
    let fresh = serde_json::to_string(&store_stats(b.addr())).unwrap();
    let zeros = r#"{"hits":0,"misses":0,"bytes_read":0,"bytes_written":0,"corrupt":0}"#;
    assert_eq!(fresh, zeros, "B before its first job");
    // A cold then a warm execution of one spec on B.
    let runs: Vec<Value> = (0..2)
        .map(|_| wait_done(b.addr(), submit(b.addr(), &request(33))))
        .filter(|run| run.field("dedup_of").unwrap() == &Value::Null)
        .collect();
    let sum = |field| runs.iter().map(|run| num(run, field)).sum::<u64>();
    let store = store_stats(b.addr());
    assert_eq!(num(&store, "hits"), sum("store_hits"), "{store:?}");
    assert_eq!(num(&store, "misses"), sum("store_misses"), "{store:?}");
    assert!(sum("store_hits") > 0 && sum("store_misses") > 0);

    a.stop();
    b.stop();
    let _ = (fs::remove_dir_all(&root_a), fs::remove_dir_all(&root_b));
}

/// The same batch of specs must produce identical digests whether the
/// server runs 1 worker or 4 — scheduling order, queue contention and
/// store sharing must not leak into results.
#[test]
fn digests_are_invariant_across_worker_counts() {
    let seeds: Vec<u64> = (0..5).map(|i| run_seed(1234, i)).collect();
    let mut digest_sets: Vec<Vec<String>> = Vec::new();

    for workers in [1usize, 4] {
        let root = temp_root(&format!("invariance-{workers}"));
        let server = hifi_serve::start(
            ServeConfig::new(&root)
                .with_workers(workers)
                .with_capacity(16),
        )
        .expect("start");
        let addr = server.addr();

        // Mixed priorities so the 4-worker run schedules differently.
        let ids: Vec<u64> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                submit(
                    addr,
                    &JobRequest {
                        spec_seed: seed,
                        priority: (i % 10) as u8,
                        pristine: true,
                    },
                )
            })
            .collect();
        let digests: Vec<String> = ids
            .into_iter()
            .map(|id| text(&wait_done(addr, id), "digest"))
            .collect();
        digest_sets.push(digests);

        server.stop();
        let _ = fs::remove_dir_all(&root);
    }

    assert_eq!(
        digest_sets[0], digest_sets[1],
        "digests must not depend on the worker count"
    );
}

/// In-flight duplicates alias onto one execution: with a single worker
/// wedged behind a queue, duplicates of a queued job are admitted without
/// consuming queue slots, counted as dedup hits, and resolve to the same
/// digest as the original.
#[test]
fn in_flight_duplicates_alias_without_burning_queue_slots() {
    let root = temp_root("alias");
    let server =
        hifi_serve::start(ServeConfig::new(&root).with_workers(1).with_capacity(2)).expect("start");
    let addr = server.addr();

    let request = JobRequest {
        spec_seed: run_seed(99, 0),
        priority: 0,
        pristine: true,
    };
    let original = submit(addr, &request);
    // Duplicates while the original is queued/running: all aliased, and
    // admission never 429s even though capacity is 2.
    let duplicates: Vec<u64> = (0..6).map(|_| submit(addr, &request)).collect();

    let original_digest = text(&wait_done(addr, original), "digest");
    for id in duplicates {
        let status = wait_done(addr, id);
        assert_eq!(text(&status, "digest"), original_digest);
    }

    let stats = client::get(addr, "/stats").unwrap().json().unwrap();
    let jobs = stats.field("jobs").unwrap().clone();
    assert!(
        num(&jobs, "dedup_hits") >= 1,
        "aliasing must be visible in stats: {stats:?}"
    );

    server.stop();
    let _ = fs::remove_dir_all(&root);
}

/// A full queue answers 429 with a Retry-After header, and the slot
/// re-opens once the queue drains.
#[test]
fn backpressure_advertises_retry_after() {
    let root = temp_root("429");
    let server = hifi_serve::start(
        ServeConfig::new(&root)
            .with_workers(1)
            .with_capacity(1)
            .with_retry_after(3),
    )
    .expect("start");
    let addr = server.addr();

    let mut rejected = None;
    for i in 0..16u64 {
        let request = JobRequest {
            spec_seed: run_seed(5, i),
            priority: 0,
            pristine: true,
        };
        let resp = client::post(addr, "/jobs", &request.to_json()).unwrap();
        if resp.status == 429 {
            rejected = Some(resp);
            break;
        }
        assert_eq!(resp.status, 202);
    }
    let rejected = rejected.expect("capacity-1 queue never pushed back");
    assert_eq!(rejected.header("Retry-After"), Some("3"));
    let value = rejected.json().unwrap();
    assert!(!text(&value, "error").is_empty());
    assert_eq!(num(&value, "retry_after_secs"), 3);

    server.stop();
    let _ = fs::remove_dir_all(&root);
}
