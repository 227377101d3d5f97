//! End-to-end fault injection & recovery: a recoverable fault plan must be
//! invisible in the pipeline's output (byte-identical reports, cold and
//! warm store), injected faults must interleave cleanly with real blob
//! corruption (evict + recompute), and exhausted retry budgets must
//! surface as typed `GaveUp` errors — never panics or silent damage.
//!
//! The CI fault-matrix job runs this suite once per seed via the
//! `HIFI_FAULT_SEED` environment variable (see `scripts/ci.sh`), so every
//! assertion here must hold for *any* seed, not a hand-picked one.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hifi_circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineReport};
use hifi_faults::{retry, FaultKind, FaultSpec, RetryError, RetryPolicy, VirtualClock};
use hifi_imaging::ImagingConfig;
use hifi_telemetry::names;

/// The fault seed under test: `HIFI_FAULT_SEED` when set (the CI matrix
/// job exports 3 different values), else a fixed default.
fn fault_seed() -> u64 {
    std::env::var("HIFI_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "hifi-faultrec-{}-{tag}-{}",
        std::process::id(),
        fault_seed()
    ));
    let _ = fs::remove_dir_all(&root);
    root
}

fn imaged_config() -> PipelineConfig {
    let imaging = ImagingConfig {
        dwell_us: 6.0,
        drift_sigma_px: 0.6,
        brightness_wander: 1.0,
        slice_voxels: 2,
        ..ImagingConfig::default()
    };
    PipelineConfig::with_imaging(SaTopologyKind::Classic, imaging)
}

/// A plan where every fault kind fires often but never more than twice in
/// a row at one site — fully recoverable under the default retry policy.
fn recoverable_spec() -> FaultSpec {
    FaultSpec::uniform(fault_seed(), 0.5)
}

fn assert_reports_identical(base: &PipelineReport, report: &PipelineReport, what: &str) {
    assert_eq!(base.identified, report.identified, "{what}");
    assert_eq!(base.device_count, report.device_count, "{what}");
    assert_eq!(
        base.alignment_corrections, report.alignment_corrections,
        "{what}"
    );
    assert_eq!(
        base.worst_dimension_deviation.map(|d| d.value().to_bits()),
        report
            .worst_dimension_deviation
            .map(|d| d.value().to_bits()),
        "{what}"
    );
    assert_eq!(base.measurement, report.measurement, "{what}");
    assert_eq!(base.extraction.netlist, report.extraction.netlist, "{what}");
    assert_eq!(base.extraction.devices, report.extraction.devices, "{what}");
}

/// Flips a payload byte in every stored blob (the store's checksum detects
/// the damage on the next read, evicts, and the pipeline recomputes).
fn corrupt_every_blob(root: &Path) -> usize {
    let mut corrupted = 0;
    // Blobs (32-hex file names) sit directly under objects/.
    for entry in fs::read_dir(root.join("objects")).expect("objects dir") {
        let path = entry.expect("entry").path();
        let is_blob = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(hifi_store::Key::from_hex)
            .is_some();
        if !is_blob {
            continue;
        }
        let mut raw = fs::read(&path).expect("read blob");
        let last = raw.len() - 1;
        raw[last] ^= 0x5a;
        fs::write(&path, raw).expect("rewrite blob");
        corrupted += 1;
    }
    corrupted
}

/// Tentpole acceptance: with a non-empty recoverable plan, the pipeline
/// output is byte-identical to the zero-fault run.
#[test]
fn recoverable_plan_is_invisible_in_the_report() {
    let clean = Pipeline::new(imaged_config()).run().expect("clean run");
    let faulted = Pipeline::new(imaged_config().with_faults(recoverable_spec()))
        .run_instrumented()
        .expect("faulted run");
    assert_reports_identical(&clean, &faulted, &format!("seed {}", fault_seed()));
    assert!(!faulted.measurement.confidence.is_degraded());

    let telemetry = faulted.telemetry.expect("telemetry populated");
    let f = &telemetry.faults;
    assert!(f.injected > 0, "the plan must actually fire: {f:?}");
    assert_eq!(f.degraded, 0, "recoverable plan must not degrade: {f:?}");
    assert!(
        f.recovered > 0 && f.retried >= f.recovered,
        "recoveries consistent: {f:?}"
    );
}

/// One ledger charges every backoff: on a faulted imaged run the
/// `fault.backoff_delay_us` histogram holds one sample per counted retry,
/// slice re-acquisitions, stage retries and store I/O retries alike, and
/// `fault.backoff_ms` is their sum.
#[test]
fn every_counted_retry_is_one_backoff_sample() {
    let root = temp_root("ledger");
    let report = Pipeline::new(
        imaged_config()
            .with_store(&root)
            .with_faults(recoverable_spec()),
    )
    .run_instrumented()
    .expect("faulted run");
    let telemetry = report.telemetry.expect("telemetry populated");
    let retried = telemetry.counter(names::FAULT_RETRIED);
    assert!(retried > 0, "seed {}: the plan must retry", fault_seed());
    let delays = telemetry
        .histogram(names::HIST_FAULT_BACKOFF_US)
        .expect("backoff samples");
    assert_eq!(delays.count, retried, "seed {}", fault_seed());
    let waited_us = telemetry
        .gauges
        .iter()
        .find(|g| g.name == names::FAULT_BACKOFF_MS)
        .map_or(0.0, |g| g.last * 1e3);
    let (fewest, most) = (delays.count * delays.min, delays.count * delays.max);
    assert!(
        (fewest as f64..=most as f64).contains(&waited_us),
        "backoff_ms {waited_us} us outside [{fewest}, {most}] us"
    );
    let _ = fs::remove_dir_all(&root);
}

/// The same invisibility must hold through the artifact store: a cold
/// (populating) faulted run and a warm (replaying) faulted run both match
/// the clean store-less baseline. Store reads/writes themselves are under
/// injection here, so the warm path exercises retry around `get` too.
#[test]
fn recoverable_plan_with_store_matches_clean_cold_and_warm() {
    let root = temp_root("store");
    let baseline = Pipeline::new(imaged_config()).run().expect("clean run");
    let faulted = Pipeline::new(
        imaged_config()
            .with_store(&root)
            .with_faults(recoverable_spec()),
    );
    let cold = faulted.run().expect("cold faulted run");
    let warm = faulted.run().expect("warm faulted run");
    assert_reports_identical(&baseline, &cold, "cold");
    assert_reports_identical(&baseline, &warm, "warm");
    let _ = fs::remove_dir_all(&root);
}

/// Injected transient faults interleaved with *real* on-disk corruption:
/// after corrupting every blob, a faulted rerun must retry through the
/// injected failures, detect the corruption by checksum, evict, recompute,
/// re-persist — and still produce the clean report. (Injected corruption
/// is zeroed here so the hit/miss counts below are exact for any seed; it
/// gets its own test.)
#[test]
fn injected_faults_interleave_with_real_corruption() {
    let root = temp_root("corrupt");
    let spec = recoverable_spec().with_rate(FaultKind::CorruptBlob, 0.0);
    let baseline = Pipeline::new(imaged_config()).run().expect("clean run");
    let faulted = Pipeline::new(imaged_config().with_store(&root).with_faults(spec));
    faulted.run().expect("cold faulted run");
    assert_eq!(corrupt_every_blob(&root), 5, "one blob per cached stage");

    let recovered = faulted.run_instrumented().expect("recovery run");
    assert_reports_identical(&baseline, &recovered, "recovery");
    let telemetry = recovered.telemetry.expect("telemetry populated");
    assert_eq!(
        telemetry.counter(hifi_telemetry::names::STORE_MISS),
        5,
        "all corrupted blobs evicted and recomputed"
    );
    assert!(telemetry.counter(hifi_telemetry::names::STORE_BYTES_WRITTEN) > 0);

    // The store heals: the next faulted run replays every stage.
    let warm = faulted.run_instrumented().expect("healed run");
    assert_eq!(
        warm.telemetry
            .expect("telemetry")
            .counter(hifi_telemetry::names::STORE_MISS),
        0
    );
    let _ = fs::remove_dir_all(&root);
}

/// A zero-retry policy turns the first injected transient into a typed
/// `GaveUp` carrying the failure site, with no virtual backoff spent.
#[test]
fn zero_retry_policy_gives_up_on_first_transient() {
    let root = temp_root("zero-retry");
    let spec = FaultSpec::disabled()
        .with_seed(fault_seed())
        .with_rate(FaultKind::StoreRead, 1.0)
        .with_max_consecutive(u32::MAX);
    let err = Pipeline::new(
        PipelineConfig::pristine(SaTopologyKind::Classic)
            .with_store(&root)
            .with_faults(spec)
            .with_retry(RetryPolicy::none()),
    )
    .run()
    .expect_err("first read fails unrecoverably");
    match &err {
        PipelineError::GaveUp(e) => {
            assert!(e.site.starts_with("store.get:"), "site: {}", e.site);
            assert_eq!(e.attempts, 1);
            assert_eq!(e.waited, Duration::ZERO, "no retries → no backoff");
            assert!(e.last_error.contains("injected"), "{}", e.last_error);
        }
        other => panic!("expected GaveUp, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

/// The exponential backoff schedule saturates at `max_delay` and every
/// virtual wait is accounted on the clock: 10 ms, 40 ms, then 80 ms for
/// each remaining retry.
#[test]
fn backoff_saturates_at_the_delay_ceiling() {
    let policy = RetryPolicy {
        max_retries: 10,
        base_delay: Duration::from_millis(10),
        multiplier: 4.0,
        max_delay: Duration::from_millis(80),
    };
    assert_eq!(policy.backoff(0), Duration::from_millis(10));
    assert_eq!(policy.backoff(1), Duration::from_millis(40));
    for r in 2..1000 {
        assert_eq!(policy.backoff(r), Duration::from_millis(80), "retry {r}");
    }
    let expected_total = Duration::from_millis(10 + 40 + 8 * 80);
    assert_eq!(policy.total_budget(), expected_total);

    let clock = VirtualClock::new();
    let err = retry(
        &policy,
        &clock,
        |_: &&str| true,
        |_| Err::<(), _>("still down"),
    )
    .expect_err("op never succeeds");
    match err {
        RetryError::GaveUp(g) => {
            assert_eq!(g.attempts, 11, "initial try + 10 retries");
            assert_eq!(g.waited, expected_total);
        }
        RetryError::Fatal(_) => panic!("transient error must not be fatal"),
    }
    assert_eq!(
        clock.elapsed(),
        expected_total,
        "every backoff lands on the virtual clock"
    );
}

/// An *enabled* plan must never replay a clean run's cache (its artifacts
/// could be degraded), while a disabled plan shares it freely.
#[test]
fn enabled_plans_fork_the_cache_disabled_plans_share_it() {
    let root = temp_root("fork");
    let base = PipelineConfig::pristine(SaTopologyKind::Classic).with_store(&root);
    let misses = |cfg: PipelineConfig| {
        let t = Pipeline::new(cfg)
            .run_instrumented()
            .expect("run")
            .telemetry
            .expect("telemetry");
        (
            t.counter(hifi_telemetry::names::STORE_HIT),
            t.counter(hifi_telemetry::names::STORE_MISS),
        )
    };
    // Injected corruption is zeroed so the warm-path counts are exact
    // for any seed; transient read/write faults stay on at 50%.
    let enabled = recoverable_spec().with_rate(FaultKind::CorruptBlob, 0.0);
    assert_eq!(misses(base.clone()), (0, 2), "cold clean run populates");
    assert_eq!(
        misses(base.clone().with_faults(FaultSpec::disabled())),
        (2, 0),
        "disabled plan replays the clean cache"
    );
    assert_eq!(
        misses(base.clone().with_faults(enabled.clone())),
        (0, 2),
        "enabled plan computes under salted keys"
    );
    assert_eq!(
        misses(base.with_faults(enabled)),
        (2, 0),
        "same spec replays its own salted artifacts"
    );
    let _ = fs::remove_dir_all(&root);
}

/// Injected blob corruption (a read that passes I/O but fails the
/// checksum) must behave exactly like real corruption: evict, recompute,
/// identical output. Rate 1.0 with `max_consecutive = 1` makes the warm
/// miss count exact for any seed.
#[test]
fn injected_corruption_evicts_and_recomputes() {
    let root = temp_root("inj-corrupt");
    let clean = Pipeline::new(PipelineConfig::pristine(SaTopologyKind::Classic))
        .run()
        .expect("clean run");
    let spec = FaultSpec::disabled()
        .with_seed(fault_seed())
        .with_rate(FaultKind::CorruptBlob, 1.0)
        .with_max_consecutive(1);
    let faulted = Pipeline::new(
        PipelineConfig::pristine(SaTopologyKind::Classic)
            .with_store(&root)
            .with_faults(spec),
    );
    let cold = faulted.run_instrumented().expect("cold run");
    let t = cold.telemetry.expect("telemetry");
    // Cold reads find nothing to corrupt; both stages miss and persist.
    assert_eq!(t.counter(hifi_telemetry::names::STORE_MISS), 2);

    let warm = faulted.run_instrumented().expect("warm run");
    let t = warm.telemetry.expect("telemetry");
    assert_eq!(
        t.counter(hifi_telemetry::names::STORE_MISS),
        2,
        "every warm read is corrupted in memory → evicted → recomputed"
    );
    assert_eq!(clean.identified, warm.identified);
    assert_eq!(clean.measurement, warm.measurement);
    assert!(t.faults.injected >= 2, "corruption tallied: {:?}", t.faults);
    let _ = fs::remove_dir_all(&root);
}
