//! Incremental execution through the content-addressed artifact store:
//! hit/miss accounting in run telemetry, transparent recovery from
//! corrupted and undecodable blobs, key invalidation when the
//! configuration changes, and the error path for an unusable store root.

use std::fs;
use std::path::{Path, PathBuf};

use hifi_circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig, PipelineError};
use hifi_imaging::ImagingConfig;
use hifi_store::fingerprint::salts;
use hifi_store::{spec_fingerprint, ArtifactStore};
use hifi_telemetry::names;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hifi-artifact-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn imaged_config(store: &Path) -> PipelineConfig {
    let imaging = ImagingConfig {
        dwell_us: 6.0,
        drift_sigma_px: 0.6,
        brightness_wander: 1.0,
        slice_voxels: 2,
        ..ImagingConfig::default()
    };
    PipelineConfig::with_imaging(SaTopologyKind::Classic, imaging).with_store(store)
}

fn counter(report: &hifi_dram::pipeline::PipelineReport, name: &str) -> u64 {
    let t = report.telemetry.as_ref().expect("telemetry populated");
    t.counter(name)
}

fn store_counters(report: &hifi_dram::pipeline::PipelineReport) -> (u64, u64, u64, u64) {
    (
        counter(report, names::STORE_HIT),
        counter(report, names::STORE_MISS),
        counter(report, names::STORE_BYTES_READ),
        counter(report, names::STORE_BYTES_WRITTEN),
    )
}

/// The imaged pipeline has five cacheable stages (voxelize, acquire,
/// post-process, reconstruct, extract): a cold run misses and writes all
/// five, a warm run hits all five and writes nothing.
#[test]
fn imaged_cold_run_populates_and_warm_run_reuses_every_stage() {
    let root = temp_root("imaged-warm");
    let pipeline = Pipeline::new(imaged_config(&root));

    let cold = pipeline.run_instrumented().expect("cold run");
    let (hits, misses, read, written) = store_counters(&cold);
    assert_eq!((hits, misses), (0, 5), "cold: every stage misses");
    assert_eq!(read, 0, "cold: nothing to read");
    assert!(written > 0, "cold: artifacts written");

    let warm = pipeline.run_instrumented().expect("warm run");
    let (hits, misses, read, written) = store_counters(&warm);
    assert_eq!((hits, misses), (5, 0), "warm: every stage hits");
    assert!(read > 0, "warm: artifacts read");
    assert_eq!(written, 0, "warm: nothing rewritten");

    assert_eq!(cold.identified, warm.identified);
    assert_eq!(cold.device_count, warm.device_count);
    assert_eq!(cold.alignment_corrections, warm.alignment_corrections);
    assert_eq!(cold.measurement, warm.measurement);
    let _ = fs::remove_dir_all(&root);
}

/// A pristine (no imaging) pipeline caches voxelize + extract only.
#[test]
fn pristine_pipeline_caches_two_stages() {
    let root = temp_root("pristine");
    let pipeline =
        Pipeline::new(PipelineConfig::pristine(SaTopologyKind::Classic).with_store(&root));
    let cold = pipeline.run_instrumented().expect("cold run");
    assert_eq!(store_counters(&cold).1, 2, "cold: two stage misses");
    let warm = pipeline.run_instrumented().expect("warm run");
    let (hits, misses, _, written) = store_counters(&warm);
    assert_eq!((hits, misses, written), (2, 0, 0));
    assert_eq!(warm.identified, Some(SaTopologyKind::Classic));
    let _ = fs::remove_dir_all(&root);
}

/// Flipping bytes in every stored blob must not error or panic: each
/// corrupted artifact is detected by checksum, evicted, counted as
/// `store.corrupt`, recomputed, and re-persisted — and the rerun's report
/// is unchanged.
#[test]
fn corrupted_blobs_are_recomputed_not_fatal() {
    let root = temp_root("corrupt");
    let pipeline = Pipeline::new(imaged_config(&root));
    let cold = pipeline.run_instrumented().expect("cold run");

    // Every blob (a 32-hex file name) sits directly under objects/.
    let mut corrupted = 0;
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
        raw[last] ^= 0x5a; // flip payload bits; the header checksum catches it
        fs::write(&path, raw).expect("rewrite blob");
        corrupted += 1;
    }
    assert_eq!(corrupted, 5, "one blob per cached stage");

    let recovered = pipeline.run_instrumented().expect("recovery run");
    let (hits, misses, _, written) = store_counters(&recovered);
    assert_eq!((hits, misses), (0, 5), "all blobs corrupt → all recomputed");
    assert_eq!(counter(&recovered, names::STORE_CORRUPT), 5);
    assert!(written > 0, "recomputed artifacts re-persisted");
    assert_eq!(cold.identified, recovered.identified);
    assert_eq!(cold.measurement, recovered.measurement);

    // The re-persisted store serves the next run entirely from cache.
    let warm = pipeline.run_instrumented().expect("warm run");
    assert_eq!(store_counters(&warm).1, 0, "store healthy again");
    assert_eq!(counter(&warm, names::STORE_CORRUPT), 0);
    let _ = fs::remove_dir_all(&root);
}

/// A blob that passes the store's checksum but does not decode (say, one
/// written by an incompatible build) is a miss, not a hit: the stage
/// recomputes and rewrites it, and the report is unchanged.
#[test]
fn undecodable_blob_is_a_miss_and_is_rewritten() {
    let root = temp_root("undecodable");
    let config = PipelineConfig::pristine(SaTopologyKind::Classic).with_store(&root);
    let vox_key = hifi_store::stage(salts::VOXELIZE, spec_fingerprint(&config.spec)).finish();
    let pipeline = Pipeline::new(config);
    let cold = pipeline.run_instrumented().expect("cold run");
    let store = ArtifactStore::open(&root).expect("open store");
    store.put(vox_key, b"not a volume").expect("plant garbage");

    let rerun = pipeline.run_instrumented().expect("rerun");
    let (hits, misses, _, written) = store_counters(&rerun);
    assert_eq!((hits, misses), (1, 1), "extract still hits");
    assert!(written > 0, "the volume is rewritten");
    assert_eq!(counter(&rerun, names::STORE_CORRUPT), 0, "checksum passed");
    let blob = store.get(vox_key).expect("get").expect("rewritten");
    assert!(hifi_store::codec::decode_volume(&blob).is_ok());
    assert_eq!(cold.identified, rerun.identified);
    assert_eq!(cold.device_count, rerun.device_count);
    assert_eq!(cold.measurement, rerun.measurement);
    let _ = fs::remove_dir_all(&root);
}

/// Changing any configuration knob must change the stage keys downstream
/// of it: a run with a different seed shares the voxelize artifact but
/// recomputes the imaging chain.
#[test]
fn changed_imaging_seed_invalidates_downstream_stages_only() {
    let root = temp_root("invalidate");
    let pipeline = Pipeline::new(imaged_config(&root));
    pipeline.run_instrumented().expect("cold run");

    let mut other_cfg = imaged_config(&root);
    other_cfg.imaging.as_mut().expect("imaging set").seed ^= 1;
    let other = Pipeline::new(other_cfg)
        .run_instrumented()
        .expect("changed-seed run");
    let (hits, misses, _, _) = store_counters(&other);
    assert_eq!(hits, 1, "voxelize artifact is seed-independent");
    assert_eq!(misses, 4, "imaging chain recomputed for the new seed");
    let _ = fs::remove_dir_all(&root);
}

/// An unusable store root is an environment failure, not a cache miss: it
/// surfaces as `PipelineError::Store` with the underlying error chained
/// through `source()`.
#[test]
fn unusable_store_root_surfaces_as_store_error() {
    use std::error::Error;
    let root = temp_root("bad-root");
    fs::create_dir_all(root.parent().expect("parent")).expect("mkdir");
    fs::write(&root, b"a file, not a directory").expect("occupy root");

    let err = Pipeline::new(imaged_config(&root))
        .run()
        .expect_err("open fails");
    match &err {
        PipelineError::Store(store_err) => {
            assert_eq!(store_err.op(), "open");
            let source = err.source().expect("store errors carry a source");
            assert!(
                source.to_string().contains("artifact store"),
                "source: {source}"
            );
        }
        other => panic!("expected Store error, got {other:?}"),
    }
    let _ = fs::remove_file(&root);
}
