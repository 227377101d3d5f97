//! Concurrent access to one artifact store root: parallel cold runs must
//! leave bit-identical store contents to a serial run, warm readers must
//! coexist with cold writers, and gc must be safe to run while another
//! thread is reading.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use hifi_circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig, PipelineReport};
use hifi_store::{ArtifactStore, Key};

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hifi-concurrency-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// Every object blob in the store, keyed by its hex name, byte-exact.
fn collect_objects(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut objects = BTreeMap::new();
    let entries = fs::read_dir(root.join("objects")).expect("objects dir");
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if Key::from_hex(&name).is_some() {
            let bytes = fs::read(entry.path()).expect("readable blob");
            objects.insert(name, bytes);
        }
    }
    objects
}

fn assert_same_analysis(a: &PipelineReport, b: &PipelineReport) {
    assert_eq!(a.identified, b.identified);
    assert_eq!(a.device_count, b.device_count);
    assert_eq!(a.alignment_corrections, b.alignment_corrections);
    assert_eq!(a.measurement, b.measurement);
}

/// Two threads race the same cold spec into one root; the store
/// they leave behind must be bit-identical to a serial cold run into a
/// fresh root (replayed stage puts are content-addressed, so the race
/// cannot smear blob contents).
#[test]
fn concurrent_cold_cold_runs_leave_a_store_bit_identical_to_serial() {
    let shared = temp_root("coldcold-shared");
    let serial = temp_root("coldcold-serial");

    let config = |root: &Path| PipelineConfig::pristine(SaTopologyKind::Classic).with_store(root);

    let (left, right) = std::thread::scope(|scope| {
        let a = scope.spawn(|| Pipeline::new(config(&shared)).run_instrumented());
        let b = scope.spawn(|| Pipeline::new(config(&shared)).run_instrumented());
        (a.join().unwrap(), b.join().unwrap())
    });
    let left = left.expect("concurrent run A");
    let right = right.expect("concurrent run B");
    let reference = Pipeline::new(config(&serial))
        .run_instrumented()
        .expect("serial run");

    assert_same_analysis(&left, &right);
    assert_same_analysis(&left, &reference);
    assert_eq!(
        collect_objects(&shared),
        collect_objects(&serial),
        "racing cold runs must persist exactly the serial artifacts"
    );

    let _ = fs::remove_dir_all(&shared);
    let _ = fs::remove_dir_all(&serial);
}

/// A warm reader of one spec and a cold writer of a different spec share
/// the root concurrently; the warm result matches its own cold run and
/// the final store is the union of both serial stores, byte-exact.
#[test]
fn concurrent_cold_warm_runs_match_their_serial_counterparts() {
    let shared = temp_root("coldwarm-shared");
    let serial_a = temp_root("coldwarm-serial-a");
    let serial_b = temp_root("coldwarm-serial-b");

    let config_a = |root: &Path| PipelineConfig::pristine(SaTopologyKind::Classic).with_store(root);
    let config_b =
        |root: &Path| PipelineConfig::pristine(SaTopologyKind::OffsetCancellation).with_store(root);

    // Pre-warm spec A into the shared root.
    let prewarm = Pipeline::new(config_a(&shared))
        .run_instrumented()
        .expect("pre-warm");

    let (warm, cold) = std::thread::scope(|scope| {
        let a = scope.spawn(|| Pipeline::new(config_a(&shared)).run_instrumented());
        let b = scope.spawn(|| Pipeline::new(config_b(&shared)).run_instrumented());
        (a.join().unwrap(), b.join().unwrap())
    });
    let warm = warm.expect("warm run");
    let cold = cold.expect("cold run");

    let t = warm.telemetry.as_ref().expect("telemetry");
    assert!(
        t.counter(hifi_telemetry::names::STORE_HIT) > 0,
        "second run of spec A must hit the shared store"
    );
    assert_same_analysis(&warm, &prewarm);

    let ref_a = Pipeline::new(config_a(&serial_a))
        .run_instrumented()
        .expect("serial A");
    let ref_b = Pipeline::new(config_b(&serial_b))
        .run_instrumented()
        .expect("serial B");
    assert_same_analysis(&warm, &ref_a);
    assert_same_analysis(&cold, &ref_b);

    let mut expected = collect_objects(&serial_a);
    expected.extend(collect_objects(&serial_b));
    assert_eq!(
        collect_objects(&shared),
        expected,
        "shared root must hold exactly the union of both serial stores"
    );

    let _ = fs::remove_dir_all(&shared);
    let _ = fs::remove_dir_all(&serial_a);
    let _ = fs::remove_dir_all(&serial_b);
}

/// gc takes no lock and evicts by removing whole files, so a reader
/// hammering every object while gc runs repeatedly must never see an
/// error or a partial blob — at worst a miss for an evicted key.
#[test]
fn gc_during_reads_is_safe() {
    let root = temp_root("gc-read");
    let store = ArtifactStore::open(&root).expect("open");

    // 64 objects of 1 KiB.
    let keys: Vec<Key> = (0..64u64)
        .map(|i| Key::from_parts(i + 1, i.wrapping_mul(0x9e37) + 7))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let payload = vec![i as u8; 1024];
        store.put(*key, &payload).expect("put");
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader_store = ArtifactStore::open(&root).expect("open reader");
        let reader_keys = keys.clone();
        let stop_ref = &stop;
        let reader = scope.spawn(move || {
            let mut reads = 0usize;
            let mut i = 0usize;
            while !stop_ref.load(Ordering::Relaxed) {
                let key = reader_keys[i % reader_keys.len()];
                let got = reader_store.get(key).expect("read must never error");
                if let Some(bytes) = got {
                    assert_eq!(bytes.len(), 1024, "evictions must be atomic");
                }
                reads += 1;
                i += 1;
            }
            reads
        });

        // Repeatedly shrink the budget while the reader runs.
        for round in 0..8u64 {
            let budget = 48 * 1024 - round * 4 * 1024;
            store.gc(budget).expect("gc must not error under readers");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().unwrap();
        assert!(reads > 0, "reader made progress under gc");
    });

    // The store is still fully consistent afterwards.
    let (intact, corrupt) = store.verify().expect("verify");
    assert_eq!(corrupt, 0, "no corrupt blobs after concurrent gc");
    let (objects, bytes) = store.usage();
    assert!(intact >= objects);
    assert!(
        bytes <= 48 * 1024,
        "final usage {bytes} exceeds the last gc budget"
    );

    let _ = fs::remove_dir_all(&root);
}
