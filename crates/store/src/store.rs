//! The on-disk content-addressed artifact store.
//!
//! A store is one flat directory of blobs and nothing else:
//!
//! ```text
//! <root>/objects/<32-hex-key>   one artifact per file, self-checking header
//! ```
//!
//! Blobs carry their own header (magic, version, payload length, FNV
//! checksum), so each is verifiable on its own, and a blob's mtime records
//! its recency: `get` stamps a hit, `put` stamps the blob before renaming
//! it into place, and `gc` evicts the oldest stamps first. There is no
//! index and no lock; `usage`, `gc` and `verify` list the directory.
//! Writers stage to a unique temp file and `rename` into place, so
//! concurrent writers of the *same* key race benignly (identical content)
//! and readers never observe a half-written object. Corrupted blobs are
//! detected by checksum, evicted, and reported as a miss — the pipeline
//! recomputes instead of failing — and the handle that evicted them counts
//! them ([`ArtifactStore::corrupt_evictions`]).

use std::fs;
use std::hash::Hasher;
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use hifi_faults::{FaultKind, FaultPlan};

use crate::fingerprint::Key;

/// A store operation failure (I/O level, not corruption — corruption is
/// handled internally by falling back to a miss).
///
/// Keeps `Clone + PartialEq` (the pipeline error type requires both) by
/// carrying the underlying I/O error as its kind and rendered message
/// rather than the live `std::io::Error`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// The operation that failed (`"open"`, `"get"`, `"put"`, …).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying `std::io::ErrorKind`.
        kind: ErrorKind,
        /// The rendered I/O error message.
        message: String,
    },
}

impl StoreError {
    fn io(op: &'static str, path: &Path, err: &std::io::Error) -> Self {
        Self::Io {
            op,
            path: path.to_path_buf(),
            kind: err.kind(),
            message: err.to_string(),
        }
    }

    /// A transient failure injected by an attached [`FaultPlan`]; carries
    /// `ErrorKind::Interrupted` so [`StoreError::is_transient`] holds.
    fn injected(op: &'static str, path: &Path, kind: FaultKind) -> Self {
        Self::Io {
            op,
            path: path.to_path_buf(),
            kind: ErrorKind::Interrupted,
            message: format!("injected transient {kind} fault"),
        }
    }

    /// The operation that failed (`"open"`, `"get"`, `"put"`, …).
    pub fn op(&self) -> &'static str {
        let Self::Io { op, .. } = self;
        op
    }

    /// The path involved in the failure.
    pub fn path(&self) -> &Path {
        let Self::Io { path, .. } = self;
        path
    }

    /// Whether retrying the failed operation can plausibly succeed.
    ///
    /// Injected faults and interrupted/timed-out I/O are transient; real
    /// environmental failures (permissions, disk full) are not.
    pub fn is_transient(&self) -> bool {
        let Self::Io { kind, .. } = self;
        matches!(
            kind,
            ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock
        )
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let Self::Io {
            op, path, message, ..
        } = self;
        write!(
            f,
            "artifact store {} failed at {}: {}",
            op,
            path.display(),
            message
        )
    }
}

impl std::error::Error for StoreError {}

/// Blob header magic.
const BLOB_MAGIC: &[u8; 4] = b"HFST";
/// Blob header version.
const BLOB_VERSION: u16 = 1;
/// Header bytes: magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 2 + 8 + 8;

/// FNV-1a checksum of a payload (independent of the content key, which
/// hashes the *inputs*; this hashes the stored *bytes*).
fn checksum(payload: &[u8]) -> u64 {
    let mut h = fnv::FnvHasher::default();
    h.write(payload);
    h.finish()
}

/// One blob found by [`ArtifactStore::list`].
struct Blob {
    key: Key,
    /// On-disk bytes, header included.
    bytes: u64,
    /// Last `get` hit or `put`.
    stamped: SystemTime,
}

/// A content-addressed artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    /// Optional fault-injection plan exercising the error paths: transient
    /// read/write failures and in-memory blob corruption. `None` (the
    /// default) costs nothing on the hot paths.
    fault_plan: Option<Arc<FaultPlan>>,
    /// Corrupt blobs this handle and its clones evicted.
    corrupt: Arc<AtomicU64>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// Only blobs directly under `objects/` are read. A store written with
    /// the sharded layout (`objects/<s>/<key>` with per-shard manifests and
    /// lock files) opens as an empty cache: its shard directories are never
    /// read, and `usage`, `verify` and `gc` do not see them. Delete the
    /// directory to reclaim their space. A store written before sharding
    /// kept its blobs in this same flat layout, so they are read as they
    /// are; its root `manifest` is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if `objects/` cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let store = Self {
            root: root.into(),
            fault_plan: None,
            corrupt: Arc::default(),
        };
        let dir = store.objects_dir();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io("open", &dir, &e))?;
        Ok(store)
    }

    /// Attaches a fault plan: subsequent [`ArtifactStore::get`] and
    /// [`ArtifactStore::put`] calls consult it and may fail transiently
    /// (`StoreRead`/`StoreWrite`, surfacing as [`StoreError`] with
    /// [`StoreError::is_transient`] true) or observe a corrupted payload
    /// (`CorruptBlob`, flipping a byte of the read buffer so the real
    /// evict-and-recompute path runs against an intact on-disk object).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Blobs that [`ArtifactStore::get`] evicted for failing their
    /// checksum through this handle or a clone of it.
    pub fn corrupt_evictions(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn objects_dir(&self) -> PathBuf {
        self.root.join("objects")
    }

    fn object_path(&self, key: Key) -> PathBuf {
        self.objects_dir().join(key.hex())
    }

    /// Fetches the payload stored under `key`.
    ///
    /// Returns `Ok(None)` on a miss **or** on a corrupted blob (bad magic,
    /// truncation, checksum mismatch) — the damaged object is evicted,
    /// counted in [`ArtifactStore::corrupt_evictions`], and the caller
    /// recomputes. Only environmental I/O failures surface as errors.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the object exists but cannot be read for
    /// I/O reasons (permissions, hardware).
    pub fn get(&self, key: Key) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.object_path(key);
        if let Some(plan) = &self.fault_plan {
            if plan.check(FaultKind::StoreRead, &key.hex()) {
                return Err(StoreError::injected("get", &path, FaultKind::StoreRead));
            }
        }
        let mut file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io("get", &path, &e)),
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| StoreError::io("get", &path, &e))?;
        if let Some(plan) = &self.fault_plan {
            // Corrupt the *read buffer*, not the file: the checksum check
            // below fails, the (intact) object is evicted, and the caller
            // recomputes — exactly the bit-rot path, deterministically.
            if !buf.is_empty() && plan.check(FaultKind::CorruptBlob, &key.hex()) {
                let last = buf.len() - 1;
                buf[last] ^= 0x01;
            }
        }
        match Self::check_blob(&buf) {
            Some(payload_range) => {
                // Recency only orders eviction, so a failed stamp (say, a
                // read-only store) must not turn a hit into an error.
                let _ = file.set_modified(SystemTime::now());
                Ok(Some(buf[payload_range].to_vec()))
            }
            None => {
                // Corrupted: evict and report a miss so the stage recomputes.
                drop(file);
                let _ = fs::remove_file(&path);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Validates a raw blob; returns the payload byte range if intact.
    fn check_blob(buf: &[u8]) -> Option<core::ops::Range<usize>> {
        if buf.len() < HEADER_LEN || &buf[..4] != BLOB_MAGIC {
            return None;
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().ok()?);
        if version != BLOB_VERSION {
            return None;
        }
        let len = u64::from_le_bytes(buf[6..14].try_into().ok()?) as usize;
        let sum = u64::from_le_bytes(buf[14..22].try_into().ok()?);
        let payload = buf.get(HEADER_LEN..)?;
        if payload.len() != len || checksum(payload) != sum {
            return None;
        }
        Some(HEADER_LEN..buf.len())
    }

    /// Stores `payload` under `key` (atomic temp-file + rename). A failed
    /// put leaves no temp file behind.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the object cannot be written.
    pub fn put(&self, key: Key, payload: &[u8]) -> Result<(), StoreError> {
        let path = self.object_path(key);
        if let Some(plan) = &self.fault_plan {
            if plan.check(FaultKind::StoreWrite, &key.hex()) {
                return Err(StoreError::injected("put", &path, FaultKind::StoreWrite));
            }
        }
        // The temp name must be unique per *put*, not per key: two threads
        // of one process racing the same key would otherwise share a temp
        // path, and the loser's rename fails NotFound after the winner's
        // rename consumes the file.
        static PUT_SERIAL: AtomicU64 = AtomicU64::new(0);
        let serial = PUT_SERIAL.fetch_add(1, Ordering::Relaxed);
        let tmp = self.objects_dir().join(format!(
            ".tmp.{}.{serial}.{}",
            std::process::id(),
            key.hex()
        ));
        let written = write_blob(&tmp, payload)
            .and_then(|()| fs::rename(&tmp, &path).map_err(|e| StoreError::io("put", &path, &e)));
        if written.is_err() {
            // `list` skips temp names, so nothing else would reclaim it.
            let _ = fs::remove_file(&tmp);
        }
        written
    }

    /// Every blob in `objects/`: the key-named regular files. Temp files,
    /// strays, and an older build's shard directories are skipped.
    fn list(&self) -> Result<Vec<Blob>, StoreError> {
        let dir = self.objects_dir();
        let entries = fs::read_dir(&dir).map_err(|e| StoreError::io("list", &dir, &e))?;
        let mut blobs = Vec::new();
        for entry in entries.flatten() {
            let Some(key) = entry.file_name().to_str().and_then(Key::from_hex) else {
                continue;
            };
            // A blob evicted since the listing has no metadata; skip it.
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_file() {
                blobs.push(Blob {
                    key,
                    bytes: meta.len(),
                    stamped: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                });
            }
        }
        Ok(blobs)
    }

    /// Number of objects and their total on-disk bytes; `(0, 0)` if
    /// `objects/` cannot be listed.
    pub fn usage(&self) -> (usize, u64) {
        let blobs = self.list().unwrap_or_default();
        (blobs.len(), blobs.iter().map(|b| b.bytes).sum())
    }

    /// Evicts least-recently-used objects until the store holds at most
    /// `max_bytes`. Returns the number of objects evicted.
    ///
    /// Recency is each blob's mtime, ties broken by key. An object touched
    /// between the listing and its eviction may be evicted anyway; the
    /// next run recomputes it. One that is already gone is not counted.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if `objects/` cannot be listed or a blob
    /// cannot be removed.
    pub fn gc(&self, max_bytes: u64) -> Result<usize, StoreError> {
        let mut blobs = self.list()?;
        blobs.sort_unstable_by_key(|b| (b.stamped, b.key));
        let mut total: u64 = blobs.iter().map(|b| b.bytes).sum();
        let mut evicted = 0;
        for blob in &blobs {
            if total <= max_bytes {
                break;
            }
            let path = self.object_path(blob.key);
            match fs::remove_file(&path) {
                Ok(()) => evicted += 1,
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(StoreError::io("gc", &path, &e)),
            }
            total -= blob.bytes;
        }
        Ok(evicted)
    }

    /// Re-checksums every object; returns `(intact, corrupt)` counts.
    /// Corrupt objects are left in place (use [`ArtifactStore::get`] or
    /// `gc` to evict).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if `objects/` cannot be listed.
    pub fn verify(&self) -> Result<(usize, usize), StoreError> {
        let (mut intact, mut corrupt) = (0, 0);
        for blob in self.list()? {
            match fs::read(self.object_path(blob.key)) {
                Ok(buf) if Self::check_blob(&buf).is_some() => intact += 1,
                _ => corrupt += 1,
            }
        }
        Ok((intact, corrupt))
    }
}

/// Writes a complete blob (header + payload) to `tmp`, synced and stamped
/// with the current time, so eviction order never rests on the
/// filesystem's coarse implicit timestamps.
fn write_blob(tmp: &Path, payload: &[u8]) -> Result<(), StoreError> {
    let mut file = fs::File::create(tmp).map_err(|e| StoreError::io("put", tmp, &e))?;
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(BLOB_MAGIC);
    header.extend_from_slice(&BLOB_VERSION.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&checksum(payload).to_le_bytes());
    file.write_all(&header)
        .and_then(|()| file.write_all(payload))
        .map_err(|e| StoreError::io("put", tmp, &e))?;
    // Best effort, like the stamp on a hit.
    let _ = file.set_modified(SystemTime::now());
    file.sync_all().map_err(|e| StoreError::io("put", tmp, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprinter;

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("hifi-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(&dir).expect("open store")
    }

    fn key_of(s: &str) -> Key {
        Fingerprinter::new().str(s).finish()
    }

    /// The directory the sharded layout kept `key` in.
    fn old_shard_dir(store: &ArtifactStore, key: Key) -> PathBuf {
        store
            .objects_dir()
            .join(format!("{:x}", key.parts().0 >> 60))
    }

    #[test]
    fn put_get_round_trips() {
        let store = temp_store("roundtrip");
        let key = key_of("alpha");
        assert_eq!(store.get(key).expect("get"), None);
        store.put(key, b"payload bytes").expect("put");
        assert_eq!(
            store.get(key).expect("get").as_deref(),
            Some(&b"payload bytes"[..])
        );
        let (n, bytes) = store.usage();
        assert_eq!(n, 1);
        assert!(bytes > b"payload bytes".len() as u64);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn sharded_layout_opens_as_an_empty_cache() {
        let store = temp_store("sharded");
        // Write one valid blob through the current API, then move it and a
        // manifest line where the sharded layout kept them: the blob in its
        // leading-nibble shard, the index next to it.
        let key = key_of("sharded");
        store.put(key, b"old layout").expect("put");
        let shard = old_shard_dir(&store, key);
        fs::create_dir(&shard).expect("shard dir");
        fs::write(shard.join("manifest"), format!("{} 32 0 1\n", key.hex())).expect("manifest");
        let old_blob = shard.join(key.hex());
        fs::rename(store.object_path(key), &old_blob).expect("sharded blob");

        // The old layout is a cold cache: nothing in it is read or counted.
        let reopened = ArtifactStore::open(store.root()).expect("open");
        assert_eq!(reopened.get(key).expect("get"), None);
        assert_eq!(reopened.usage(), (0, 0));
        assert_eq!(reopened.verify().expect("verify"), (0, 0));
        assert_eq!(reopened.gc(0).expect("gc"), 0);
        reopened.put(key, b"new layout").expect("put");
        assert_eq!(
            reopened.get(key).expect("get").as_deref(),
            Some(&b"new layout"[..])
        );
        assert!(old_blob.is_file(), "the old blob is never read or removed");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn files_left_by_older_builds_neither_block_nor_count() {
        let store = temp_store("old-files");
        let key = key_of("kappa");
        // A held lock and a garbage manifest in the shard an older build
        // would have locked for this key.
        let shard = old_shard_dir(&store, key);
        fs::create_dir(&shard).expect("shard dir");
        fs::write(shard.join(".lock"), b"").expect("lock");
        fs::write(shard.join("manifest"), b"not a manifest\n\xff\x00").expect("manifest");

        store.put(key, b"fresh").expect("put");
        assert_eq!(store.get(key).expect("get").as_deref(), Some(&b"fresh"[..]));
        assert_eq!(store.usage(), (1, (HEADER_LEN + 5) as u64));
        assert_eq!(store.verify().expect("verify"), (1, 0));
        assert_eq!(store.gc(0).expect("gc"), 1);
        assert_eq!(store.usage(), (0, 0));
        assert!(shard.join(".lock").is_file() && shard.join("manifest").is_file());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupted_blob_reads_as_miss_and_is_evicted() {
        let store = temp_store("corrupt");
        let key = key_of("beta");
        store.put(key, b"precious data").expect("put");
        let path = store.object_path(key);
        let mut raw = fs::read(&path).expect("read blob");
        let last = raw.len() - 1;
        raw[last] ^= 0x01; // flip one payload byte
        fs::write(&path, &raw).expect("rewrite blob");
        assert_eq!(store.get(key).expect("get"), None, "corrupt blob must miss");
        assert!(!path.exists(), "corrupt blob must be evicted");
        let reopened = ArtifactStore::open(store.root()).expect("reopen");
        assert_eq!(store.clone().corrupt_evictions(), 1, "clones share it");
        assert_eq!(reopened.corrupt_evictions(), 0, "other handles do not");
        // The store recovers: a re-put works and reads back.
        store.put(key, b"precious data").expect("re-put");
        assert!(store.get(key).expect("get").is_some());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_and_empty_blobs_miss_without_panic() {
        let store = temp_store("truncate");
        let key = key_of("gamma");
        store.put(key, b"0123456789").expect("put");
        let path = store.object_path(key);
        let raw = fs::read(&path).expect("read");
        fs::write(&path, &raw[..HEADER_LEN / 2]).expect("truncate");
        assert_eq!(store.get(key).expect("get"), None);
        store.put(key, b"x").expect("put");
        fs::write(store.object_path(key), b"").expect("empty");
        assert_eq!(store.get(key).expect("get"), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        // Recency lives in each blob's mtime, so a touch through a second
        // handle on the same root counts like one through the writer's.
        for reopen in [false, true] {
            let store = temp_store(&format!("gc-{reopen}"));
            let (a, b, c) = (key_of("a"), key_of("b"), key_of("c"));
            store.put(a, &[1u8; 100]).expect("put a");
            store.put(b, &[2u8; 100]).expect("put b");
            store.put(c, &[3u8; 100]).expect("put c");
            // Touch `a` so `b` becomes the coldest entry.
            let toucher = if reopen {
                ArtifactStore::open(store.root()).expect("reopen")
            } else {
                store.clone()
            };
            assert!(toucher.get(a).expect("get a").is_some());
            let (_, total) = store.usage();
            let evicted = store.gc(total - 1).expect("gc");
            assert_eq!(evicted, 1);
            assert_eq!(store.get(b).expect("get b"), None, "coldest entry evicted");
            assert!(store.get(a).expect("get a").is_some());
            assert!(store.get(c).expect("get c").is_some());
            assert_eq!(store.gc(0).expect("gc all"), 2);
            assert_eq!(store.usage().0, 0);
            let _ = fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn verify_counts_intact_and_corrupt() {
        let store = temp_store("verify");
        store.put(key_of("one"), b"one").expect("put");
        store.put(key_of("two"), b"two").expect("put");
        assert_eq!(store.verify().expect("verify"), (2, 0));
        let path = store.object_path(key_of("two"));
        let mut raw = fs::read(&path).expect("read");
        raw[HEADER_LEN] ^= 0xff;
        fs::write(&path, raw).expect("corrupt");
        assert_eq!(store.verify().expect("verify"), (1, 1));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_failed_put_leaves_no_temp_file() {
        let store = temp_store("failed-put");
        let key = key_of("iota");
        // A directory at the object path makes the final rename fail.
        fs::create_dir(store.object_path(key)).expect("plant directory");
        let err = store.put(key, b"never lands").expect_err("rename fails");
        assert!(!err.is_transient(), "{err}");
        let temps: Vec<_> = fs::read_dir(store.objects_dir())
            .expect("list")
            .flatten()
            .map(|e| e.file_name())
            .filter(|name| name.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(temps.is_empty(), "temp files left behind: {temps:?}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_writers_do_not_corrupt_the_store() {
        let store = temp_store("concurrent");
        let n_threads = 4;
        let per_thread = 8;
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = key_of(&format!("obj-{t}-{i}"));
                        let payload = vec![t as u8; 64 + i];
                        store.put(key, &payload).expect("put");
                        assert_eq!(store.get(key).expect("get").as_deref(), Some(&payload[..]));
                    }
                });
            }
        });
        let (n, _) = store.usage();
        assert_eq!(n, n_threads * per_thread);
        assert_eq!(store.verify().expect("verify"), (n_threads * per_thread, 0));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn injected_store_faults_are_transient_and_clear_on_retry() {
        use hifi_faults::FaultSpec;
        let spec = FaultSpec::disabled()
            .with_rate(FaultKind::StoreWrite, 1.0)
            .with_rate(FaultKind::StoreRead, 1.0)
            .with_max_consecutive(1);
        let plan = Arc::new(FaultPlan::new(spec));
        let store = temp_store("inject-rw").with_fault_plan(plan.clone());
        let key = key_of("epsilon");
        let err = store.put(key, b"x").expect_err("first put injected");
        assert!(err.is_transient(), "{err}");
        store.put(key, b"x").expect("second put clears");
        let err = store.get(key).expect_err("first get injected");
        assert!(err.is_transient(), "{err}");
        assert_eq!(store.get(key).expect("get").as_deref(), Some(&b"x"[..]));
        assert_eq!(plan.tally().injected, 2);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn injected_corruption_misses_then_recovers_via_reput() {
        use hifi_faults::FaultSpec;
        let spec = FaultSpec::disabled()
            .with_rate(FaultKind::CorruptBlob, 1.0)
            .with_max_consecutive(1);
        let store = temp_store("inject-corrupt").with_fault_plan(Arc::new(FaultPlan::new(spec)));
        let key = key_of("zeta");
        store.put(key, b"artifact").expect("put");
        // The read buffer is corrupted in memory; checksum fails, the
        // object is evicted, the caller sees a plain miss.
        assert_eq!(store.get(key).expect("get"), None);
        assert!(!store.object_path(key).exists());
        // The recompute-and-re-put path restores service; the corruption
        // site has walked past `max_consecutive`, so the next read is clean.
        store.put(key, b"artifact").expect("re-put");
        assert_eq!(
            store.get(key).expect("get").as_deref(),
            Some(&b"artifact"[..])
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn real_io_errors_are_not_transient() {
        let e = StoreError::io(
            "get",
            Path::new("/nope"),
            &std::io::Error::new(ErrorKind::PermissionDenied, "denied"),
        );
        assert!(!e.is_transient());
    }
}
