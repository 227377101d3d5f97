//! The on-disk content-addressed artifact store.
//!
//! Layout under the store root (sharded by the leading key nibble):
//!
//! ```text
//! <root>/objects/<s>/<32-hex-key>   one artifact per file, self-checking header
//! <root>/objects/<s>/manifest       per-shard text index: key, size, checksum, LRU tick
//! <root>/objects/<s>/.lock          advisory lock guarding that shard's manifest
//! ```
//!
//! `<s>` is the first hex character of the key, so keys spread uniformly
//! over [`SHARD_COUNT`] shards and concurrent pipelines writing different
//! stages contend only when their keys share a leading nibble, not on one
//! global lock. LRU ticks are drawn from a process-wide monotone counter
//! seeded by wall-clock microseconds, so eviction order stays comparable
//! *across* shards (and across processes, to wall-clock precision) even
//! though each shard keeps its own manifest.
//!
//! Blobs carry their own header (magic, version, payload length, FNV
//! checksum), so a blob is verifiable without the manifest; the manifest
//! exists for the LRU eviction order and for cheap `stats`/`gc` without
//! touching every object. Writers stage to a temp file and `rename` into
//! place, so concurrent writers of the *same* key race benignly (identical
//! content) and readers never observe a half-written object. Corrupted
//! blobs are detected by checksum, evicted, and reported as a miss — the
//! pipeline recomputes instead of failing.

use std::collections::BTreeMap;
use std::fs;
use std::hash::Hasher;
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use hifi_faults::{FaultKind, FaultPlan, RetryPolicy};

use crate::fingerprint::Key;
use crate::stats;

/// Number of shards `objects/` is split into: one per leading hex nibble.
pub const SHARD_COUNT: usize = 16;

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
        /// The operation that failed (`"open"`, `"put"`, `"lock"`, …).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying `std::io::ErrorKind`.
        kind: ErrorKind,
        /// The rendered I/O error message.
        message: String,
    },
    /// A lock stayed held by another holder for the whole retry budget.
    ///
    /// Contention is transient by nature (the holder finishes eventually),
    /// so [`StoreError::is_transient`] holds and pipeline-level retry
    /// policies treat it like any injected fault.
    Contended {
        /// The lock file that could not be acquired.
        path: PathBuf,
        /// Acquisition attempts made before giving up.
        attempts: u32,
        /// Total backoff slept across those attempts.
        waited: Duration,
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

    /// The operation that failed (`"open"`, `"put"`, `"lock"`, …).
    pub fn op(&self) -> &'static str {
        match self {
            Self::Io { op, .. } => op,
            Self::Contended { .. } => "lock",
        }
    }

    /// The path involved in the failure.
    pub fn path(&self) -> &Path {
        match self {
            Self::Io { path, .. } | Self::Contended { path, .. } => path,
        }
    }

    /// Whether this is lock-budget exhaustion rather than an I/O failure.
    pub fn is_contended(&self) -> bool {
        matches!(self, Self::Contended { .. })
    }

    /// Whether retrying the failed operation can plausibly succeed.
    ///
    /// Injected faults, interrupted/timed-out I/O, and lock contention are
    /// transient; real environmental failures (permissions, disk full)
    /// are not.
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Io { kind, .. } => matches!(
                kind,
                ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock
            ),
            Self::Contended { .. } => true,
        }
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io {
                op, path, message, ..
            } => write!(
                f,
                "artifact store {} failed at {}: {}",
                op,
                path.display(),
                message
            ),
            Self::Contended {
                path,
                attempts,
                waited,
            } => write!(
                f,
                "artifact store lock contended at {}: gave up after {} attempts ({:?} backoff)",
                path.display(),
                attempts,
                waited
            ),
        }
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

/// One manifest row.
#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    checksum: u64,
    tick: u64,
}

/// Per-shard usage, as reported by [`ArtifactStore::usage_by_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardUsage {
    /// Shard index (`0..SHARD_COUNT`, the leading key nibble).
    pub shard: usize,
    /// Objects indexed in this shard.
    pub objects: usize,
    /// Total on-disk bytes (headers included) indexed in this shard.
    pub bytes: u64,
}

/// A content-addressed artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    /// Optional fault-injection plan exercising the error paths: transient
    /// read/write failures and in-memory blob corruption. `None` (the
    /// default) costs nothing on the hot paths.
    fault_plan: Option<Arc<FaultPlan>>,
    /// Exponential-backoff schedule for lock acquisition; the budget runs
    /// out into [`StoreError::Contended`].
    lock_policy: RetryPolicy,
}

/// Advisory cross-process lock: holds a `.lock` file, created with
/// `create_new` so exactly one holder wins; removed on drop.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// How long a lock file may sit before it is presumed orphaned (a crashed
/// holder) and broken.
const LOCK_STALE: Duration = Duration::from_secs(30);

/// The default lock-acquisition schedule: 1 ms doubling to a 250 ms
/// ceiling, 47 retries ≈ 10 s of total backoff — the same wait budget the
/// old spin loop had, but with exponentially fewer wakeups. Contention is
/// retried with *real* sleeps (unlike pipeline-stage retries, which charge
/// a [`hifi_faults::VirtualClock`]) because the holder genuinely needs the
/// wall-clock time to finish.
fn default_lock_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 47,
        base_delay: Duration::from_millis(1),
        multiplier: 2.0,
        max_delay: Duration::from_millis(250),
    }
}

/// Draws the next LRU tick: strictly increasing within the process,
/// seeded by wall-clock microseconds so ticks stay comparable across
/// shards *and* across cooperating processes. (The manifest is advisory —
/// clock skew can only mis-order eviction, never corrupt data.)
fn next_tick() -> u64 {
    static TICK: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut cur = TICK.load(Ordering::Relaxed);
    loop {
        let next = cur.max(now).saturating_add(1);
        match TICK.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return next,
            Err(observed) => cur = observed,
        }
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// Only the sharded layout is read. A store written before sharding
    /// (blobs directly under `objects/`, one root `manifest`) opens as an
    /// empty cache: its flat blobs are never read, and `usage`, `verify`
    /// and `gc` do not see them. Delete the directory to reclaim their
    /// space.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the shard directories cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let store = Self {
            root: root.into(),
            fault_plan: None,
            lock_policy: default_lock_policy(),
        };
        for shard in 0..SHARD_COUNT {
            let dir = store.shard_dir(shard);
            fs::create_dir_all(&dir).map_err(|e| StoreError::io("open", &dir, &e))?;
        }
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

    /// Overrides the lock-acquisition backoff schedule (tests shrink the
    /// budget to observe [`StoreError::Contended`] quickly).
    pub fn with_lock_policy(mut self, policy: RetryPolicy) -> Self {
        self.lock_policy = policy;
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

    /// The shard a key lives in: its leading hex nibble.
    fn shard_of(key: Key) -> usize {
        (key.parts().0 >> 60) as usize
    }

    fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join("objects").join(format!("{shard:x}"))
    }

    fn object_path(&self, key: Key) -> PathBuf {
        self.shard_dir(Self::shard_of(key)).join(key.hex())
    }

    fn shard_manifest_path(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("manifest")
    }

    fn shard_lock_path(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join(".lock")
    }

    /// Acquires `shard`'s advisory lock with bounded exponential backoff.
    /// Locks older than [`LOCK_STALE`] are presumed orphaned by a crashed
    /// holder and broken.
    fn lock_shard(&self, shard: usize) -> Result<LockGuard, StoreError> {
        let path = self.shard_lock_path(shard);
        let mut waited = Duration::ZERO;
        let mut attempt: u32 = 0;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(LockGuard { path }),
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    // Break locks orphaned by a crashed holder.
                    if let Ok(meta) = fs::metadata(&path) {
                        let age = meta
                            .modified()
                            .ok()
                            .and_then(|m| SystemTime::now().duration_since(m).ok());
                        if age.is_some_and(|a| a > LOCK_STALE) {
                            let _ = fs::remove_file(&path);
                            continue;
                        }
                    }
                    if attempt >= self.lock_policy.max_retries {
                        return Err(StoreError::Contended {
                            path,
                            attempts: attempt + 1,
                            waited,
                        });
                    }
                    let delay = self.lock_policy.backoff(attempt);
                    std::thread::sleep(delay);
                    waited += delay;
                    attempt += 1;
                }
                Err(e) => return Err(StoreError::io("lock", &path, &e)),
            }
        }
    }

    fn read_shard_manifest(&self, shard: usize) -> BTreeMap<Key, Entry> {
        read_manifest_file(&self.shard_manifest_path(shard))
    }

    fn write_shard_manifest(
        &self,
        shard: usize,
        manifest: &BTreeMap<Key, Entry>,
    ) -> Result<(), StoreError> {
        let mut text = String::new();
        for (key, e) in manifest {
            text.push_str(&format!(
                "{} {} {:016x} {}\n",
                key.hex(),
                e.size,
                e.checksum,
                e.tick
            ));
        }
        let tmp = self
            .shard_dir(shard)
            .join(format!(".manifest.tmp.{}", std::process::id()));
        fs::write(&tmp, text).map_err(|e| StoreError::io("put", &tmp, &e))?;
        let dest = self.shard_manifest_path(shard);
        fs::rename(&tmp, &dest).map_err(|e| StoreError::io("put", &dest, &e))
    }

    /// Updates one shard's manifest under that shard's lock.
    fn with_shard_manifest(
        &self,
        shard: usize,
        f: impl FnOnce(&mut BTreeMap<Key, Entry>),
    ) -> Result<(), StoreError> {
        let _guard = self.lock_shard(shard)?;
        let mut manifest = self.read_shard_manifest(shard);
        f(&mut manifest);
        self.write_shard_manifest(shard, &manifest)
    }

    /// Fetches the payload stored under `key`.
    ///
    /// Returns `Ok(None)` on a miss **or** on a corrupted blob (bad magic,
    /// truncation, checksum mismatch) — the damaged object is evicted and
    /// the caller recomputes. Only environmental I/O failures surface as
    /// errors.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the object exists but cannot be read for
    /// I/O reasons (permissions, hardware), or the lock cannot be taken.
    pub fn get(&self, key: Key) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.object_path(key);
        if let Some(plan) = &self.fault_plan {
            if plan.check(FaultKind::StoreRead, &key.hex()) {
                return Err(StoreError::injected("get", &path, FaultKind::StoreRead));
            }
        }
        let mut file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                stats::record_miss();
                return Ok(None);
            }
            Err(e) => return Err(StoreError::io("get", &path, &e)),
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| StoreError::io("get", &path, &e))?;
        drop(file);
        if let Some(plan) = &self.fault_plan {
            // Corrupt the *read buffer*, not the file: the checksum check
            // below fails, the (intact) object is evicted, and the caller
            // recomputes — exactly the bit-rot path, deterministically.
            if !buf.is_empty() && plan.check(FaultKind::CorruptBlob, &key.hex()) {
                let last = buf.len() - 1;
                buf[last] ^= 0x01;
            }
        }
        let shard = Self::shard_of(key);
        match Self::check_blob(&buf) {
            Some(payload_range) => {
                let payload = buf[payload_range].to_vec();
                stats::record_hit(payload.len() as u64);
                // Touch the LRU tick; freshness is advisory, so lock
                // failures here must not turn a hit into an error.
                let _ = self.with_shard_manifest(shard, |m| {
                    let next = next_tick();
                    if let Some(e) = m.get_mut(&key) {
                        e.tick = next;
                    }
                });
                Ok(Some(payload))
            }
            None => {
                // Corrupted: evict and report a miss so the stage recomputes.
                let _ = fs::remove_file(&path);
                let _ = self.with_shard_manifest(shard, |m| {
                    m.remove(&key);
                });
                stats::record_corrupt();
                stats::record_miss();
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

    /// Stores `payload` under `key` (atomic temp-file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the object or manifest cannot be written.
    pub fn put(&self, key: Key, payload: &[u8]) -> Result<(), StoreError> {
        let sum = checksum(payload);
        let path = self.object_path(key);
        if let Some(plan) = &self.fault_plan {
            if plan.check(FaultKind::StoreWrite, &key.hex()) {
                return Err(StoreError::injected("put", &path, FaultKind::StoreWrite));
            }
        }
        let shard = Self::shard_of(key);
        // The temp name must be unique per *put*, not per key: two threads
        // of one process racing the same key would otherwise share a temp
        // path, and the loser's rename fails NotFound after the winner's
        // rename consumes the file.
        static PUT_SERIAL: AtomicU64 = AtomicU64::new(0);
        let serial = PUT_SERIAL.fetch_add(1, Ordering::Relaxed);
        let tmp = self.shard_dir(shard).join(format!(
            ".tmp.{}.{serial}.{}",
            std::process::id(),
            key.hex()
        ));
        {
            let mut file = fs::File::create(&tmp).map_err(|e| StoreError::io("put", &tmp, &e))?;
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(BLOB_MAGIC);
            header.extend_from_slice(&BLOB_VERSION.to_le_bytes());
            header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            header.extend_from_slice(&sum.to_le_bytes());
            file.write_all(&header)
                .and_then(|()| file.write_all(payload))
                .and_then(|()| file.sync_all())
                .map_err(|e| StoreError::io("put", &tmp, &e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| StoreError::io("put", &path, &e))?;
        let total = (payload.len() + HEADER_LEN) as u64;
        self.with_shard_manifest(shard, |m| {
            m.insert(
                key,
                Entry {
                    size: total,
                    checksum: sum,
                    tick: next_tick(),
                },
            );
        })?;
        stats::record_write(payload.len() as u64);
        Ok(())
    }

    /// Number of objects and total bytes currently indexed, summed over
    /// every shard.
    pub fn usage(&self) -> (usize, u64) {
        self.usage_by_shard()
            .iter()
            .fold((0, 0), |(n, b), s| (n + s.objects, b + s.bytes))
    }

    /// Per-shard object counts and byte totals (advisory: read without
    /// locks, like `usage`).
    pub fn usage_by_shard(&self) -> Vec<ShardUsage> {
        (0..SHARD_COUNT)
            .map(|shard| {
                let manifest = self.read_shard_manifest(shard);
                ShardUsage {
                    shard,
                    objects: manifest.len(),
                    bytes: manifest.values().map(|e| e.size).sum(),
                }
            })
            .collect()
    }

    /// Evicts least-recently-used objects until the store holds at most
    /// `max_bytes`. Returns the number of objects evicted.
    ///
    /// Victims are chosen from an advisory cross-shard read of every
    /// manifest, then evicted shard by shard — holding only the lock of
    /// the shard currently being collected, so readers and writers of
    /// other shards proceed. Objects touched between selection and
    /// eviction may be evicted anyway (LRU freshness is advisory); the
    /// next run recomputes them.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if a shard lock cannot be taken or a
    /// manifest cannot be rewritten.
    pub fn gc(&self, max_bytes: u64) -> Result<usize, StoreError> {
        let mut order: Vec<(u64, Key, u64)> = Vec::new();
        let mut total: u64 = 0;
        for shard in 0..SHARD_COUNT {
            for (key, e) in self.read_shard_manifest(shard) {
                order.push((e.tick, key, e.size));
                total += e.size;
            }
        }
        order.sort_unstable();
        let mut victims: Vec<Vec<Key>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for (_, key, size) in &order {
            if total <= max_bytes {
                break;
            }
            total = total.saturating_sub(*size);
            victims[Self::shard_of(*key)].push(*key);
        }
        let mut evicted = 0;
        for (shard, keys) in victims.iter().enumerate() {
            if keys.is_empty() {
                continue;
            }
            let _guard = self.lock_shard(shard)?;
            let mut manifest = self.read_shard_manifest(shard);
            for key in keys {
                if manifest.remove(key).is_some() {
                    let _ = fs::remove_file(self.object_path(*key));
                    evicted += 1;
                }
            }
            self.write_shard_manifest(shard, &manifest)?;
        }
        Ok(evicted)
    }

    /// Re-checksums every object on disk across all shards; returns
    /// `(intact, corrupt)` counts. Corrupt objects are left in place (use
    /// [`ArtifactStore::get`] or `gc` to evict).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if a shard directory cannot be listed.
    pub fn verify(&self) -> Result<(usize, usize), StoreError> {
        let (mut intact, mut corrupt) = (0, 0);
        for shard in 0..SHARD_COUNT {
            let dir = self.shard_dir(shard);
            let entries = fs::read_dir(&dir).map_err(|e| StoreError::io("verify", &dir, &e))?;
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if Key::from_hex(name).is_none() {
                    continue; // manifest, lock, temp files, strays
                }
                match fs::read(entry.path()) {
                    Ok(buf) if Self::check_blob(&buf).is_some() => intact += 1,
                    _ => corrupt += 1,
                }
            }
        }
        Ok((intact, corrupt))
    }
}

/// Best-effort manifest parse: the manifest is advisory (LRU order +
/// stats), so damage to it must never fail the store.
fn read_manifest_file(path: &Path) -> BTreeMap<Key, Entry> {
    let mut out = BTreeMap::new();
    let Ok(text) = fs::read_to_string(path) else {
        return out;
    };
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(hex), Some(size), Some(sum), Some(tick)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let (Some(key), Ok(size), Ok(sum), Ok(tick)) = (
            Key::from_hex(hex),
            size.parse::<u64>(),
            u64::from_str_radix(sum, 16),
            tick.parse::<u64>(),
        ) else {
            continue;
        };
        out.insert(
            key,
            Entry {
                size,
                checksum: sum,
                tick,
            },
        );
    }
    out
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
    fn objects_land_in_their_leading_nibble_shard() {
        let store = temp_store("shard-paths");
        for i in 0..64 {
            let key = key_of(&format!("spread-{i}"));
            store.put(key, &[i as u8; 16]).expect("put");
            let shard = (key.parts().0 >> 60) as usize;
            let expected = store
                .root()
                .join("objects")
                .join(format!("{shard:x}"))
                .join(key.hex());
            assert!(expected.is_file(), "object must live in shard {shard:x}");
        }
        // 64 uniform keys cover more than one shard with overwhelming odds.
        let populated = store
            .usage_by_shard()
            .iter()
            .filter(|s| s.objects > 0)
            .count();
        assert!(populated > 1, "keys must spread across shards");
        assert_eq!(store.usage().0, 64);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn usage_by_shard_sums_to_global_usage() {
        let store = temp_store("shard-usage");
        for i in 0..32 {
            store
                .put(key_of(&format!("u-{i}")), &[7u8; 32])
                .expect("put");
        }
        let by_shard = store.usage_by_shard();
        assert_eq!(by_shard.len(), SHARD_COUNT);
        let n: usize = by_shard.iter().map(|s| s.objects).sum();
        let bytes: u64 = by_shard.iter().map(|s| s.bytes).sum();
        assert_eq!((n, bytes), store.usage());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn pre_sharding_layout_opens_as_an_empty_cache() {
        let dir = std::env::temp_dir().join(format!(
            "hifi-store-test-{}-pre-sharding",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        // Write one valid blob through the current API, then move it and
        // its manifest line where the pre-sharding layout kept them: the
        // blob directly under objects/, the index in a root manifest.
        let key = key_of("pre-sharding");
        let store = ArtifactStore::open(&dir).expect("open");
        store.put(key, b"old layout").expect("put");
        let shard = ArtifactStore::shard_of(key);
        fs::rename(store.shard_manifest_path(shard), dir.join("manifest")).expect("root manifest");
        fs::rename(store.object_path(key), dir.join("objects").join(key.hex())).expect("flat blob");

        // The old layout is a cold cache: nothing in it is read or counted.
        let reopened = ArtifactStore::open(&dir).expect("open");
        assert_eq!(reopened.get(key).expect("get"), None);
        assert_eq!(reopened.usage(), (0, 0));
        assert_eq!(reopened.verify().expect("verify"), (0, 0));
        assert_eq!(reopened.gc(0).expect("gc"), 0);
        reopened.put(key, b"new layout").expect("put");
        assert_eq!(
            reopened.get(key).expect("get").as_deref(),
            Some(&b"new layout"[..])
        );
        let _ = fs::remove_dir_all(&dir);
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
        let store = temp_store("gc");
        let (a, b, c) = (key_of("a"), key_of("b"), key_of("c"));
        store.put(a, &[1u8; 100]).expect("put a");
        store.put(b, &[2u8; 100]).expect("put b");
        store.put(c, &[3u8; 100]).expect("put c");
        // Touch `a` so `b` becomes the coldest entry. Ticks are globally
        // comparable even though a, b, c hash into different shards.
        assert!(store.get(a).expect("get a").is_some());
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

    #[test]
    fn gc_holds_only_the_lock_of_the_shard_being_collected() {
        let store = temp_store("gc-shard-lock");
        let key = key_of("lonely");
        store.put(key, &[9u8; 64]).expect("put");
        let victim_shard = ArtifactStore::shard_of(key);
        // Plant fresh locks on every *other* shard: if gc took them, it
        // would burn its whole backoff budget and return Contended.
        let mut planted = Vec::new();
        for shard in 0..SHARD_COUNT {
            if shard != victim_shard {
                let path = store.shard_lock_path(shard);
                fs::write(&path, b"").expect("plant lock");
                planted.push(path);
            }
        }
        let quick = store.clone().with_lock_policy(RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            multiplier: 2.0,
            max_delay: Duration::from_millis(4),
        });
        assert_eq!(quick.gc(0).expect("gc touches only the victim shard"), 1);
        assert_eq!(store.usage().0, 0);
        for path in planted {
            let _ = fs::remove_file(path);
        }
        let _ = fs::remove_dir_all(store.root());
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

    #[test]
    fn waiting_writer_proceeds_once_lock_is_released() {
        let store = temp_store("held-lock");
        let key = key_of("delta");
        let lock_path = store.shard_lock_path(ArtifactStore::shard_of(key));
        fs::write(&lock_path, b"").expect("plant lock");
        let planted = lock_path.clone();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let _ = fs::remove_file(&planted);
        });
        store.put(key, b"waits for lock").expect("put");
        dropper.join().expect("join");
        assert!(store.get(key).expect("get").is_some());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn exhausted_lock_budget_surfaces_typed_contended_error() {
        let key = key_of("eta");
        let store = temp_store("contended").with_lock_policy(RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            multiplier: 2.0,
            max_delay: Duration::from_millis(4),
        });
        let lock_path = store.shard_lock_path(ArtifactStore::shard_of(key));
        fs::write(&lock_path, b"").expect("plant lock");
        let err = store.put(key, b"never lands").expect_err("budget runs out");
        match &err {
            StoreError::Contended {
                path,
                attempts,
                waited,
            } => {
                assert_eq!(path, &lock_path);
                assert_eq!(*attempts, 3, "initial try + 2 retries");
                assert_eq!(*waited, Duration::from_millis(1 + 2));
            }
            other => panic!("expected Contended, got {other:?}"),
        }
        assert!(
            err.is_transient(),
            "contention clears when the holder exits"
        );
        assert!(err.is_contended());
        assert_eq!(err.op(), "lock");
        // Once the stuck lock clears, the same store works again.
        fs::remove_file(&lock_path).expect("unstick");
        store.put(key, b"lands now").expect("put");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn stale_locks_are_broken_not_waited_on() {
        // A lock whose mtime is older than LOCK_STALE is orphaned; the
        // acquirer breaks it instead of burning its backoff budget. Aging
        // a file's mtime portably requires filetime juggling, so instead
        // assert the cheap invariant: a *fresh* lock is NOT broken.
        let store = temp_store("stale").with_lock_policy(RetryPolicy {
            max_retries: 1,
            base_delay: Duration::from_millis(1),
            multiplier: 2.0,
            max_delay: Duration::from_millis(2),
        });
        let key = key_of("theta");
        let lock_path = store.shard_lock_path(ArtifactStore::shard_of(key));
        fs::write(&lock_path, b"").expect("plant fresh lock");
        let err = store.put(key, b"x").expect_err("fresh lock holds");
        assert!(err.is_contended(), "fresh locks are respected: {err}");
        assert!(lock_path.exists(), "fresh lock must not be broken");
        let _ = fs::remove_file(&lock_path);
        let _ = fs::remove_dir_all(store.root());
    }
}
