//! Content-addressed artifact store and incremental pipeline execution.
//!
//! A full imaged pipeline run spends nearly all of its time in four
//! expensive stages — voxelization, virtual SEM acquisition, stack
//! post-processing, and volume reconstruction — whose outputs are pure
//! functions of the run configuration. This crate caches those outputs on
//! disk under *content addresses* so that re-running an unchanged
//! configuration replays stored artifacts instead of recomputing them:
//!
//! - [`fingerprint`] derives stable 128-bit keys from canonical encodings
//!   of the pipeline configuration. Each stage's key chains in the key of
//!   the stage feeding it plus a per-stage code-version salt, so changing
//!   any upstream parameter (or bumping a salt after a code change)
//!   invalidates exactly the stages downstream of the change.
//! - [`codec`] gives the large intermediates compact, fully-validating
//!   binary encodings (chunked RLE for voxel volumes, raw IEEE-754 bit
//!   patterns for image stacks) whose round trips are bit-identical.
//! - [`store`] is the on-disk half: one flat directory of `objects/<key>`
//!   blobs with self-checking headers and nothing else. A blob's mtime is
//!   its recency for LRU eviction (`gc`), and corruption handling turns
//!   damaged blobs into cache misses rather than errors.
//!
//! Caching is **opt-in** (a store path on the pipeline config, or the
//! `HIFI_STORE` environment variable) and **bit-transparent**: a warm run
//! must produce exactly the bytes a cold or store-less run produces. The
//! process-wide [`stats`] counters let front-ends print hit/miss summaries
//! without threading state through every call site.

pub mod codec;
pub mod fingerprint;
pub mod store;

pub use codec::CodecError;
pub use fingerprint::{
    fault_fingerprint, imaging_fingerprint, spec_fingerprint, stage, Fingerprinter, Key,
};
pub use store::{ArtifactStore, StoreError};

/// Process-wide store activity counters.
///
/// The pipeline reports per-run hit/miss counts through its telemetry
/// recorder; these global counters exist for callers that run many
/// pipelines (regen binaries, benches) and want a cheap end-of-process
/// summary without collecting every run report.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static HITS: AtomicU64 = AtomicU64::new(0);
    static MISSES: AtomicU64 = AtomicU64::new(0);
    static BYTES_READ: AtomicU64 = AtomicU64::new(0);
    static BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);
    static CORRUPT: AtomicU64 = AtomicU64::new(0);

    /// A point-in-time copy of the counters (monotonic; diff two
    /// snapshots to measure an interval).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Snapshot {
        /// Objects served from the store.
        pub hits: u64,
        /// Lookups that found nothing (including evicted corrupt blobs).
        pub misses: u64,
        /// Payload bytes read on hits.
        pub bytes_read: u64,
        /// Payload bytes written by puts.
        pub bytes_written: u64,
        /// Corrupted blobs detected and evicted.
        pub corrupt: u64,
    }

    impl Snapshot {
        /// Counter deltas since an `earlier` snapshot.
        pub fn since(&self, earlier: &Snapshot) -> Snapshot {
            Snapshot {
                hits: self.hits - earlier.hits,
                misses: self.misses - earlier.misses,
                bytes_read: self.bytes_read - earlier.bytes_read,
                bytes_written: self.bytes_written - earlier.bytes_written,
                corrupt: self.corrupt - earlier.corrupt,
            }
        }

        /// One-line human summary, e.g.
        /// `store: 5 hits, 0 misses, 1.2 MiB read, 0 B written`.
        pub fn summary(&self) -> String {
            fn mib(bytes: u64) -> String {
                if bytes >= 1024 * 1024 {
                    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
                } else if bytes >= 1024 {
                    format!("{:.1} KiB", bytes as f64 / 1024.0)
                } else {
                    format!("{bytes} B")
                }
            }
            let corrupt = if self.corrupt > 0 {
                format!(", {} corrupt evicted", self.corrupt)
            } else {
                String::new()
            };
            format!(
                "store: {} hits, {} misses, {} read, {} written{corrupt}",
                self.hits,
                self.misses,
                mib(self.bytes_read),
                mib(self.bytes_written),
            )
        }
    }

    /// Reads the current counters.
    pub fn snapshot() -> Snapshot {
        Snapshot {
            hits: HITS.load(Ordering::Relaxed),
            misses: MISSES.load(Ordering::Relaxed),
            bytes_read: BYTES_READ.load(Ordering::Relaxed),
            bytes_written: BYTES_WRITTEN.load(Ordering::Relaxed),
            corrupt: CORRUPT.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn record_hit(payload_bytes: u64) {
        HITS.fetch_add(1, Ordering::Relaxed);
        BYTES_READ.fetch_add(payload_bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_miss() {
        MISSES.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_write(payload_bytes: u64) {
        BYTES_WRITTEN.fetch_add(payload_bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_corrupt() {
        CORRUPT.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn snapshot_deltas_and_summary() {
            let a = Snapshot {
                hits: 2,
                misses: 1,
                bytes_read: 10,
                bytes_written: 2048,
                corrupt: 0,
            };
            let b = Snapshot {
                hits: 7,
                misses: 1,
                bytes_read: 3 * 1024 * 1024,
                bytes_written: 2048,
                corrupt: 1,
            };
            let d = b.since(&a);
            assert_eq!(d.hits, 5);
            assert_eq!(d.misses, 0);
            let line = d.summary();
            assert!(line.contains("5 hits"), "{line}");
            assert!(line.contains("MiB read"), "{line}");
            assert!(line.contains("corrupt"), "{line}");
        }
    }
}
