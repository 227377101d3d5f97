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
//! must produce exactly the bytes a cold or store-less run produces.
//! Traffic is counted once, by the run that made it: the pipeline records
//! its hits, misses and bytes as `store.*` telemetry counters, and each
//! [`ArtifactStore`] handle tallies the corrupt blobs it evicted. Nothing
//! is counted per process.

pub mod codec;
pub mod fingerprint;
pub mod store;

pub use codec::CodecError;
pub use fingerprint::{
    fault_fingerprint, imaging_fingerprint, spec_fingerprint, stage, Fingerprinter, Key,
};
pub use store::{ArtifactStore, StoreError};
