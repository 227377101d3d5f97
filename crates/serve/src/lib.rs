//! `hifi-serve`: a multi-tenant chip-analysis job server.
//!
//! Long-running daemon that accepts analysis jobs over a small HTTP/JSON
//! API and executes them on a pool of worker pipelines sharing one
//! [`ArtifactStore`](hifi_store::ArtifactStore) root:
//!
//! - **Bounded priority queue** — submissions carry a `0..=9` priority;
//!   when the queue is full the server answers `429` with a `Retry-After`
//!   header instead of buffering unboundedly ([`queue`]).
//! - **Cross-tenant dedup** — jobs are identified by a content-addressed
//!   fingerprint of the *generated spec* (plus fault-plan salt); a
//!   duplicate of an in-flight job shares its execution, a duplicate of a
//!   finished one re-runs warm against the shared store ([`job`],
//!   [`server`]).
//! - **Per-job results** — status and full `RunReport` JSON stream back
//!   over `GET /jobs/<id>` and `GET /jobs/<id>/report`.
//! - **Graceful drain** — SIGTERM (or `POST /shutdown`) stops admission
//!   while workers finish every admitted job ([`signal`]).
//!
//! The `hifi-serve` binary runs the daemon; the `load_test` binary
//! hammers one (in-process or remote) with thousands of conformance-style
//! specs and asserts zero lost jobs and deterministic per-job digests.
//!
//! # API
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /stats` | queue/jobs/store counters + latency summaries |
//! | `POST /jobs` | submit `{"spec_seed":N, "priority":0..9, "pristine":bool}` → `202` or `429` |
//! | `GET /jobs/<id>` | job status, digest and store counters once done |
//! | `GET /jobs/<id>/report` | full embedded `RunReport` (409 while pending) |
//! | `POST /shutdown` | graceful drain |

pub mod client;
pub mod job;
pub mod queue;
pub mod server;
pub mod signal;

pub use job::{JobRequest, JobStatus, DEFAULT_PRIORITY, MAX_PRIORITY, MIN_PRIORITY};
pub use queue::{BoundedQueue, Popped, QueueFull};
pub use server::{report_digest, start, JobOutcome, RunningServer, ServeConfig};
