//! Deterministic fault injection, bounded retries and graceful degradation.
//!
//! The paper's physical pipeline is riddled with partial failures — a FIB
//! slice mills badly, the SEM image charges, the stage drifts past the
//! correction budget — and the authors recover by re-milling and
//! re-acquiring (Section IV). This crate gives the reproduction the same
//! shape *as infrastructure*: every fallible boundary in the software
//! pipeline (per-slice acquisition, artifact-store reads and writes,
//! stage execution) can be made to fail on demand, deterministically, and
//! the recovery machinery (retry with exponential backoff, neighbour
//! interpolation for slices that stay dead) is exercised under test
//! instead of being trusted on faith.
//!
//! - [`FaultSpec`] / [`FaultPlan`] — a seeded, pure-function description of
//!   which attempt at which site fails. Decisions depend only on
//!   `(seed, site, attempt)`, never on call order, so a faulted pipeline
//!   is bit-identical at every thread count.
//! - [`RetryPolicy`] — bounded retries with deterministic exponential
//!   backoff. Backoff advances a [`VirtualClock`] instead of sleeping, so
//!   recovery is reproducible and tests stay fast.
//! - [`Recovery`] — one run's retry ledger: its plan, policy and clock,
//!   and a log of every backoff charged. Every retry, recovery and
//!   degradation of a run is recorded through it, into its plan's
//!   [`FaultTally`]; there are no process-wide fault counters.
//! - [`GaveUp`] / [`Exhausted`] — typed errors for operations that used up
//!   their whole retry budget; callers either surface them or degrade
//!   gracefully (and say so via [`Recovery::degrade`]).
//!
//! # Examples
//!
//! ```
//! use hifi_faults::{FaultKind, FaultSpec, Recovery, RetryPolicy};
//!
//! // Fail roughly half of all first attempts, never twice in a row.
//! let spec = FaultSpec::uniform(7, 0.5).with_max_consecutive(1);
//! let recovery = Recovery::new(Some(spec), RetryPolicy::default());
//! let plan = recovery.plan().expect("injection is configured");
//! let value = recovery
//!     .run(|_| true, || {
//!         if plan.check(FaultKind::StoreRead, "blob:42") {
//!             Err("injected fault")
//!         } else {
//!             Ok(42)
//!         }
//!     })
//!     .expect("recoverable by construction");
//! assert_eq!(value, 42);
//! // Each logged backoff is one counted retry.
//! assert_eq!(plan.tally().retried, recovery.backoffs().len() as u64);
//! ```

mod plan;
mod retry;

pub use plan::{FaultKind, FaultPlan, FaultSpec, FaultTally};
pub use retry::{retry, Exhausted, GaveUp, Recovery, RetryError, RetryPolicy, VirtualClock};
