//! Regeneration harness: one function per table/figure of the paper.
//!
//! Each `regen-*` binary in `src/bin/` prints one artefact of the paper's
//! evaluation, computed live from the workspace (never hard-coded).
//! [`results`] holds the bench gate's metrics: the benches in `benches/`
//! and the `record_perfbench` binary record into it, and `bench_gate`
//! compares against the committed baseline. `EXPERIMENTS.md` records
//! paper-reported vs regenerated values for every artefact.

pub mod regen;
pub mod results;
pub mod table;

pub use regen::*;
