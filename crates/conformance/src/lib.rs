//! Ground-truth conformance harness: differential testing of the whole
//! reverse-engineering pipeline against the synthetic generator.
//!
//! The generator fabricates a chip whose netlist and dimensions are known
//! exactly, the pipeline reverse-engineers it, and this crate judges the
//! result — across *randomized campaigns* of specs rather than a handful
//! of hand-picked configurations. The pieces:
//!
//! - [`spec`] — seeded random [`ChipSpec`]s sweeping topology, pair count,
//!   voxel pitch, transistor scaling, transition length, MAT strips and
//!   imaging noise.
//! - [`oracles`] — per-run verdicts: netlist graph isomorphism (via
//!   [`hifi_circuit::identify::diff`]), dimension tolerance bands derived
//!   from voxel resolution, reconstruction accuracy, and the metamorphic
//!   invariants (zero-noise exactness, mirror invariance, voxel-pitch
//!   monotonicity).
//! - [`shrink`](mod@shrink) — greedy minimisation of failing specs to counterexamples
//!   a human can read.
//! - [`campaign`] — the seeded fan-out and its deterministic
//!   [`ConformanceReport`] (bit-identical at any thread count).
//!
//! The `conformance` binary drives a campaign from the command line and
//! exits nonzero on any oracle failure; `scripts/ci.sh conformance` runs a
//! fixed seed matrix of it. See `TESTING.md` for how to reproduce a
//! failing campaign seed.
//!
//! # Examples
//!
//! ```
//! use hifi_conformance::{judge, ChipSpec, Tolerance};
//!
//! let judgement = judge(&ChipSpec::minimal(), &Tolerance::default());
//! assert!(judgement.passed(), "{}", judgement.first_failure());
//! ```

pub mod campaign;
pub mod oracles;
pub mod shrink;
pub mod spec;

pub use campaign::{
    run_campaign, run_seed, CampaignConfig, ConformanceReport, FailureCase, HistogramBucket,
    OracleSummary, WorstCase,
};
pub use oracles::{
    judge, judge_in, judge_with, OracleVerdict, RunJudgement, Tamper, Tolerance, ORACLE_NAMES,
};
pub use shrink::{shrink, Shrunk};
pub use spec::{ChipSpec, ImagingNoise};
