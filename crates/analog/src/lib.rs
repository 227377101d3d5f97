//! Transient analog simulation of DRAM sense amplifiers.
//!
//! Research that modifies sense amplifiers validates its changes with analog
//! simulation; the paper shows those simulations are only as good as the
//! circuit topology and transistor dimensions they assume (Section VI-A).
//! This crate is the workspace's analog engine:
//!
//! - [`MosfetModel`] — a square-law (SPICE level-1 style) MOSFET with
//!   per-device threshold mismatch, the mechanism behind sensing offset,
//! - [`mna`] — a Modified-Nodal-Analysis transient engine (backward-Euler
//!   companion models, damped Newton iteration, KCL residual audits) driven
//!   directly by [`hifi_circuit::Netlist`]s — including netlists recovered
//!   by the extraction pipeline,
//! - [`events`] — the paper's SA operation sequences: the classic events of
//!   Fig. 2c (charge sharing → latch & restore → precharge/equalise) and the
//!   OCSA events of Fig. 9b (offset cancellation → *delayed* charge sharing →
//!   pre-sensing → restore), built as stimulus schedules over roles inferred
//!   from the netlist ([`events::SaRoles`]), plus offset-tolerance sweeps
//!   that reproduce why vendors moved to offset-cancellation designs,
//! - [`montecarlo`] — seeded, thread-count-invariant Monte-Carlo mismatch
//!   sweeps feeding the §VI sensitivity tables.
//!
//! # Examples
//!
//! ```
//! use hifi_analog::events::{simulate_classic_activation, ActivationConfig};
//!
//! let report = simulate_classic_activation(&ActivationConfig::default(), true);
//! assert!(report.correct, "a healthy classic SA senses a stored 1");
//! ```

pub mod events;
pub mod mna;
mod model;
pub mod montecarlo;
mod sim;
mod stamp;

pub use mna::{MnaCircuit, MnaRun, MnaTransient, SolveStats};
pub use model::{MosfetModel, MosfetOpRegion};
pub use montecarlo::{run_sweep, McConfig, McReport, McSample};
pub use sim::{SimError, Stimulus, Waveform, Waveforms};
