//! Observability for the reverse-engineering pipeline: spans, counters,
//! gauges and structured run reports.
//!
//! HiFi-DRAM is a *measurement* pipeline — its credibility rests on knowing
//! how much fidelity each stage preserves. This crate provides the
//! instrumentation layer the rest of the workspace records into:
//!
//! - [`Recorder`] — the sink trait. Stages emit spans (monotonic wall
//!   times), counters (monotonically accumulating totals) and gauges
//!   (point-in-time measurements such as per-slice PSNR).
//! - [`NoopRecorder`] — the zero-cost default: `enabled()` is `false`, every
//!   method is an empty body, and instrumented code paths monomorphised
//!   over it compile down to the uninstrumented pipeline.
//! - [`JsonRecorder`] — records a structured event stream, serializable to
//!   JSON, from which a [`RunReport`] is assembled.
//! - [`RunReport`] — the provenance record of one pipeline run: config
//!   echo, per-stage wall times, counter totals, gauge statistics and the
//!   extracted [`FidelityMetrics`].
//!
//! # Examples
//!
//! ```
//! use hifi_telemetry::{with_span, JsonRecorder, Recorder};
//!
//! let mut rec = JsonRecorder::new();
//! let sum = with_span(&mut rec, "outer", |rec| {
//!     rec.counter("items", 3);
//!     with_span(rec, "inner", |_| 1 + 2)
//! });
//! assert_eq!(sum, 3);
//! assert_eq!(rec.counter_total("items"), 3);
//! assert_eq!(rec.events().len(), 5); // 2 starts + 1 counter + 2 ends
//! ```

pub mod alloc;
mod hist;
mod profile;
mod recorder;
mod report;
mod trace;

pub use hist::{Histogram, HistogramSummary, HISTOGRAM_BUCKETS};
pub use profile::{
    parse_run_events, run_events_to_json, DiffRow, DiffVerdict, ProfileDiff, ProfileGate,
    ProfileSummary, RunEvents, StageProfile, StoreTotals,
};
pub use recorder::{with_span, Event, EventType, JsonRecorder, NoopRecorder, Recorder};
pub use report::{
    ConfigEcho, CounterTotal, FaultTotals, FidelityMetrics, GaugeStat, RunReport, StageSpeedup,
    StageTiming,
};
pub use trace::{
    chrome_trace, validate_chrome, ChromeCheck, LaneProfiler, LaneSpan, Trace, TraceNode,
};

/// Well-known gauge names the [`RunReport`] builder folds into
/// [`FidelityMetrics`]. Stages recording fidelity use these exact names.
pub mod names {
    /// Mean per-slice PSNR of the raw acquisition vs. the ideal render (dB).
    pub const PSNR_NOISY: &str = "fidelity.psnr_noisy_db";
    /// Mean per-slice PSNR after alignment + denoising vs. the ideal render.
    pub const PSNR_DENOISED: &str = "fidelity.psnr_denoised_db";
    /// Fraction of voxels matching ground truth after reconstruction.
    pub const VOXEL_ACCURACY: &str = "fidelity.voxel_accuracy";
    /// Mean absolute residual drift after alignment (px/slice).
    pub const RESIDUAL_DRIFT: &str = "fidelity.residual_drift_px";
    /// The paper's alignment budget for this stack (px; Section IV-C).
    pub const ALIGNMENT_BUDGET: &str = "fidelity.alignment_budget_px";
    /// Worst relative dimension deviation vs. generator ground truth.
    pub const WORST_DIMENSION_DEVIATION: &str = "fidelity.worst_dimension_deviation";
    /// Thread count the run's parallel stages resolved to.
    pub const PARALLEL_THREADS: &str = "parallel.threads";
    /// Per-stage speedup gauge prefix: `parallel.speedup.<stage>` records
    /// a stage's single-thread wall time divided by its parallel wall time
    /// (recorded by scaling harnesses that run a pipeline at both counts).
    pub const PARALLEL_SPEEDUP_PREFIX: &str = "parallel.speedup.";
    /// Counter: pipeline stages served from the artifact store.
    pub const STORE_HIT: &str = "store.hit";
    /// Counter: stage lookups that found no usable artifact (none stored,
    /// a corrupt blob evicted, or a blob that did not decode) and
    /// recomputed.
    pub const STORE_MISS: &str = "store.miss";
    /// Counter: blobs the run's store handle evicted for failing their
    /// checksum; recorded at the end of the run, only when non-zero.
    pub const STORE_CORRUPT: &str = "store.corrupt";
    /// Counter: artifact payload bytes written to the store this run.
    pub const STORE_BYTES_WRITTEN: &str = "store.bytes_written";
    /// Counter: artifact payload bytes read from the store this run.
    pub const STORE_BYTES_READ: &str = "store.bytes_read";
    /// Counter: faults injected by the run's fault plan.
    pub const FAULT_INJECTED: &str = "fault.injected";
    /// Counter: retry attempts made in response to injected faults.
    pub const FAULT_RETRIED: &str = "fault.retried";
    /// Counter: operations that recovered after at least one retry.
    pub const FAULT_RECOVERED: &str = "fault.recovered";
    /// Counter: operations that exhausted retries and were gracefully
    /// degraded (e.g. slices interpolated from neighbours).
    pub const FAULT_DEGRADED: &str = "fault.degraded";
    /// Gauge: virtual backoff milliseconds charged by the retry layer.
    pub const FAULT_BACKOFF_MS: &str = "fault.backoff_ms";
    /// Histogram: individual virtual backoff delays, µs per retry.
    pub const HIST_FAULT_BACKOFF_US: &str = "fault.backoff_delay_us";
    /// Histogram: per-slice SEM acquisition wall time, µs.
    pub const HIST_ACQUIRE_SLICE_US: &str = "acquire.slice_us";
    /// Histogram: per-slice ideal-render wall time, µs.
    pub const HIST_RENDER_SLICE_US: &str = "render.slice_us";
    /// Histogram: per-slice TV-denoise wall time, µs.
    pub const HIST_DENOISE_SLICE_US: &str = "denoise.slice_us";
    /// Histogram: per-slice alignment registration wall time, µs.
    pub const HIST_ALIGN_SLICE_US: &str = "align.slice_us";
    /// Histogram: MI offset candidates scored per aligned slice.
    pub const HIST_ALIGN_SEARCH_ITERS: &str = "align.search_iters";
    /// Histogram: artifact store fetch latency, µs per get.
    pub const HIST_STORE_GET_US: &str = "store.get_us";
    /// Histogram: artifact store persist latency, µs per put.
    pub const HIST_STORE_PUT_US: &str = "store.put_us";
    /// Histogram: payload bytes per store get.
    pub const HIST_STORE_GET_BYTES: &str = "store.get_bytes";
    /// Histogram: payload bytes per store put.
    pub const HIST_STORE_PUT_BYTES: &str = "store.put_bytes";
    /// Gauge: allocation high-water mark of the run, bytes (recorded only
    /// when the `alloc-track` counting allocator is installed).
    pub const ALLOC_PEAK_BYTES: &str = "alloc.peak_bytes";
    /// Counter: seeded runs executed by a conformance campaign.
    pub const CONFORMANCE_RUNS: &str = "conformance.runs";
    /// Counter: campaign runs that passed every oracle.
    pub const CONFORMANCE_PASSED: &str = "conformance.passed";
    /// Counter: individual oracle verdicts that failed across a campaign.
    pub const CONFORMANCE_ORACLE_FAILURES: &str = "conformance.oracle_failures";
    /// Counter: accepted shrink steps while minimising failing specs.
    pub const CONFORMANCE_SHRINK_STEPS: &str = "conformance.shrink_steps";
    /// Gauge: worst per-device dimension error observed, in voxels.
    pub const CONFORMANCE_WORST_DIM_ERROR: &str = "conformance.worst_dim_error_voxels";
    /// Histogram: time a job spent queued before a serve worker claimed
    /// it, µs.
    pub const HIST_SERVE_QUEUE_WAIT_US: &str = "serve.queue_wait_us";
    /// Histogram: queue depth observed at each job admission.
    pub const HIST_SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Counter: seeded device runs executed by a rev (black-box RE) campaign.
    pub const REV_RUNS: &str = "rev.runs";
    /// Counter: rev runs whose inference agreed with ground truth on every
    /// field.
    pub const REV_PASSED: &str = "rev.passed";
    /// Counter: individual cross-validation fields that disagreed across a
    /// rev campaign.
    pub const REV_FIELD_DISAGREEMENTS: &str = "rev.field_disagreements";
    /// Counter: DRAM commands issued by a rev campaign's probes.
    pub const REV_COMMANDS: &str = "rev.commands_issued";
    /// Histogram: bus-visible latency of mapping probes, ns.
    pub const HIST_REV_PROBE_LATENCY_NS: &str = "rev.probe_latency_ns";
    /// Counter: Monte-Carlo mismatch samples run by an MNA offset sweep.
    pub const MNA_SAMPLES: &str = "analog.mna.samples";
    /// Counter: Monte-Carlo samples in which a stored value mis-sensed.
    pub const MNA_FAILURES: &str = "analog.mna.failures";
    /// Counter: timesteps the MNA engine accepted across a Monte-Carlo
    /// sweep.
    pub const MNA_STEPS: &str = "analog.mna.steps";
    /// Counter: MNA timesteps retried smaller across a Monte-Carlo sweep,
    /// after an error estimate over budget or a failed Newton solve.
    pub const MNA_REJECTED_STEPS: &str = "analog.mna.rejected_steps";
    /// Gauge: sensing yield of an MNA Monte-Carlo sweep, percent.
    pub const MNA_YIELD_PCT: &str = "analog.mna.yield_pct";
    /// Histogram: worst per-step Newton iteration count per MC sample.
    pub const HIST_MNA_NEWTON_ITERS: &str = "analog.mna.newton_iters";
    /// Histogram: latch split time of the stored-1 activation, ps.
    pub const HIST_MNA_SPLIT_PS: &str = "analog.mna.latch_split_ps";
}
