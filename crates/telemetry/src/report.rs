//! The [`RunReport`] provenance record assembled from a recorded event
//! stream.

use serde::{Deserialize, Serialize};

use crate::hist::{Histogram, HistogramSummary};
use crate::profile::StoreTotals;
use crate::recorder::{Event, EventType};

/// Echo of the pipeline configuration that produced a run, so a report is
/// interpretable on its own. Filled in by the pipeline crate; plain fields
/// here keep `hifi-telemetry` free of upstream dependencies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigEcho {
    /// Sense-amplifier topology under study (e.g. `"open_bitline"`).
    pub topology: String,
    /// Number of sense-amplifier pairs in the synthesized region.
    pub n_pairs: u32,
    /// Voxel pitch of the synthetic volume in nanometres.
    pub voxel_nm: f64,
    /// Whether the SEM imaging degradation model ran (false = pristine).
    pub imaging: bool,
    /// SEM dwell time per pixel in microseconds (imaging runs only).
    pub dwell_us: Option<f64>,
    /// Per-slice drift sigma in pixels (imaging runs only).
    pub drift_sigma_px: Option<f64>,
    /// Slab thickness per acquired slice in voxels (imaging runs only).
    pub slice_voxels: Option<u32>,
    /// PRNG seed of the imaging model (imaging runs only).
    pub seed: Option<u64>,
    /// Total-variation denoise weight.
    pub denoise_lambda: f64,
    /// Denoise iteration count.
    pub denoise_iterations: u32,
    /// Alignment search window half-width in pixels.
    pub align_window: u32,
    /// Index of the sense-amplifier pair the analysis window centres on.
    pub window_pair: u32,
    /// Whether a fault-injection plan was active for the run.
    pub faults: bool,
    /// Seed of the fault plan (fault runs only).
    pub fault_seed: Option<u64>,
}

impl ConfigEcho {
    /// A pristine-run echo with the given topology; imaging fields unset.
    pub fn pristine(topology: impl Into<String>) -> Self {
        Self {
            topology: topology.into(),
            n_pairs: 0,
            voxel_nm: 0.0,
            imaging: false,
            dwell_us: None,
            drift_sigma_px: None,
            slice_voxels: None,
            seed: None,
            denoise_lambda: 0.0,
            denoise_iterations: 0,
            align_window: 0,
            window_pair: 0,
            faults: false,
            fault_seed: None,
        }
    }
}

/// Wall time of one completed pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Span name (stage name for top-level stages).
    pub name: String,
    /// Nesting depth (0 = pipeline stage, 1 = sub-step, ...).
    pub depth: u32,
    /// Wall time in microseconds.
    pub duration_us: u64,
}

/// Final accumulated value of one counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterTotal {
    /// Counter name.
    pub name: String,
    /// Sum of all increments over the run.
    pub total: u64,
}

/// Summary statistics over all observations of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeStat {
    /// Gauge name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Arithmetic mean of observations.
    pub mean: f64,
    /// The final observation (often the one that matters, e.g. a
    /// whole-volume accuracy recorded once at stage end).
    pub last: f64,
}

/// The fidelity metrics the paper's methodology tracks, pulled out of the
/// gauge stream by well-known name (see [`crate::names`]). All `None` for
/// pristine runs, which skip the imaging chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityMetrics {
    /// Mean per-slice PSNR of the raw acquisition vs. ideal render (dB).
    pub psnr_noisy_db: Option<f64>,
    /// Mean per-slice PSNR after alignment + denoise vs. ideal render (dB).
    pub psnr_denoised_db: Option<f64>,
    /// Fraction of reconstructed voxels matching the pristine volume.
    pub voxel_accuracy: Option<f64>,
    /// Mean absolute residual drift after alignment, px/slice.
    pub residual_drift_px: Option<f64>,
    /// The paper's alignment budget for this stack, px.
    pub alignment_budget_px: Option<f64>,
    /// Worst relative dimension deviation vs. generator ground truth.
    pub worst_dimension_deviation: Option<f64>,
}

impl FidelityMetrics {
    /// How many of the metrics were recorded.
    pub fn recorded_count(&self) -> usize {
        [
            self.psnr_noisy_db,
            self.psnr_denoised_db,
            self.voxel_accuracy,
            self.residual_drift_px,
            self.alignment_budget_px,
            self.worst_dimension_deviation,
        ]
        .iter()
        .filter(|m| m.is_some())
        .count()
    }
}

/// Fault-injection and recovery totals of one run, extracted from the
/// `fault.*` counters (see [`crate::names`]). All zero for runs without a
/// fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultTotals {
    /// Faults injected by the run's fault plan.
    pub injected: u64,
    /// Retry attempts made in response.
    pub retried: u64,
    /// Operations that recovered after at least one retry.
    pub recovered: u64,
    /// Operations that exhausted retries and were gracefully degraded.
    pub degraded: u64,
}

impl FaultTotals {
    /// Whether the run saw any fault activity at all.
    pub fn any(&self) -> bool {
        self.injected + self.retried + self.recovered + self.degraded > 0
    }
}

/// Speedup of one stage between two runs of the same pipeline at
/// different thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpeedup {
    /// Stage name.
    pub name: String,
    /// Baseline (e.g. single-thread) wall time divided by this run's wall
    /// time; > 1 means this run was faster.
    pub speedup: f64,
}

/// Provenance record of one pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Configuration that produced the run.
    pub config: ConfigEcho,
    /// Thread count the run's parallel stages resolved to (the last
    /// [`crate::names::PARALLEL_THREADS`] gauge), if recorded.
    pub threads: Option<f64>,
    /// Wall time per completed span, in completion order.
    pub stages: Vec<StageTiming>,
    /// Total wall time of the outermost span (µs), 0 if none completed.
    pub total_us: u64,
    /// Final counter totals, in first-increment order.
    pub counters: Vec<CounterTotal>,
    /// Per-gauge summary statistics, in first-observation order.
    pub gauges: Vec<GaugeStat>,
    /// Per-histogram summaries (count/min/p50/p90/p99/max), in
    /// first-observation order.
    pub histograms: Vec<HistogramSummary>,
    /// Named fidelity metrics extracted from the gauge stream.
    pub fidelity: FidelityMetrics,
    /// Fault-injection and recovery totals extracted from the counters.
    pub faults: FaultTotals,
    /// Number of events in the underlying stream.
    pub event_count: u64,
}

impl RunReport {
    /// Assembles a report from a recorded event stream.
    ///
    /// Stage timings come from `SpanEnd` events; counters fold to their
    /// final totals; gauges fold to min/max/mean/last; fidelity metrics
    /// are the *last* observation of each [`crate::names`] gauge.
    pub fn from_events(config: ConfigEcho, events: &[Event]) -> Self {
        let mut stages = Vec::new();
        let mut total_us = 0u64;
        let mut counters: Vec<CounterTotal> = Vec::new();
        let mut gauges: Vec<GaugeStat> = Vec::new();
        let mut hists: Vec<(String, Histogram)> = Vec::new();

        for ev in events {
            match ev.kind {
                EventType::SpanEnd => {
                    let duration_us = ev.duration_us.unwrap_or(0);
                    if ev.depth == 0 {
                        total_us = total_us.saturating_add(duration_us);
                    }
                    stages.push(StageTiming {
                        name: ev.name.clone(),
                        depth: ev.depth,
                        duration_us,
                    });
                }
                EventType::Counter => {
                    let total = ev.total.unwrap_or(0);
                    match counters.iter_mut().find(|c| c.name == ev.name) {
                        Some(c) => c.total = c.total.max(total),
                        None => counters.push(CounterTotal {
                            name: ev.name.clone(),
                            total,
                        }),
                    }
                }
                EventType::Gauge => {
                    let Some(v) = ev.value else { continue };
                    match gauges.iter_mut().find(|g| g.name == ev.name) {
                        Some(g) => {
                            g.min = g.min.min(v);
                            g.max = g.max.max(v);
                            g.mean += (v - g.mean) / (g.count + 1) as f64;
                            g.count += 1;
                            g.last = v;
                        }
                        None => gauges.push(GaugeStat {
                            name: ev.name.clone(),
                            count: 1,
                            min: v,
                            max: v,
                            mean: v,
                            last: v,
                        }),
                    }
                }
                EventType::Histogram => {
                    let value = ev.delta.unwrap_or(0);
                    match hists.iter_mut().find(|(n, _)| *n == ev.name) {
                        Some((_, h)) => h.record(value),
                        None => {
                            let mut h = Histogram::new();
                            h.record(value);
                            hists.push((ev.name.clone(), h));
                        }
                    }
                }
                EventType::SpanStart | EventType::ThreadSpan => {}
            }
        }
        let histograms = hists.iter().map(|(n, h)| h.summarize(n)).collect();

        let find = |name: &str| gauges.iter().find(|g| g.name == name).map(|g| g.last);
        let fidelity = FidelityMetrics {
            psnr_noisy_db: find(crate::names::PSNR_NOISY),
            psnr_denoised_db: find(crate::names::PSNR_DENOISED),
            voxel_accuracy: find(crate::names::VOXEL_ACCURACY),
            residual_drift_px: find(crate::names::RESIDUAL_DRIFT),
            alignment_budget_px: find(crate::names::ALIGNMENT_BUDGET),
            worst_dimension_deviation: find(crate::names::WORST_DIMENSION_DEVIATION),
        };

        let threads = find(crate::names::PARALLEL_THREADS);

        let counter = |name: &str| {
            counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.total)
        };
        let faults = FaultTotals {
            injected: counter(crate::names::FAULT_INJECTED),
            retried: counter(crate::names::FAULT_RETRIED),
            recovered: counter(crate::names::FAULT_RECOVERED),
            degraded: counter(crate::names::FAULT_DEGRADED),
        };

        Self {
            config,
            threads,
            stages,
            total_us,
            counters,
            gauges,
            histograms,
            fidelity,
            faults,
            event_count: events.len() as u64,
        }
    }

    /// Summary of the named histogram, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Per-stage speedups of this run against a `baseline` run of the same
    /// pipeline (typically recorded with the thread count pinned to 1):
    /// baseline wall time over this run's wall time, for every top-level
    /// stage both runs completed with non-zero time. Scaling harnesses
    /// record these as `parallel.speedup.<stage>` gauges (see
    /// [`crate::names::PARALLEL_SPEEDUP_PREFIX`]).
    pub fn stage_speedups(&self, baseline: &RunReport) -> Vec<StageSpeedup> {
        self.stages
            .iter()
            .filter(|s| s.depth == 0 && s.duration_us > 0)
            .filter_map(|s| {
                let base = baseline.stage_us(&s.name)?;
                if base == 0 {
                    return None;
                }
                Some(StageSpeedup {
                    name: s.name.clone(),
                    speedup: base as f64 / s.duration_us as f64,
                })
            })
            .collect()
    }

    /// Wall time of the named stage (first match), if it completed.
    pub fn stage_us(&self, name: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.duration_us)
    }

    /// Final total of the named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.total)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }

    /// The artifact-store traffic of `runs`, summed from their `store.*`
    /// counters, as one [`StoreTotals::summary`] line. `None` when no run
    /// looked anything up in a store.
    pub fn store_summary(runs: &[RunReport]) -> Option<String> {
        let sum = |name: &str| runs.iter().map(|r| r.counter(name)).sum::<u64>();
        let totals = StoreTotals::from_counters(sum);
        (totals.hits + totals.misses > 0).then(|| totals.summary(sum(crate::names::STORE_CORRUPT)))
    }

    /// One-line human summary: total time, stage count, fidelity headline.
    pub fn summary_line(&self) -> String {
        let stages = self.stages.iter().filter(|s| s.depth == 0).count();
        let mut line = format!(
            "{} run: {} stages in {:.1} ms",
            self.config.topology,
            stages,
            self.total_us as f64 / 1e3
        );
        if let Some(acc) = self.fidelity.voxel_accuracy {
            line.push_str(&format!(", voxel accuracy {:.3}", acc));
        }
        if let Some(psnr) = self.fidelity.psnr_denoised_db {
            line.push_str(&format!(", denoised PSNR {:.1} dB", psnr));
        }
        if let Some(drift) = self.fidelity.residual_drift_px {
            line.push_str(&format!(", residual drift {:.3} px", drift));
        }
        if self.faults.any() {
            line.push_str(&format!(
                ", faults {}/{} recovered ({} degraded)",
                self.faults.recovered, self.faults.injected, self.faults.degraded
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{with_span, JsonRecorder, Recorder};

    fn sample_report() -> RunReport {
        let mut rec = JsonRecorder::new();
        with_span(&mut rec, "acquire", |rec| {
            rec.counter("slices", 8);
            rec.gauge(crate::names::PSNR_NOISY, 17.2);
            rec.gauge(crate::names::PSNR_NOISY, 18.4);
        });
        with_span(&mut rec, "extract", |rec| {
            rec.counter("devices", 12);
            rec.gauge(crate::names::VOXEL_ACCURACY, 0.97);
        });
        let mut echo = ConfigEcho::pristine("open_bitline");
        echo.n_pairs = 4;
        echo.voxel_nm = 8.0;
        RunReport::from_events(echo, rec.events())
    }

    #[test]
    fn report_folds_spans_counters_and_gauges() {
        let report = sample_report();
        assert_eq!(report.stages.len(), 2);
        assert!(report.stage_us("acquire").is_some());
        assert!(report.stage_us("missing").is_none());
        assert_eq!(report.counter("slices"), 8);
        assert_eq!(report.counter("devices"), 12);
        assert_eq!(report.counter("missing"), 0);
        let psnr = report
            .gauges
            .iter()
            .find(|g| g.name == crate::names::PSNR_NOISY)
            .unwrap();
        assert_eq!(psnr.count, 2);
        assert_eq!(psnr.min, 17.2);
        assert_eq!(psnr.max, 18.4);
        assert!((psnr.mean - 17.8).abs() < 1e-9);
        assert_eq!(psnr.last, 18.4);
        assert_eq!(report.fidelity.voxel_accuracy, Some(0.97));
        assert_eq!(report.fidelity.psnr_noisy_db, Some(18.4));
        assert_eq!(report.fidelity.recorded_count(), 2);
        assert!(report.total_us <= report.stages.iter().map(|s| s.duration_us).sum());
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let report = sample_report();
        let json = report.to_json();
        let back: RunReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.config, report.config);
        assert_eq!(back.counters, report.counters);
        assert_eq!(back.stages, report.stages);
        assert_eq!(back.event_count, report.event_count);
        assert_eq!(back.fidelity, report.fidelity);
        assert_eq!(back.gauges.len(), report.gauges.len());
    }

    #[test]
    fn summary_line_mentions_fidelity_when_present() {
        let report = sample_report();
        let line = report.summary_line();
        assert!(line.contains("open_bitline"), "{line}");
        assert!(line.contains("2 stages"), "{line}");
        assert!(line.contains("voxel accuracy 0.970"), "{line}");
    }

    #[test]
    fn store_summary_sums_runs_and_needs_a_lookup() {
        let run = |counters: &[(&str, u64)]| {
            let mut rec = JsonRecorder::new();
            for &(name, n) in counters {
                rec.counter(name, n);
            }
            RunReport::from_events(ConfigEcho::pristine("classic"), rec.events())
        };
        use crate::names::*;
        let cold = run(&[(STORE_MISS, 1), (STORE_BYTES_WRITTEN, 2048)]);
        let warm = run(&[(STORE_HIT, 5), (STORE_BYTES_READ, 3 << 20)]);
        let evicted = run(&[(STORE_CORRUPT, 1)]);
        assert_eq!(RunReport::store_summary(&[sample_report()]), None);
        assert_eq!(
            RunReport::store_summary(&[cold, warm, evicted]).as_deref(),
            Some("store: 5 hits, 1 misses, 3.0 MiB read, 2.0 KiB written, 1 corrupt evicted")
        );
    }

    #[test]
    fn fault_counters_are_lifted_into_totals() {
        let mut rec = JsonRecorder::new();
        rec.counter(crate::names::FAULT_INJECTED, 5);
        rec.counter(crate::names::FAULT_RETRIED, 4);
        rec.counter(crate::names::FAULT_RECOVERED, 3);
        rec.counter(crate::names::FAULT_DEGRADED, 1);
        let report = RunReport::from_events(ConfigEcho::pristine("classic"), rec.events());
        assert_eq!(
            report.faults,
            FaultTotals {
                injected: 5,
                retried: 4,
                recovered: 3,
                degraded: 1,
            }
        );
        assert!(report.faults.any());
        let line = report.summary_line();
        assert!(line.contains("faults 3/5 recovered (1 degraded)"), "{line}");
        // Fault-free streams fold to all-zero totals and stay silent.
        let clean = sample_report();
        assert_eq!(clean.faults, FaultTotals::default());
        assert!(!clean.faults.any());
        assert!(!clean.summary_line().contains("faults"));
    }

    #[test]
    fn threads_gauge_is_lifted_into_report() {
        let mut rec = JsonRecorder::new();
        rec.gauge(crate::names::PARALLEL_THREADS, 4.0);
        with_span(&mut rec, "acquire", |_| {});
        let report = RunReport::from_events(ConfigEcho::pristine("open_bitline"), rec.events());
        assert_eq!(report.threads, Some(4.0));
        assert_eq!(sample_report().threads, None);
    }

    #[test]
    fn stage_speedups_divide_baseline_by_this_run() {
        let mut baseline = sample_report();
        let mut parallel = sample_report();
        for s in &mut baseline.stages {
            s.duration_us = 400;
        }
        for s in &mut parallel.stages {
            s.duration_us = 100;
        }
        let speedups = parallel.stage_speedups(&baseline);
        assert_eq!(speedups.len(), 2);
        for s in &speedups {
            assert_eq!(s.speedup, 4.0, "{}", s.name);
        }
        // Stages absent from the baseline, or with zero recorded time on
        // either side, are skipped rather than reported as 0 or infinity.
        baseline.stages[0].duration_us = 0;
        parallel.stages[1].name = "only_here".into();
        assert!(parallel.stage_speedups(&baseline).is_empty());
    }

    #[test]
    fn zero_duration_stages_never_poison_speedup_gauges() {
        // Pins the guard: a 0 µs stage on either side of the comparison is
        // skipped outright, so `parallel.speedup.*` gauges can never see an
        // infinite or NaN ratio.
        let mut baseline = sample_report();
        let mut this_run = sample_report();
        for s in &mut baseline.stages {
            s.duration_us = 0; // e.g. sub-µs stage on a fast machine
        }
        for s in &mut this_run.stages {
            s.duration_us = 250;
        }
        assert!(
            this_run.stage_speedups(&baseline).is_empty(),
            "zero-duration baseline must yield no speedup entries"
        );
        // And the mirror image: this run at 0 µs would divide by zero.
        for s in &mut baseline.stages {
            s.duration_us = 250;
        }
        for s in &mut this_run.stages {
            s.duration_us = 0;
        }
        assert!(this_run.stage_speedups(&baseline).is_empty());
        // Mixed case: only the well-defined pair survives, finite and > 0.
        this_run.stages[0].duration_us = 125;
        let speedups = this_run.stage_speedups(&baseline);
        assert_eq!(speedups.len(), 1);
        assert!(speedups[0].speedup.is_finite());
        assert_eq!(speedups[0].speedup, 2.0);
    }

    #[test]
    fn histogram_events_fold_into_summaries() {
        let mut rec = JsonRecorder::new();
        for v in [100u64, 200, 400, 800] {
            rec.histogram("acquire.slice_us", v);
        }
        rec.histogram("store.get_bytes", 4096);
        let report = RunReport::from_events(ConfigEcho::pristine("classic"), rec.events());
        assert_eq!(report.histograms.len(), 2);
        let h = report.histogram("acquire.slice_us").expect("present");
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 800);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99);
        assert!(report.histogram("missing").is_none());
        // Report survives a JSON round trip with histograms attached.
        let back: RunReport = serde_json::from_str(&report.to_json()).expect("parse");
        assert_eq!(back.histograms, report.histograms);
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let report = RunReport::from_events(ConfigEcho::pristine("none"), &[]);
        assert_eq!(report.total_us, 0);
        assert!(report.stages.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert_eq!(report.fidelity.recorded_count(), 0);
        assert_eq!(report.event_count, 0);
    }
}
