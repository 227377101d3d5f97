//! [`ProfileSummary`]: the cross-run cost profile written next to each
//! [`RunReport`](crate::RunReport), and the diff the CI profile gate runs.
//!
//! Where a `RunReport` answers "what did this run measure?", a
//! `ProfileSummary` answers "where did the time go?": per-span self time
//! aggregated over every run in a session, merged latency/size histograms,
//! store traffic, fault totals and the allocation high-water mark (when
//! the `alloc-track` feature installed the counting allocator).
//!
//! [`ProfileSummary::diff`] compares two profiles by per-stage **share of
//! self time** (in odds form, see [`ProfileGate`]) rather than absolute
//! microseconds: shares are stable across machine speeds, so a committed
//! `PROFILE_baseline.json` keeps gating on faster or slower CI hardware,
//! while a stage whose cost structurally grows (the "artificially
//! inflated" case the gate exists for) still shifts its share and fails.

use serde::{Deserialize, Serialize};

use crate::hist::{Histogram, HistogramSummary};
use crate::recorder::{Event, EventType};
use crate::report::FaultTotals;
use crate::trace::{Trace, TraceNode};

/// Aggregated cost of one span name across all runs in a profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Span name (top-level pipeline stages and nested sub-spans alike).
    pub name: String,
    /// Times the span completed.
    pub calls: u64,
    /// Summed wall time, µs.
    pub total_us: u64,
    /// Summed self time (wall time minus child spans), µs.
    pub self_us: u64,
}

/// Store traffic totals folded from the `store.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreTotals {
    /// Stage lookups served from the artifact store.
    pub hits: u64,
    /// Lookups that missed and recomputed.
    pub misses: u64,
    /// Artifact payload bytes read.
    pub bytes_read: u64,
    /// Artifact payload bytes written.
    pub bytes_written: u64,
}

/// Cross-run cost profile; see the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Schema version of this document (currently 1).
    pub schema_version: u32,
    /// Number of pipeline runs folded in.
    pub runs: u64,
    /// Summed top-level wall time across runs, µs.
    pub total_us: u64,
    /// Per-span aggregates, in first-completion order.
    pub stages: Vec<StageProfile>,
    /// Histograms merged across runs (count/min/p50/p90/p99/max).
    pub histograms: Vec<HistogramSummary>,
    /// Store traffic totals.
    pub store: StoreTotals,
    /// Fault-injection and recovery totals.
    pub faults: FaultTotals,
    /// Allocation high-water mark, bytes; `None` unless the `alloc-track`
    /// counting allocator was installed.
    pub alloc_peak_bytes: Option<u64>,
}

impl ProfileSummary {
    /// Folds one or more recorded event streams (one per pipeline run)
    /// into a profile.
    pub fn from_event_runs(runs: &[Vec<Event>]) -> Self {
        let mut stages: Vec<StageProfile> = Vec::new();
        let mut hists: Vec<(String, Histogram)> = Vec::new();
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut total_us = 0u64;
        let mut alloc_peak: Option<u64> = None;

        fn add_node(stages: &mut Vec<StageProfile>, node: &TraceNode) {
            let (total, self_us) = (node.duration_us, node.self_us());
            match stages.iter_mut().find(|s| s.name == node.name) {
                Some(s) => {
                    s.calls += 1;
                    s.total_us = s.total_us.saturating_add(total);
                    s.self_us = s.self_us.saturating_add(self_us);
                }
                None => stages.push(StageProfile {
                    name: node.name.clone(),
                    calls: 1,
                    total_us: total,
                    self_us,
                }),
            }
            for child in &node.children {
                add_node(stages, child);
            }
        }

        for events in runs {
            let trace = Trace::from_events(events);
            total_us = total_us.saturating_add(trace.total_us());
            for root in &trace.roots {
                add_node(&mut stages, root);
            }
            // Counters fold to their final (max) total per run, summed
            // across runs; histograms merge observation-by-observation.
            let mut run_totals: Vec<(String, u64)> = Vec::new();
            for ev in events {
                match ev.kind {
                    EventType::Counter => {
                        let total = ev.total.unwrap_or(0);
                        match run_totals.iter_mut().find(|(n, _)| *n == ev.name) {
                            Some((_, t)) => *t = (*t).max(total),
                            None => run_totals.push((ev.name.clone(), total)),
                        }
                    }
                    EventType::Histogram => {
                        let v = ev.delta.unwrap_or(0);
                        match hists.iter_mut().find(|(n, _)| *n == ev.name) {
                            Some((_, h)) => h.record(v),
                            None => {
                                let mut h = Histogram::new();
                                h.record(v);
                                hists.push((ev.name.clone(), h));
                            }
                        }
                    }
                    EventType::Gauge if ev.name == crate::names::ALLOC_PEAK_BYTES => {
                        if let Some(v) = ev.value {
                            let v = v.max(0.0) as u64;
                            alloc_peak = Some(alloc_peak.unwrap_or(0).max(v));
                        }
                    }
                    _ => {}
                }
            }
            for (name, total) in run_totals {
                match counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, t)) => *t = t.saturating_add(total),
                    None => counters.push((name, total)),
                }
            }
        }

        let counter = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, t)| *t)
        };
        Self {
            schema_version: 1,
            runs: runs.len() as u64,
            total_us,
            stages,
            histograms: hists.iter().map(|(n, h)| h.summarize(n)).collect(),
            store: StoreTotals {
                hits: counter(crate::names::STORE_HIT),
                misses: counter(crate::names::STORE_MISS),
                bytes_read: counter(crate::names::STORE_BYTES_READ),
                bytes_written: counter(crate::names::STORE_BYTES_WRITTEN),
            },
            faults: FaultTotals {
                injected: counter(crate::names::FAULT_INJECTED),
                retried: counter(crate::names::FAULT_RETRIED),
                recovered: counter(crate::names::FAULT_RECOVERED),
                degraded: counter(crate::names::FAULT_DEGRADED),
            },
            alloc_peak_bytes: alloc_peak,
        }
    }

    /// Summed self time across every stage, µs (the share denominator).
    pub fn total_self_us(&self) -> u64 {
        self.stages.iter().map(|s| s.self_us).sum()
    }

    /// A stage's share of total self time, in `[0, 1]` (0 when empty).
    pub fn self_share(&self, name: &str) -> f64 {
        let denom = self.total_self_us();
        if denom == 0 {
            return 0.0;
        }
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.self_us as f64 / denom as f64)
    }

    /// The named stage aggregate, if recorded.
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Summary of the named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }

    /// Parses a profile back from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not a valid profile document.
    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid profile JSON: {e}"))
    }

    /// Compares this profile (the new measurement) against a committed
    /// baseline; see [`ProfileGate`] for the regression rule.
    ///
    /// Shares used for the verdict are renormalized over the stages the
    /// two profiles have in *common*: a stage that disappeared is
    /// reported once as [`DiffVerdict::MissingStage`] instead of also
    /// inflating every survivor's share past the gate. The rows keep the
    /// plain whole-profile shares for display.
    pub fn diff(&self, baseline: &ProfileSummary, gate: &ProfileGate) -> ProfileDiff {
        let common_self = |of: &ProfileSummary, other: &ProfileSummary| -> u64 {
            of.stages
                .iter()
                .filter(|s| other.stage(&s.name).is_some())
                .map(|s| s.self_us)
                .sum()
        };
        let base_denom = common_self(baseline, self);
        let cur_denom = common_self(self, baseline);
        let norm = |self_us: u64, denom: u64| {
            if denom == 0 {
                0.0
            } else {
                self_us as f64 / denom as f64
            }
        };
        let mut rows: Vec<DiffRow> = Vec::new();
        for base_stage in &baseline.stages {
            let base_share = baseline.self_share(&base_stage.name);
            let current = self.stage(&base_stage.name);
            let current_share = self.self_share(&base_stage.name);
            let current_self = current.map_or(0, |s| s.self_us);
            let verdict = match current {
                None if base_stage.self_us >= gate.min_self_us => DiffVerdict::MissingStage,
                None => DiffVerdict::Ok,
                Some(s) => {
                    let base_cmp = norm(base_stage.self_us, base_denom);
                    let cur_cmp = norm(s.self_us, cur_denom);
                    let allowed = share_odds(base_cmp + gate.share_slack)
                        * (1.0 + gate.tolerance_pct / 100.0);
                    // Fails closed: a NaN tolerance or share fails the stage.
                    let within = share_odds(cur_cmp) <= allowed;
                    if within || s.self_us < gate.min_self_us {
                        DiffVerdict::Ok
                    } else {
                        DiffVerdict::Regressed
                    }
                }
            };
            rows.push(DiffRow {
                name: base_stage.name.clone(),
                baseline_share: base_share,
                current_share,
                baseline_self_us: base_stage.self_us,
                current_self_us: current_self,
                verdict,
            });
        }
        for stage in &self.stages {
            if baseline.stage(&stage.name).is_none() {
                rows.push(DiffRow {
                    name: stage.name.clone(),
                    baseline_share: 0.0,
                    current_share: self.self_share(&stage.name),
                    baseline_self_us: 0,
                    current_self_us: stage.self_us,
                    verdict: DiffVerdict::NewStage,
                });
            }
        }
        ProfileDiff { rows }
    }

    /// Multi-line human rendering: per-stage table, histogram one-liners,
    /// store/fault/allocation footers.
    pub fn render(&self) -> String {
        let mut out = format!(
            "profile: {} run{} · total {:.1} ms\n",
            self.runs,
            if self.runs == 1 { "" } else { "s" },
            self.total_us as f64 / 1e3
        );
        out.push_str(&format!(
            "{:<24} {:>6} {:>12} {:>12} {:>7}\n",
            "stage", "calls", "total_us", "self_us", "share"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<24} {:>6} {:>12} {:>12} {:>6.1}%\n",
                s.name,
                s.calls,
                s.total_us,
                s.self_us,
                self.self_share(&s.name) * 100.0
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                out.push_str(&format!("  {}\n", h.render()));
            }
        }
        out.push_str(&format!(
            "store: {} hits, {} misses, {} B read, {} B written\n",
            self.store.hits, self.store.misses, self.store.bytes_read, self.store.bytes_written
        ));
        if self.faults.any() {
            out.push_str(&format!(
                "faults: {} injected, {} retried, {} recovered, {} degraded\n",
                self.faults.injected,
                self.faults.retried,
                self.faults.recovered,
                self.faults.degraded
            ));
        }
        match self.alloc_peak_bytes {
            Some(b) => out.push_str(&format!("alloc peak: {b} bytes\n")),
            None => out.push_str("alloc peak: not tracked (enable feature alloc-track)\n"),
        }
        out
    }
}

/// One labelled run's full event stream — the element type of the
/// `<trace>.events.json` side file the `HIFI_TRACE` sink writes next to
/// the Chrome trace, and the raw input `hifi-trace` re-derives traces,
/// folded stacks and profiles from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEvents {
    /// Human label for the run (configuration summary).
    pub label: String,
    /// The run's flat event stream, in emission order.
    pub events: Vec<Event>,
}

/// Parses a `.events.json` document (a JSON array of [`RunEvents`]).
///
/// # Errors
///
/// Returns a message when the text is not a valid event-stream document.
pub fn parse_run_events(text: &str) -> Result<Vec<RunEvents>, String> {
    serde_json::from_str(text).map_err(|e| format!("invalid events JSON: {e}"))
}

/// Serializes labelled run streams as a pretty-printed `.events.json`
/// document (the inverse of [`parse_run_events`]).
pub fn run_events_to_json(runs: &[RunEvents]) -> String {
    serde_json::to_string_pretty(&runs.to_vec()).unwrap_or_else(|_| "[]".into())
}

/// Regression rule for [`ProfileSummary::diff`]. Shares are compared as
/// **odds** — `share / (1 − share)` — so the gate stays sensitive for
/// dominant stages: a stage already at 90% can barely grow its *share*,
/// but inflating it 20× still multiplies its odds ~20×. A baseline stage
/// fails when
/// `odds(current_share) > odds(baseline_share + share_slack) · (1 + tolerance_pct/100)`
/// *and* its absolute self time is at least `min_self_us` (µs-scale
/// stages jitter too much to gate on). A baseline stage missing from the
/// current profile fails outright; stages new in the current profile are
/// listed but never fail the gate. Odds are a pure function of shares,
/// so the gate stays machine-speed independent.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileGate {
    /// Relative share growth tolerated, percent.
    pub tolerance_pct: f64,
    /// Absolute share slack added on top (fraction of 1).
    pub share_slack: f64,
    /// Stages below this self time never regress.
    pub min_self_us: u64,
}

impl Default for ProfileGate {
    fn default() -> Self {
        Self {
            tolerance_pct: 50.0,
            share_slack: 0.02,
            min_self_us: 200,
        }
    }
}

/// Odds form of a self-time share, `s / (1 − s)`. The clamp keeps a
/// share of exactly 1 (a single-stage profile) finite; such a profile
/// cannot express relative growth and never regresses by share.
fn share_odds(share: f64) -> f64 {
    let s = share.clamp(0.0, 0.9999);
    s / (1.0 - s)
}

/// Verdict for one stage in a profile diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiffVerdict {
    /// Within tolerance.
    Ok,
    /// Self-time share grew beyond the gate.
    Regressed,
    /// Present in the baseline, absent from the current profile.
    MissingStage,
    /// Absent from the baseline (informational, never fails).
    NewStage,
}

/// One stage's comparison in a [`ProfileDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Stage name.
    pub name: String,
    /// Baseline share of self time.
    pub baseline_share: f64,
    /// Current share of self time.
    pub current_share: f64,
    /// Baseline self time, µs.
    pub baseline_self_us: u64,
    /// Current self time, µs.
    pub current_self_us: u64,
    /// Outcome under the gate.
    pub verdict: DiffVerdict,
}

/// Result of comparing two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Per-stage rows: baseline stages first, then new stages.
    pub rows: Vec<DiffRow>,
}

impl ProfileDiff {
    /// Number of failing rows (regressed or missing stages).
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| {
                matches!(
                    r.verdict,
                    DiffVerdict::Regressed | DiffVerdict::MissingStage
                )
            })
            .count()
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }

    /// Multi-line human rendering of the comparison table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>8} {:>8} {:>12} {:>12}  verdict\n",
            "stage", "base%", "now%", "base_self", "now_self"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>7.1}% {:>7.1}% {:>12} {:>12}  {:?}\n",
                r.name,
                r.baseline_share * 100.0,
                r.current_share * 100.0,
                r.baseline_self_us,
                r.current_self_us,
                r.verdict
            ));
        }
        out.push_str(&format!(
            "profile gate: {} regression{}\n",
            self.regressions(),
            if self.regressions() == 1 { "" } else { "s" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{with_span, JsonRecorder, Recorder};

    fn events_with(scale: &[(&str, u64)]) -> Vec<Event> {
        // Build a synthetic run whose per-stage self time is given in
        // `scale` (µs are simulated through duration fields post-hoc).
        let mut rec = JsonRecorder::new();
        for (name, _) in scale {
            with_span(&mut rec, name, |rec| {
                rec.histogram("stage.slice_us", 64);
            });
        }
        rec.counter(crate::names::STORE_HIT, 2);
        rec.counter(crate::names::STORE_BYTES_READ, 1024);
        let mut events = rec.into_events();
        // Overwrite wall times deterministically.
        for ev in &mut events {
            if ev.kind == EventType::SpanEnd {
                let us = scale.iter().find(|(n, _)| *n == ev.name).unwrap().1;
                ev.duration_us = Some(us);
            }
        }
        events
    }

    #[test]
    fn profile_folds_stages_counters_and_histograms() {
        let run_a = events_with(&[("acquire", 4_000), ("extract", 1_000)]);
        let run_b = events_with(&[("acquire", 6_000), ("extract", 1_000)]);
        let p = ProfileSummary::from_event_runs(&[run_a, run_b]);
        assert_eq!(p.runs, 2);
        assert_eq!(p.total_us, 12_000);
        let acq = p.stage("acquire").expect("present");
        assert_eq!(acq.calls, 2);
        assert_eq!(acq.self_us, 10_000);
        assert!((p.self_share("acquire") - 10.0 / 12.0).abs() < 1e-12);
        assert_eq!(p.store.hits, 4);
        assert_eq!(p.store.bytes_read, 2048);
        assert_eq!(p.histogram("stage.slice_us").unwrap().count, 4);
        assert_eq!(p.alloc_peak_bytes, None);
        // JSON round trip.
        let back = ProfileSummary::parse(&p.to_json()).expect("parse");
        assert_eq!(back, p);
        assert!(ProfileSummary::parse("nonsense").is_err());
    }

    /// Pins the odds-form clamp: a share of exactly 1.0 (single-stage
    /// profile) must stay finite instead of dividing by zero, and such a
    /// profile can never regress by share — there is no relative growth
    /// for it to express.
    #[test]
    fn full_share_odds_stay_finite_and_never_regress() {
        let odds = share_odds(1.0);
        assert!(odds.is_finite(), "share=1.0 must not divide by zero");
        assert!((odds - 0.9999 / (1.0 - 0.9999)).abs() < 1e-6);
        // Shares beyond 1 (degenerate input) and below 0 clamp too.
        assert!(share_odds(1.5).is_finite());
        assert_eq!(share_odds(-0.3), 0.0);
        // Monotone on the meaningful range, so the clamp only saturates.
        assert!(share_odds(0.5) < share_odds(0.99));
        assert!(share_odds(0.99) <= share_odds(1.0));

        // End-to-end: a single-stage profile holds 100% share in both
        // baseline and current; even wildly slower absolute time passes
        // the share gate (shares are machine-speed independent).
        let baseline = ProfileSummary::from_event_runs(&[events_with(&[("acquire", 4_000)])]);
        let current = ProfileSummary::from_event_runs(&[events_with(&[("acquire", 400_000)])]);
        let diff = current.diff(&baseline, &ProfileGate::default());
        assert!(diff.passed(), "full-share stage must never regress");
        let row = &diff.rows[0];
        assert_eq!(row.verdict, DiffVerdict::Ok);
        assert!(row.baseline_share.is_finite() && row.current_share.is_finite());
    }

    #[test]
    fn diff_passes_on_identical_profiles_and_scaled_clones() {
        let p = ProfileSummary::from_event_runs(&[events_with(&[
            ("acquire", 4_000),
            ("extract", 1_000),
        ])]);
        // Identical.
        assert!(p.diff(&p, &ProfileGate::default()).passed());
        // Uniformly 3× slower machine: shares unchanged, still passes.
        let slow = ProfileSummary::from_event_runs(&[events_with(&[
            ("acquire", 12_000),
            ("extract", 3_000),
        ])]);
        assert!(slow.diff(&p, &ProfileGate::default()).passed());
    }

    #[test]
    fn nan_tolerance_fails_even_identical_profiles() {
        let p = ProfileSummary::from_event_runs(&[events_with(&[("a", 4_000), ("b", 1_000)])]);
        let gate = ProfileGate {
            tolerance_pct: f64::NAN,
            ..ProfileGate::default()
        };
        assert_eq!(p.diff(&p, &gate).regressions(), 2);
    }

    #[test]
    fn diff_flags_inflated_and_missing_stages() {
        let baseline = ProfileSummary::from_event_runs(&[events_with(&[
            ("acquire", 4_000),
            ("extract", 1_000),
        ])]);
        // `extract` inflated 20×: its share jumps from 20% to ~83%.
        let inflated = ProfileSummary::from_event_runs(&[events_with(&[
            ("acquire", 4_000),
            ("extract", 20_000),
        ])]);
        let diff = inflated.diff(&baseline, &ProfileGate::default());
        assert_eq!(diff.regressions(), 1);
        let row = diff.rows.iter().find(|r| r.name == "extract").unwrap();
        assert_eq!(row.verdict, DiffVerdict::Regressed);
        assert!(diff.render().contains("Regressed"));
        // A baseline stage that disappeared fails too.
        let partial = ProfileSummary::from_event_runs(&[events_with(&[("acquire", 4_000)])]);
        let diff = partial.diff(&baseline, &ProfileGate::default());
        assert_eq!(diff.regressions(), 1);
        assert!(diff
            .rows
            .iter()
            .any(|r| r.verdict == DiffVerdict::MissingStage));
        // New stages are informational only.
        let grown = ProfileSummary::from_event_runs(&[events_with(&[
            ("acquire", 4_000),
            ("extract", 1_000),
            ("brand_new", 2_000),
        ])]);
        let diff = grown.diff(&baseline, &ProfileGate::default());
        assert!(diff.rows.iter().any(|r| r.verdict == DiffVerdict::NewStage));
        assert!(diff.passed());
    }

    #[test]
    fn tiny_stages_never_regress() {
        let baseline =
            ProfileSummary::from_event_runs(&[events_with(&[("big", 100_000), ("tiny", 10)])]);
        let jittery =
            ProfileSummary::from_event_runs(&[events_with(&[("big", 100_000), ("tiny", 150)])]);
        // `tiny`'s share grew 15×, but it is below min_self_us.
        assert!(jittery.diff(&baseline, &ProfileGate::default()).passed());
    }

    #[test]
    fn render_mentions_store_and_alloc_state() {
        let p = ProfileSummary::from_event_runs(&[events_with(&[("acquire", 1_000)])]);
        let text = p.render();
        assert!(text.contains("store: 2 hits"), "{text}");
        assert!(text.contains("not tracked"), "{text}");
        assert!(text.contains("acquire"), "{text}");
    }
}
