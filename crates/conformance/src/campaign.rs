//! Seeded conformance campaigns: fan out N randomized specs, judge each
//! against every oracle, shrink the failures, aggregate a deterministic
//! [`ConformanceReport`].
//!
//! Determinism is the campaign's core contract: the report depends only on
//! `(campaign seed, run count, tolerance)` — never on thread count, wall
//! time or iteration interleaving. Judging fans out over the vendored
//! `rayon` (order-preserving `par_map`), and every aggregate is folded
//! sequentially from the ordered judgement list.

use std::path::PathBuf;

use hifi_telemetry::{
    names, ConfigEcho, CounterTotal, GaugeStat, JsonRecorder, Recorder, RunReport,
};

use crate::oracles::{judge_in, RunJudgement, Tolerance, ORACLE_NAMES};
use crate::shrink::{shrink, Shrunk};
use crate::spec::ChipSpec;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed; run `i` judges `ChipSpec::generate(run_seed(seed, i))`.
    pub seed: u64,
    /// Number of randomized runs.
    pub runs: usize,
    /// Oracle tolerance bands.
    pub tolerance: Tolerance,
    /// Artifact-store root for warm re-runs.
    pub store: Option<PathBuf>,
    /// Whether failing specs are shrunk to minimal counterexamples
    /// (re-judges up to a few dozen nearby specs per failure).
    pub shrink_failures: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            runs: 16,
            tolerance: Tolerance::default(),
            store: None,
            shrink_failures: true,
        }
    }
}

/// Run `index`'s spec seed: the Monte-Carlo sweeps' per-sample seed
/// derivation, applied to the campaign seed.
pub use hifi_analog::montecarlo::sample_seed as run_seed;

/// Per-oracle aggregate across a campaign.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OracleSummary {
    /// Oracle name.
    pub oracle: String,
    /// Judgements that included this oracle.
    pub runs: u64,
    /// Verdicts that failed.
    pub failures: u64,
}

/// One bucket of the worst-dimension-error histogram.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HistogramBucket {
    /// Bucket label (inclusive upper bound in voxels, e.g. `"<=1.0"`).
    pub bucket: String,
    /// Judged runs that landed in the bucket.
    pub count: u64,
}

/// A failing run, with its shrunken counterexample.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FailureCase {
    /// Campaign run index.
    pub run_index: u64,
    /// The spec seed (`ChipSpec::generate(seed)` reproduces the spec).
    pub seed: u64,
    /// The failing spec, rendered.
    pub spec: String,
    /// Oracles that failed.
    pub failed_oracles: Vec<String>,
    /// First failure's detail line.
    pub detail: String,
    /// Minimal spec that still fails (equal to `spec` when shrinking is
    /// off or nothing simplified).
    pub shrunk_spec: String,
    /// Accepted shrink steps.
    pub shrink_steps: u64,
}

/// The campaign's worst dimension error and where it occurred.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct WorstCase {
    /// Campaign run index.
    pub run_index: u64,
    /// The spec, rendered.
    pub spec: String,
    /// Worst per-device dimension error (voxels).
    pub worst_dim_error_voxels: f64,
}

/// Deterministic aggregate of one campaign: a pure function of the
/// campaign config, bit-identical at any thread count.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ConformanceReport {
    /// Campaign seed.
    pub campaign_seed: u64,
    /// Runs executed.
    pub runs: u64,
    /// Runs that passed every oracle.
    pub passed: u64,
    /// Runs with at least one failing verdict.
    pub failed: u64,
    /// Per-oracle aggregates, in stable order (`pipeline` last).
    pub oracles: Vec<OracleSummary>,
    /// Worst-dimension-error histogram over judged (non-errored) runs.
    pub error_histogram: Vec<HistogramBucket>,
    /// The run with the largest dimension error.
    pub worst_case: Option<WorstCase>,
    /// Every failing run, with shrunken counterexamples.
    pub failures: Vec<FailureCase>,
    /// `conformance.*` counter totals (via the telemetry layer).
    pub counters: Vec<CounterTotal>,
    /// `conformance.*` gauge statistics (via the telemetry layer).
    pub gauges: Vec<GaugeStat>,
}

impl ConformanceReport {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        let worst = self
            .worst_case
            .as_ref()
            .map_or(0.0, |w| w.worst_dim_error_voxels);
        format!(
            "conformance: seed {} — {}/{} runs passed, {} failed, worst dim error {:.2} voxels",
            self.campaign_seed, self.passed, self.runs, self.failed, worst
        )
    }
}

/// Histogram bucket upper bounds (voxels); the last bucket is open.
const BUCKETS: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0];

/// Runs a conformance campaign.
///
/// Judging fans out across threads via the order-preserving `par_map`.
/// Shrinking happens inside each failing run's worker, so it parallelizes
/// with the remaining runs and stays deterministic per index.
pub fn run_campaign(cfg: &CampaignConfig) -> ConformanceReport {
    let indices: Vec<u64> = (0..cfg.runs as u64).collect();
    let judge_one = |&index: &u64| -> (u64, RunJudgement, Option<Shrunk>) {
        let seed = run_seed(cfg.seed, index);
        let spec = ChipSpec::generate(seed);
        let store = cfg.store.as_deref();
        let judgement = judge_in(&spec, &cfg.tolerance, store, None);
        let shrunk = if !judgement.passed() && cfg.shrink_failures {
            Some(shrink(&spec, &|candidate| {
                !judge_in(candidate, &cfg.tolerance, store, None).passed()
            }))
        } else {
            None
        };
        (seed, judgement, shrunk)
    };
    fold_report(cfg, &rayon::par_map(&indices, judge_one))
}

/// Folds ordered judgements into the report (sequential, deterministic).
fn fold_report(
    cfg: &CampaignConfig,
    judged: &[(u64, RunJudgement, Option<Shrunk>)],
) -> ConformanceReport {
    let mut rec = JsonRecorder::new();
    let mut passed = 0u64;
    let mut oracle_runs = vec![0u64; ORACLE_NAMES.len() + 1];
    let mut oracle_failures = vec![0u64; ORACLE_NAMES.len() + 1];
    let mut histogram = vec![0u64; BUCKETS.len() + 1];
    let mut worst_case: Option<WorstCase> = None;
    let mut failures = Vec::new();

    rec.counter(names::CONFORMANCE_RUNS, judged.len() as u64);
    for (index, (seed, judgement, shrunk)) in judged.iter().enumerate() {
        let index = index as u64;
        if judgement.passed() {
            passed += 1;
            rec.counter(names::CONFORMANCE_PASSED, 1);
        }
        let errored = judgement.verdicts.first().map(|v| v.oracle.as_str()) == Some("pipeline");
        for verdict in &judgement.verdicts {
            let slot = ORACLE_NAMES
                .iter()
                .position(|n| *n == verdict.oracle)
                .unwrap_or(ORACLE_NAMES.len());
            oracle_runs[slot] += 1;
            if !verdict.passed {
                oracle_failures[slot] += 1;
                rec.counter(names::CONFORMANCE_ORACLE_FAILURES, 1);
            }
        }
        if !errored {
            let err = judgement.worst_dim_error_voxels;
            rec.gauge(names::CONFORMANCE_WORST_DIM_ERROR, err);
            let bucket = BUCKETS
                .iter()
                .position(|b| err <= *b)
                .unwrap_or(BUCKETS.len());
            histogram[bucket] += 1;
            let is_worse = worst_case
                .as_ref()
                .is_none_or(|w| err.total_cmp(&w.worst_dim_error_voxels).is_gt());
            if is_worse {
                worst_case = Some(WorstCase {
                    run_index: index,
                    spec: judgement.spec.describe(),
                    worst_dim_error_voxels: err,
                });
            }
        }
        if !judgement.passed() {
            let (shrunk_spec, steps) = match shrunk {
                Some(s) => (s.spec.describe(), u64::from(s.steps)),
                None => (judgement.spec.describe(), 0),
            };
            if steps > 0 {
                rec.counter(names::CONFORMANCE_SHRINK_STEPS, steps);
            }
            failures.push(FailureCase {
                run_index: index,
                seed: *seed,
                spec: judgement.spec.describe(),
                failed_oracles: judgement
                    .failed_oracles()
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
                detail: judgement.first_failure(),
                shrunk_spec,
                shrink_steps: steps,
            });
        }
    }

    let oracles = ORACLE_NAMES
        .iter()
        .copied()
        .chain(std::iter::once("pipeline"))
        .enumerate()
        .map(|(i, name)| OracleSummary {
            oracle: name.to_string(),
            runs: oracle_runs[i],
            failures: oracle_failures[i],
        })
        .collect();
    let error_histogram = BUCKETS
        .iter()
        .map(|b| format!("<={b}"))
        .chain(std::iter::once(format!(">{}", BUCKETS[BUCKETS.len() - 1])))
        .zip(histogram)
        .map(|(bucket, count)| HistogramBucket { bucket, count })
        .collect();

    // Route the aggregates through the telemetry layer so campaign totals
    // surface with the same counter/gauge machinery (and names) as every
    // other run report in the workspace.
    let telemetry = RunReport::from_events(ConfigEcho::pristine("conformance"), rec.events());

    ConformanceReport {
        campaign_seed: cfg.seed,
        runs: judged.len() as u64,
        passed,
        failed: judged.len() as u64 - passed,
        oracles,
        error_histogram,
        worst_case,
        failures,
        counters: telemetry.counters,
        gauges: telemetry.gauges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seeds_are_spread_and_deterministic() {
        let seeds: Vec<u64> = (0..32).map(|i| run_seed(42, i)).collect();
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len(), "seed collision");
        assert_eq!(run_seed(42, 7), run_seed(42, 7));
        assert_ne!(run_seed(42, 7), run_seed(43, 7));
    }

    #[test]
    fn small_campaign_passes_and_aggregates() {
        let cfg = CampaignConfig {
            runs: 4,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.runs, 4);
        assert_eq!(report.passed, 4, "failures: {:?}", report.failures);
        assert_eq!(report.failed, 0);
        assert!(report.failures.is_empty());
        assert_eq!(report.oracles.len(), ORACLE_NAMES.len() + 1);
        for o in &report.oracles[..ORACLE_NAMES.len()] {
            assert_eq!(o.runs, 4, "{}", o.oracle);
            assert_eq!(o.failures, 0, "{}", o.oracle);
        }
        let total: u64 = report.error_histogram.iter().map(|b| b.count).sum();
        assert_eq!(total, 4);
        assert!(report.worst_case.is_some());
        let runs_counter = report
            .counters
            .iter()
            .find(|c| c.name == names::CONFORMANCE_RUNS)
            .expect("runs counter");
        assert_eq!(runs_counter.total, 4);
        assert!(report.to_json().contains("error_histogram"));
        assert!(report.summary_line().contains("4/4 runs passed"));
    }

    #[test]
    fn campaign_report_is_thread_count_invariant() {
        let cfg = CampaignConfig {
            runs: 3,
            ..CampaignConfig::default()
        };
        let single = rayon::with_num_threads(1, || run_campaign(&cfg));
        let multi = rayon::with_num_threads(4, || run_campaign(&cfg));
        assert_eq!(single, multi);
        assert_eq!(single.to_json(), multi.to_json());
    }
}
