//! Machine-readable benchmark results for the CI regression gate.
//!
//! The benches and `record_perfbench` (perfbench's metrics, named in
//! [`PERFBENCH_METRICS`]) record their headline numbers into
//! `BENCH_results.json` at the workspace root; the committed
//! `BENCH_baseline.json` pins the expected values and
//! `scripts/bench_gate.sh` (via the `bench_gate` binary) fails CI when a
//! metric regresses past the tolerance.
//!
//! Three kinds of metric are recorded:
//!
//! - `"ms"` — a wall-clock median, lower is better. Load-sensitive, so the
//!   gate compares it relatively (>15% over baseline fails by default).
//! - `"percent"` — a paired-ratio overhead, lower is better. Load drift
//!   cancels in the pairs, so these are stable, but their baselines sit
//!   near zero (and may be legitimately negative) where a purely relative
//!   comparison is meaningless — the gate anchors the allowance at the
//!   *signed* baseline and grants one absolute percentage point on top.
//! - `"per_sec"` — a throughput rate, **higher** is better. The gate fails
//!   when the measured rate drops more than the tolerance below baseline.

use std::fmt;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

/// One benchmark headline number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Stable identifier, `"<bench>.<quantity>"` (e.g.
    /// `"fault_overhead.zero_fault_plan_pct"`).
    pub name: String,
    /// The measured value; lower is better for `"ms"` and `"percent"`
    /// metrics, higher is better for `"per_sec"` rates.
    pub value: f64,
    /// `"ms"`, `"percent"` or `"per_sec"` — selects the gate's comparison
    /// rule (and its direction).
    pub unit: String,
}

/// The results document (`BENCH_results.json` / `BENCH_baseline.json`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BenchResults {
    /// Recorded metrics, sorted by name.
    pub metrics: Vec<Metric>,
}

impl BenchResults {
    /// Loads a results document, or an empty one if `path` doesn't exist.
    ///
    /// # Errors
    ///
    /// An existing file that fails to read or parse is an error — a
    /// corrupt baseline must fail the gate, not pass it vacuously.
    pub fn load_or_default(path: &Path) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Self::default());
        }
        Self::load(path)
    }

    /// Loads a results document from `path`.
    ///
    /// # Errors
    ///
    /// I/O or parse failures, rendered with the offending path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let raw =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&raw).map_err(|e| format!("parse {}: {e}", path.display()))
    }

    /// Inserts or replaces the metric named `name`, keeping name order.
    pub fn record(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
        self.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Writes the document as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// I/O failures, rendered with the offending path.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Merges `self`'s metrics into the document at `path` (other benches'
    /// metrics are preserved) and writes it back.
    ///
    /// # Errors
    ///
    /// Same as [`Self::load`] / [`Self::write`].
    pub fn merge_into(&self, path: &Path) -> Result<(), String> {
        let mut existing = Self::load_or_default(path)?;
        for m in &self.metrics {
            existing.record(&m.name, m.value, &m.unit);
        }
        existing.write(path)
    }
}

/// Where benches record their results: `$BENCH_RESULTS` when set, else
/// `BENCH_results.json` at the workspace root.
pub fn results_path() -> PathBuf {
    if let Some(p) = std::env::var_os("BENCH_RESULTS").filter(|v| !v.is_empty()) {
        return PathBuf::from(p);
    }
    workspace_root().join("BENCH_results.json")
}

/// The committed baseline the gate compares against:
/// `$BENCH_BASELINE` when set, else `BENCH_baseline.json` at the
/// workspace root.
pub fn baseline_path() -> PathBuf {
    if let Some(p) = std::env::var_os("BENCH_BASELINE").filter(|v| !v.is_empty()) {
        return PathBuf::from(p);
    }
    workspace_root().join("BENCH_baseline.json")
}

fn workspace_root() -> PathBuf {
    // crates/bench/ → workspace root, robust to where cargo runs us from.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root")
        .to_path_buf()
}

/// Median of `xs`: the upper middle value for an even count. Panics when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Wall time of one call of `f`, in seconds.
pub fn time_secs<T>(f: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// The perfbench metrics behind the gate's headline numbers: (workload,
/// metric in perfbench's result line, gate name, gate unit).
#[rustfmt::skip]
pub const PERFBENCH_METRICS: [(&str, &str, &str, &str); 4] = [
    ("mna_sweep", "ops_per_s", "analog.mna.samples_per_sec", "per_sec"),
    ("serve_mix", "ops_per_s", "serve.jobs_per_sec", "per_sec"),
    ("serve_mix", "op_p50_ms", "serve.job_p50_ms", "ms"),
    ("imaged_chip", "op_p50_ms", "imaged_chip.op_p50_ms", "ms"),
];

/// The fields of a perfbench result line the gate reads.
#[derive(Deserialize)]
struct PerfbenchLine {
    correct: bool,
    failed: u64,
    metrics: Value,
}

/// Folds perfbench runs into gate metrics: the median over the runs of
/// each [`PERFBENCH_METRICS`] entry whose workload ran. Each line of
/// `runs` is a workload name, a space, and that run's last stdout line;
/// a blank line is an unknown workload.
///
/// # Errors
///
/// When there is no run, or any run names an unknown workload, is not
/// JSON, is not `correct`, has a failed op, or lacks a mapped metric or
/// reports it non-finite.
pub fn fold_perfbench(runs: &str) -> Result<BenchResults, String> {
    let mut samples = vec![Vec::new(); PERFBENCH_METRICS.len()];
    for (i, line) in runs.lines().enumerate() {
        let at = |msg: String| format!("perfbench run on line {}: {msg}", i + 1);
        let (workload, json) = line.split_once(' ').unwrap_or((line, ""));
        if !PERFBENCH_METRICS.iter().any(|m| m.0 == workload) {
            return Err(at(format!("unknown workload `{workload}`")));
        }
        let run: PerfbenchLine = serde_json::from_str(json).map_err(|e| at(e.to_string()))?;
        if !run.correct || run.failed > 0 {
            return Err(at(format!("{workload} failed {} ops", run.failed)));
        }
        for (&(w, metric, ..), values) in PERFBENCH_METRICS.iter().zip(&mut samples) {
            if w == workload {
                let value = run.metrics.field(metric).and_then(|v| v.field("value"));
                match value.and_then(f64::from_value) {
                    Ok(v) if v.is_finite() => values.push(v),
                    _ => return Err(at(format!("{workload} `{metric}` missing or not finite"))),
                }
            }
        }
    }
    let mut results = BenchResults::default();
    for (&(_, _, name, unit), values) in PERFBENCH_METRICS.iter().zip(&samples) {
        if !values.is_empty() {
            results.record(name, median(values), unit);
        }
    }
    if results.metrics.is_empty() {
        return Err("no perfbench run to record".into());
    }
    Ok(results)
}

/// Verdict of gating one metric against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance (includes improvements).
    Ok,
    /// Regressed past the allowance (lower-is-better metrics).
    Regressed {
        /// The highest acceptable value.
        allowed: f64,
    },
    /// Fell below the requirement (higher-is-better `"per_sec"` rates).
    TooSlow {
        /// The lowest acceptable value.
        required: f64,
    },
    /// Present in the baseline but missing from the results.
    Missing,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Ok => write!(f, "ok"),
            Verdict::Regressed { allowed } => write!(f, "REGRESSED (allowed ≤ {allowed:.3})"),
            Verdict::TooSlow { required } => write!(f, "REGRESSED (required ≥ {required:.3})"),
            Verdict::Missing => write!(f, "MISSING from results"),
        }
    }
}

/// Gates one measured value against its baseline metric.
///
/// `"ms"` metrics fail when more than `tolerance_pct` over baseline.
/// `"percent"` metrics (paired-ratio overheads with near-zero baselines)
/// get an allowance anchored at the **signed** baseline — the relative
/// tolerance scales `|baseline|`, so a negative baseline tightens the gate
/// symmetrically instead of being clamped to zero — *plus* one absolute
/// percentage point, so a baseline of 0.2% doesn't turn measurement noise
/// into a gate failure. `"per_sec"` rates are higher-is-better: they fail
/// when more than `tolerance_pct` *below* baseline.
///
/// Every comparison is written to pass only when it holds, so a NaN
/// value, baseline or tolerance fails the metric.
pub fn gate_metric(baseline: &Metric, measured: Option<f64>, tolerance_pct: f64) -> Verdict {
    let Some(value) = measured else {
        return Verdict::Missing;
    };
    let tol = tolerance_pct / 100.0;
    match baseline.unit.as_str() {
        "per_sec" => {
            let required = baseline.value * (1.0 - tol);
            if value >= required {
                Verdict::Ok
            } else {
                Verdict::TooSlow { required }
            }
        }
        "percent" => {
            let allowed = baseline.value + baseline.value.abs() * tol + 1.0;
            if value <= allowed {
                Verdict::Ok
            } else {
                Verdict::Regressed { allowed }
            }
        }
        _ => {
            let allowed = baseline.value.max(0.0) * (1.0 + tol);
            if value <= allowed {
                Verdict::Ok
            } else {
                Verdict::Regressed { allowed }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    #[test]
    fn record_upserts_and_sorts() {
        let mut r = BenchResults::default();
        r.record("b.time_ms", 20.0, "ms");
        r.record("a.pct", 1.0, "percent");
        r.record("b.time_ms", 25.0, "ms");
        assert_eq!(r.metrics.len(), 2);
        assert_eq!(r.metrics[0].name, "a.pct");
        assert_eq!(r.get("b.time_ms").unwrap().value, 25.0);
    }

    #[test]
    fn round_trips_and_merges_through_a_file() {
        let path = std::env::temp_dir().join(format!("hifi-bench-res-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut first = BenchResults::default();
        first.record("one.ms", 10.0, "ms");
        first.merge_into(&path).unwrap();
        let mut second = BenchResults::default();
        second.record("two.pct", 0.5, "percent");
        second.merge_into(&path).unwrap();
        let loaded = BenchResults::load(&path).unwrap();
        assert_eq!(loaded.metrics.len(), 2, "merge preserves other benches");
        assert_eq!(loaded.get("one.ms").unwrap().value, 10.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_baseline_is_an_error_not_a_pass() {
        let path = std::env::temp_dir().join(format!("hifi-bench-bad-{}.json", std::process::id()));
        std::fs::write(&path, "not json").unwrap();
        assert!(BenchResults::load_or_default(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn gate_rules_per_unit() {
        let ms = metric("t.ms", 100.0, "ms");
        assert_eq!(gate_metric(&ms, Some(114.0), 15.0), Verdict::Ok);
        assert!(matches!(
            gate_metric(&ms, Some(116.0), 15.0),
            Verdict::Regressed { .. }
        ));
        assert_eq!(gate_metric(&ms, None, 15.0), Verdict::Missing);
        // Improvements always pass.
        assert_eq!(gate_metric(&ms, Some(50.0), 15.0), Verdict::Ok);

        // Percent metrics get +1 absolute point on top of the relative
        // allowance: baseline 0.2% tolerates up to 1.23%.
        let pct = metric("o.pct", 0.2, "percent");
        assert_eq!(gate_metric(&pct, Some(1.2), 15.0), Verdict::Ok);
        assert!(matches!(
            gate_metric(&pct, Some(1.3), 15.0),
            Verdict::Regressed { .. }
        ));
        // Negative overhead baselines anchor the allowance below zero:
        // -0.4% tolerates up to -0.4 + 0.06 + 1.0 = 0.66 — a swing to
        // +0.9 is a regression the old zero-clamped rule waved through.
        let neg = metric("n.pct", -0.4, "percent");
        assert_eq!(gate_metric(&neg, Some(0.6), 15.0), Verdict::Ok);
        assert!(matches!(
            gate_metric(&neg, Some(0.9), 15.0),
            Verdict::Regressed { .. }
        ));
    }

    /// The percent allowance must be symmetric and direction-correct
    /// around the signed baseline, not clamped at zero.
    #[test]
    fn percent_gate_is_anchored_at_the_signed_baseline() {
        // Strongly negative baseline: allowed = -8 + 1.2 + 1 = -5.8; a
        // sign-crossing drift to +0.5 — far under the old flat 1.0
        // allowance — must fail.
        let neg = metric("n.pct", -8.0, "percent");
        assert_eq!(gate_metric(&neg, Some(-6.0), 15.0), Verdict::Ok);
        assert_eq!(
            gate_metric(&neg, Some(0.5), 15.0),
            Verdict::Regressed { allowed: -5.8 }
        );
        // Near-zero baseline keeps the one-point noise floor exactly.
        let zero = metric("z.pct", 0.0, "percent");
        assert_eq!(gate_metric(&zero, Some(0.99), 15.0), Verdict::Ok);
        assert_eq!(
            gate_metric(&zero, Some(1.01), 15.0),
            Verdict::Regressed { allowed: 1.0 }
        );
        // Positive and negative baselines of equal magnitude get
        // allowances mirrored around their baselines (same headroom).
        let pos = metric("p.pct", 2.0, "percent");
        let Verdict::Regressed {
            allowed: pos_allowed,
        } = gate_metric(&pos, Some(1e9), 15.0)
        else {
            panic!("expected regression");
        };
        let mirror = metric("m.pct", -2.0, "percent");
        let Verdict::Regressed {
            allowed: neg_allowed,
        } = gate_metric(&mirror, Some(1e9), 15.0)
        else {
            panic!("expected regression");
        };
        assert!((pos_allowed - 2.0 - (neg_allowed + 2.0)).abs() < 1e-12);
    }

    /// `per_sec` rates gate in the opposite direction: faster always
    /// passes, slower than tolerance fails.
    #[test]
    fn rate_gate_is_higher_is_better() {
        let rate = metric("s.vps", 1000.0, "per_sec");
        assert_eq!(gate_metric(&rate, Some(2000.0), 15.0), Verdict::Ok);
        assert_eq!(gate_metric(&rate, Some(860.0), 15.0), Verdict::Ok);
        assert_eq!(
            gate_metric(&rate, Some(840.0), 15.0),
            Verdict::TooSlow { required: 850.0 }
        );
        assert_eq!(gate_metric(&rate, None, 15.0), Verdict::Missing);
        assert!(format!("{}", Verdict::TooSlow { required: 850.0 }).contains("REGRESSED"));
    }

    /// Every comparison fails closed: a NaN tolerance or value fails the
    /// metric whatever was measured, even a value equal to the baseline.
    #[test]
    fn nan_tolerance_fails_every_unit() {
        let nan = f64::NAN;
        for unit in ["ms", "percent", "per_sec"] {
            let base = metric("x", 10.0, unit);
            assert_eq!(gate_metric(&base, Some(10.0), 15.0), Verdict::Ok);
            for (value, tol) in [(10.0, nan), (0.1, nan), (1e3, nan), (nan, 15.0)] {
                let verdict = gate_metric(&base, Some(value), tol);
                assert_ne!(verdict, Verdict::Ok, "{unit} {value} at {tol}%");
            }
        }
    }

    const OK: &str = r#""correct":true,"attempted":12,"failed":0"#;

    /// One run as `record_perfbench` reads it: the workload, then a result
    /// line shaped like perfbench's, with `metrics` holding `fields`.
    fn run(workload: &str, head: &str, fields: &str) -> String {
        format!("{workload} {{{head},\"metrics\":{{{fields}}}}}\n")
    }

    fn good(workload: &str, ops_per_s: &str, op_p50_ms: &str) -> String {
        let fields = format!(
            r#""setup_s":{{"value":0.05,"unit":"s"}},"ops_per_s":{{"value":{ops_per_s},"unit":"1/s"}},"op_p50_ms":{{"value":{op_p50_ms},"unit":"ms"}}"#
        );
        run(workload, OK, &fields)
    }

    #[test]
    fn perfbench_runs_fold_to_the_median_under_gate_names() {
        // The medians sit at different run positions and off the means.
        let mut runs = String::new();
        for (ops_per_s, op_p50_ms) in [("73.8", "45"), ("55.7", "100"), ("60.5", "40")] {
            for workload in ["mna_sweep", "serve_mix", "imaged_chip"] {
                runs += &good(workload, ops_per_s, op_p50_ms);
            }
        }
        let want = [
            metric("analog.mna.samples_per_sec", 60.5, "per_sec"),
            metric("imaged_chip.op_p50_ms", 45.0, "ms"),
            metric("serve.job_p50_ms", 45.0, "ms"),
            metric("serve.jobs_per_sec", 60.5, "per_sec"),
        ];
        assert_eq!(fold_perfbench(&runs).unwrap().metrics, want);
    }

    #[test]
    fn bad_perfbench_runs_fail_the_fold() {
        let fields = r#""ops_per_s":{"value":31},"op_p50_ms":{"value":45}"#;
        let ok = run("serve_mix", OK, fields);
        let bad = [
            run("serve_mix", r#""correct":false,"failed":0"#, fields),
            run("serve_mix", r#""correct":true,"failed":1"#, fields),
            run("serve_mix", OK, r#""ops_per_s":{"value":31}"#),
            run("mna_sweep", OK, r#""ops_per_s":{}"#),
            run("mna_sweep", OK, r#""ops_per_s":{"value":1e999}"#),
            run("die_stream", OK, fields),
            run("no_such_workload", OK, fields),
            "serve_mix correct\n".into(),
            "{\"correct\":true}\n".into(),
        ];
        for bad in bad {
            // One bad run spoils the fold wherever it appears.
            for runs in [bad.clone(), format!("{ok}{bad}{ok}")] {
                assert!(fold_perfbench(&runs).is_err(), "accepted:\n{runs}");
            }
        }
        assert!(fold_perfbench(&ok).is_ok());
        assert!(fold_perfbench("").is_err(), "zero runs");
        assert!(fold_perfbench("\n").is_err(), "blank line");
    }

    /// Every perfbench metric the gate records is pinned in the committed
    /// baseline under the same unit, so a rename fails here rather than in
    /// the gate.
    #[test]
    fn committed_baseline_gates_every_perfbench_metric() {
        let baseline = BenchResults::load(&workspace_root().join("BENCH_baseline.json")).unwrap();
        for (_, _, name, unit) in PERFBENCH_METRICS {
            let pinned = baseline.get(name).map(|m| m.unit.as_str());
            assert_eq!(pinned, Some(unit), "{name} in BENCH_baseline.json");
        }
    }
}
