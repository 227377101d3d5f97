//! The metric contract and the result line.
//!
//! Metric names and units are read from the repository's
//! `BENCHMARK.json` (embedded at build time), so the printed result can
//! only carry declared names: an undeclared name is a bug and aborts the
//! run, and every declared metric of the requested kind is printed.

use std::collections::BTreeMap;

use serde::Value;

/// `BENCHMARK.json`, the benchmark's contract with its users.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The metric lists declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Contract {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Self, String> {
        Self::parse(CONTRACT)
    }

    fn parse(text: &str) -> Result<Self, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<Value>, String> {
            match root.field(key).map_err(|e| e.to_string())? {
                Value::Array(items) => Ok(items.clone()),
                other => Err(format!("BENCHMARK.json `{key}` is a {}", other.kind())),
            }
        };
        let string = |item: &Value, key: &str| -> Result<String, String> {
            match item.field(key).map_err(|e| e.to_string())? {
                Value::Str(s) => Ok(s.clone()),
                other => Err(format!("BENCHMARK.json `{key}` is a {}", other.kind())),
            }
        };
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: string(m, "name")?,
                        unit: string(m, "unit")?,
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }

    fn unit_of(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
            .map(|d| d.unit.as_str())
    }
}

/// Named metric values collected by one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Recorded names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// A measured value that is reported next to the result line but is not
/// part of the gated metric set: it exists on some workloads only, or
/// reads exactly zero by design (see the benchmark's README).
#[derive(Debug, Clone)]
pub struct Extra {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Extra {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops the timed (or traced) phase started.
    pub attempted: u64,
    /// Ops that raised an error or failed an output check.
    pub failed: u64,
    /// Human-readable reasons for every failed check.
    pub failures: Vec<String>,
    /// Declared metrics.
    pub metrics: Metrics,
    /// Reported-only values.
    pub extras: Vec<Extra>,
}

impl Outcome {
    /// Counts a failed op (or a failed run-level check) with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        self.failures.push(reason.into());
    }

    /// Records a check that does not belong to a single op: a failed one
    /// is counted like a failed op.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }

    pub fn extra(&mut self, extra: Extra) {
        self.extras.push(extra);
    }
}

/// Renders the human-readable report and the final JSON result line.
///
/// With `trace` the per-layer metrics are emitted, otherwise the
/// end-to-end ones. A per-layer metric the workload did not record reads
/// `0`: that layer does no work on this workload. A missing end-to-end
/// metric or any undeclared name is an error.
pub fn render(contract: &Contract, outcome: &Outcome, trace: bool) -> Result<String, String> {
    for name in outcome.metrics.names() {
        if contract.unit_of(name).is_none() {
            return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
        }
    }
    let declared = if trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut human = String::new();
    let mut fields = Vec::new();
    for d in declared {
        let value = match outcome.metrics.get(&d.name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{}` was not measured", d.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite: {value}", d.name));
        }
        human.push_str(&format!("  {:<34} {:>16} {}\n", d.name, fmt(value), d.unit));
        fields.push((
            d.name.clone(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(d.unit.clone())),
            ]),
        ));
    }
    for e in &outcome.extras {
        let note = if e.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", e.note)
        };
        human.push_str(&format!(
            "  {:<34} {:>16} {}{note}\n",
            e.name,
            fmt(e.value),
            e.unit
        ));
    }
    for reason in &outcome.failures {
        human.push_str(&format!("  FAILED: {reason}\n"));
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::Int(outcome.attempted as i64)),
        ("failed".into(), Value::Int(outcome.failed as i64)),
        ("metrics".into(), Value::Object(fields)),
    ]);
    let line = serde_json::to_string(&line).map_err(|e| e.to_string())?;
    Ok(format!("{human}{line}"))
}

fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_contract_parses_and_names_are_unique() {
        let c = Contract::load().expect("BENCHMARK.json parses");
        assert!(c.workloads.len() >= 2);
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        assert!(c
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn every_per_layer_metric_is_declared_and_measured_somewhere() {
        let c = Contract::load().unwrap();
        let mut measured: Vec<&str> = Vec::new();
        for workload in &c.workloads {
            for &name in crate::layers(workload) {
                assert!(
                    c.per_layer.iter().any(|d| d.name == name),
                    "{workload} records undeclared per-layer metric `{name}`"
                );
                measured.push(name);
            }
        }
        for d in &c.per_layer {
            assert!(
                measured.contains(&d.name.as_str()),
                "no workload measures `{}`",
                d.name
            );
        }
    }

    #[test]
    fn render_rejects_undeclared_and_missing_metrics() {
        let c = Contract::load().unwrap();
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.metrics.set("no_such_metric", 1.0);
        assert!(render(&c, &o, true).unwrap_err().contains("not declared"));

        let o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(render(&c, &o, false).unwrap_err().contains("not measured"));
        // Unrecorded per-layer metrics read zero.
        let line = render(&c, &o, true).unwrap();
        let json = line.lines().last().unwrap();
        assert!(json.starts_with("{\"correct\":true"), "{json}");
    }
}
