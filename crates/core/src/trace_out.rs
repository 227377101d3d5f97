//! Opt-in trace sink: `HIFI_TRACE=<path>` captures every instrumented run.
//!
//! When the environment variable is set, each
//! [`Pipeline::run_instrumented`](crate::pipeline::Pipeline::run_instrumented)
//! call in the process appends its event stream here, and three sibling
//! files are rewritten after every run:
//!
//! - `<path>` — a Chrome trace-event document (load in Perfetto or
//!   `chrome://tracing`): one process per run, with stage spans on the
//!   main lane and per-slice spans on one lane per worker thread,
//! - `<path>.events.json` — the raw labelled event streams
//!   ([`RunEvents`]), the lossless input `hifi-trace` re-derives
//!   everything else from,
//! - `<path>.profile.json` — the aggregated [`ProfileSummary`] the CI
//!   profile gate diffs against `PROFILE_baseline.json`.
//!
//! The sink is process-global and append-only, capped at [`MAX_RUNS`]
//! runs (a campaign of hundreds of conformance runs would otherwise grow
//! the trace without bound); runs beyond the cap are dropped. Writes are
//! best-effort: a full disk degrades observability, never the pipeline
//! result.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use hifi_telemetry::{chrome_trace, run_events_to_json, Event, ProfileSummary, RunEvents, Trace};

/// Maximum number of runs kept in the sink.
pub const MAX_RUNS: usize = 64;

struct Sink {
    path: PathBuf,
    runs: Mutex<Vec<RunEvents>>,
}

fn sink() -> Option<&'static Sink> {
    static SINK: OnceLock<Option<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        std::env::var_os("HIFI_TRACE")
            .filter(|v| !v.is_empty())
            .map(|v| Sink {
                path: PathBuf::from(v),
                runs: Mutex::new(Vec::new()),
            })
    })
    .as_ref()
}

/// Whether `HIFI_TRACE` is set (read once per process).
pub fn enabled() -> bool {
    sink().is_some()
}

/// Records one labelled run and rewrites the three output files.
/// A no-op unless `HIFI_TRACE` is set.
pub(crate) fn record(label: &str, events: &[Event]) {
    let Some(sink) = sink() else { return };
    let mut runs = sink.runs.lock().unwrap_or_else(|e| e.into_inner());
    if runs.len() >= MAX_RUNS {
        return;
    }
    runs.push(RunEvents {
        label: label.to_string(),
        events: events.to_vec(),
    });
    write_all(&sink.path, &runs);
}

fn write_all(path: &std::path::Path, runs: &[RunEvents]) {
    let traced: Vec<(String, Trace)> = runs
        .iter()
        .map(|r| (r.label.clone(), Trace::from_events(&r.events)))
        .collect();
    let _ = std::fs::write(path, chrome_trace(&traced));
    let _ = std::fs::write(side_path(path, "events.json"), run_events_to_json(runs));
    let streams: Vec<Vec<Event>> = runs.iter().map(|r| r.events.clone()).collect();
    let profile = ProfileSummary::from_event_runs(&streams);
    let _ = std::fs::write(side_path(path, "profile.json"), profile.to_json());
}

/// `<path>.<suffix>` next to the main trace file.
fn side_path(path: &std::path::Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".");
    s.push(suffix);
    PathBuf::from(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_paths_append_suffixes() {
        let p = std::path::Path::new("/tmp/t.json");
        assert_eq!(
            side_path(p, "events.json"),
            std::path::Path::new("/tmp/t.json.events.json")
        );
        assert_eq!(
            side_path(p, "profile.json"),
            std::path::Path::new("/tmp/t.json.profile.json")
        );
    }

    #[test]
    fn write_all_emits_the_three_documents() {
        use hifi_telemetry::{JsonRecorder, Recorder};
        let dir = std::env::temp_dir().join(format!("hifi-traceout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let mut rec = JsonRecorder::new();
        rec.span_start("generate");
        rec.span_end("generate");
        let runs = vec![RunEvents {
            label: "classic".into(),
            events: rec.events().to_vec(),
        }];
        write_all(&path, &runs);
        let chrome = std::fs::read_to_string(&path).unwrap();
        assert!(chrome.contains("traceEvents"), "{chrome}");
        let events = std::fs::read_to_string(side_path(&path, "events.json")).unwrap();
        let back = hifi_telemetry::parse_run_events(&events).unwrap();
        assert_eq!(back, runs);
        let profile = std::fs::read_to_string(side_path(&path, "profile.json")).unwrap();
        let profile = ProfileSummary::parse(&profile).unwrap();
        assert_eq!(profile.runs, 1);
        assert!(profile.stage("generate").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
