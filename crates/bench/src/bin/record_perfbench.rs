//! Records perfbench's end-to-end metrics for the bench gate:
//! `record_perfbench <runs>`, where each line of `<runs>` is a workload
//! name, a space, and that run's last stdout line. See
//! `hifi_bench::results::fold_perfbench`.

use std::process::ExitCode;

use hifi_bench::results::{fold_perfbench, results_path};

fn main() -> ExitCode {
    let path = results_path();
    let recorded = std::env::args()
        .nth(1)
        .ok_or_else(|| "usage: record_perfbench <runs>".to_string())
        .and_then(|file| std::fs::read_to_string(&file).map_err(|e| format!("read {file}: {e}")))
        .and_then(|runs| fold_perfbench(&runs))
        .and_then(|results| results.merge_into(&path).map(|()| results));
    match recorded {
        Ok(results) => {
            for m in &results.metrics {
                println!("  {:<28} {:>12.3} {}", m.name, m.value, m.unit);
            }
            println!("recorded → {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("record_perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
