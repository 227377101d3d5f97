//! Cost of the fault-injection layer when it injects nothing.
//!
//! Threading a zero-fault [`hifi_faults::FaultPlan`] through the pipeline
//! (plan allocation, per-site decision checks in the slice loop and store
//! paths, the retry wrappers, tally flushing) must cost ≤2% over running
//! with no plan at all — otherwise fault injection couldn't stay on in
//! regular test runs.
//!
//! Two variants of the pristine pipeline are timed:
//!
//! 1. `no_plan` — `faults: None`; the fault machinery is skipped entirely
//!    (the zero-cost default every user gets),
//! 2. `zero_fault_plan` — `faults: Some(FaultSpec::disabled())`; a real
//!    `FaultPlan` is built and consulted at every injection site, but all
//!    rates are zero so nothing ever fires. A disabled spec also shares
//!    the clean cache keys, so the comparison isolates pure plumbing cost.
//!
//! The harness measures both paths head-to-head with the same
//! paired-ratio methodology as `telemetry_overhead` and asserts the ≤2%
//! budget. The headline numbers land in `BENCH_results.json` for the CI
//! regression gate.

use std::hint::black_box;

use hifi_bench::results::{median, results_path, time_secs, BenchResults};
use hifi_circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig};
use hifi_faults::FaultSpec;

fn no_plan() -> PipelineConfig {
    PipelineConfig::pristine(SaTopologyKind::Classic)
}

fn zero_fault_plan() -> PipelineConfig {
    no_plan().with_faults(FaultSpec::disabled())
}

fn main() {
    // Head-to-head: adjacent pairs, alternating order, median of the
    // per-pair ratios — load drift hits both members of a pair and
    // cancels; a genuine regression shifts every ratio and moves the
    // median where noise cannot (same methodology as telemetry_overhead).
    const PAIRS: usize = 60;
    const BUDGET_PCT: f64 = 2.0;
    let without = Pipeline::new(no_plan());
    let with = Pipeline::new(zero_fault_plan());
    let mut run_base = || without.run().expect("pipeline");
    let mut run_plan = || with.run().expect("pipeline");
    black_box(run_base());
    black_box(run_plan());
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut base_times = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let (base, plan) = if i % 2 == 0 {
            let base = time_secs(&mut run_base);
            let plan = time_secs(&mut run_plan);
            (base, plan)
        } else {
            let plan = time_secs(&mut run_plan);
            let base = time_secs(&mut run_base);
            (base, plan)
        };
        ratios.push(plan / base);
        base_times.push(base);
    }
    let overhead = (median(&ratios) - 1.0) * 100.0;
    let base_ms = median(&base_times) * 1e3;
    println!(
        "zero-fault-plan overhead (median of {PAIRS} paired ratios): {overhead:+.2}%  \
         (median no-plan {base_ms:.1} ms)"
    );

    let mut results = BenchResults::default();
    results.record("fault_overhead.zero_fault_plan_pct", overhead, "percent");
    results.record("fault_overhead.no_plan_median_ms", base_ms, "ms");
    let path = results_path();
    results.merge_into(&path).expect("record bench results");
    println!("recorded → {}", path.display());

    assert!(
        overhead < BUDGET_PCT,
        "zero-fault plan overhead {overhead:.2}% exceeds the {BUDGET_PCT}% budget"
    );
}
