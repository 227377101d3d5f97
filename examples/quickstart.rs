//! Quickstart: reverse engineer a synthetic sense-amplifier region end to
//! end and check the result against ground truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hifi_dram::circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig, PipelineError};
use hifi_telemetry::RunReport;

fn main() -> Result<(), PipelineError> {
    println!("HiFi-DRAM quickstart: generate -> voxelise -> extract -> identify\n");

    // With `HIFI_STORE=<dir>` set, the pipelines below replay cached
    // stage artifacts; their summed store traffic is reported at the end.
    let mut runs: Vec<RunReport> = Vec::new();

    for kind in [SaTopologyKind::Classic, SaTopologyKind::OffsetCancellation] {
        let report = Pipeline::new(PipelineConfig::pristine(kind)).run_instrumented()?;
        println!("generated topology : {kind}");
        println!(
            "identified as      : {}",
            report
                .identified
                .map(|k| k.to_string())
                .unwrap_or_else(|| "<no match>".into())
        );
        println!("transistors found  : {}", report.device_count);
        if let Some(worst) = report.worst_dimension_deviation {
            println!(
                "worst dimension err: {:.1}% (voxel quantisation)",
                worst.as_percent()
            );
        }
        if let Some(telemetry) = report.telemetry.clone() {
            println!("telemetry          : {}", telemetry.summary_line());
            runs.push(telemetry);
        }
        println!(
            "verdict            : {}\n",
            if report.topology_correct() {
                "ground truth recovered"
            } else {
                "MISMATCH"
            }
        );
    }

    // One imaged run exercises the full FIB/SEM post-processing chain
    // (acquire → normalize → align → denoise → reconstruct). With
    // `HIFI_TRACE=<path>` set, this is also what gives the exported trace
    // its per-worker slice lanes — the pristine runs above have no
    // parallel imaging stages.
    // Thicker slices than the default keep the demo run in the seconds
    // range; fidelity suffers a little, topology identification does not.
    let imaging = hifi_dram::imaging::ImagingConfig {
        slice_voxels: 4,
        ..Default::default()
    };
    let imaged = Pipeline::new(PipelineConfig::with_imaging(
        SaTopologyKind::Classic,
        imaging,
    ))
    .run_instrumented()?;
    println!(
        "imaged run         : identified {}, {} slices aligned",
        imaged
            .identified
            .map(|k| k.to_string())
            .unwrap_or_else(|| "<no match>".into()),
        imaged.alignment_corrections.len()
    );
    if let Some(telemetry) = imaged.telemetry {
        println!("telemetry          : {}\n", telemetry.summary_line());
        runs.push(telemetry);
    }

    // The headline evaluation numbers, computed live from the dataset.
    let rows = hifi_dram::eval::overhead::table2();
    let cool = rows
        .iter()
        .find(|r| r.paper.name == "CoolDRAM")
        .expect("CoolDRAM in registry");
    println!(
        "Evaluation headline: CoolDRAM overhead error = {} (paper: 175x)",
        cool.overhead_error.expect("ddr4 paper").as_times()
    );
    if let Some(line) = RunReport::store_summary(&runs) {
        println!("{line}");
    }
    Ok(())
}
