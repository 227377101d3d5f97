//! Regenerates the paper artefact; see `hifi_bench::regen`.
//!
//! When `HIFI_STORE` is set, the pipelines replay cached artifacts; their
//! store summary goes to **stderr** so the stdout snapshot stays
//! byte-identical with and without a store.
fn main() {
    let (snapshot, store) = hifi_bench::pipeline_fidelity();
    println!("{snapshot}");
    if let Some(line) = store {
        eprintln!("{line}");
    }
}
