//! End-to-end conformance harness integration tests, exercised through the
//! same public API the `conformance` binary uses.
//!
//! Two contracts are pinned here rather than in the crate's unit tests
//! because they span the whole stack: campaign reports must be bit-stable
//! across thread counts, and a sabotaged extraction must be rejected by
//! the isomorphism oracle *and* shrink to the minimal counterexample spec.

use hifi_circuit::Netlist;
use hifi_conformance::{judge_with, run_campaign, shrink, CampaignConfig, ChipSpec, Tolerance};

/// A classic mis-extraction: the netlist loses its first mosfet.
fn drop_first_mosfet(nl: &Netlist) -> Netlist {
    let mut out = Netlist::new("tampered");
    let mut dropped = false;
    for (_, d) in nl.devices() {
        if let hifi_circuit::Device::Mosfet(m) = d {
            if !dropped {
                dropped = true;
                continue;
            }
            let g = out.add_net(nl.net_name(m.gate));
            let s = out.add_net(nl.net_name(m.source));
            let dr = out.add_net(nl.net_name(m.drain));
            out.add_mosfet(m.name.clone(), m.polarity, m.class, m.dims, g, s, dr);
        }
    }
    out
}

/// The campaign report — JSON and all — must not depend on how many
/// worker threads judged the runs, nor on whether an artifact store
/// replayed their stages. This is the property that lets CI compare
/// campaign artifacts across heterogeneous runners.
#[test]
fn campaign_reports_are_bit_identical_across_thread_counts() {
    let cfg = CampaignConfig {
        seed: 42,
        runs: 2,
        shrink_failures: false,
        ..CampaignConfig::default()
    };
    let single = rayon::with_num_threads(1, || run_campaign(&cfg));
    let multi = rayon::with_num_threads(2, || run_campaign(&cfg));
    assert_eq!(single, multi);
    assert_eq!(single.to_json(), multi.to_json());

    // Store-backed: a cold campaign at 2 threads, then a warm one at 1.
    let root = std::env::temp_dir().join(format!("hifi-campaign-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let stored = CampaignConfig {
        store: Some(root.clone()),
        ..cfg.clone()
    };
    let cold = rayon::with_num_threads(2, || run_campaign(&stored));
    let warm = rayon::with_num_threads(1, || run_campaign(&stored));
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(cold.to_json(), single.to_json(), "cold store run");
    assert_eq!(warm.to_json(), single.to_json(), "warm store run");
    assert_eq!(single.runs, 2);
    assert_eq!(
        single.failed, 0,
        "seed-42 prefix must stay green: {:?}",
        single.failures
    );
    // Every oracle (plus the pipeline pseudo-oracle) gets a summary row
    // even when it never fails, so downstream diffing sees a fixed shape.
    assert_eq!(single.oracles.len(), 8);
    assert!(single.summary_line().contains("2/2"));
}

/// Acceptance fixture: a deliberately mis-extracted netlist is rejected by
/// the isomorphism oracle, and shrinking a complex failing spec walks all
/// the way down to [`ChipSpec::minimal`] — the bug is in the (sabotaged)
/// extraction, not in any incidental spec structure.
#[test]
fn sabotaged_extraction_shrinks_to_the_minimal_counterexample() {
    let tol = Tolerance::default();
    let complex = ChipSpec {
        n_pairs: 2,
        mat_strip: true,
        dim_scale_pct: 110,
        ..ChipSpec::minimal()
    };

    let fails = |spec: &ChipSpec| {
        let j = judge_with(spec, &tol, Some(&drop_first_mosfet));
        j.failed_oracles().contains(&"netlist")
    };
    assert!(
        fails(&complex),
        "the tampered complex spec must fail to begin with"
    );

    let shrunk = shrink(&complex, &fails);
    assert_eq!(shrunk.spec, ChipSpec::minimal());
    assert_eq!(
        shrunk.steps, 3,
        "pairs, MAT strip and scaling each shrink away"
    );

    // The minimal counterexample still reproduces the rejection, with the
    // dropped device named in the diff detail.
    let j = judge_with(&shrunk.spec, &tol, Some(&drop_first_mosfet));
    assert_eq!(j.failed_oracles(), vec!["netlist"]);
    assert!(j.verdicts[0].detail.contains("missing"));
}
