//! Activation-disturbance characterization (RowHammer / RowPress idiom)
//! and physical-row-adjacency recovery (DRAMScope idiom).
//!
//! Alternately activating two rows of the same bank (a row-buffer-conflict
//! pair) hammers both; past the device's threshold, the rows *physically*
//! adjacent to the aggressors leak their weakest bits toward the
//! discharged value. The set of logical rows that show flips therefore
//! encodes the logical→physical scramble: every victim must be physically
//! adjacent to an aggressor, and a handful of aggressor pairs leave few
//! consistent XOR candidates. Adjacency alone cannot finish the job —
//! reflecting the line (`x ^ (rows-1)`) preserves every neighbour
//! relation, and flipping any bit above all observed adjacencies does
//! too. Two extra observables close it: the polarity map from the
//! retention campaign anchors bit 0 (open-bitline polarity follows
//! physical row parity, and decay-to-`0x00` vs `0xFF` is absolute, so a
//! candidate with the wrong low bit predicts the wrong polarity for every
//! row — this also kills the reflection), and adaptive follow-up
//! experiments aimed at each surviving candidate's half-boundary row
//! force a victim pair straddling physical `rows/2 - 1 : rows/2`, the one
//! adjacency no nonzero XOR alias preserves.

use crate::blackbox::BlackBox;
use crate::mapping::{probe_pair, ProbeClass};
use crate::report::{HammerExperiment, InferredDisturbance, RowPolarity};
use crate::retention::PATTERN;
use hifi_dramsim::CellPolarity;

/// Per-aggressor activation counts tried, ascending. Brackets the device
/// class's threshold palette; each rung starts from a fresh refresh
/// window, so the first triggering rung *is* the threshold whenever the
/// threshold is on the ladder.
pub const HAMMER_LADDER: [u32; 4] = [12, 24, 48, 96];

/// Aggressor row fields tried, one experiment each. Spread across the row
/// space so the adjacency constraints pin the scramble.
const AGGRESSORS: [usize; 6] = [3, 11, 22, 29, 45, 58];

/// Finds an address that row-buffer-conflicts with `a` while using row
/// field `row`: scans bank fields until the latency probe reports a
/// conflict (same bank). Returns `None` when no field conflicts (never,
/// for XOR bank functions).
fn same_bank_partner(bb: &mut BlackBox, a: usize, row: usize) -> Option<usize> {
    let g = bb.geometry();
    for bf in 0..g.banks {
        let b = g.pack(bf, row, 0);
        if b == a {
            continue;
        }
        let (class, _) = probe_pair(bb, a, b);
        if class == ProbeClass::Conflict {
            return Some(b);
        }
    }
    None
}

/// Rewrites the pattern into every cell of the device (all columns — flip
/// scans must start from a fully known state).
fn restore_pattern(bb: &mut BlackBox) {
    let g = bb.geometry();
    for bf in 0..g.banks {
        for row in 0..g.rows {
            for col in 0..g.cols {
                bb.write_at(g.pack(bf, row, col), PATTERN);
            }
        }
    }
}

/// Scans every cell and returns the row fields with any deviation.
fn scan_flipped_rows(bb: &mut BlackBox) -> Vec<usize> {
    let g = bb.geometry();
    let mut rows = Vec::new();
    for bf in 0..g.banks {
        for row in 0..g.rows {
            let mut flipped = false;
            for col in 0..g.cols {
                if bb.access(g.pack(bf, row, col)).data != PATTERN {
                    flipped = true;
                }
            }
            if flipped && !rows.contains(&row) {
                rows.push(row);
            }
        }
    }
    rows.sort_unstable();
    rows
}

/// Runs the hammer ladder for one aggressor pair.
fn run_experiment(
    bb: &mut BlackBox,
    a1: usize,
    a2: usize,
    r1: usize,
    r2: usize,
) -> HammerExperiment {
    let mut victims = Vec::new();
    let mut trigger = None;
    for &count in &HAMMER_LADDER {
        restore_pattern(bb);
        bb.refresh(); // reset the disturbance accounting window
        for _ in 0..count {
            // A conflict pair: each access re-activates its row.
            bb.access(a1);
            bb.access(a2);
        }
        let flipped = scan_flipped_rows(bb);
        if !flipped.is_empty() {
            victims = flipped;
            trigger = Some(count);
            break;
        }
    }
    HammerExperiment {
        aggressors: (r1, r2),
        victims,
        trigger_count: trigger,
    }
}

/// The XOR scramble candidates consistent with every experiment and the
/// measured polarity map: each victim's physical position `v ^ x` must
/// neighbour some aggressor's `r ^ x`, and each measured row polarity
/// must match physical parity under `x`. Empty when no experiment
/// produced victims (nothing to constrain).
fn consistent_candidates(
    rows: usize,
    experiments: &[HammerExperiment],
    polarity: &[RowPolarity],
) -> Vec<usize> {
    let informative: Vec<&HammerExperiment> = experiments
        .iter()
        .filter(|e| !e.victims.is_empty())
        .collect();
    if informative.is_empty() {
        return Vec::new();
    }
    (0..rows)
        .filter(|&x| {
            let adjacency_ok = informative.iter().all(|e| {
                e.victims.iter().all(|&v| {
                    let pv = v ^ x;
                    [e.aggressors.0, e.aggressors.1].iter().any(|&r| {
                        let pr = r ^ x;
                        pv + 1 == pr || pr + 1 == pv
                    })
                })
            });
            let polarity_ok = polarity.iter().all(|p| {
                let predicted = if (p.row ^ x).is_multiple_of(2) {
                    CellPolarity::True
                } else {
                    CellPolarity::Anti
                };
                predicted == p.polarity
            });
            adjacency_ok && polarity_ok
        })
        .collect()
}

/// Runs the full disturbance characterization. `polarity` is the row
/// polarity map from the retention campaign (see
/// [`RetentionOutcome::polarity`](crate::retention::RetentionOutcome::polarity));
/// pass an empty slice to skip the polarity cross-check.
pub fn characterize_disturbance(
    bb: &mut BlackBox,
    polarity: &[RowPolarity],
) -> InferredDisturbance {
    let g = bb.geometry();
    let mut experiments = Vec::new();
    for &r1 in &AGGRESSORS {
        let r2 = (r1 + 1) % g.rows;
        let a1 = g.pack(0, r1, 0);
        let Some(a2) = same_bank_partner(bb, a1, r2) else {
            continue;
        };
        experiments.push(run_experiment(bb, a1, a2, r1, r2));
    }

    let mut candidates = consistent_candidates(g.rows, &experiments, polarity);
    if candidates.len() > 1 {
        // Disambiguation round: for each surviving candidate, hammer the
        // logical row it claims sits at physical `rows/2 - 1`. The
        // experiment keyed to the true scramble produces victims
        // straddling the half boundary, which no other alias explains
        // (the reflection alias would, but polarity already killed it).
        let boundary = g.rows / 2 - 1;
        for x in candidates.clone() {
            let r1 = boundary ^ x;
            if experiments
                .iter()
                .any(|e| e.aggressors.0 == r1 || e.aggressors.1 == r1)
            {
                continue;
            }
            let r2 = (r1 + 1) % g.rows;
            let a1 = g.pack(0, r1, 0);
            if let Some(a2) = same_bank_partner(bb, a1, r2) {
                experiments.push(run_experiment(bb, a1, a2, r1, r2));
            }
        }
        candidates = consistent_candidates(g.rows, &experiments, polarity);
    }

    let threshold = experiments.iter().filter_map(|e| e.trigger_count).min();
    let row_xor = match candidates[..] {
        [only] => Some(only as u64),
        _ => None,
    };
    InferredDisturbance {
        threshold,
        experiments,
        row_xor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::BlackBox;
    use hifi_circuit::topology::SaTopologyKind;
    use hifi_dramsim::{DeviceConfig, DramDevice};

    #[test]
    fn threshold_and_row_xor_match_ground_truth() {
        let cfg = DeviceConfig::profiled(SaTopologyKind::OffsetCancellation, 5);
        let profile = cfg.profile.clone();
        let mut bb = BlackBox::new(DramDevice::new(cfg));
        let polarity = crate::retention::map_retention(&mut bb).polarity;
        let out = characterize_disturbance(&mut bb, &polarity);
        let gt = profile
            .disturbance
            .expect("profiled device")
            .hammer_threshold;
        assert_eq!(out.threshold, Some(gt));
        assert_eq!(out.row_xor, Some(profile.row_xor));
        assert!(out.experiments.iter().any(|e| !e.victims.is_empty()));
    }

    #[test]
    fn adjacency_alone_cannot_see_the_reflection() {
        // Pins the ambiguity the polarity cross-check resolves: without a
        // polarity map the reflected scramble `x ^ (rows-1)` explains
        // every adjacency too (even after the boundary-crossing round),
        // so recovery abstains rather than guess.
        let cfg = DeviceConfig::profiled(SaTopologyKind::OffsetCancellation, 5);
        let mut bb = BlackBox::new(DramDevice::new(cfg));
        let out = characterize_disturbance(&mut bb, &[]);
        assert!(out.threshold.is_some());
        assert_eq!(out.row_xor, None);
    }
}
