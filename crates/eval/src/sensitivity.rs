//! Sensitivity of the overhead verdicts to estimation assumptions.
//!
//! Recommendation R1 says overheads must include *everything* added to MATs
//! and SAs (wiring, spacing margins). This module quantifies how much the
//! Table II verdicts move when those assumptions are varied — e.g. when a
//! study uses drawn instead of effective transistor sizes, or assumes a
//! single SA per MAT gap instead of the two the paper found.

use crate::papers::{papers, OverheadFormula, Paper};
use hifi_circuit::TransistorClass;
use hifi_data::{chips, Chip};
use hifi_units::Ratio;

/// Assumption set for the overhead computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadAssumptions {
    /// Multiplier applied to effective transistor sizes (1.0 = the measured
    /// spacing-inclusive sizes; ≈0.77 reproduces a drawn-size-only estimate).
    pub effective_size_scale: f64,
    /// How many stacked SAs per MAT gap the estimate accounts for (the paper
    /// measured 2; prior work commonly assumed 1).
    pub stacked_sas: u32,
}

impl Default for OverheadAssumptions {
    fn default() -> Self {
        Self {
            effective_size_scale: 1.0,
            stacked_sas: 2,
        }
    }
}

/// Computes a paper's per-chip overhead under modified assumptions: the
/// Appendix-B formula table with scaled inputs. At the defaults it is
/// `P_chip` ([`crate::overhead::paper_overhead_on_chip`]). Only the
/// transistor-level formulas respond to the assumptions; the area-doubling
/// papers (I1/I2) are assumption-independent, which is itself the paper's
/// point: no sizing optimism rescues a missing bitline.
pub fn overhead_under(paper: &Paper, chip: &Chip, assumptions: OverheadAssumptions) -> Ratio {
    let g = chip.geometry();
    let die = g.die_area.to_square_nanometers().value();
    let mats = g.n_mats as f64;
    let sa_w = g.mat_width().value(); // SA width = MAT width (Fig. 10)
    let scale = assumptions.effective_size_scale;
    let sa_factor = assumptions.stacked_sas as f64 / 2.0;
    let iso_ls = chip.isolation_dims_for_overheads().length.value() * scale;
    let eff = |class: TransistorClass| {
        chip.transistor(class)
            .map(|t| t.effective.width.value() * scale)
            .unwrap_or(0.0)
    };
    let san = eff(TransistorClass::NSa);
    let sap = eff(TransistorClass::PSa);
    let col = eff(TransistorClass::Column);
    let p_extra = match paper.formula {
        OverheadFormula::DoubleBitlines => g.total_mat_area().value() + g.total_sa_area().value(),
        OverheadFormula::Rega => {
            if chip.vendor() == hifi_data::Vendor::A {
                // Appendix A: on A4-5 the new connections fit on M2, so only
                // isolation transistors and the downsized SAs are added.
                mats * sa_w * (2.0 * iso_ls + 8.0 * (san + sap) / 6.0) * sa_factor
            } else {
                (g.total_mat_area().value() + g.total_sa_area().value()) / 3.0
            }
        }
        OverheadFormula::IsolationOnly => mats * sa_w * 2.0 * iso_ls,
        OverheadFormula::IsolationColumnsSa => {
            mats * sa_w * (2.0 * iso_ls + 2.0 * col * sa_factor + 8.0 * (san + sap) * sa_factor)
        }
        OverheadFormula::CharmAspect => mats * sa_w * g.sa_region_height.value() / 4.0 + 0.01 * die,
        OverheadFormula::PfDram => mats * sa_w * (4.0 * iso_ls + 8.0 * (san + sap) * sa_factor),
    };
    Ratio(p_extra / die)
}

/// One row of the sensitivity report.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// The paper analysed.
    pub paper: &'static str,
    /// Average DDR4 overhead with the paper's real assumptions.
    pub with_full_assumptions: Ratio,
    /// Average DDR4 overhead with optimistic assumptions (drawn sizes,
    /// single SA).
    pub with_optimistic_assumptions: Ratio,
}

impl SensitivityRow {
    /// The underestimation factor the optimistic assumptions produce.
    pub fn underestimation(&self) -> f64 {
        self.with_full_assumptions.value() / self.with_optimistic_assumptions.value().max(1e-12)
    }
}

/// Sensitivity of every transistor-level paper to the R1 assumptions.
pub fn sensitivity_report() -> Vec<SensitivityRow> {
    let cs = chips();
    let optimistic = OverheadAssumptions {
        effective_size_scale: 1.0 / 1.3, // drawn sizes, no spacing margin
        stacked_sas: 1,
    };
    papers()
        .into_iter()
        .filter(|p| {
            matches!(
                p.formula,
                OverheadFormula::IsolationOnly
                    | OverheadFormula::IsolationColumnsSa
                    | OverheadFormula::PfDram
            )
        })
        .map(|p| {
            let ddr4: Vec<&Chip> = cs
                .iter()
                .filter(|c| c.generation() == hifi_data::DdrGeneration::Ddr4)
                .collect();
            let avg = |a: OverheadAssumptions| {
                Ratio::mean(ddr4.iter().map(|c| overhead_under(&p, c, a))).expect("ddr4 chips")
            };
            SensitivityRow {
                paper: p.name,
                with_full_assumptions: avg(OverheadAssumptions::default()),
                with_optimistic_assumptions: avg(optimistic),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimistic_assumptions_underestimate() {
        for row in sensitivity_report() {
            assert!(
                row.underestimation() > 1.2,
                "{}: factor {}",
                row.paper,
                row.underestimation()
            );
        }
    }

    #[test]
    fn doubling_papers_are_assumption_independent() {
        let cs = chips();
        let ambit = papers().into_iter().find(|p| p.name == "AMBIT").unwrap();
        let chip = &cs[0];
        let a = overhead_under(
            &ambit,
            chip,
            OverheadAssumptions {
                effective_size_scale: 0.5,
                stacked_sas: 1,
            },
        );
        let b = overhead_under(&ambit, chip, OverheadAssumptions::default());
        assert_eq!(a, b, "no sizing optimism rescues a missing bitline");
    }
}
