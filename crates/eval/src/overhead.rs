//! Appendix-B overhead formulas, Table II and Fig. 14.

use crate::papers::{papers, Paper};
use crate::sensitivity::{overhead_under, OverheadAssumptions};
use hifi_data::{chips, Chip, ChipName, DdrGeneration, Vendor};
use hifi_units::Ratio;

/// `P_chip`: a paper's realistic extra area on one chip, as a fraction of the
/// chip area (`P_chip = P_extra / Chip_area`, Appendix B).
pub fn paper_overhead_on_chip(paper: &Paper, chip: &Chip) -> Ratio {
    overhead_under(paper, chip, OverheadAssumptions::default())
}

/// Overhead error (Table II): the average of `P_chip/P_oe − 1` over the
/// chips of the paper's *original* technology. `None` for papers older than
/// DDR4 (no imaged DDR3 chip exists; the table prints N/A).
pub fn overhead_error(paper: &Paper, chips: &[Chip]) -> Option<Ratio> {
    let gen = paper.original_generation;
    if gen == DdrGeneration::Ddr3 {
        return None;
    }
    let errs: Vec<Ratio> = chips
        .iter()
        .filter(|c| c.generation() == gen)
        .map(|c| {
            Ratio::overhead_error(
                paper_overhead_on_chip(paper, c).value(),
                paper.original_overhead_estimate.value(),
            )
        })
        .collect();
    Ratio::mean(errs)
}

/// Porting cost (Table II): overhead variation when the proposal is applied
/// to technologies *newer* than its original one — all six chips for DDR3
/// papers, the DDR5 chips for DDR4 papers.
pub fn porting_cost(paper: &Paper, chips: &[Chip]) -> Ratio {
    let newer: Vec<&Chip> = chips
        .iter()
        .filter(|c| match paper.original_generation {
            DdrGeneration::Ddr3 => true,
            DdrGeneration::Ddr4 => c.generation() == DdrGeneration::Ddr5,
            DdrGeneration::Ddr5 => false,
        })
        .collect();
    let costs = newer.iter().map(|c| {
        Ratio::overhead_error(
            paper_overhead_on_chip(paper, c).value(),
            paper.original_overhead_estimate.value(),
        )
    });
    Ratio::mean(costs).expect("every evaluated paper predates DDR5")
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The evaluated paper.
    pub paper: Paper,
    /// Average overhead error on the original technology (`None` = N/A).
    pub overhead_error: Option<Ratio>,
    /// Porting cost to newer technologies.
    pub porting_cost: Ratio,
}

/// Computes the full Table II from the dataset.
pub fn table2() -> Vec<Table2Row> {
    let cs = chips();
    papers()
        .into_iter()
        .map(|paper| {
            let overhead_error = overhead_error(&paper, &cs);
            let porting_cost = porting_cost(&paper, &cs);
            Table2Row {
                paper,
                overhead_error,
                porting_cost,
            }
        })
        .collect()
}

/// One bar of Fig. 14: a paper's overhead error or porting cost on a single
/// chip, grouped per vendor. Papers whose cost/error always exceeds 10× are
/// omitted, as in the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Entry {
    /// Paper name.
    pub paper: &'static str,
    /// The chip evaluated.
    pub chip: ChipName,
    /// The chip's vendor (the figure's grouping).
    pub vendor: Vendor,
    /// `P_chip/P_oe − 1` on this chip.
    pub value: Ratio,
    /// Whether this is an overhead error (original tech) or a porting cost.
    pub is_porting: bool,
}

/// Computes Fig. 14's per-vendor breakdown.
pub fn fig14() -> Vec<Fig14Entry> {
    let cs = chips();
    let mut out = Vec::new();
    for paper in papers() {
        // Omit papers always above 10x.
        let always_large = cs.iter().all(|c| {
            (paper_overhead_on_chip(&paper, c).value() / paper.original_overhead_estimate.value()
                - 1.0)
                > 10.0
        });
        if always_large {
            continue;
        }
        for chip in &cs {
            let is_porting = match paper.original_generation {
                DdrGeneration::Ddr3 => true,
                DdrGeneration::Ddr4 => chip.generation() == DdrGeneration::Ddr5,
                DdrGeneration::Ddr5 => false,
            };
            // Fig. 14 shows error on original-tech chips and porting cost on
            // newer chips; DDR3 papers only have porting costs.
            let value = Ratio::overhead_error(
                paper_overhead_on_chip(&paper, chip).value(),
                paper.original_overhead_estimate.value(),
            );
            out.push(Fig14Entry {
                paper: paper.name,
                chip: chip.name(),
                vendor: chip.vendor(),
                value,
                is_porting,
            });
        }
    }
    out
}

/// Section VI-B: the average chip overhead that papers affected by I1 incur
/// *solely for the MAT extension* (the paper reports 57%).
pub fn i1_average_mat_extension() -> Ratio {
    let cs = chips();
    Ratio::mean(cs.iter().map(|c| c.geometry().mat_fraction())).expect("six chips")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::papers::Inaccuracy;

    fn row(name: &str) -> Table2Row {
        table2().into_iter().find(|r| r.paper.name == name).unwrap()
    }

    #[test]
    fn cooldram_error_near_175x() {
        let r = row("CoolDRAM");
        let e = r.overhead_error.unwrap().value();
        assert!((155.0..195.0).contains(&e), "CoolDRAM error {e}");
    }

    #[test]
    fn doubling_papers_match_table2_magnitudes() {
        for (name, expected) in [
            ("DrACC", 35.0),
            ("Graphide", 54.0),
            ("In-Mem.Lowcost.", 70.0),
            ("CLR-DRAM", 22.0),
            ("SIMDRAM", 70.0),
        ] {
            let e = row(name).overhead_error.unwrap().value();
            assert!(
                (expected * 0.85..expected * 1.15).contains(&e),
                "{name}: {e} vs {expected}"
            );
        }
    }

    #[test]
    fn small_error_papers_match_table2() {
        let nov = row("Nov. DRAM").overhead_error.unwrap().value();
        assert!((0.3..0.7).contains(&nov), "Nov. DRAM error {nov}");
        let pf = row("PF-DRAM").overhead_error.unwrap().value();
        assert!((0.2..0.5).contains(&pf), "PF-DRAM error {pf}");
        let rega = row("REGA").overhead_error.unwrap().value();
        assert!((6.0..10.0).contains(&rega), "REGA error {rega}");
    }

    #[test]
    fn ddr3_papers_report_na_error_but_have_porting_costs() {
        for name in ["CHARM", "R.B. DEC.", "AMBIT", "ELP2IM"] {
            let r = row(name);
            assert!(r.overhead_error.is_none(), "{name} error must be N/A");
        }
        assert!((0.2..0.4).contains(&row("CHARM").porting_cost.value()));
        assert!((-0.35..-0.15).contains(&row("R.B. DEC.").porting_cost.value()));
        assert!((55.0..80.0).contains(&row("AMBIT").porting_cost.value()));
        assert!((75.0..105.0).contains(&row("ELP2IM").porting_cost.value()));
    }

    #[test]
    fn porting_costs_track_table2() {
        for (name, expected) in [("DrACC", 34.0), ("Graphide", 52.0), ("CoolDRAM", 168.0)] {
            let p = row(name).porting_cost.value();
            assert!(
                (expected * 0.85..expected * 1.15).contains(&p),
                "{name}: port {p} vs {expected}"
            );
        }
        // PF-DRAM ports at roughly zero cost.
        assert!(row("PF-DRAM").porting_cost.value().abs() < 0.15);
    }

    #[test]
    fn observation1_charm_varies_across_vendors_on_ddr5() {
        // Observation 1: CHARM varies ~0.45x from vendor A to vendor C on DDR5.
        let cs = chips();
        let charm = papers().into_iter().find(|p| p.name == "CHARM").unwrap();
        let p = |n: ChipName| {
            let c = cs.iter().find(|c| c.name() == n).unwrap();
            paper_overhead_on_chip(&charm, c).value()
        };
        let variation =
            (p(ChipName::A5) - p(ChipName::C5)) / charm.original_overhead_estimate.value();
        assert!(
            (0.3..0.6).contains(&variation),
            "CHARM A5→C5 variation {variation}"
        );
    }

    #[test]
    fn observation2_rbdec_cheapest_on_a5() {
        // Observation 2: porting R.B. DEC. to DDR5 yields the biggest drop
        // (−0.47x on A5).
        let cs = chips();
        let rbdec = papers()
            .into_iter()
            .find(|p| p.name == "R.B. DEC.")
            .unwrap();
        let a5 = cs.iter().find(|c| c.name() == ChipName::A5).unwrap();
        let v = paper_overhead_on_chip(&rbdec, a5).value()
            / rbdec.original_overhead_estimate.value()
            - 1.0;
        assert!((-0.55..-0.30).contains(&v), "R.B. DEC. on A5: {v}");
        // And DDR5 is cheaper than DDR4 for it across the board.
        for c5 in cs.iter().filter(|c| c.generation() == DdrGeneration::Ddr5) {
            for c4 in cs.iter().filter(|c| c.generation() == DdrGeneration::Ddr4) {
                assert!(
                    paper_overhead_on_chip(&rbdec, c5).value()
                        < paper_overhead_on_chip(&rbdec, c4).value()
                );
            }
        }
    }

    #[test]
    fn i1_mat_extension_near_57_percent() {
        let v = i1_average_mat_extension().value();
        assert!((0.54..0.60).contains(&v), "I1 MAT extension {v}");
    }

    #[test]
    fn rega_exemption_on_vendor_a() {
        // Appendix A: REGA is exempted from I2 on A4-5 thanks to M2 headroom,
        // so its overhead there is far below the classic-chip 1/3 formula.
        let cs = chips();
        let rega = papers().into_iter().find(|p| p.name == "REGA").unwrap();
        let on = |n: ChipName| {
            let c = cs.iter().find(|c| c.name() == n).unwrap();
            paper_overhead_on_chip(&rega, c).value()
        };
        assert!(on(ChipName::A4) < 0.05);
        assert!(on(ChipName::C4) > 0.15);
    }

    #[test]
    fn fig14_omits_always_large_papers() {
        let entries = fig14();
        let papers_shown: std::collections::BTreeSet<_> = entries.iter().map(|e| e.paper).collect();
        // The doubling papers are all >10x everywhere and must be omitted.
        for name in [
            "AMBIT", "DrACC", "Graphide", "SIMDRAM", "CoolDRAM", "ELP2IM",
        ] {
            assert!(!papers_shown.contains(name), "{name} should be omitted");
        }
        // The small-overhead papers are shown.
        for name in ["CHARM", "R.B. DEC.", "Nov. DRAM", "PF-DRAM"] {
            assert!(papers_shown.contains(name), "{name} should be shown");
        }
        // Six chips per shown paper.
        let n_papers = papers_shown.len();
        assert_eq!(entries.len(), n_papers * 6);
    }

    #[test]
    fn i1_papers_have_consistently_large_errors() {
        // "Papers affected by I1 or I2 have consistently large errors and
        // porting costs across all vendors."
        let cs = chips();
        for paper in papers() {
            if paper.has(Inaccuracy::I1) {
                for c in &cs {
                    let e = paper_overhead_on_chip(&paper, c).value()
                        / paper.original_overhead_estimate.value()
                        - 1.0;
                    assert!(e > 10.0, "{} on {}: {e}", paper.name, c.name());
                }
            }
        }
    }
}
