//! Out-of-spec experiments (Section VI-D).
//!
//! Researchers use off-spec command sequences for reverse engineering,
//! characterisation and in-DRAM computation, implicitly assuming classic
//! SAs. These drivers reproduce the paper's two warnings:
//!
//! 1. charge sharing is **delayed** on OCSA chips (it waits for the
//!    offset-cancellation phase), breaking tricks that rely on charge
//!    sharing immediately at ACT;
//! 2. OCSA bitlines take a third, diode-biased state, breaking tricks that
//!    skip precharges to keep residual charge on the bitlines.

use crate::command::Command;
use crate::device::{DeviceConfig, DramDevice, DramError};
use hifi_circuit::topology::SaTopologyKind;
use hifi_units::Nanoseconds;

/// Result of one in-DRAM row-copy attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct RowCopyOutcome {
    /// Whether the destination row ended up holding the source data.
    pub copied: bool,
    /// The ACT→PRE→ACT gap used (time between PRE and the second ACT).
    pub gap: Nanoseconds,
    /// The SA topology of the device.
    pub topology: SaTopologyKind,
}

/// Attempts a ComputeDRAM-style in-DRAM row copy on `bank`: open `src`, let
/// it latch, issue PRE, then re-ACT `dst` after only `gap` (violating tRP so
/// the bitlines keep `src`'s residual charge on classic chips).
///
/// # Errors
///
/// Propagates address errors from the device.
///
/// # Panics
///
/// Panics if `src == dst`.
pub fn attempt_row_copy(
    device: &mut DramDevice,
    bank: usize,
    src: usize,
    dst: usize,
    gap: Nanoseconds,
) -> Result<RowCopyOutcome, DramError> {
    assert_ne!(src, dst, "copy requires distinct rows");
    let cols = device.config().cols;
    // Marker pattern in src; complementary pattern in dst.
    for c in 0..cols {
        device.bank_mut(bank).set_cell(src, c, (0xC0 + c) as u8);
        device.bank_mut(bank).set_cell(dst, c, 0x00);
    }
    // Open src fully (in-spec) so its data is latched and restored.
    device.activate(bank, src)?;
    device.precharge(bank)?; // issued at tRAS — in-spec
                             // ...but interrupt the precharge: re-ACT after only `gap`.
    device.step(gap);
    device.issue_unchecked(Command::Activate { bank, row: dst })?;
    device.step(device.config().timing.latch_complete() + Nanoseconds(2.0));
    device.issue_unchecked(Command::Precharge { bank })?;
    device.step(device.config().timing.t_rp);

    let copied = (0..cols).all(|c| device.bank(bank).cell(dst, c) == (0xC0 + c) as u8);
    Ok(RowCopyOutcome {
        copied,
        gap,
        topology: device.config().topology,
    })
}

/// [`attempt_row_copy`] with an explicit ACT→PRE dwell: open `src` for
/// only `act_to_pre` before the (interrupted) precharge. Residual charge
/// is a property of a *latched* sense amplifier — a precharge issued
/// before `latch_complete()` finds nothing on the bitlines to retain, so
/// sub-latch dwells must never copy on any topology. The copy side
/// channel only separates classic from OCSA once the latch completed.
///
/// # Errors
///
/// Propagates address errors from the device.
///
/// # Panics
///
/// Panics if `src == dst`.
pub fn attempt_row_copy_with_dwell(
    device: &mut DramDevice,
    bank: usize,
    src: usize,
    dst: usize,
    act_to_pre: Nanoseconds,
    gap: Nanoseconds,
) -> Result<RowCopyOutcome, DramError> {
    assert_ne!(src, dst, "copy requires distinct rows");
    let cols = device.config().cols;
    for c in 0..cols {
        device.bank_mut(bank).set_cell(src, c, (0xC0 + c) as u8);
        device.bank_mut(bank).set_cell(dst, c, 0x00);
    }
    device.issue_unchecked(Command::Activate { bank, row: src })?;
    device.step(act_to_pre);
    device.issue_unchecked(Command::Precharge { bank })?;
    device.step(gap);
    device.issue_unchecked(Command::Activate { bank, row: dst })?;
    device.step(device.config().timing.latch_complete() + Nanoseconds(2.0));
    device.issue_unchecked(Command::Precharge { bank })?;
    device.step(device.config().timing.t_rp);

    let copied = (0..cols).all(|c| device.bank(bank).cell(dst, c) == (0xC0 + c) as u8);
    Ok(RowCopyOutcome {
        copied,
        gap,
        topology: device.config().topology,
    })
}

/// Sweeps the PRE→ACT gap and reports, per gap, whether the row copy
/// succeeded. On classic chips short gaps succeed (residual charge wins);
/// past tRP the bitlines equalise and the copy fails. On OCSA chips it
/// fails at every gap.
pub fn row_copy_gap_sweep(topology: SaTopologyKind, gaps_ns: &[f64]) -> Vec<RowCopyOutcome> {
    gaps_ns
        .iter()
        .map(|&g| {
            let mut dev = DramDevice::new(DeviceConfig::ddr4(topology));
            attempt_row_copy(&mut dev, 0, 3, 9, Nanoseconds(g)).expect("valid addresses")
        })
        .collect()
}

/// Result of a truncated-restore (sub-tRAS precharge) experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedRestoreOutcome {
    /// Whether the row's data survived the early precharge.
    pub data_survived: bool,
    /// The ACT→PRE gap used.
    pub act_to_pre: Nanoseconds,
}

/// Activates a row and precharges after only `act_to_pre` (violating tRAS),
/// then reopens the row and checks the data — the transistor-speed
/// experiments of \[68\] and latency studies rely on this behaviour.
///
/// # Errors
///
/// Propagates address errors.
pub fn truncated_restore(
    device: &mut DramDevice,
    bank: usize,
    row: usize,
    act_to_pre: Nanoseconds,
) -> Result<TruncatedRestoreOutcome, DramError> {
    let cols = device.config().cols;
    for c in 0..cols {
        device.bank_mut(bank).set_cell(row, c, 0xEE);
    }
    device.issue_unchecked(Command::Activate { bank, row })?;
    device.step(act_to_pre);
    device.issue_unchecked(Command::Precharge { bank })?;
    device.step(device.config().timing.t_rp);
    // Reopen in-spec and inspect.
    device.activate(bank, row)?;
    let ok = (0..cols).all(|c| device.bank(bank).cell(row, c) == 0xEE);
    device.precharge(bank)?;
    Ok(TruncatedRestoreOutcome {
        data_survived: ok,
        act_to_pre,
    })
}

/// Result of an AMBIT-style triple-row majority attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct MajorityOutcome {
    /// Whether every column computed the true 3-way majority.
    pub correct_majority: bool,
    /// Per-column computed values.
    pub result: Vec<u8>,
    /// Per-column expected (true majority) values.
    pub expected: Vec<u8>,
}

/// Attempts an in-DRAM majority (the AMBIT primitive) over three rows via
/// simultaneous activation. On classic-SA devices the bitline charge
/// sharing computes MAJ3; on OCSA devices only unanimous bits survive the
/// offset-cancellation bias (Section VI-D).
///
/// # Errors
///
/// Returns address errors.
///
/// # Panics
///
/// Panics if the rows are not distinct.
pub fn attempt_majority(
    device: &mut DramDevice,
    bank: usize,
    rows: [usize; 3],
    patterns: [&[u8]; 3],
) -> Result<MajorityOutcome, DramError> {
    assert!(
        rows[0] != rows[1] && rows[1] != rows[2] && rows[0] != rows[2],
        "rows must be distinct"
    );
    if bank >= device.config().banks {
        return Err(DramError::AddressOutOfRange(format!("bank {bank}")));
    }
    let cols = device.config().cols;
    for (row, pat) in rows.iter().zip(patterns) {
        for c in 0..cols {
            device
                .bank_mut(bank)
                .set_cell(*row, c, pat.get(c % pat.len()).copied().unwrap_or(0));
        }
    }
    let expected: Vec<u8> = (0..cols)
        .map(|c| {
            let vals: Vec<u8> = patterns
                .iter()
                .map(|p| p.get(c % p.len()).copied().unwrap_or(0))
                .collect();
            let mut out = 0u8;
            for bit in 0..8 {
                let ones = vals.iter().filter(|v| *v & (1 << bit) != 0).count();
                if ones >= 2 {
                    out |= 1 << bit;
                }
            }
            out
        })
        .collect();
    let now = device.now();
    device.bank_mut(bank).multi_activate_majority(&rows, now);
    device.step(device.config().timing.latch_complete() + Nanoseconds(2.0));
    device.issue_unchecked(Command::Precharge { bank })?;
    device.step(device.config().timing.t_rp);
    let result: Vec<u8> = (0..cols)
        .map(|c| device.bank(bank).cell(rows[0], c))
        .collect();
    let correct_majority = result == expected;
    Ok(MajorityOutcome {
        correct_majority,
        result,
        expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_row_copy_succeeds_with_short_gap() {
        let mut dev = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::Classic));
        let out = attempt_row_copy(&mut dev, 0, 1, 2, Nanoseconds(2.0)).unwrap();
        assert!(out.copied, "classic SA with residual charge copies the row");
    }

    #[test]
    fn classic_row_copy_fails_with_full_precharge() {
        let mut dev = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::Classic));
        let gap = dev.config().timing.t_rp + Nanoseconds(5.0);
        let out = attempt_row_copy(&mut dev, 0, 1, 2, gap).unwrap();
        assert!(!out.copied, "a completed precharge equalises the bitlines");
    }

    #[test]
    fn ocsa_row_copy_fails_at_every_gap() {
        // Section VI-D: charge sharing is delayed behind offset
        // cancellation, which destroys the residual charge.
        for gap in [1.0, 2.0, 5.0, 10.0] {
            let mut dev = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::OffsetCancellation));
            let out = attempt_row_copy(&mut dev, 0, 1, 2, Nanoseconds(gap)).unwrap();
            assert!(!out.copied, "ocsa must not copy at gap {gap} ns");
        }
    }

    #[test]
    fn gap_sweep_shows_crossover_on_classic_only() {
        let gaps = [1.0, 4.0, 8.0, 16.0];
        let classic = row_copy_gap_sweep(SaTopologyKind::Classic, &gaps);
        let ocsa = row_copy_gap_sweep(SaTopologyKind::OffsetCancellation, &gaps);
        assert!(classic.iter().any(|o| o.copied));
        assert!(classic.iter().any(|o| !o.copied));
        assert!(ocsa.iter().all(|o| !o.copied));
    }

    #[test]
    fn majority_works_on_classic_not_on_ocsa() {
        let patterns: [&[u8]; 3] = [&[0b1100_1010], &[0b1010_0110], &[0b0110_1100]];
        let mut classic = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::Classic));
        let out = attempt_majority(&mut classic, 0, [1, 2, 3], patterns).unwrap();
        assert!(out.correct_majority, "classic computes MAJ3");
        let mut ocsa = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::OffsetCancellation));
        let out = attempt_majority(&mut ocsa, 0, [1, 2, 3], patterns).unwrap();
        assert!(!out.correct_majority, "ocsa corrupts split-majority bits");
    }

    #[test]
    fn unanimous_bits_survive_even_on_ocsa() {
        let patterns: [&[u8]; 3] = [&[0xF0], &[0xF0], &[0xF0]];
        let mut ocsa = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::OffsetCancellation));
        let out = attempt_majority(&mut ocsa, 0, [1, 2, 3], patterns).unwrap();
        assert!(out.correct_majority, "no split bits, nothing to corrupt");
    }

    #[test]
    fn pre_latch_precharge_never_leaves_residual_charge() {
        // Audit pin: residual charge is restored row data held by a
        // *latched* SA. A precharge issued before latch_complete() has
        // nothing to retain, so the short-gap re-ACT must not copy on any
        // topology — classic and OCSA behave identically here. The only
        // sanctioned divergence between them is the documented
        // offset-cancellation phase after a completed latch (pinned by
        // the surrounding row-copy tests).
        for topology in [
            SaTopologyKind::Classic,
            SaTopologyKind::ClassicWithIsolation,
            SaTopologyKind::OffsetCancellation,
        ] {
            let mut dev = DramDevice::new(DeviceConfig::ddr4(topology));
            let dwell = dev.config().timing.latch_complete() - Nanoseconds(1.0);
            let out =
                attempt_row_copy_with_dwell(&mut dev, 0, 1, 2, dwell, Nanoseconds(2.0)).unwrap();
            assert!(
                !out.copied,
                "{topology:?}: sub-latch dwell must leave no residual charge"
            );
        }
    }

    #[test]
    fn copy_side_channel_opens_exactly_at_latch_completion() {
        // Boundary pin for the latch gate: the same interrupted-precharge
        // sequence flips from no-copy to copy (classic only) the moment
        // the dwell reaches latch_complete().
        let mut dev = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::Classic));
        let at_latch = dev.config().timing.latch_complete();
        let out =
            attempt_row_copy_with_dwell(&mut dev, 0, 1, 2, at_latch, Nanoseconds(2.0)).unwrap();
        assert!(out.copied, "classic copies once the latch completed");

        let mut dev = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::OffsetCancellation));
        let at_latch = dev.config().timing.latch_complete();
        let out =
            attempt_row_copy_with_dwell(&mut dev, 0, 1, 2, at_latch, Nanoseconds(2.0)).unwrap();
        assert!(!out.copied, "ocsa never exposes residual charge");
    }

    #[test]
    fn truncated_restore_loses_data_when_too_early() {
        let mut dev = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::Classic));
        let out = truncated_restore(&mut dev, 0, 4, Nanoseconds(3.0)).unwrap();
        assert!(!out.data_survived, "3 ns is before the restore completes");
        let mut dev = DramDevice::new(DeviceConfig::ddr4(SaTopologyKind::Classic));
        let out = truncated_restore(&mut dev, 0, 4, Nanoseconds(30.0)).unwrap();
        assert!(out.data_survived, "30 ns covers the restore");
    }
}
