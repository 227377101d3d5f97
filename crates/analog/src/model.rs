//! Square-law MOSFET model with threshold mismatch.

use hifi_circuit::Polarity;
use hifi_units::Volts;

/// Operating region of a MOSFET at a given bias point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosfetOpRegion {
    /// `Vgs` below threshold: no channel.
    Cutoff,
    /// `Vds < Vgs − Vt`: resistive channel.
    Triode,
    /// `Vds ≥ Vgs − Vt`: pinched-off channel.
    Saturation,
}

/// A SPICE level-1 style square-law MOSFET.
///
/// The model deliberately stays simple — the paper's point is that fidelity
/// comes from correct topology, dimensions and layout, not from higher-order
/// device physics — but it captures the three behaviours the SA events rely
/// on: threshold cut-off, quadratic saturation current, and triode
/// conduction. Threshold **mismatch** (`vt_offset`) models the manufacturing
/// asymmetry that offset-cancellation SAs exist to compensate (Section II-A).
///
/// ```
/// use hifi_analog::MosfetModel;
/// use hifi_circuit::Polarity;
///
/// let m = MosfetModel::new(Polarity::Nmos, 4.0);
/// // Cut off below threshold:
/// assert_eq!(m.current(0.2, 1.0), 0.0);
/// // Conducting above it:
/// assert!(m.current(0.9, 1.0) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetModel {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Drawn W/L ratio.
    pub w_over_l: f64,
    /// Nominal threshold voltage magnitude (V).
    pub vt0: f64,
    /// Per-device threshold offset (V); positive raises the magnitude.
    pub vt_offset: f64,
    /// Process transconductance `k' = µ·Cox` (A/V²).
    pub kp: f64,
}

impl MosfetModel {
    /// Nominal NMOS threshold used across the workspace (V).
    pub const VT_N: f64 = 0.42;
    /// Nominal PMOS threshold magnitude (V).
    pub const VT_P: f64 = 0.45;
    /// Process transconductance (A/V²) for the modelled node.
    pub const KP: f64 = 250e-6;

    /// Creates a model with nominal parameters for the given polarity.
    pub fn new(polarity: Polarity, w_over_l: f64) -> Self {
        let vt0 = match polarity {
            Polarity::Nmos => Self::VT_N,
            Polarity::Pmos => Self::VT_P,
        };
        Self {
            polarity,
            w_over_l,
            vt0,
            vt_offset: 0.0,
            kp: Self::KP,
        }
    }

    /// Returns the model with an added threshold offset (builder style).
    pub fn with_vt_offset(mut self, offset: Volts) -> Self {
        self.vt_offset = offset.value();
        self
    }

    /// Effective threshold magnitude including mismatch (V).
    pub fn vt(&self) -> f64 {
        self.vt0 + self.vt_offset
    }

    /// Operating region for the given overdrive and drain-source voltage
    /// (both already in the device's own polarity convention, i.e. positive
    /// for a conducting NMOS).
    pub fn region(&self, vgs: f64, vds: f64) -> MosfetOpRegion {
        let vov = vgs - self.vt();
        if vov <= 0.0 {
            MosfetOpRegion::Cutoff
        } else if vds < vov {
            MosfetOpRegion::Triode
        } else {
            MosfetOpRegion::Saturation
        }
    }

    /// Drain current magnitude (A) for NMOS-convention `vgs`/`vds ≥ 0`.
    ///
    /// For PMOS devices callers pass source-referenced magnitudes
    /// (`vsg`, `vsd`); see [`MosfetModel::channel_current`].
    pub fn current(&self, vgs: f64, vds: f64) -> f64 {
        debug_assert!(vds >= 0.0, "current() expects vds >= 0 (swap terminals)");
        self.square_law(vgs, vds)[0]
    }

    /// `[current, ∂I/∂vgs, ∂I/∂vds]` of the square law at `vgs`/`vds ≥ 0`.
    /// A region edge takes the region [`MosfetModel::region`] assigns it.
    fn square_law(&self, vgs: f64, vds: f64) -> [f64; 3] {
        let vov = vgs - self.vt();
        let beta = self.kp * self.w_over_l;
        match self.region(vgs, vds) {
            MosfetOpRegion::Cutoff => [0.0; 3],
            MosfetOpRegion::Triode => [
                beta * (vov * vds - 0.5 * vds * vds),
                beta * vds,
                beta * (vov - vds),
            ],
            MosfetOpRegion::Saturation => [0.5 * beta * vov * vov, beta * vov, 0.0],
        }
    }

    /// Signed current flowing from `d` into the channel towards `s`
    /// (positive = conventional current from drain terminal to source
    /// terminal), given absolute node voltages `vg`, `vs`, `vd`.
    ///
    /// Handles source/drain symmetry: the physical source is whichever
    /// terminal is lower (NMOS) or higher (PMOS).
    pub fn channel_current(&self, vg: f64, vs: f64, vd: f64) -> f64 {
        self.channel_current_with_partials(vg, vs, vd).0
    }

    /// [`MosfetModel::channel_current`] together with its closed-form
    /// partial derivatives `[∂I/∂vg, ∂I/∂vs, ∂I/∂vd]` (A/V) — the
    /// MOSFET's entries in the MNA Newton Jacobian. The current is the one
    /// `channel_current` returns, bit for bit.
    pub fn channel_current_with_partials(&self, vg: f64, vs: f64, vd: f64) -> (f64, [f64; 3]) {
        // `forward`: the `s` terminal is the physical source. PMOS
        // conducts when the gate is below the source, so its arguments are
        // source-referenced magnitudes.
        let (forward, sign, [i, gm, gds]) = match self.polarity {
            Polarity::Nmos if vd >= vs => (true, 1.0, self.square_law(vg - vs, vd - vs)),
            Polarity::Nmos => (false, -1.0, self.square_law(vg - vd, vs - vd)),
            Polarity::Pmos if vd <= vs => (true, -1.0, self.square_law(vs - vg, vs - vd)),
            Polarity::Pmos => (false, 1.0, self.square_law(vd - vg, vd - vs)),
        };
        let partials = if forward {
            [gm, -gm - gds, gds]
        } else {
            [-gm, -gds, gm + gds]
        };
        (sign * i, partials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions() {
        let m = MosfetModel::new(Polarity::Nmos, 2.0);
        assert_eq!(m.region(0.3, 0.5), MosfetOpRegion::Cutoff);
        assert_eq!(m.region(1.0, 0.1), MosfetOpRegion::Triode);
        assert_eq!(m.region(1.0, 1.0), MosfetOpRegion::Saturation);
    }

    #[test]
    fn saturation_current_is_quadratic_in_overdrive() {
        let m = MosfetModel::new(Polarity::Nmos, 2.0);
        let i1 = m.current(m.vt() + 0.2, 1.2);
        let i2 = m.current(m.vt() + 0.4, 1.2);
        assert!(
            (i2 / i1 - 4.0).abs() < 1e-9,
            "doubling overdrive quadruples Isat"
        );
    }

    #[test]
    fn triode_current_monotone_in_vds() {
        let m = MosfetModel::new(Polarity::Nmos, 2.0);
        let vgs = m.vt() + 0.5;
        let a = m.current(vgs, 0.1);
        let b = m.current(vgs, 0.3);
        let c = m.current(vgs, 0.5); // = saturation edge
        assert!(a < b && b < c);
        // Continuous at the triode/saturation boundary.
        let sat = m.current(vgs, 0.500001);
        assert!((sat - c).abs() / c < 1e-3);
    }

    #[test]
    fn vt_offset_shifts_conduction() {
        let base = MosfetModel::new(Polarity::Nmos, 2.0);
        let skewed = base.with_vt_offset(Volts(0.05));
        let vgs = base.vt() + 0.03;
        assert!(base.current(vgs, 1.0) > 0.0);
        assert_eq!(skewed.current(vgs, 1.0), 0.0, "raised threshold cuts off");
    }

    #[test]
    fn nmos_channel_current_signs() {
        let m = MosfetModel::new(Polarity::Nmos, 2.0);
        // vd > vs: positive current into drain.
        assert!(m.channel_current(1.0, 0.0, 1.0) > 0.0);
        // Swapped: current reverses.
        assert!(m.channel_current(1.0, 1.0, 0.0) < 0.0);
        // Symmetric magnitudes.
        let f = m.channel_current(1.0, 0.0, 0.7);
        let r = m.channel_current(1.0, 0.7, 0.0);
        assert!((f + r).abs() < 1e-18);
    }

    #[test]
    fn pmos_conducts_with_low_gate() {
        let m = MosfetModel::new(Polarity::Pmos, 2.0);
        // Source at 1.1 V, gate at 0: strongly on; drain lower -> current out of drain (negative by our sign convention at drain).
        let i = m.channel_current(0.0, 1.1, 0.3);
        assert!(i < 0.0);
        // Gate at the source potential: off.
        assert_eq!(m.channel_current(1.1, 1.1, 0.3), 0.0);
    }
}
