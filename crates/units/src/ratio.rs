//! Dimensionless ratios with the paper's inaccuracy conventions.

/// A dimensionless ratio, used for W/L ratios, overhead fractions and the
/// paper's "Nx error" convention.
///
/// The paper expresses model inaccuracy as a *relative absolute deviation*
/// (e.g. "938% inaccuracy" means the model value deviates from the measured
/// value by 9.38× the measured value) and research error as `P_chip/P_oe − 1`
/// (e.g. "175x error").
///
/// ```
/// use hifi_units::Ratio;
/// let inacc = Ratio::relative_deviation(10.38, 1.0);
/// assert!((inacc.as_percent() - 938.0).abs() < 1e-9);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, PartialOrd, serde::Serialize, serde::Deserialize,
)]
pub struct Ratio(pub f64);

impl Ratio {
    /// The zero ratio.
    pub const ZERO: Self = Self(0.0);

    /// Builds a ratio from a percentage (`50.0` → `Ratio(0.5)`).
    #[inline]
    pub fn from_percent(pct: f64) -> Self {
        Self(pct / 100.0)
    }

    /// Returns the ratio as a percentage.
    #[inline]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Returns the raw value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The paper's inaccuracy metric: `|model − measured| / measured`.
    ///
    /// # Panics
    ///
    /// Panics if `measured` is zero, which would make the metric undefined.
    #[inline]
    pub fn relative_deviation(model: f64, measured: f64) -> Self {
        assert!(
            measured != 0.0,
            "relative deviation against a zero measurement is undefined"
        );
        Self((model - measured).abs() / measured.abs())
    }

    /// The paper's overhead-error metric: `estimated/original − 1`
    /// (Appendix B reports the average of `P_chip/P_oe − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `original` is zero.
    #[inline]
    pub fn overhead_error(estimated: f64, original: f64) -> Self {
        assert!(original != 0.0, "overhead error against zero is undefined");
        Self(estimated / original - 1.0)
    }

    /// Formats as the paper's "Nx" convention, e.g. `Ratio(175.0)` → `"175x"`.
    pub fn as_times(self) -> String {
        if self.0.abs() >= 10.0 {
            format!("{:.0}x", self.0)
        } else {
            format!("{:.2}x", self.0)
        }
    }

    /// Returns the absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }

    /// Returns the larger of two ratios.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Arithmetic mean over an iterator of ratios; `None` when empty.
    pub fn mean<I: IntoIterator<Item = Ratio>>(iter: I) -> Option<Ratio> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in iter {
            sum += r.0;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(Ratio(sum / n as f64))
        }
    }
}

impl core::ops::Add for Ratio {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::Sub for Ratio {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl core::ops::Mul<f64> for Ratio {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl core::fmt::Display for Ratio {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<f64> for Ratio {
    fn from(v: f64) -> Self {
        Self(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_symmetry_in_magnitude() {
        // Over- and under-estimation both produce positive inaccuracies.
        assert_eq!(Ratio::relative_deviation(2.0, 1.0), Ratio(1.0));
        assert_eq!(Ratio::relative_deviation(0.5, 1.0), Ratio(0.5));
    }

    #[test]
    fn overhead_error_matches_paper_convention() {
        // An estimate 176x the original is a "175x" error.
        let err = Ratio::overhead_error(0.57, 0.57 / 176.0);
        assert!((err.0 - 175.0).abs() < 1e-9);
        assert_eq!(err.as_times(), "175x");
    }

    #[test]
    fn negative_error_for_overestimates_in_original() {
        // R.B. DEC. has a -0.25x error: real overhead below the original claim.
        let err = Ratio::overhead_error(0.75, 1.0);
        assert!((err.0 + 0.25).abs() < 1e-12);
        assert_eq!(err.as_times(), "-0.25x");
    }

    #[test]
    fn percent_round_trip() {
        let r = Ratio::from_percent(236.0);
        assert!((r.as_percent() - 236.0).abs() < 1e-9);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(Ratio::mean(std::iter::empty()), None);
        let m = Ratio::mean([Ratio(1.0), Ratio(3.0)]).unwrap();
        assert_eq!(m, Ratio(2.0));
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn deviation_from_zero_panics() {
        let _ = Ratio::relative_deviation(1.0, 0.0);
    }
}
