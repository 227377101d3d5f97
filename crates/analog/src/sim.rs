//! The types a transient run shares with its callers: the error type, the
//! piecewise-linear drive [`Stimulus`], and the sampled [`Waveforms`] that
//! [`crate::MnaTransient`] records.

use hifi_units::Volts;
use std::collections::HashMap;

/// Error produced while building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A stimulus or probe referenced a net that is not in the netlist.
    UnknownNet(String),
    /// A threshold-offset override referenced a device that does not exist.
    UnknownDevice(String),
    /// A timestep, duration or sampling interval was not strictly
    /// positive; carries the offending value.
    InvalidTimestep(f64),
    /// A piecewise-linear waveform had unsorted or non-finite time points.
    UnsortedWaveform(String),
    /// Newton iteration failed to converge at a timestep.
    NoConvergence {
        /// Simulation time of the failing step (s).
        time_s: f64,
        /// Iterations spent before giving up.
        iterations: usize,
        /// Largest node-voltage update at the last iteration (V).
        worst_delta_v: f64,
    },
    /// The linearised MNA system had no usable pivot at a timestep.
    SingularSystem {
        /// Simulation time of the failing step (s).
        time_s: f64,
    },
    /// A netlist's sense-amplifier roles could not be inferred, so no
    /// activation schedule can be built for it.
    RoleInference(String),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::UnknownNet(n) => write!(f, "unknown net `{n}`"),
            SimError::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
            SimError::InvalidTimestep(dt) => write!(f, "invalid timestep {dt}"),
            SimError::UnsortedWaveform(n) => {
                write!(f, "waveform for `{n}` is not time-sorted with finite times")
            }
            SimError::NoConvergence {
                time_s,
                iterations,
                worst_delta_v,
            } => write!(
                f,
                "newton iteration did not converge at t={time_s}s after \
                 {iterations} iterations (last |Δv| = {worst_delta_v} V)"
            ),
            SimError::SingularSystem { time_s } => {
                write!(f, "singular MNA system at t={time_s}s")
            }
            SimError::RoleInference(why) => write!(f, "cannot infer SA roles: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A piecewise-linear voltage waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    points: Vec<(f64, f64)>,
}

impl Waveform {
    /// Builds a waveform from `(time_s, volts)` points.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsortedWaveform`] when times decrease or a time
    /// is not finite.
    pub fn pwl(points: Vec<(f64, f64)>) -> Result<Self, SimError> {
        if points.iter().any(|p| !p.0.is_finite()) || points.windows(2).any(|w| w[1].0 < w[0].0) {
            return Err(SimError::UnsortedWaveform("<anonymous>".into()));
        }
        Ok(Self { points })
    }

    /// A constant waveform.
    pub fn constant(v: f64) -> Self {
        Self {
            points: vec![(0.0, v)],
        }
    }

    /// The times of the waveform's points: the only places its slope can
    /// change.
    pub(crate) fn corner_times(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.0)
    }

    /// Linear interpolation; clamps before the first and after the last point.
    pub fn value(&self, t: f64) -> f64 {
        match self.points.len() {
            0 => 0.0,
            1 => self.points[0].1,
            _ => {
                if t <= self.points[0].0 {
                    return self.points[0].1;
                }
                if t >= self.points[self.points.len() - 1].0 {
                    return self.points[self.points.len() - 1].1;
                }
                let i = self
                    .points
                    .windows(2)
                    .position(|w| t >= w[0].0 && t <= w[1].0)
                    .expect("t within range");
                let (t0, v0) = self.points[i];
                let (t1, v1) = self.points[i + 1];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
        }
    }
}

/// Drive specification: piecewise-linear sources attached to named nets.
///
/// ```
/// use hifi_analog::Stimulus;
/// use hifi_units::Volts;
/// let mut stim = Stimulus::new();
/// stim.hold("GND", Volts(0.0));
/// stim.ramp("LA", 5e-9, 7e-9, 0.55, 1.1);
/// assert_eq!(stim.driven_nets().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    drives: HashMap<String, Waveform>,
}

impl Stimulus {
    /// Creates an empty stimulus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Holds a net at a constant voltage for the whole run.
    pub fn hold(&mut self, net: &str, v: Volts) -> &mut Self {
        self.drives
            .insert(net.into(), Waveform::constant(v.value()));
        self
    }

    /// Drives a net with an arbitrary piecewise-linear waveform.
    ///
    /// # Panics
    ///
    /// Panics if the points are not time-sorted or a time is not finite
    /// (use [`Waveform::pwl`] for a fallible version).
    pub fn pwl(&mut self, net: &str, points: Vec<(f64, f64)>) -> &mut Self {
        let wf = Waveform::pwl(points).unwrap_or_else(|_| {
            panic!("stimulus for `{net}` must be time-sorted with finite times")
        });
        self.drives.insert(net.into(), wf);
        self
    }

    /// Convenience: hold `v0` until `t0`, ramp linearly to `v1` by `t1`,
    /// then hold `v1`. Extends an existing waveform on the net if present.
    ///
    /// # Panics
    ///
    /// Panics if `t0` or `t1` is not finite.
    pub fn ramp(&mut self, net: &str, t0: f64, t1: f64, v0: f64, v1: f64) -> &mut Self {
        let mut points = match self.drives.remove(net) {
            Some(w) => w.points,
            None => vec![(0.0, v0)],
        };
        points.push((t0, v0));
        points.push((t1, v1));
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.pwl(net, points)
    }

    /// Iterates over driven net names.
    pub fn driven_nets(&self) -> impl Iterator<Item = &str> {
        self.drives.keys().map(String::as_str)
    }

    pub(crate) fn waveform(&self, net: &str) -> Option<&Waveform> {
        self.drives.get(net)
    }
}

/// Recorded node voltages, sampled on a regular grid.
#[derive(Debug, Clone)]
pub struct Waveforms {
    pub(crate) dt_sample: f64,
    pub(crate) traces: HashMap<String, Vec<f64>>,
}

impl Waveforms {
    /// The sampled trace for a net.
    pub fn trace(&self, net: &str) -> Option<&[f64]> {
        self.traces.get(net).map(Vec::as_slice)
    }

    /// Sampling interval in seconds.
    pub fn sample_interval(&self) -> f64 {
        self.dt_sample
    }

    /// Voltage of `net` at time `t` (nearest sample).
    pub fn voltage(&self, net: &str, t: f64) -> Option<f64> {
        let tr = self.traces.get(net)?;
        let idx = ((t / self.dt_sample).round() as usize).min(tr.len().saturating_sub(1));
        tr.get(idx).copied()
    }

    /// Final sampled voltage of `net`.
    pub fn final_voltage(&self, net: &str) -> Option<f64> {
        self.traces.get(net)?.last().copied()
    }

    /// First time `|a − b|` reaches `threshold` volts.
    pub fn split_time(&self, a: &str, b: &str, threshold: f64) -> Option<f64> {
        let ta = self.traces.get(a)?;
        let tb = self.traces.get(b)?;
        let n = ta.len().min(tb.len());
        (0..n)
            .find(|&i| (ta[i] - tb[i]).abs() >= threshold)
            .map(|i| i as f64 * self.dt_sample)
    }

    /// Net names with recorded traces.
    pub fn nets(&self) -> impl Iterator<Item = &str> {
        self.traces.keys().map(String::as_str)
    }

    /// Renders selected traces as CSV (`time_ns` first column), for plotting
    /// the Fig. 2c / Fig. 9b waveforms externally. Unknown nets are skipped.
    pub fn to_csv(&self, nets: &[&str]) -> String {
        let present: Vec<&str> = nets
            .iter()
            .copied()
            .filter(|n| self.traces.contains_key(*n))
            .collect();
        let mut out = String::from("time_ns");
        for n in &present {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        let len = present
            .iter()
            .filter_map(|n| self.traces.get(*n).map(Vec::len))
            .min()
            .unwrap_or(0);
        for i in 0..len {
            out.push_str(&format!("{:.4}", i as f64 * self.dt_sample * 1e9));
            for n in &present {
                out.push_str(&format!(",{:.6}", self.traces[*n][i]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_units::Femtofarads;

    #[test]
    fn waveform_interpolation() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)]).unwrap();
        assert_eq!(w.value(-1.0), 0.0);
        assert!((w.value(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(w.value(5.0), 1.0);
        assert!(Waveform::pwl(vec![(1.0, 0.0), (0.0, 1.0)]).is_err());
    }

    #[test]
    fn non_finite_stimulus_times_are_rejected_when_built() {
        // A NaN time used to pass the sort check and panic mid-run inside
        // `Waveform::value`; an infinite one can interpolate to NaN volts.
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let points = vec![(0.0, 0.0), (t, 1.0), (2e-9, 1.0)];
            assert_eq!(
                Waveform::pwl(points.clone()),
                Err(SimError::UnsortedWaveform("<anonymous>".into())),
                "time {t}"
            );
            let panics = |build: &dyn Fn(&mut Stimulus)| {
                let build = std::panic::AssertUnwindSafe(|| build(&mut Stimulus::new()));
                std::panic::catch_unwind(build).is_err()
            };
            let pwl = |s: &mut Stimulus| {
                s.pwl("A", points.clone());
            };
            assert!(panics(&pwl), "pwl time {t}");
            assert!(
                panics(&|s| {
                    s.ramp("A", t, 2e-9, 0.0, 1.0);
                }),
                "ramp t0 {t}"
            );
            assert!(
                panics(&|s| {
                    s.ramp("A", 1e-9, t, 0.0, 1.0);
                }),
                "ramp t1 {t}"
            );
        }
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut circuit = crate::MnaCircuit::new();
        circuit.add_capacitor("A", "GND", Femtofarads(10.0));
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0));
        let wf = crate::MnaTransient::new(1e-9)
            .with_initial("A", Volts(0.7))
            .run(&circuit, &stim)
            .unwrap()
            .waveforms;
        let csv = wf.to_csv(&["A", "MISSING", "GND"]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_ns,A,GND"));
        let first = lines.next().unwrap();
        assert!(first.starts_with("0.0000,0.7"), "{first}");
        // One row per 10 ps sample over 1 ns; the floating node holds.
        assert_eq!(csv.lines().count(), 1 + 101);
        assert_eq!(csv.lines().last(), Some("1.0000,0.700000,0.000000"));
    }
}
