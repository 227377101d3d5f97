//! Modified-Nodal-Analysis transient engine — the workspace's only one.
//!
//! Every node voltage and every source branch current is an unknown of one
//! nonlinear system per timestep, discretised with backward Euler and solved
//! by damped Newton iteration. That buys unconditional stability, exact KCL
//! at every solution point (the property tests pin the residual), and typed
//! diagnostics when the latch's positive feedback defeats convergence. A
//! closed-form square-law discharge pins the physics to first-order
//! accuracy in the timestep.
//!
//! Each Newton iteration solves only the *free* nodes. A source's branch
//! row pins its driven node, so the driven updates are known outright
//! (`Δv_D = wf(t) − v_D`). The free-node block of the Jacobian is solved
//! with `−J_FD·Δv_D` folded into its right-hand side. That is the full
//! system's Newton step, with the rows whose answer is known eliminated by
//! hand. No node update reads a branch current, so the branch currents
//! are recovered on the converged iteration only, each from its driven
//! node's KCL row (`Δi_B = −r_D − J_D·Δv`); Newton never damps that
//! iteration, and a branch current's new value depends only on the last
//! iterate. The Jacobian is analytic: its linear part `G + C/h` (gmin and
//! resistors, plus the parasitic and capacitor companions at the step `h`)
//! is restamped, on the entries where `G` or `C` is non-zero, only when the
//! step changes, and each iteration adds the MOSFETs' closed-form
//! square-law partials ([`MosfetModel::channel_current_with_partials`]).
//! After every accepted step a residual-only pass, which evaluates no
//! Jacobian, audits KCL on every node row, driven rows included.
//!
//! The step size follows the local truncation error. Newton starts each
//! step from the straight line through the last two accepted points, and
//! the step's error is estimated as `h/(h + h₁)·max|x − x_pred|` over the
//! free nodes, `h₁` being the step before. A step over a budget of 1e-5 V
//! at the default 5 ps `dt` (scaled by `(dt / 5 ps)²`) is retried smaller;
//! every step resizes the next by `0.9·√(budget/error)`, clamped to
//! [0.3, 2], between `dt` and 40·`dt`. A Newton failure retries the step
//! at a quarter of its size. Every corner of a stimulus waveform, and the
//! end of the run, is a breakpoint: a step lands on it exactly and the next
//! restarts at `dt` with no history, so no predictor straddles a kink in
//! the drive. Traces are interpolated linearly between accepted points onto
//! the fixed `round(dt_sample / dt)·dt` grid.
//!
//! The engine stays first-order on purpose. Backward Euler never
//! overshoots a decaying RC node, at any step size, and no linear
//! multistep method above first order keeps that property unconditionally
//! (Bolley–Crouzeix): a variable-step BDF2 could take fewer steps, but it
//! can undershoot a fast RC discharge below its final value.
//!
//! The engine is driven by [`Stimulus`] schedules and accepts any
//! [`hifi_circuit::Netlist`] — including netlists straight out of
//! `hifi_extract`, which is what makes the behavioral conformance oracle
//! possible.

use crate::model::MosfetModel;
use crate::sim::{SimError, Stimulus, Waveform, Waveforms};
use crate::stamp::MnaSystem;
use hifi_circuit::{Device, Netlist};
use hifi_units::{Femtofarads, Volts};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Element {
    Resistor { a: usize, b: usize, siemens: f64 },
    Capacitor { a: usize, b: usize, farads: f64 },
    Mosfet(MosfetElement),
}

#[derive(Debug, Clone)]
struct MosfetElement {
    name: String,
    model: MosfetModel,
    gate: usize,
    source: usize,
    drain: usize,
}

/// A circuit compiled for MNA simulation.
///
/// Node voltages are referenced to an implicit ground that is *not* a named
/// node: a netlist's `GND` net is an ordinary node a [`Stimulus`] holds at
/// 0 V. Every node carries a small parasitic capacitance and a `gmin` leak
/// to the reference so the system stays well-posed even around cut-off
/// transistors.
#[derive(Debug, Clone)]
pub struct MnaCircuit {
    node_names: Vec<String>,
    elements: Vec<Element>,
    parasitic_f: f64,
    gmin_siemens: f64,
}

impl Default for MnaCircuit {
    fn default() -> Self {
        Self::new()
    }
}

impl MnaCircuit {
    /// Default per-node parasitic capacitance.
    pub const DEFAULT_PARASITIC: Femtofarads = Femtofarads(0.5);
    /// Default conditioning conductance from every node to the reference.
    pub const DEFAULT_GMIN_S: f64 = 1e-12;

    /// An empty circuit for builder-style construction (mainly tests).
    pub fn new() -> Self {
        Self {
            node_names: Vec::new(),
            elements: Vec::new(),
            parasitic_f: Self::DEFAULT_PARASITIC.value() * 1e-15,
            gmin_siemens: Self::DEFAULT_GMIN_S,
        }
    }

    /// Interns a node by name, returning its index.
    pub fn node(&mut self, name: &str) -> usize {
        if let Some(i) = self.node_names.iter().position(|n| n == name) {
            return i;
        }
        self.node_names.push(name.to_owned());
        self.node_names.len() - 1
    }

    /// Adds a resistor between two named nodes.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive.
    pub fn add_resistor(&mut self, a: &str, b: &str, ohms: f64) -> &mut Self {
        assert!(ohms > 0.0, "resistance must be positive, got {ohms}");
        let (a, b) = (self.node(a), self.node(b));
        self.elements.push(Element::Resistor {
            a,
            b,
            siemens: 1.0 / ohms,
        });
        self
    }

    /// Adds a capacitor between two named nodes.
    pub fn add_capacitor(&mut self, a: &str, b: &str, c: Femtofarads) -> &mut Self {
        let (a, b) = (self.node(a), self.node(b));
        self.elements.push(Element::Capacitor {
            a,
            b,
            farads: c.value() * 1e-15,
        });
        self
    }

    /// Adds a MOSFET with an explicit model.
    pub fn add_mosfet(
        &mut self,
        name: &str,
        model: MosfetModel,
        gate: &str,
        source: &str,
        drain: &str,
    ) -> &mut Self {
        let (gate, source, drain) = (self.node(gate), self.node(source), self.node(drain));
        self.elements.push(Element::Mosfet(MosfetElement {
            name: name.to_owned(),
            model,
            gate,
            source,
            drain,
        }));
        self
    }

    /// Compiles a netlist: MOSFET models from the netlist's drawn W/L,
    /// capacitors from its `Femtofarads` values. Works for hand-built
    /// topologies and extracted netlists alike.
    pub fn from_netlist(netlist: &Netlist) -> Self {
        let mut circuit = Self::new();
        circuit.node_names = (0..netlist.net_count())
            .map(|i| netlist.net_name(hifi_circuit::NetId(i)).to_owned())
            .collect();
        for (_, dev) in netlist.devices() {
            match dev {
                Device::Mosfet(m) => circuit.elements.push(Element::Mosfet(MosfetElement {
                    name: m.name.clone(),
                    model: MosfetModel::new(m.polarity, m.dims.w_over_l()),
                    gate: m.gate.0,
                    source: m.source.0,
                    drain: m.drain.0,
                })),
                Device::Capacitor(c) => circuit.elements.push(Element::Capacitor {
                    a: c.a.0,
                    b: c.b.0,
                    farads: c.value.value() * 1e-15,
                }),
            }
        }
        circuit
    }

    /// Sets the per-node parasitic capacitance (builder style).
    pub fn with_parasitic(mut self, c: Femtofarads) -> Self {
        self.parasitic_f = c.value() * 1e-15;
        self
    }

    /// Adds a threshold-voltage offset to the named MOSFET.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDevice`] if no MOSFET has that name.
    pub fn with_vt_offset(mut self, device: &str, offset: Volts) -> Result<Self, SimError> {
        let found = self.elements.iter_mut().find_map(|e| match e {
            Element::Mosfet(m) if m.name == device => Some(m),
            _ => None,
        });
        let Some(m) = found else {
            return Err(SimError::UnknownDevice(device.into()));
        };
        m.model = m.model.with_vt_offset(offset);
        Ok(self)
    }

    /// Node names in the compiled circuit.
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }

    fn node_index(&self, name: &str) -> Option<usize> {
        self.node_names.iter().position(|n| n == name)
    }
}

/// Convergence and accuracy diagnostics for one transient run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Accepted timesteps.
    pub steps: usize,
    /// Steps retried at a smaller size, because their error estimate
    /// exceeded the budget or their Newton iteration failed.
    pub rejected_steps: usize,
    /// Newton iterations summed over every solve, rejected steps included.
    pub newton_iterations: usize,
    /// Worst Newton iteration count of an accepted step.
    pub max_newton_iterations: usize,
    /// Largest KCL residual (A) observed at any accepted solution point —
    /// the property tests pin this to essentially machine precision.
    pub worst_kcl_residual_amps: f64,
}

/// Result of an MNA transient: sampled waveforms plus solver diagnostics.
#[derive(Debug, Clone)]
pub struct MnaRun {
    /// Recorded node voltages on the `round(dt_sample / dt)·dt` grid.
    pub waveforms: Waveforms,
    /// Solver diagnostics.
    pub stats: SolveStats,
}

/// Backward-Euler transient configuration for [`MnaCircuit`].
#[derive(Debug, Clone)]
pub struct MnaTransient {
    /// Base timestep (s). Default 5 ps. The run takes it at the start and
    /// after every stimulus corner, never shrinks an error-controlled step
    /// below it, and scales the error budget with it (1e-5 V per step at
    /// 5 ps, in proportion to `dt²`), so halving it about halves the error
    /// of every trace: backward Euler is first-order. Steps grow to at
    /// most 40·`dt`.
    pub dt: f64,
    /// Simulation duration (s).
    pub t_end: f64,
    /// Requested recording interval (s). Default 10 ps. Samples land on a
    /// grid of `round(dt_sample / dt)·dt` (at least `dt`), interpolated
    /// linearly between accepted steps, and
    /// [`Waveforms::sample_interval`] reports that actual grid.
    pub dt_sample: f64,
    /// Initial voltages for floating nodes (by name); unlisted nodes start
    /// at 0 V.
    pub initial: HashMap<String, f64>,
    /// Newton iteration cap per timestep.
    pub max_newton: usize,
    /// Convergence threshold on the voltage update (V).
    pub tol_v: f64,
    /// Damping clamp: the largest per-iteration voltage move allowed (V).
    pub damping_v: f64,
}

/// Samples per trace reserved up front; longer runs grow their traces.
const TRACE_RESERVE: usize = 4096;

impl MnaTransient {
    /// A transient of the given duration with workspace-default settings.
    pub fn new(t_end: f64) -> Self {
        Self {
            dt: 5e-12,
            t_end,
            dt_sample: 10e-12,
            initial: HashMap::new(),
            max_newton: 100,
            tol_v: 1e-9,
            damping_v: 0.3,
        }
    }

    /// Sets an initial condition on a floating node (builder style).
    pub fn with_initial(mut self, net: &str, v: Volts) -> Self {
        self.initial.insert(net.into(), v.value());
        self
    }

    /// Runs the transient.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTimestep`] when `dt`, `t_end` or
    /// `dt_sample` is not finite and positive, or when the step count
    /// `t_end / dt` does not fit in `usize`; [`SimError::UnknownNet`] for
    /// an unknown net; [`SimError::NoConvergence`] when Newton iteration
    /// stalls on a step of `dt` or less, and [`SimError::SingularSystem`]
    /// when the linearised system has no usable pivot.
    pub fn run(&self, circuit: &MnaCircuit, stimulus: &Stimulus) -> Result<MnaRun, SimError> {
        let sources = self.sources(circuit, stimulus)?;
        let sys = NodeSystem::new(circuit, &sources);
        self.drive(circuit, &sources, sys)
    }

    /// Validates the run against the circuit and returns its driven nets
    /// as `(node, waveform)` source branches, in sorted-name order so the
    /// unknown layout is deterministic.
    fn sources<'s>(
        &self,
        circuit: &MnaCircuit,
        stimulus: &'s Stimulus,
    ) -> Result<Vec<(usize, &'s Waveform)>, SimError> {
        let valid = |x: f64| x.is_finite() && x > 0.0;
        if let Some(&bad) = [self.dt, self.t_end, self.dt_sample]
            .iter()
            .find(|&&x| !valid(x))
        {
            return Err(SimError::InvalidTimestep(bad));
        }
        // The sample grid counts steps of `dt`, and `as usize` saturates, so
        // a step count past `usize::MAX` must be refused here.
        if (self.t_end / self.dt).ceil() >= usize::MAX as f64 {
            return Err(SimError::InvalidTimestep(self.t_end));
        }
        let mut driven_names: Vec<&str> = stimulus.driven_nets().collect();
        driven_names.sort_unstable();
        let sources = driven_names
            .into_iter()
            .map(|name| {
                let idx = circuit
                    .node_index(name)
                    .ok_or_else(|| SimError::UnknownNet(name.into()))?;
                Ok((idx, stimulus.waveform(name).expect("driven net")))
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        for name in self.initial.keys() {
            if circuit.node_index(name).is_none() {
                return Err(SimError::UnknownNet(name.clone()));
            }
        }
        Ok(sources)
    }

    /// Integrates from the initial state to the end of the run under
    /// [`StepControl`], solving each backward-Euler step with `sys`.
    fn drive<S: NewtonSystem>(
        &self,
        circuit: &MnaCircuit,
        sources: &[(usize, &Waveform)],
        mut sys: S,
    ) -> Result<MnaRun, SimError> {
        let n_nodes = circuit.node_names.len();
        let mut driven = vec![false; n_nodes];
        for &(idx, _) in sources {
            driven[idx] = true;
        }
        let free: Vec<usize> = (0..n_nodes).filter(|&i| !driven[i]).collect();

        // Unknowns: node voltages, then one current per source branch.
        let mut x = vec![0.0f64; n_nodes + sources.len()];
        for &(idx, wf) in sources {
            x[idx] = wf.value(0.0);
        }
        for (name, &v) in &self.initial {
            let idx = circuit.node_index(name).expect("validated above");
            if !driven[idx] {
                x[idx] = v;
            }
        }

        // Sample `k` sits `k·sample_every` steps of `dt` into the run.
        let steps = (self.t_end / self.dt).ceil() as usize;
        let sample_every = (self.dt_sample / self.dt).round().max(1.0) as usize;
        let n_samples = steps / sample_every + 1;
        let sample_time = |k: usize| (k * sample_every) as f64 * self.dt;
        let t_stop = self.t_end.max(sample_time(n_samples - 1));
        let corners = sources.iter().flat_map(|(_, wf)| wf.corner_times());
        let mut ctl = StepControl::new(self.dt, corners, t_stop);

        let mut traces: Vec<Vec<f64>> = x[..n_nodes]
            .iter()
            .map(|&v| {
                let mut trace = Vec::with_capacity(n_samples.min(TRACE_RESERVE));
                trace.push(v);
                trace
            })
            .collect();
        let mut next_sample = 1;

        let mut stats = SolveStats::default();
        let mut dx = vec![0.0f64; x.len()];
        // The last accepted point, and the node voltages one accepted step
        // before it: the predictor's two points.
        let mut accepted = x.clone();
        let mut before = vec![0.0f64; n_nodes];
        let mut predicted = vec![0.0f64; n_nodes];
        // Until the run lands on its last breakpoint, its end.
        while ctl.next < ctl.breakpoints.len() {
            let step = ctl.propose();
            // Newton starts from the straight line through the last two
            // accepted points; right after a restart, from the last one.
            x.copy_from_slice(&accepted);
            if let Some(h1) = ctl.h1 {
                let ratio = step.h / h1;
                for ((p, &now), &then) in predicted.iter_mut().zip(&accepted).zip(&before) {
                    *p = now + ratio * (now - then);
                }
                x[..n_nodes].copy_from_slice(&predicted);
            }
            let v_prev = &accepted[..n_nodes];
            sys.begin_step(step.t_next, step.h);
            let iters = match self.newton(&mut sys, &mut x, v_prev, &mut dx, step.t_next) {
                Ok(iters) => iters,
                Err(SimError::NoConvergence { iterations, .. }) if ctl.retry_smaller(&step) => {
                    stats.newton_iterations += iterations;
                    stats.rejected_steps += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            stats.newton_iterations += iters;
            // Backward Euler's local error is h/(h + h₁) of the predictor's
            // miss; driven nodes follow their waveforms exactly.
            let error = ctl.h1.map(|h1| {
                let miss = free
                    .iter()
                    .fold(0.0f64, |m, &i| m.max((x[i] - predicted[i]).abs()));
                step.h / (step.h + h1) * miss
            });
            if !ctl.judge(&step, error) {
                stats.rejected_steps += 1;
                continue;
            }
            stats.steps += 1;
            stats.max_newton_iterations = stats.max_newton_iterations.max(iters);

            // KCL audit at the accepted point, over every node row.
            let worst = sys.kcl_residual(&x, v_prev);
            stats.worst_kcl_residual_amps = stats.worst_kcl_residual_amps.max(worst);

            // The samples this step covers, interpolated between its ends.
            while next_sample < n_samples && sample_time(next_sample) <= step.t_next {
                let w = (sample_time(next_sample) - step.t) / (step.t_next - step.t);
                for ((trace, &a), &b) in traces.iter_mut().zip(&accepted).zip(&x) {
                    trace.push(a + w * (b - a));
                }
                next_sample += 1;
            }
            before.copy_from_slice(&accepted[..n_nodes]);
            accepted.copy_from_slice(&x);
        }

        Ok(MnaRun {
            waveforms: Waveforms {
                // The recorded grid, not the requested `dt_sample`.
                dt_sample: sample_every as f64 * self.dt,
                traces: circuit.node_names.iter().cloned().zip(traces).collect(),
            },
            stats,
        })
    }

    /// Damped Newton iteration on one step from the guess in `x`, which it
    /// leaves at the solution; returns the iterations taken.
    fn newton<S: NewtonSystem>(
        &self,
        sys: &mut S,
        x: &mut [f64],
        v_prev: &[f64],
        dx: &mut [f64],
        t_next: f64,
    ) -> Result<usize, SimError> {
        let n_nodes = v_prev.len();
        let mut worst_dv = f64::INFINITY;
        let mut iters = 0usize;
        while iters < self.max_newton {
            iters += 1;
            sys.newton_update(x, v_prev, dx)
                .ok_or(SimError::SingularSystem { time_s: t_next })?;
            worst_dv = dx[..n_nodes].iter().fold(0.0f64, |m, d| m.max(d.abs()));
            let converged = worst_dv < self.tol_v;
            if converged {
                sys.recover_branch_currents(dx);
            }
            let scale = if worst_dv > self.damping_v {
                self.damping_v / worst_dv
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(&*dx) {
                *xi += scale * di;
            }
            if converged {
                return Ok(iters);
            }
        }
        Err(SimError::NoConvergence {
            time_s: t_next,
            iterations: iters,
            worst_delta_v: worst_dv,
        })
    }
}

/// A step [`StepControl`] proposes, from `t` to `t_next`.
#[derive(Debug, Clone, Copy)]
struct Step {
    t: f64,
    t_next: f64,
    h: f64,
    /// Whether `t_next` is a breakpoint.
    lands: bool,
}

/// Local-truncation-error step control (see the module docs): proposes
/// each step, judges it by its error estimate and sizes the next, and lands
/// the run on every breakpoint.
#[derive(Debug, Clone)]
struct StepControl {
    /// Restart step, smallest error-controlled step, and scale of `budget`.
    dt: f64,
    /// Largest local error accepted per step (V).
    budget: f64,
    /// Ascending stimulus corners after t = 0, ending with the run's end.
    breakpoints: Vec<f64>,
    /// Index of the next breakpoint.
    next: usize,
    /// Time of the last accepted point.
    t: f64,
    /// Size of the next proposal.
    h: f64,
    /// The last accepted step since the last restart, which the
    /// predictor extrapolates; `None` at a restart.
    h1: Option<f64>,
}

impl StepControl {
    /// Error budget per step at the default 5 ps `dt` (V).
    const BUDGET_V: f64 = 1e-5;
    /// Largest step, in steps of `dt`.
    const MAX_STEP_DTS: f64 = 40.0;
    /// Safety factor on the step the error estimate allows.
    const SAFETY: f64 = 0.9;
    /// Bounds on the factor by which one step resizes the next.
    const RESIZE: (f64, f64) = (0.3, 2.0);

    fn new(dt: f64, corners: impl Iterator<Item = f64>, t_stop: f64) -> Self {
        let mut breakpoints: Vec<f64> = corners.filter(|&t| t > 0.0 && t < t_stop).collect();
        breakpoints.push(t_stop);
        breakpoints.sort_by(f64::total_cmp);
        breakpoints.dedup();
        Self {
            dt,
            budget: Self::BUDGET_V * (dt / 5e-12).powi(2),
            breakpoints,
            next: 0,
            t: 0.0,
            h: dt,
            h1: None,
        }
    }

    /// The next step: the proposal, cut to land exactly on the next
    /// breakpoint when it would reach it, or to half the gap when it would
    /// leave less than `dt` before it. A proposal is never stretched onto a
    /// breakpoint: a rejected step would re-propose itself forever.
    fn propose(&self) -> Step {
        let bp = self.breakpoints[self.next];
        let gap = bp - self.t;
        let (h, lands) = if self.h >= gap {
            (gap, true)
        } else if gap - self.h < self.dt {
            (0.5 * gap, false)
        } else {
            (self.h, false)
        };
        Step {
            t: self.t,
            t_next: if lands { bp } else { self.t + h },
            h,
            lands,
        }
    }

    /// After a failed Newton solve of `step`: whether to retry it at a
    /// quarter of its size (but no less than `dt`). A step of `dt` or less
    /// is not retried.
    fn retry_smaller(&mut self, step: &Step) -> bool {
        let retry = step.h > self.dt;
        if retry {
            self.h = (0.25 * step.h).max(self.dt);
        }
        retry
    }

    /// Judges a solved `step` by its local error estimate, `None` right
    /// after a restart, where the step is taken unjudged. Returns whether
    /// the step is accepted, and sizes the next proposal either way.
    fn judge(&mut self, step: &Step, error: Option<f64>) -> bool {
        let (shrink, grow) = Self::RESIZE;
        let factor = error.map_or(1.0, |e| {
            (Self::SAFETY * (self.budget / e).sqrt()).clamp(shrink, grow)
        });
        if error.is_some_and(|e| e > self.budget) && step.h > self.dt {
            self.h = (step.h * factor).max(self.dt);
            return false;
        }
        self.t = step.t_next;
        if step.lands {
            // The drive's slope may change here: restart without history.
            self.next += 1;
            self.h = self.dt;
            self.h1 = None;
        } else {
            self.h = (step.h * factor).clamp(self.dt, Self::MAX_STEP_DTS * self.dt);
            self.h1 = Some(step.h);
        }
        true
    }
}

/// One backward-Euler step's Newton system, as [`MnaTransient::drive`]
/// solves it: the free-node [`NodeSystem`], or the tests' full-MNA
/// reference.
trait NewtonSystem {
    /// Prepares the solves of a step of size `h` that ends at `t_next`.
    fn begin_step(&mut self, t_next: f64, h: f64);
    /// Writes the Newton update at `x` (node voltages, then branch
    /// currents) into `dx`; `v_prev` holds the last accepted node voltages.
    /// The branch-current updates may be left at zero until the iteration
    /// converges. `None` when the linearised system has no usable pivot.
    fn newton_update(&mut self, x: &[f64], v_prev: &[f64], dx: &mut [f64]) -> Option<()>;
    /// Fills in the branch-current updates of the iteration that
    /// converges, after [`NewtonSystem::newton_update`] wrote its `dx`.
    fn recover_branch_currents(&mut self, dx: &mut [f64]);
    /// The largest KCL residual (A) over every node row at `x`.
    fn kcl_residual(&mut self, x: &[f64], v_prev: &[f64]) -> f64;
}

/// One run's Newton system over the node voltages, with the source branch
/// rows eliminated by hand (see the module docs).
struct NodeSystem<'a> {
    circuit: &'a MnaCircuit,
    /// Node count: the matrices are row-major `n × n`.
    n: usize,
    /// The node each source branch drives, in branch order.
    driven: Vec<usize>,
    /// Each source's waveform, in branch order.
    waveforms: Vec<&'a Waveform>,
    /// Each source's value at the end of the current step.
    targets: Vec<f64>,
    /// The undriven nodes in index order: the rows and columns of `block`.
    free: Vec<usize>,
    /// Every entry where `G` (gmin and the resistors) or `C` (the
    /// parasitics and the capacitors) is non-zero, as `(index, g, c)`.
    stamps: Vec<(usize, f64, f64)>,
    /// The step `linear` is stamped for.
    h: f64,
    /// The Jacobian's linear part `G + C/h`, restamped on `stamps` when the
    /// step changes; every other entry stays +0.0.
    linear: Vec<f64>,
    /// ∂(current leaving the row's node)/∂v(the column's node) at the last
    /// assembled point.
    jac: Vec<f64>,
    /// Current leaving each node at the last assembled point, branch
    /// currents included: the KCL residual.
    res: Vec<f64>,
    /// The free-node block of one Newton step.
    block: MnaSystem,
}

impl<'a> NodeSystem<'a> {
    fn new(circuit: &'a MnaCircuit, sources: &[(usize, &'a Waveform)]) -> Self {
        let n = circuit.node_names.len();
        let driven: Vec<usize> = sources.iter().map(|&(idx, _)| idx).collect();
        let free: Vec<usize> = (0..n).filter(|i| !driven.contains(i)).collect();
        let mut conductance = vec![0.0; n * n];
        let mut capacitance = vec![0.0; n * n];
        for i in 0..n {
            conductance[i * n + i] += circuit.gmin_siemens;
            capacitance[i * n + i] += circuit.parasitic_f;
        }
        for e in &circuit.elements {
            let (a, b, v, matrix) = match *e {
                Element::Resistor { a, b, siemens } => (a, b, siemens, &mut conductance),
                Element::Capacitor { a, b, farads } => (a, b, farads, &mut capacitance),
                Element::Mosfet(_) => continue,
            };
            for (row, col, v) in [(a, a, v), (a, b, -v), (b, b, v), (b, a, -v)] {
                matrix[row * n + col] += v;
            }
        }
        let stamps = conductance
            .into_iter()
            .zip(capacitance)
            .enumerate()
            .filter(|&(_, (g, c))| g != 0.0 || c != 0.0)
            .map(|(k, (g, c))| (k, g, c))
            .collect();
        Self {
            circuit,
            n,
            waveforms: sources.iter().map(|&(_, wf)| wf).collect(),
            targets: vec![0.0; driven.len()],
            driven,
            block: MnaSystem::new(free.len()),
            free,
            stamps,
            // No step yet: the first `begin_step` stamps `linear`.
            h: 0.0,
            linear: vec![0.0; n * n],
            jac: vec![0.0; n * n],
            res: vec![0.0; n],
        }
    }

    /// Evaluates `res` at `x` (node voltages, then branch currents), and
    /// `jac` too when `JACOBIAN` is set; `v_prev` holds the node voltages
    /// of the last accepted step. `res` comes out bit for bit the same
    /// either way.
    fn evaluate<const JACOBIAN: bool>(&mut self, x: &[f64], v_prev: &[f64]) {
        let (n, circuit, h) = (self.n, self.circuit, self.h);
        let (res, jac) = (&mut self.res, &mut self.jac);
        if JACOBIAN {
            jac.copy_from_slice(&self.linear);
        }
        let geq_par = circuit.parasitic_f / h;
        for (i, r) in res.iter_mut().enumerate() {
            *r = circuit.gmin_siemens * x[i] + geq_par * (x[i] - v_prev[i]);
        }
        for e in &circuit.elements {
            match e {
                Element::Resistor { a, b, siemens } => {
                    let i = siemens * (x[*a] - x[*b]);
                    res[*a] += i;
                    res[*b] -= i;
                }
                Element::Capacitor { a, b, farads } => {
                    let geq = farads / h;
                    let i = geq * ((x[*a] - x[*b]) - (v_prev[*a] - v_prev[*b]));
                    res[*a] += i;
                    res[*b] -= i;
                }
                Element::Mosfet(m) => {
                    let (vg, vs, vd) = (x[m.gate], x[m.source], x[m.drain]);
                    let i_ds = if JACOBIAN {
                        let (i_ds, partials) = m.model.channel_current_with_partials(vg, vs, vd);
                        for (col, p) in [m.gate, m.source, m.drain].into_iter().zip(partials) {
                            jac[m.drain * n + col] += p;
                            jac[m.source * n + col] -= p;
                        }
                        i_ds
                    } else {
                        m.model.channel_current(vg, vs, vd)
                    };
                    // Positive i_ds flows drain→source through the channel,
                    // i.e. leaves the drain node and enters the source node.
                    res[m.drain] += i_ds;
                    res[m.source] -= i_ds;
                }
            }
        }
        // Each branch current leaves its driven node.
        for (k, &d) in self.driven.iter().enumerate() {
            res[d] += x[n + k];
        }
    }
}

impl NewtonSystem for NodeSystem<'_> {
    fn begin_step(&mut self, t_next: f64, h: f64) {
        if h != self.h {
            self.h = h;
            for &(k, g, c) in &self.stamps {
                self.linear[k] = g + c / h;
            }
        }
        for (target, wf) in self.targets.iter_mut().zip(&self.waveforms) {
            *target = wf.value(t_next);
        }
    }

    /// Assembles at `x` and solves the Newton step of the node voltages,
    /// each source branch pinning its node to its target. The branch
    /// current updates are left at zero.
    fn newton_update(&mut self, x: &[f64], v_prev: &[f64], dx: &mut [f64]) -> Option<()> {
        self.evaluate::<true>(x, v_prev);
        let n = self.n;
        // Branch rows: v_D + Δv_D = wf(t).
        for (&d, &target) in self.driven.iter().zip(&self.targets) {
            dx[d] = target - x[d];
        }
        // Free rows: J_FF·Δv_F = −r_F − J_FD·Δv_D.
        for (r, &i) in self.free.iter().enumerate() {
            let jac_row = &self.jac[i * n..(i + 1) * n];
            let (block_row, rhs) = self.block.row_mut(r);
            *rhs = self
                .driven
                .iter()
                .fold(-self.res[i], |acc, &d| acc - jac_row[d] * dx[d]);
            for (a, &j) in block_row.iter_mut().zip(&self.free) {
                *a = jac_row[j];
            }
        }
        let dv_free = self.block.solve()?;
        for (&i, &dv) in self.free.iter().zip(dv_free) {
            dx[i] = dv;
        }
        dx[n..].fill(0.0);
        Some(())
    }

    /// Driven rows at the last assembled point: `J_D·Δv + Δi_B = −r_D`.
    fn recover_branch_currents(&mut self, dx: &mut [f64]) {
        let n = self.n;
        let (dv, di) = dx.split_at_mut(n);
        for (&d, di) in self.driven.iter().zip(di) {
            let jac_row = &self.jac[d * n..(d + 1) * n];
            *di = jac_row
                .iter()
                .zip(&*dv)
                .fold(-self.res[d], |acc, (j, v)| acc - j * v);
        }
    }

    fn kcl_residual(&mut self, x: &[f64], v_prev: &[f64]) -> f64 {
        self.evaluate::<false>(x, v_prev);
        self.res.iter().fold(0.0f64, |m, r| m.max(r.abs()))
    }
}

/// The full-MNA engine this module's free-node solve replaced, kept as the
/// reference the reduced engine is tested against: every node voltage and
/// every source branch current is an unknown of one dense system, and the
/// MOSFET Jacobian comes from central finite differences. It runs under the
/// engine's own step control.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Element, MnaCircuit, MnaRun, MnaTransient, NewtonSystem};
    use crate::sim::{SimError, Stimulus, Waveform};
    use crate::stamp::MnaSystem;

    /// Perturbation used for the numerical MOSFET partial derivatives (V).
    const DERIV_STEP_V: f64 = 1e-6;

    /// Adds `v` at (`row`, `col`).
    fn add(sys: &mut MnaSystem, row: usize, col: usize, v: f64) {
        sys.row_mut(row).0[col] += v;
    }

    /// Stamps a conductance `g` between two unknowns: the four-point
    /// pattern.
    fn add_conductance(sys: &mut MnaSystem, i: usize, j: usize, g: f64) {
        add(sys, i, i, g);
        add(sys, i, j, -g);
        add(sys, j, j, g);
        add(sys, j, i, -g);
    }

    /// [`MnaTransient::run`] on the full system.
    pub(crate) fn run(
        tr: &MnaTransient,
        circuit: &MnaCircuit,
        stimulus: &Stimulus,
    ) -> Result<MnaRun, SimError> {
        let sources = tr.sources(circuit, stimulus)?;
        let n = circuit.node_names.len() + sources.len();
        let full = FullSystem {
            circuit,
            sources: &sources,
            sys: MnaSystem::new(n),
            residual: vec![0.0; n],
            t_next: 0.0,
            h: 0.0,
        };
        tr.drive(circuit, &sources, full)
    }

    /// The whole MNA system of one step.
    struct FullSystem<'a, 's> {
        circuit: &'a MnaCircuit,
        sources: &'a [(usize, &'s Waveform)],
        sys: MnaSystem,
        residual: Vec<f64>,
        t_next: f64,
        h: f64,
    }

    impl NewtonSystem for FullSystem<'_, '_> {
        fn begin_step(&mut self, t_next: f64, h: f64) {
            (self.t_next, self.h) = (t_next, h);
        }

        fn newton_update(&mut self, x: &[f64], v_prev: &[f64], dx: &mut [f64]) -> Option<()> {
            let (circuit, sources, h, t_next) = (self.circuit, self.sources, self.h, self.t_next);
            assemble(circuit, sources, h, v_prev, x, t_next, &mut self.sys, None);
            dx.copy_from_slice(self.sys.solve()?);
            Some(())
        }

        /// The full solve already holds every branch current update.
        fn recover_branch_currents(&mut self, _dx: &mut [f64]) {}

        fn kcl_residual(&mut self, x: &[f64], v_prev: &[f64]) -> f64 {
            let (circuit, sources, h, t_next) = (self.circuit, self.sources, self.h, self.t_next);
            let residual = Some(&mut self.residual);
            assemble(
                circuit,
                sources,
                h,
                v_prev,
                x,
                t_next,
                &mut self.sys,
                residual,
            );
            self.residual[..v_prev.len()]
                .iter()
                .fold(0.0f64, |m, r| m.max(r.abs()))
        }
    }

    /// Assembles the Newton system of a step of size `h` ending at
    /// `t_next`, at the guess `x`: Jacobian into the matrix and `−residual`
    /// into the right-hand side, so `solve()` yields the update `Δx`. With
    /// `residual_out` set, only the residual vector is produced (used for
    /// the post-convergence KCL audit).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        circuit: &MnaCircuit,
        sources: &[(usize, &Waveform)],
        h: f64,
        v_prev: &[f64],
        x: &[f64],
        t_next: f64,
        sys: &mut MnaSystem,
        mut residual_out: Option<&mut Vec<f64>>,
    ) {
        let n_nodes = circuit.node_names.len();
        *sys = MnaSystem::new(x.len());
        if let Some(r) = residual_out.as_deref_mut() {
            r.iter_mut().for_each(|v| *v = 0.0);
        }
        let jacobian = residual_out.is_none();
        // `leaving(i)` accumulates current leaving node i; the Newton rhs is
        // the negated residual.
        macro_rules! leave {
            ($node:expr, $amps:expr) => {
                match residual_out.as_deref_mut() {
                    Some(r) => r[$node] += $amps,
                    None => *sys.row_mut($node).1 += -($amps),
                }
            };
        }

        let geq_par = circuit.parasitic_f / h;
        for i in 0..n_nodes {
            let g = circuit.gmin_siemens + geq_par;
            if jacobian {
                add(sys, i, i, g);
            }
            leave!(
                i,
                circuit.gmin_siemens * x[i] + geq_par * (x[i] - v_prev[i])
            );
        }
        for e in &circuit.elements {
            match e {
                Element::Resistor { a, b, siemens } => {
                    if jacobian {
                        add_conductance(sys, *a, *b, *siemens);
                    }
                    let i = siemens * (x[*a] - x[*b]);
                    leave!(*a, i);
                    leave!(*b, -i);
                }
                Element::Capacitor { a, b, farads } => {
                    let geq = farads / h;
                    if jacobian {
                        add_conductance(sys, *a, *b, geq);
                    }
                    let i = geq * ((x[*a] - x[*b]) - (v_prev[*a] - v_prev[*b]));
                    leave!(*a, i);
                    leave!(*b, -i);
                }
                Element::Mosfet(m) => {
                    let (vg, vs, vd) = (x[m.gate], x[m.source], x[m.drain]);
                    let i_ds = m.model.channel_current(vg, vs, vd);
                    leave!(m.drain, i_ds);
                    leave!(m.source, -i_ds);
                    if jacobian {
                        let dv = DERIV_STEP_V;
                        let di = |vg2: f64, vs2: f64, vd2: f64| {
                            (m.model.channel_current(vg2, vs2, vd2)
                                - m.model.channel_current(
                                    2.0 * vg - vg2,
                                    2.0 * vs - vs2,
                                    2.0 * vd - vd2,
                                ))
                                / (2.0 * dv)
                        };
                        let (d, s, g) = (m.drain, m.source, m.gate);
                        for (col, dgdv) in [
                            (g, di(vg + dv, vs, vd)),
                            (s, di(vg, vs + dv, vd)),
                            (d, di(vg, vs, vd + dv)),
                        ] {
                            add(sys, d, col, dgdv);
                            add(sys, s, col, -dgdv);
                        }
                    }
                }
            }
        }
        for (k, &(idx, wf)) in sources.iter().enumerate() {
            let branch = n_nodes + k;
            let i_br = x[branch];
            leave!(idx, i_br);
            match residual_out.as_deref_mut() {
                Some(r) => r[branch] = x[idx] - wf.value(t_next),
                None => {
                    add(sys, idx, branch, 1.0);
                    add(sys, branch, idx, 1.0);
                    *sys.row_mut(branch).1 += -(x[idx] - wf.value(t_next));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_circuit::{Polarity, TransistorClass, TransistorDims};
    use hifi_units::Nanometers;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dims(w_over_l: f64) -> TransistorDims {
        TransistorDims::new(Nanometers(100.0 * w_over_l), Nanometers(100.0))
    }

    /// The engine's Newton system, noting the end time and size of every
    /// accepted step: the KCL audit runs once per accepted step.
    struct Recorded<'a, 'r> {
        inner: NodeSystem<'a>,
        step: (f64, f64),
        accepted: &'r mut Vec<(f64, f64)>,
    }

    impl NewtonSystem for Recorded<'_, '_> {
        fn begin_step(&mut self, t_next: f64, h: f64) {
            self.step = (t_next, h);
            self.inner.begin_step(t_next, h);
        }

        fn newton_update(&mut self, x: &[f64], v_prev: &[f64], dx: &mut [f64]) -> Option<()> {
            self.inner.newton_update(x, v_prev, dx)
        }

        fn recover_branch_currents(&mut self, dx: &mut [f64]) {
            self.inner.recover_branch_currents(dx);
        }

        fn kcl_residual(&mut self, x: &[f64], v_prev: &[f64]) -> f64 {
            self.accepted.push(self.step);
            self.inner.kcl_residual(x, v_prev)
        }
    }

    /// `(end time, size)` of every step `tr` accepts.
    fn accepted_steps(tr: &MnaTransient, circuit: &MnaCircuit, stim: &Stimulus) -> Vec<(f64, f64)> {
        let sources = tr.sources(circuit, stim).expect("valid run");
        let mut accepted = Vec::new();
        let sys = Recorded {
            inner: NodeSystem::new(circuit, &sources),
            step: (0.0, 0.0),
            accepted: &mut accepted,
        };
        tr.drive(circuit, &sources, sys).expect("run converges");
        accepted
    }

    #[test]
    fn the_residual_only_audit_reads_the_assembled_residual() {
        // Resistors, capacitors, both MOSFET polarities and four driven
        // nodes, one of them ramping.
        let mut circuit = MnaCircuit::new();
        circuit
            .add_resistor("IN", "A", 2e3)
            .add_capacitor("A", "GND", Femtofarads(30.0))
            .add_capacitor("A", "B", Femtofarads(5.0))
            .add_mosfet("n", MosfetModel::new(Polarity::Nmos, 2.0), "G", "B", "A")
            .add_mosfet("p", MosfetModel::new(Polarity::Pmos, 3.0), "B", "VDD", "C")
            .add_capacitor("C", "GND", Femtofarads(12.0))
            .add_resistor("C", "GND", 50e3);
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0))
            .hold("VDD", Volts(1.1))
            .hold("G", Volts(1.4));
        stim.ramp("IN", 0.2e-9, 0.6e-9, 0.0, 1.1);
        let tr = MnaTransient::new(1e-9);
        let sources = tr.sources(&circuit, &stim).expect("valid run");
        let mut sys = NodeSystem::new(&circuit, &sources);
        let (n, branches) = (circuit.node_names().len(), sources.len());
        let worst = |res: &[f64]| res.iter().fold(0.0f64, |m, r| m.max(r.abs()));

        // At random points, driven rows included, bit for bit.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            sys.begin_step(rng.gen_range(0.0..1e-9), rng.gen_range(5e-12..200e-12));
            let x: Vec<f64> = (0..n + branches)
                .map(|i| {
                    if i < n {
                        rng.gen_range(-0.2..1.4)
                    } else {
                        rng.gen_range(-1e-4..1e-4)
                    }
                })
                .collect();
            let v_prev: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.2..1.4)).collect();
            sys.evaluate::<true>(&x, &v_prev);
            let assembled = worst(&sys.res);
            assert_eq!(sys.kcl_residual(&x, &v_prev).to_bits(), assembled.to_bits());
        }

        // At a solved point the audit reads rounding noise; any branch
        // current 1 pA off its recovered value breaks the 1e-15 A bound.
        let t = 0.4e-9;
        sys.begin_step(t, 5e-12);
        let v_prev: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
        let mut x: Vec<f64> = v_prev.iter().copied().chain(vec![0.0; branches]).collect();
        let mut dx = vec![0.0; x.len()];
        tr.newton(&mut sys, &mut x, &v_prev, &mut dx, t)
            .expect("converges");
        let solved = sys.kcl_residual(&x, &v_prev);
        assert!(solved < 1e-15, "residual {solved} A at the solution");
        for k in 0..branches {
            let mut off = x.clone();
            off[n + k] += 1e-12;
            let audit = sys.kcl_residual(&off, &v_prev);
            assert!(audit > 1e-15, "branch {k} 1 pA off reads {audit} A");
        }
    }

    #[test]
    fn every_stimulus_corner_is_an_accepted_step_time() {
        // A wordline ramp shares a cell's charge onto a bitline while a
        // second drive steps through corners 3 ps apart (less than `dt`),
        // corners off any multiple of `dt`, and one corner past the end.
        let mut nl = Netlist::new("corners");
        let bl = nl.add_net("BL");
        let sn = nl.add_net("SN");
        let gnd = nl.add_net("GND");
        let wl = nl.add_net("WL");
        let drive = nl.add_net("D");
        nl.add_capacitor("cbl", Femtofarads(180.0), bl, gnd);
        nl.add_capacitor("cs", Femtofarads(20.0), sn, gnd);
        nl.add_capacitor("cd", Femtofarads(5.0), drive, bl);
        nl.add_mosfet(
            "acc",
            Polarity::Nmos,
            TransistorClass::Access,
            dims(2.0),
            wl,
            sn,
            bl,
        );
        let circuit = MnaCircuit::from_netlist(&nl);
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0));
        stim.ramp("WL", 1e-9, 1.5e-9, 0.0, 2.4);
        let d_corners = [0.7e-9, 0.703e-9, 2.0001e-9, 2.5e-9 + 1.7e-12, 3.25e-9, 9e-9];
        let levels = [0.0, 0.3, 0.1, 0.6, 0.2, 0.0];
        stim.pwl("D", d_corners.into_iter().zip(levels).collect());
        let tr = MnaTransient::new(5e-9)
            .with_initial("BL", Volts(0.55))
            .with_initial("SN", Volts(1.1));
        let accepted = accepted_steps(&tr, &circuit, &stim);

        let times: Vec<f64> = accepted.iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "time moves forward");
        assert_eq!(times.last(), Some(&5e-9), "the run ends on t_end");
        for corner in [1e-9, 1.5e-9].into_iter().chain(d_corners) {
            if corner < 5e-9 {
                assert!(times.contains(&corner), "no step lands on {corner}");
            }
        }
        let min_h = accepted
            .iter()
            .map(|&(_, h)| h)
            .fold(f64::INFINITY, f64::min);
        assert!(min_h > 0.0, "smallest step {min_h}");
    }

    #[test]
    fn a_run_with_no_corners_grows_its_step_to_the_cap() {
        // A held charge on a capacitor changes only through gmin: the
        // error estimate stays far under budget and each step doubles the
        // last, up to 40·dt.
        let mut circuit = MnaCircuit::new();
        circuit.add_capacitor("A", "GND", Femtofarads(50.0));
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0));
        let tr = MnaTransient::new(20e-9).with_initial("A", Volts(1.0));
        let accepted = accepted_steps(&tr, &circuit, &stim);
        let cap = 40.0 * tr.dt;
        let largest = accepted.iter().map(|&(_, h)| h).fold(0.0, f64::max);
        assert_eq!(largest, cap);
        // 20 ns is about 100 steps at the cap, plus the climb to it.
        assert!(accepted.len() < 120, "{} steps", accepted.len());
    }

    #[test]
    fn a_huge_run_fails_its_first_step_instead_of_reserving_every_sample() {
        // 5e6 s is 1e18 steps of 5 ps: the traces were once reserved for
        // 5e17 samples up front, which aborted the process. With Newton
        // capped at zero iterations the first step must fail as an error.
        let mut c = MnaCircuit::new();
        c.add_resistor("A", "GND", 1e3);
        let tr = MnaTransient {
            max_newton: 0,
            ..MnaTransient::new(5e6)
        };
        assert_eq!(
            tr.run(&c, &Stimulus::new()).unwrap_err(),
            SimError::NoConvergence {
                time_s: 5e-12,
                iterations: 0,
                worst_delta_v: f64::INFINITY,
            }
        );
    }

    #[test]
    fn resistor_divider_settles_to_half() {
        let mut c = MnaCircuit::new();
        c.add_resistor("IN", "MID", 1000.0);
        c.add_resistor("MID", "GND", 1000.0);
        let mut stim = Stimulus::new();
        stim.hold("IN", Volts(1.0)).hold("GND", Volts(0.0));
        let run = MnaTransient::new(1e-9).run(&c, &stim).unwrap();
        let v = run.waveforms.final_voltage("MID").unwrap();
        assert!((v - 0.5).abs() < 1e-6, "divider mid = {v}");
        assert!(run.stats.worst_kcl_residual_amps < 1e-9);
    }

    #[test]
    fn rc_discharge_matches_analytic_solution() {
        // 100 fF through 10 kΩ from 1 V: v(t) = exp(−t/RC), RC = 1 ns. A
        // 10 ps recording interval is not a whole number of 3 ps or 4 ps
        // steps: samples then land every 3 steps, and trace times must
        // follow that 9 ps / 12 ps grid.
        let mut c = MnaCircuit::new();
        c.add_resistor("A", "GND", 10_000.0);
        c.add_capacitor("A", "GND", Femtofarads(100.0));
        let c = c.with_parasitic(Femtofarads(0.0));
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0));
        for (dt, interval, tol) in [
            (1e-12, 10e-12, 2e-3),
            (3e-12, 9e-12, 3e-3),
            (4e-12, 12e-12, 3e-3),
        ] {
            let mut tr = MnaTransient::new(2e-9).with_initial("A", Volts(1.0));
            tr.dt = dt;
            let wf = tr.run(&c, &stim).unwrap().waveforms;
            assert!((wf.sample_interval() - interval).abs() < 1e-24, "dt {dt}");
            for (i, v) in wf.trace("A").unwrap().iter().enumerate() {
                let exact = (-(i as f64) * wf.sample_interval() / 1e-9).exp();
                assert!((v - exact).abs() < 1.5e-3, "dt {dt}: sample {i} = {v}");
            }
            let v = wf.voltage("A", 1e-9).unwrap();
            assert!((v - (-1.0f64).exp()).abs() < tol, "dt {dt}: v(RC) = {v}");
        }
    }

    #[test]
    fn nmos_discharge_matches_closed_form() {
        // A W/L = 1 NMOS with its gate at 1.2 V discharges 200 fF (plus the
        // default parasitic) from 1.1 V. Square-law physics: a constant
        // saturation current ramps the node down to V_ov = 1.2 − VT_N, then
        // the triode ODE C·dv/dt = −β(V_ov·v − v²/2) gives
        // v(t) = 2·V_ov / (1 + e^{β·V_ov·(t − t₁)/C}).
        let mut nl = Netlist::new("discharge");
        let cap_net = nl.add_net("C");
        let gnd = nl.add_net("GND");
        let gate = nl.add_net("G");
        nl.add_capacitor("c", Femtofarads(200.0), cap_net, gnd);
        nl.add_mosfet(
            "sw",
            Polarity::Nmos,
            TransistorClass::Access,
            dims(1.0),
            gate,
            gnd,
            cap_net,
        );
        let circuit = MnaCircuit::from_netlist(&nl);
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0)).hold("G", Volts(1.2));

        let (v0, c) = (1.1, (200.0 + MnaCircuit::DEFAULT_PARASITIC.value()) * 1e-15);
        let beta = MosfetModel::KP; // KP·W/L with W/L = 1
        let v_ov = 1.2 - MosfetModel::VT_N;
        let i_sat = 0.5 * beta * v_ov * v_ov;
        let t1 = (v0 - v_ov) * c / i_sat;
        let exact = |t: f64| {
            if t <= t1 {
                v0 - i_sat * t / c
            } else {
                2.0 * v_ov / (1.0 + (beta * v_ov * (t - t1) / c).exp())
            }
        };
        let worst_error = |dt: f64| {
            let mut tr = MnaTransient::new(5e-9).with_initial("C", Volts(v0));
            tr.dt = dt;
            let wf = tr.run(&circuit, &stim).unwrap().waveforms;
            let trace = wf.trace("C").unwrap();
            assert_eq!(trace.len(), 501, "5 ns at a 10 ps sample interval");
            trace
                .iter()
                .enumerate()
                .map(|(i, v)| (v - exact(i as f64 * wf.sample_interval())).abs())
                .fold(0.0f64, f64::max)
        };
        let errors = [5e-12, 2.5e-12, 1.25e-12].map(worst_error);
        assert!(errors[0] < 1e-3, "worst error at 5 ps: {} V", errors[0]);
        for w in errors.windows(2) {
            assert!(
                w[0] >= 1.8 * w[1],
                "halving dt must halve the error (first order): {errors:?}"
            );
        }
    }

    #[test]
    fn switch_off_holds_charge() {
        let mut nl = Netlist::new("hold");
        let cap_net = nl.add_net("C");
        let gnd = nl.add_net("GND");
        let gate = nl.add_net("G");
        nl.add_capacitor("c", Femtofarads(50.0), cap_net, gnd);
        nl.add_mosfet(
            "sw",
            Polarity::Nmos,
            TransistorClass::Access,
            dims(4.0),
            gate,
            gnd,
            cap_net,
        );
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0)).hold("G", Volts(0.0)); // gate off
        let run = MnaTransient::new(5e-9)
            .with_initial("C", Volts(1.0))
            .run(&MnaCircuit::from_netlist(&nl), &stim)
            .unwrap();
        // Only the gmin leak moves the node: 1 pA for 5 ns on 50.5 fF.
        assert!((run.waveforms.final_voltage("C").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn charge_sharing_matches_capacitor_divider() {
        // 20 fF cell at 1.1 V dumped onto a 180 fF bitline precharged to 0.55 V:
        // final = (20*1.1 + 180*0.55)/200 = 0.605 V.
        let mut nl = Netlist::new("cs");
        let bl = nl.add_net("BL");
        let sn = nl.add_net("SN");
        let gnd = nl.add_net("GND");
        let wl = nl.add_net("WL");
        nl.add_capacitor("cbl", Femtofarads(180.0), bl, gnd);
        nl.add_capacitor("cs", Femtofarads(20.0), sn, gnd);
        nl.add_mosfet(
            "acc",
            Polarity::Nmos,
            TransistorClass::Access,
            dims(2.0),
            wl,
            sn,
            bl,
        );
        let circuit = MnaCircuit::from_netlist(&nl).with_parasitic(Femtofarads(0.001));
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0));
        stim.ramp("WL", 1e-9, 1.5e-9, 0.0, 2.4); // boosted wordline
        let wf = MnaTransient::new(20e-9)
            .with_initial("BL", Volts(0.55))
            .with_initial("SN", Volts(1.1))
            .run(&circuit, &stim)
            .unwrap()
            .waveforms;
        let v = wf.final_voltage("BL").unwrap();
        assert!((v - 0.605).abs() < 1e-3, "charge sharing gave {v}");
        // Cell node equalises with the bitline.
        let vs = wf.final_voltage("SN").unwrap();
        assert!((vs - v).abs() < 1e-3);
    }

    #[test]
    fn unknown_net_and_device_errors() {
        let mut c = MnaCircuit::new();
        c.add_resistor("A", "GND", 1000.0);
        let mut stim = Stimulus::new();
        stim.hold("NOPE", Volts(0.0));
        let err = MnaTransient::new(1e-9).run(&c, &stim).unwrap_err();
        assert_eq!(err, SimError::UnknownNet("NOPE".into()));
        let err = c.clone().with_vt_offset("m?", Volts(0.01)).unwrap_err();
        assert_eq!(err, SimError::UnknownDevice("m?".into()));
    }

    #[test]
    fn invalid_timestep_names_the_offending_value() {
        // One node, so an unchecked step count fails fast sizing its trace.
        let mut c = MnaCircuit::new();
        c.add_resistor("A", "GND", 1e3);
        let stim = Stimulus::new();
        let err = |tr: MnaTransient| tr.run(&c, &stim).unwrap_err();
        let mut tr = MnaTransient::new(1e-9);
        tr.dt = -2e-12;
        assert_eq!(err(tr), SimError::InvalidTimestep(-2e-12));
        assert_eq!(
            err(MnaTransient::new(-1e-9)),
            SimError::InvalidTimestep(-1e-9)
        );
        let mut tr = MnaTransient::new(1e-9);
        tr.dt_sample = 0.0;
        assert_eq!(err(tr), SimError::InvalidTimestep(0.0));

        // Infinities in any field, and step counts past `usize::MAX` (2e21
        // steps of 5 ps), are rejected rather than run.
        let inf = f64::INFINITY;
        for (dt, t_end, dt_sample, bad) in [
            (inf, 1e-9, 1e-11, inf),
            (5e-12, inf, 1e-11, inf),
            (5e-12, 1e-9, inf, inf),
            (5e-12, inf, 5e-12, inf),
            (5e-12, 1e10, 1e-11, 1e10),
        ] {
            let mut tr = MnaTransient::new(t_end);
            (tr.dt, tr.dt_sample) = (dt, dt_sample);
            assert_eq!(err(tr), SimError::InvalidTimestep(bad));
        }
    }
}
