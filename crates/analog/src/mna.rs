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
//! with `−J_FD·Δv_D` folded into its right-hand side, and each branch
//! current update then follows from its driven node's KCL row
//! (`Δi_B = −r_D − J_D·Δv`). That is the full system's Newton step, with
//! the rows whose answer is known eliminated by hand. The Jacobian is
//! analytic: its linear part (gmin, the parasitic and capacitor companions
//! at the fixed step, resistors) is stamped once per run, and each
//! iteration adds the MOSFETs' closed-form square-law partials
//! ([`MosfetModel::channel_current_with_partials`]). After every step a
//! residual-only pass audits KCL on every node row, driven rows included.
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
    /// Timesteps solved.
    pub steps: usize,
    /// Newton iterations summed over all steps.
    pub newton_iterations: usize,
    /// Worst per-step Newton iteration count.
    pub max_newton_iterations: usize,
    /// Largest KCL residual (A) observed at any accepted solution point —
    /// the property tests pin this to essentially machine precision.
    pub worst_kcl_residual_amps: f64,
}

/// Result of an MNA transient: sampled waveforms plus solver diagnostics.
#[derive(Debug, Clone)]
pub struct MnaRun {
    /// Recorded node voltages, sampled every `round(dt_sample / dt)` steps.
    pub waveforms: Waveforms,
    /// Solver diagnostics.
    pub stats: SolveStats,
}

/// Backward-Euler transient configuration for [`MnaCircuit`].
#[derive(Debug, Clone)]
pub struct MnaTransient {
    /// Integration timestep (s). Default 5 ps; backward Euler is
    /// unconditionally stable, and its error halves with the step.
    pub dt: f64,
    /// Simulation duration (s).
    pub t_end: f64,
    /// Requested recording interval (s). Default 10 ps. Samples land every
    /// `round(dt_sample / dt)` steps (at least one), and
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
    /// Returns [`SimError::InvalidTimestep`] / [`SimError::UnknownNet`] for
    /// bad configuration, [`SimError::NoConvergence`] when Newton iteration
    /// stalls, and [`SimError::SingularSystem`] when the linearised system
    /// has no usable pivot.
    pub fn run(&self, circuit: &MnaCircuit, stimulus: &Stimulus) -> Result<MnaRun, SimError> {
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if let Some(&bad) = [self.dt, self.t_end, self.dt_sample]
            .iter()
            .find(|&&x| !positive(x))
        {
            return Err(SimError::InvalidTimestep(bad));
        }
        let n_nodes = circuit.node_names.len();

        // Driven nets become voltage-source branches, in sorted-name order
        // so the unknown layout is deterministic.
        let mut sources: Vec<(usize, &Waveform)> = Vec::new();
        let mut driven_names: Vec<&str> = stimulus.driven_nets().collect();
        driven_names.sort_unstable();
        for name in driven_names {
            let idx = circuit
                .node_index(name)
                .ok_or_else(|| SimError::UnknownNet(name.into()))?;
            sources.push((idx, stimulus.waveform(name).expect("driven net")));
        }
        for name in self.initial.keys() {
            if circuit.node_index(name).is_none() {
                return Err(SimError::UnknownNet(name.clone()));
            }
        }
        let mut sys = NodeSystem::new(
            circuit,
            self.dt,
            sources.iter().map(|&(idx, _)| idx).collect(),
        );

        // Unknowns: node voltages, then one current per source branch.
        let n = n_nodes + sources.len();
        let mut x = vec![0.0f64; n];
        for &(idx, wf) in &sources {
            x[idx] = wf.value(0.0);
        }
        for (name, &v) in &self.initial {
            let idx = circuit.node_index(name).expect("validated above");
            if !sys.driven.contains(&idx) {
                x[idx] = v;
            }
        }

        let steps = (self.t_end / self.dt).ceil() as usize;
        let sample_every = (self.dt_sample / self.dt).round().max(1.0) as usize;
        let mut traces: Vec<Vec<f64>> = (0..n_nodes)
            .map(|_| Vec::with_capacity(steps / sample_every + 2))
            .collect();

        let mut stats = SolveStats::default();
        let mut dx = vec![0.0f64; n];
        let mut targets = vec![0.0f64; sources.len()];
        let mut v_prev = x[..n_nodes].to_vec();

        for step in 0..=steps {
            if step % sample_every == 0 {
                for (trace, &v) in traces.iter_mut().zip(&x) {
                    trace.push(v);
                }
            }
            if step == steps {
                break;
            }
            let t_next = (step + 1) as f64 * self.dt;
            v_prev.copy_from_slice(&x[..n_nodes]);
            for (target, &(_, wf)) in targets.iter_mut().zip(&sources) {
                *target = wf.value(t_next);
            }

            let mut converged = false;
            let mut worst_dv = f64::INFINITY;
            let mut iters = 0usize;
            while iters < self.max_newton {
                iters += 1;
                sys.assemble(&x, &v_prev);
                sys.newton_step(&x, &targets, &mut dx)
                    .ok_or(SimError::SingularSystem { time_s: t_next })?;
                worst_dv = dx[..n_nodes].iter().fold(0.0f64, |m, d| m.max(d.abs()));
                let scale = if worst_dv > self.damping_v {
                    self.damping_v / worst_dv
                } else {
                    1.0
                };
                for (xi, di) in x.iter_mut().zip(&dx) {
                    *xi += scale * di;
                }
                if worst_dv < self.tol_v {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SimError::NoConvergence {
                    time_s: t_next,
                    iterations: iters,
                    worst_delta_v: worst_dv,
                });
            }
            stats.steps += 1;
            stats.newton_iterations += iters;
            stats.max_newton_iterations = stats.max_newton_iterations.max(iters);

            // KCL audit at the accepted point, over every node row.
            sys.assemble(&x, &v_prev);
            let worst = sys.res.iter().fold(0.0f64, |m, r| m.max(r.abs()));
            stats.worst_kcl_residual_amps = stats.worst_kcl_residual_amps.max(worst);
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
}

/// One run's Newton system over the node voltages, with the source branch
/// rows eliminated by hand (see the module docs).
struct NodeSystem<'a> {
    circuit: &'a MnaCircuit,
    dt: f64,
    /// Node count: `linear` and `jac` are row-major `n × n`.
    n: usize,
    /// The node each source branch drives, in branch order.
    driven: Vec<usize>,
    /// The undriven nodes in index order: the rows and columns of `block`.
    free: Vec<usize>,
    /// The Jacobian's linear part — gmin, the parasitic and capacitor
    /// companions at the fixed `dt`, resistors — stamped once per run.
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
    fn new(circuit: &'a MnaCircuit, dt: f64, driven: Vec<usize>) -> Self {
        let n = circuit.node_names.len();
        let free: Vec<usize> = (0..n).filter(|i| !driven.contains(i)).collect();
        let mut linear = vec![0.0; n * n];
        let g_node = circuit.gmin_siemens + circuit.parasitic_f / dt;
        for i in 0..n {
            linear[i * n + i] += g_node;
        }
        for e in &circuit.elements {
            let (a, b, g) = match *e {
                Element::Resistor { a, b, siemens } => (a, b, siemens),
                Element::Capacitor { a, b, farads } => (a, b, farads / dt),
                Element::Mosfet(_) => continue,
            };
            for (row, col, v) in [(a, a, g), (a, b, -g), (b, b, g), (b, a, -g)] {
                linear[row * n + col] += v;
            }
        }
        Self {
            circuit,
            dt,
            n,
            driven,
            block: MnaSystem::new(free.len()),
            free,
            jac: linear.clone(),
            linear,
            res: vec![0.0; n],
        }
    }

    /// Evaluates `res` and `jac` at `x` (node voltages, then branch
    /// currents); `v_prev` holds the node voltages of the last accepted
    /// step.
    fn assemble(&mut self, x: &[f64], v_prev: &[f64]) {
        let (n, circuit, dt) = (self.n, self.circuit, self.dt);
        let (res, jac) = (&mut self.res, &mut self.jac);
        jac.copy_from_slice(&self.linear);
        let geq_par = circuit.parasitic_f / dt;
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
                    let geq = farads / dt;
                    let i = geq * ((x[*a] - x[*b]) - (v_prev[*a] - v_prev[*b]));
                    res[*a] += i;
                    res[*b] -= i;
                }
                Element::Mosfet(m) => {
                    let (i_ds, partials) =
                        m.model
                            .channel_current_with_partials(x[m.gate], x[m.source], x[m.drain]);
                    // Positive i_ds flows drain→source through the channel,
                    // i.e. leaves the drain node and enters the source node.
                    res[m.drain] += i_ds;
                    res[m.source] -= i_ds;
                    for (col, p) in [m.gate, m.source, m.drain].into_iter().zip(partials) {
                        jac[m.drain * n + col] += p;
                        jac[m.source * n + col] -= p;
                    }
                }
            }
        }
        // Each branch current leaves its driven node.
        for (k, &d) in self.driven.iter().enumerate() {
            res[d] += x[n + k];
        }
    }

    /// Solves the Newton step at the last assembled point into `dx` (node
    /// voltages, then branch currents), each source branch pinning its
    /// node to its `targets` entry. `None` when the free-node block has no
    /// usable pivot.
    fn newton_step(&mut self, x: &[f64], targets: &[f64], dx: &mut [f64]) -> Option<()> {
        let n = self.n;
        // Branch rows: v_D + Δv_D = wf(t).
        for (&d, &target) in self.driven.iter().zip(targets) {
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
        // Driven rows: J_D·Δv + Δi_B = −r_D.
        let (dv, di) = dx.split_at_mut(n);
        for (&d, di) in self.driven.iter().zip(di) {
            let jac_row = &self.jac[d * n..(d + 1) * n];
            *di = jac_row
                .iter()
                .zip(&*dv)
                .fold(-self.res[d], |acc, (j, v)| acc - j * v);
        }
        Some(())
    }
}

/// The full-MNA engine this module's free-node solve replaced, kept as the
/// reference the reduced engine is tested against: every node voltage and
/// every source branch current is an unknown of one dense system, and the
/// MOSFET Jacobian comes from central finite differences.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Element, MnaCircuit, MnaRun, MnaTransient, SolveStats};
    use crate::sim::{SimError, Stimulus, Waveform, Waveforms};
    use crate::stamp::MnaSystem;
    use std::collections::HashMap;

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
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if let Some(&bad) = [tr.dt, tr.t_end, tr.dt_sample]
            .iter()
            .find(|&&x| !positive(x))
        {
            return Err(SimError::InvalidTimestep(bad));
        }
        let n_nodes = circuit.node_names.len();

        let mut sources: Vec<(usize, &Waveform)> = Vec::new();
        let mut driven_names: Vec<&str> = stimulus.driven_nets().collect();
        driven_names.sort_unstable();
        for name in driven_names {
            let idx = circuit
                .node_index(name)
                .ok_or_else(|| SimError::UnknownNet(name.into()))?;
            sources.push((idx, stimulus.waveform(name).expect("driven net")));
        }
        for name in tr.initial.keys() {
            if circuit.node_index(name).is_none() {
                return Err(SimError::UnknownNet(name.clone()));
            }
        }
        let driven: Vec<bool> = {
            let mut d = vec![false; n_nodes];
            for &(idx, _) in &sources {
                d[idx] = true;
            }
            d
        };

        let n = n_nodes + sources.len();
        let mut x = vec![0.0f64; n];
        for (k, &(idx, wf)) in sources.iter().enumerate() {
            x[idx] = wf.value(0.0);
            x[n_nodes + k] = 0.0;
        }
        for (name, &v) in &tr.initial {
            let idx = circuit.node_index(name).expect("validated above");
            if !driven[idx] {
                x[idx] = v;
            }
        }

        let steps = (tr.t_end / tr.dt).ceil() as usize;
        let sample_every = (tr.dt_sample / tr.dt).round().max(1.0) as usize;
        let mut traces: HashMap<String, Vec<f64>> = circuit
            .node_names
            .iter()
            .map(|nm| (nm.clone(), Vec::with_capacity(steps / sample_every + 2)))
            .collect();

        let mut stats = SolveStats::default();
        let mut sys = MnaSystem::new(n);
        let mut residual = vec![0.0f64; n];
        let mut v_prev = x[..n_nodes].to_vec();

        for step in 0..=steps {
            if step % sample_every == 0 {
                for (i, nm) in circuit.node_names.iter().enumerate() {
                    traces.get_mut(nm).expect("trace").push(x[i]);
                }
            }
            if step == steps {
                break;
            }
            let t_next = (step + 1) as f64 * tr.dt;
            v_prev.copy_from_slice(&x[..n_nodes]);

            let mut converged = false;
            let mut worst_dv = f64::INFINITY;
            let mut iters = 0usize;
            while iters < tr.max_newton {
                iters += 1;
                assemble(tr, circuit, &sources, &v_prev, &x, t_next, &mut sys, None);
                let Some(dx) = sys.solve() else {
                    return Err(SimError::SingularSystem { time_s: t_next });
                };
                worst_dv = dx[..n_nodes].iter().fold(0.0f64, |m, d| m.max(d.abs()));
                let scale = if worst_dv > tr.damping_v {
                    tr.damping_v / worst_dv
                } else {
                    1.0
                };
                for (xi, di) in x.iter_mut().zip(dx) {
                    *xi += scale * di;
                }
                if worst_dv < tr.tol_v {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SimError::NoConvergence {
                    time_s: t_next,
                    iterations: iters,
                    worst_delta_v: worst_dv,
                });
            }
            stats.steps += 1;
            stats.newton_iterations += iters;
            stats.max_newton_iterations = stats.max_newton_iterations.max(iters);

            // KCL audit at the accepted point: residual-only pass.
            assemble(
                tr,
                circuit,
                &sources,
                &v_prev,
                &x,
                t_next,
                &mut sys,
                Some(&mut residual),
            );
            let worst = residual[..n_nodes]
                .iter()
                .fold(0.0f64, |m, r| m.max(r.abs()));
            stats.worst_kcl_residual_amps = stats.worst_kcl_residual_amps.max(worst);
        }

        Ok(MnaRun {
            waveforms: Waveforms {
                dt_sample: sample_every as f64 * tr.dt,
                traces,
            },
            stats,
        })
    }

    /// Assembles the Newton system at the guess `x`: Jacobian into the
    /// matrix and `−residual` into the right-hand side, so `solve()` yields
    /// the update `Δx`. With `residual_out` set, only the residual vector is
    /// produced (used for the post-convergence KCL audit).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        tr: &MnaTransient,
        circuit: &MnaCircuit,
        sources: &[(usize, &Waveform)],
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

        let geq_par = circuit.parasitic_f / tr.dt;
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
                    let geq = farads / tr.dt;
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
                        let h = DERIV_STEP_V;
                        let di = |vg2: f64, vs2: f64, vd2: f64| {
                            (m.model.channel_current(vg2, vs2, vd2)
                                - m.model.channel_current(
                                    2.0 * vg - vg2,
                                    2.0 * vs - vs2,
                                    2.0 * vd - vd2,
                                ))
                                / (2.0 * h)
                        };
                        let (d, s, g) = (m.drain, m.source, m.gate);
                        for (col, dgdv) in [
                            (g, di(vg + h, vs, vd)),
                            (s, di(vg, vs + h, vd)),
                            (d, di(vg, vs, vd + h)),
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

    fn dims(w_over_l: f64) -> TransistorDims {
        TransistorDims::new(Nanometers(100.0 * w_over_l), Nanometers(100.0))
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
        let c = MnaCircuit::new();
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
    }
}
