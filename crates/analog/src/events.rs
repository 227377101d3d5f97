//! Sense-amplifier operation sequences and sensing experiments.
//!
//! Implements the event schedules of Fig. 2c (classic) and Fig. 9b (OCSA):
//!
//! | Classic (Fig. 2c)            | OCSA (Fig. 9b)                       |
//! |------------------------------|--------------------------------------|
//! | precharge/equalise (PEQ)     | precharge (PRE, with ISO+OC for EQ)  |
//! | ① charge sharing             | ① offset cancellation                |
//! | ② latching & restore         | ② charge sharing (*delayed*, §VI-D)  |
//! | ③ precharge                  | ③ pre-sensing (no bitline load)      |
//! |                              | ④ restore (ISO on), then precharge   |
//!
//! The schedules are pure stimulus descriptions executed by the MNA engine
//! ([`crate::mna`]). Control nets are located by **role inference**
//! ([`SaRoles::infer`]) rather than by name, so the same schedules drive
//! hand-built topologies and netlists recovered by `hifi_extract` through
//! one activation path — the closed loop the paper's §VI-A argues for: a
//! wrong extraction shows up as a wrong waveform, not just a wrong graph.
//!
//! The testbench hangs a one-cell MAT column off the inferred `BL` (the
//! activated MAT) and a dummy column off `BLB` (the reference MAT of the
//! open-bitline scheme), injects threshold mismatch into a latch transistor,
//! and reports whether the amplifier latched the right value.

use crate::mna::{MnaCircuit, MnaRun, MnaTransient, SolveStats};
use crate::sim::{SimError, Stimulus, Waveforms};
use hifi_circuit::topology::{self, SaDimensions, SaTopologyKind};
use hifi_circuit::{Mosfet, NetId, Netlist, TransistorClass, TransistorDims};
use hifi_units::{Femtofarads, Nanometers, Volts};

/// Phase durations for an activation, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTimings {
    /// Initial precharge hold before the row activation.
    pub precharge_ns: f64,
    /// OCSA offset-cancellation phase (ignored by the classic schedule).
    pub offset_cancel_ns: f64,
    /// Charge-sharing window between wordline rise and latch enable.
    pub charge_share_ns: f64,
    /// Latch/pre-sense amplification window.
    pub sense_ns: f64,
    /// Restore window (full-rail drive back into the cell).
    pub restore_ns: f64,
    /// Final precharge/equalise window.
    pub final_precharge_ns: f64,
    /// Control-signal slew time.
    pub slew_ns: f64,
}

impl Default for PhaseTimings {
    fn default() -> Self {
        Self {
            precharge_ns: 2.0,
            offset_cancel_ns: 4.0,
            charge_share_ns: 4.0,
            sense_ns: 4.0,
            restore_ns: 12.0,
            final_precharge_ns: 6.0,
            slew_ns: 0.5,
        }
    }
}

/// Testbench configuration for an activation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationConfig {
    /// Array rail voltage (V). DDR4 cores run ≈1.1–1.2 V.
    pub vdd: f64,
    /// Bitline precharge reference (V), typically `vdd/2`.
    pub vpre: f64,
    /// Boosted wordline / pass-gate level (V).
    pub v_boost: f64,
    /// Cell capacitance (fF).
    pub c_cell_ff: f64,
    /// Bitline capacitance (fF). The default (180 fF) yields a ~50 mV
    /// charge-sharing signal, typical of long modern bitlines.
    pub c_bitline_ff: f64,
    /// Threshold mismatch injected into the left nSA latch transistor (V).
    /// Negative values make it conduct early — the failure direction for a
    /// stored 1.
    pub nsa_vt_offset: f64,
    /// Transistor dimensions used to instantiate the topology.
    pub dims: SaDimensions,
    /// Phase durations.
    pub timings: PhaseTimings,
}

impl Default for ActivationConfig {
    fn default() -> Self {
        Self {
            vdd: 1.1,
            vpre: 0.55,
            v_boost: 2.4,
            c_cell_ff: 18.0,
            c_bitline_ff: 180.0,
            nsa_vt_offset: 0.0,
            dims: SaDimensions::default(),
            timings: PhaseTimings::default(),
        }
    }
}

/// Outcome of one simulated activation.
#[derive(Debug, Clone)]
pub struct SenseReport {
    /// All recorded node waveforms.
    pub waveforms: Waveforms,
    /// The value the latch settled on.
    pub sensed_one: bool,
    /// Whether the sensed value matches the stored value.
    pub correct: bool,
    /// Time (s) at which the cell's storage node first moved — the onset of
    /// charge sharing. In OCSA schedules this is *delayed* by the
    /// offset-cancellation phase (Section VI-D).
    pub charge_sharing_onset: Option<f64>,
    /// Time (s) at which the latch nodes split by ≥ half a rail.
    pub latch_split_time: Option<f64>,
    /// Final cell storage-node voltage after restore (V).
    pub restored_level: f64,
    /// The topology simulated.
    pub topology: SaTopologyKind,
    /// Solver diagnostics of the MNA run. Always `Some`.
    pub solve_stats: Option<SolveStats>,
}

/// The functional roles of a sense amplifier's nets and devices, inferred
/// from a classified netlist.
///
/// The extractor names nets `n17` and devices `m4`; the activation
/// schedules need to know which of those is the bitline, the latch rail or
/// the precharge gate. This structure is that mapping. Side `l` is the side
/// whose latch sense node has the smaller [`NetId`] — an arbitrary but
/// deterministic orientation; the active MAT column always attaches to
/// [`SaRoles::bl`].
#[derive(Debug, Clone, PartialEq)]
pub struct SaRoles {
    /// Topology family implied by the device classes present.
    pub kind: SaTopologyKind,
    /// Bitline carrying the activated MAT column.
    pub bl: String,
    /// Reference bitline (never-activated MAT).
    pub blb: String,
    /// Latch sense node on the `bl` side (`BL` itself for the classic SA,
    /// `SABL`/`IBL` for topologies that decouple the latch).
    pub sense_l: String,
    /// Latch sense node on the `blb` side.
    pub sense_r: String,
    /// pSA latch rail (driven high to sense).
    pub la: String,
    /// nSA latch rail (driven low to sense).
    pub lab: String,
    /// Precharge reference net (Vdd/2 supply).
    pub vpre: String,
    /// Gate net shared by the precharge devices (`PEQ`/`PRE`).
    pub precharge_gate: String,
    /// Gate net of the isolation devices, when present.
    pub iso_gate: Option<String>,
    /// Gate net of the offset-cancellation devices, when present.
    pub oc_gate: Option<String>,
    /// Gate net of the column-select devices, when present and unanimous.
    pub column_gate: Option<String>,
    /// The `bl`-side nSA latch transistor — where
    /// [`ActivationConfig::nsa_vt_offset`] is injected.
    pub offset_device: String,
}

impl SaRoles {
    /// The roles of a freshly built canonical topology (all named nets).
    ///
    /// # Panics
    ///
    /// Panics only if the workspace topology builders are inconsistent.
    pub fn canonical(kind: SaTopologyKind) -> Self {
        Self::infer(&canonical_netlist(kind, SaDimensions::default()))
            .expect("canonical topologies have well-defined roles")
    }

    /// Infers the roles from any classified netlist (hand-built or
    /// extracted).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoleInference`] when the netlist does not
    /// describe a recognisable single sense amplifier — wrong device-class
    /// counts, a latch that is not cross-coupled, missing ISO/OC paths.
    pub fn infer(nl: &Netlist) -> Result<Self, SimError> {
        let fail = |why: String| Err(SimError::RoleInference(why));
        let name = |id: NetId| nl.net_name(id).to_owned();

        let nsa: Vec<&Mosfet> = nl.mosfets_of_class(TransistorClass::NSa).collect();
        let psa: Vec<&Mosfet> = nl.mosfets_of_class(TransistorClass::PSa).collect();
        if nsa.len() != 2 || psa.len() != 2 {
            return fail(format!(
                "expected 2 nSA and 2 pSA latch devices, found {} and {}",
                nsa.len(),
                psa.len()
            ));
        }
        let shared_channel = |a: &Mosfet, b: &Mosfet| -> Option<NetId> {
            [a.source, a.drain]
                .into_iter()
                .find(|t| *t == b.source || *t == b.drain)
        };
        let other_channel = |m: &Mosfet, not: NetId| -> NetId {
            if m.source == not {
                m.drain
            } else {
                m.source
            }
        };
        let Some(lab) = shared_channel(nsa[0], nsa[1]) else {
            return fail("nSA latch devices share no tail rail".into());
        };
        let Some(la) = shared_channel(psa[0], psa[1]) else {
            return fail("pSA latch devices share no tail rail".into());
        };
        let n_sense = (other_channel(nsa[0], lab), other_channel(nsa[1], lab));
        if n_sense.0 == n_sense.1 {
            return fail("nSA latch devices collapse onto one sense node".into());
        }
        let p_sense = [other_channel(psa[0], la), other_channel(psa[1], la)];
        if !(p_sense.contains(&n_sense.0) && p_sense.contains(&n_sense.1)) {
            return fail("pSA and nSA halves sense different node pairs".into());
        }
        // Deterministic orientation: side l owns the smaller sense NetId.
        let (nsa_l, nsa_r) = if n_sense.0 .0 <= n_sense.1 .0 {
            (nsa[0], nsa[1])
        } else {
            (nsa[1], nsa[0])
        };
        let sense_l = other_channel(nsa_l, lab);
        let sense_r = other_channel(nsa_r, lab);

        let iso: Vec<&Mosfet> = nl.mosfets_of_class(TransistorClass::Isolation).collect();
        let oc: Vec<&Mosfet> = nl.mosfets_of_class(TransistorClass::OffsetCancel).collect();
        if !matches!(iso.len(), 0 | 2) || !matches!(oc.len(), 0 | 2) {
            return fail(format!(
                "expected 0 or 2 isolation/offset-cancel devices, found {} and {}",
                iso.len(),
                oc.len()
            ));
        }
        let common_gate = |devices: &[&Mosfet]| -> Option<NetId> {
            let g = devices.first()?.gate;
            devices.iter().all(|m| m.gate == g).then_some(g)
        };
        // The device of `class` whose channel touches `node`; its far
        // terminal tells us what the node connects onward to.
        let attached_via = |devices: &[&Mosfet], node: NetId| -> Option<NetId> {
            devices
                .iter()
                .find(|m| m.source == node || m.drain == node)
                .map(|m| other_channel(m, node))
        };

        let gates_on_sense = nsa_l.gate == sense_r && nsa_r.gate == sense_l;
        let (kind, bl, blb) = if gates_on_sense {
            if iso.len() == 2 {
                // Research-style isolation: the whole latch sits behind ISO.
                let Some(bl) = attached_via(&iso, sense_l) else {
                    return fail("no isolation device reaches the left sense node".into());
                };
                let Some(blb) = attached_via(&iso, sense_r) else {
                    return fail("no isolation device reaches the right sense node".into());
                };
                (SaTopologyKind::ClassicWithIsolation, bl, blb)
            } else {
                (SaTopologyKind::Classic, sense_l, sense_r)
            }
        } else {
            // Latch gates leave the sense nodes: offset-cancellation SA.
            if iso.len() != 2 || oc.len() != 2 {
                return fail(
                    "latch gates are off the sense nodes but no ISO/OC device pair exists".into(),
                );
            }
            let Some(bl) = attached_via(&iso, sense_l) else {
                return fail("no isolation device reaches the left sense node".into());
            };
            let Some(blb) = attached_via(&iso, sense_r) else {
                return fail("no isolation device reaches the right sense node".into());
            };
            if nsa_l.gate != blb || nsa_r.gate != bl {
                return fail("latch gates are not cross-coupled to the bitlines".into());
            }
            if attached_via(&oc, sense_l) != Some(blb) || attached_via(&oc, sense_r) != Some(bl) {
                return fail("offset-cancel devices do not reach the opposite bitlines".into());
            }
            (SaTopologyKind::OffsetCancellation, bl, blb)
        };

        let pre: Vec<&Mosfet> = nl.mosfets_of_class(TransistorClass::Precharge).collect();
        if pre.len() != 2 {
            return fail(format!("expected 2 precharge devices, found {}", pre.len()));
        }
        let Some(precharge_gate) = common_gate(&pre) else {
            return fail("precharge devices do not share a gate".into());
        };
        let Some(vpre) = shared_channel(pre[0], pre[1]) else {
            return fail("precharge devices share no reference net".into());
        };

        let cols: Vec<&Mosfet> = nl.mosfets_of_class(TransistorClass::Column).collect();
        Ok(Self {
            kind,
            bl: name(bl),
            blb: name(blb),
            sense_l: name(sense_l),
            sense_r: name(sense_r),
            la: name(la),
            lab: name(lab),
            vpre: name(vpre),
            precharge_gate: name(precharge_gate),
            iso_gate: common_gate(&iso).map(name),
            oc_gate: common_gate(&oc).map(name),
            column_gate: common_gate(&cols).map(name),
            offset_device: nsa_l.name.clone(),
        })
    }
}

/// The bare netlist of a canonical topology.
fn canonical_netlist(kind: SaTopologyKind, dims: SaDimensions) -> Netlist {
    match kind {
        SaTopologyKind::Classic => topology::classic_sa(dims),
        SaTopologyKind::OffsetCancellation => topology::ocsa(dims),
        SaTopologyKind::ClassicWithIsolation => topology::classic_sa_with_isolation(dims),
    }
    .into_netlist()
}

/// Schedule landmarks shared by both topologies' stimulus programs.
struct Landmarks {
    t_restore_end: f64,
    t_end: f64,
}

/// Builds the activation stimulus program for the inferred roles: the
/// Fig. 2c events for classic-family topologies, the Fig. 9b events for the
/// OCSA.
fn schedule(roles: &SaRoles, cfg: &ActivationConfig) -> (Stimulus, Landmarks) {
    let t = &cfg.timings;
    let ns = 1e-9;
    let slew = t.slew_ns * ns;
    let t_act = t.precharge_ns * ns; // ACT command arrives here.

    let mut stim = Stimulus::new();
    stim.hold("GND", Volts(0.0));
    stim.hold(&roles.vpre, Volts(cfg.vpre));
    if let Some(y) = &roles.column_gate {
        stim.hold(y, Volts(0.0)); // column not selected during activation
    }
    stim.hold(&format!("WL0_{}", roles.blb), Volts(0.0)); // reference MAT

    let wl = format!("WL0_{}", roles.bl);
    let (t_share, t_restore_end, t_end);
    match roles.kind {
        SaTopologyKind::Classic | SaTopologyKind::ClassicWithIsolation => {
            // Charge sharing starts right after ACT.
            t_share = t_act;
            let t_sense = t_share + t.charge_share_ns * ns;
            t_restore_end = t_sense + t.sense_ns * ns + t.restore_ns * ns;
            t_end = t_restore_end + t.final_precharge_ns * ns;
            // PEQ: on during precharge, off at ACT, on again at the end.
            stim.pwl(
                &roles.precharge_gate,
                vec![
                    (0.0, cfg.v_boost),
                    (t_act, cfg.v_boost),
                    (t_act + slew, 0.0),
                    (t_restore_end, 0.0),
                    (t_restore_end + slew, cfg.v_boost),
                ],
            );
            if roles.kind == SaTopologyKind::ClassicWithIsolation {
                if let Some(iso) = &roles.iso_gate {
                    stim.hold(iso, Volts(cfg.v_boost)); // statically connected
                }
            }
            stim.pwl(
                &wl,
                vec![
                    (0.0, 0.0),
                    (t_share, 0.0),
                    (t_share + slew, cfg.v_boost),
                    (t_restore_end, cfg.v_boost),
                    (t_restore_end + slew, 0.0),
                ],
            );
            // Latch rails: parked at Vpre, driven apart during sensing,
            // re-parked for the final precharge.
            stim.pwl(
                &roles.la,
                vec![
                    (0.0, cfg.vpre),
                    (t_sense, cfg.vpre),
                    (t_sense + 2.0 * slew, cfg.vdd),
                    (t_restore_end, cfg.vdd),
                    (t_restore_end + slew, cfg.vpre),
                ],
            );
            stim.pwl(
                &roles.lab,
                vec![
                    (0.0, cfg.vpre),
                    (t_sense, cfg.vpre),
                    (t_sense + 2.0 * slew, 0.0),
                    (t_restore_end, 0.0),
                    (t_restore_end + slew, cfg.vpre),
                ],
            );
        }
        SaTopologyKind::OffsetCancellation => {
            // Fig. 9b: offset cancellation precedes charge sharing.
            let t_oc_end = t_act + t.offset_cancel_ns * ns;
            t_share = t_oc_end;
            let t_sense = t_share + t.charge_share_ns * ns;
            let t_restore = t_sense + t.sense_ns * ns;
            t_restore_end = t_restore + t.restore_ns * ns;
            t_end = t_restore_end + t.final_precharge_ns * ns;
            let iso = roles.iso_gate.as_deref().expect("ocsa roles carry ISO");
            let oc = roles.oc_gate.as_deref().expect("ocsa roles carry OC");
            // PRE: on during initial precharge and final precharge only.
            stim.pwl(
                &roles.precharge_gate,
                vec![
                    (0.0, cfg.v_boost),
                    (t_act, cfg.v_boost),
                    (t_act + slew, 0.0),
                    (t_restore_end, 0.0),
                    (t_restore_end + slew, cfg.v_boost),
                ],
            );
            // ISO: on in precharge (and for equalisation), off from ACT
            // until the restore phase reconnects the latch to the bitlines.
            stim.pwl(
                iso,
                vec![
                    (0.0, cfg.v_boost),
                    (t_act, cfg.v_boost),
                    (t_act + slew, 0.0),
                    (t_restore, 0.0),
                    (t_restore + slew, cfg.v_boost),
                ],
            );
            // OC: on during precharge (equalisation = ISO+OC) and during the
            // offset-cancellation phase.
            stim.pwl(
                oc,
                vec![
                    (0.0, cfg.v_boost),
                    (t_oc_end, cfg.v_boost),
                    (t_oc_end + slew, 0.0),
                    (t_restore_end, 0.0),
                    (t_restore_end + slew, cfg.v_boost),
                ],
            );
            // Wordline rises only after offset cancellation.
            stim.pwl(
                &wl,
                vec![
                    (0.0, 0.0),
                    (t_share, 0.0),
                    (t_share + slew, cfg.v_boost),
                    (t_restore_end, cfg.v_boost),
                    (t_restore_end + slew, 0.0),
                ],
            );
            // LAB drops at the start of offset cancellation to enable the
            // nSA diode action; LA ramps only at pre-sensing.
            stim.pwl(
                &roles.lab,
                vec![
                    (0.0, cfg.vpre),
                    (t_act, cfg.vpre),
                    (t_act + 2.0 * slew, 0.0),
                    (t_restore_end, 0.0),
                    (t_restore_end + slew, cfg.vpre),
                ],
            );
            stim.pwl(
                &roles.la,
                vec![
                    (0.0, cfg.vpre),
                    (t_sense, cfg.vpre),
                    (t_sense + 2.0 * slew, cfg.vdd),
                    (t_restore_end, cfg.vdd),
                    (t_restore_end + slew, cfg.vpre),
                ],
            );
        }
    }
    (
        stim,
        Landmarks {
            t_restore_end,
            t_end,
        },
    )
}

/// Attaches the MAT columns and internal-node parasitics to a bare SA
/// netlist, completing the activation testbench.
fn attach_testbench(nl: &mut Netlist, roles: &SaRoles, cfg: &ActivationConfig) {
    let access = TransistorDims::new(Nanometers(40.0), Nanometers(20.0));
    // Activated MAT column on BL, reference column on BLB (never activated).
    for bitline in [&roles.bl, &roles.blb] {
        topology::attach_mat_column(
            nl,
            bitline,
            1,
            Femtofarads(cfg.c_cell_ff),
            Femtofarads(cfg.c_bitline_ff),
            access,
        );
    }
    // Explicit parasitics on internal latch nodes keep integration smooth.
    for sense in [&roles.sense_l, &roles.sense_r] {
        if *sense != roles.bl && *sense != roles.blb {
            let gnd = nl.add_net("GND");
            let node = nl.net(sense).expect("sense node exists");
            nl.add_capacitor(format!("c_{sense}"), Femtofarads(8.0), node, gnd);
        }
    }
}

fn report_from(
    run: MnaRun,
    roles: &SaRoles,
    cfg: &ActivationConfig,
    stored_one: bool,
    read_time: f64,
) -> SenseReport {
    let waveforms = run.waveforms;
    // During the final precharge the latch nodes re-equalise; read the
    // decision at the end of restore instead of the end of simulation.
    let v_l = waveforms.voltage(&roles.sense_l, read_time).unwrap_or(0.0);
    let v_r = waveforms.voltage(&roles.sense_r, read_time).unwrap_or(0.0);
    let sensed_one = v_l > v_r;
    // Charge-sharing onset: first movement of the active cell node.
    let sn = format!("SN0_{}", roles.bl);
    let initial = if stored_one { cfg.vdd } else { 0.0 };
    let onset = waveforms.trace(&sn).and_then(|t| {
        t.iter()
            .position(|&v| (v - initial).abs() > 0.02)
            .map(|i| i as f64 * waveforms.sample_interval())
    });
    let split = waveforms.split_time(&roles.sense_l, &roles.sense_r, cfg.vdd / 2.0);
    let restored = waveforms.voltage(&sn, read_time).unwrap_or(f64::NAN);
    SenseReport {
        sensed_one,
        correct: sensed_one == stored_one,
        charge_sharing_onset: onset,
        latch_split_time: split,
        restored_level: restored,
        topology: roles.kind,
        solve_stats: Some(run.stats),
        waveforms,
    }
}

/// The one activation path: infers the SA roles of a bare netlist, attaches
/// the MAT-column testbench and runs the matching schedule on the MNA
/// engine.
fn activate(
    mut nl: Netlist,
    cfg: &ActivationConfig,
    stored_one: bool,
) -> Result<SenseReport, SimError> {
    let roles = SaRoles::infer(&nl)?;
    attach_testbench(&mut nl, &roles, cfg);
    let (stim, marks) = schedule(&roles, cfg);
    let mut circuit = MnaCircuit::from_netlist(&nl);
    if cfg.nsa_vt_offset != 0.0 {
        circuit = circuit.with_vt_offset(&roles.offset_device, Volts(cfg.nsa_vt_offset))?;
    }
    let stored_v = if stored_one { cfg.vdd } else { 0.0 };
    let mut tr = MnaTransient::new(marks.t_end)
        .with_initial(&roles.bl, Volts(cfg.vpre))
        .with_initial(&roles.blb, Volts(cfg.vpre))
        .with_initial(&format!("SN0_{}", roles.bl), Volts(stored_v))
        .with_initial(&format!("SN0_{}", roles.blb), Volts(0.0));
    for sense in [&roles.sense_l, &roles.sense_r] {
        if *sense != roles.bl && *sense != roles.blb {
            tr = tr.with_initial(sense, Volts(cfg.vpre));
        }
    }
    let run = tr.run(&circuit, &stim)?;
    Ok(report_from(
        run,
        &roles,
        cfg,
        stored_one,
        marks.t_restore_end,
    ))
}

/// Simulates a full classic-SA activation (Fig. 2c) for a cell storing
/// `stored_one`, returning the sensing outcome.
///
/// # Panics
///
/// Panics if the internally-built testbench is inconsistent (a bug, not a
/// user error).
pub fn simulate_classic_activation(cfg: &ActivationConfig, stored_one: bool) -> SenseReport {
    try_simulate(SaTopologyKind::Classic, cfg, stored_one).expect("internal testbench is valid")
}

/// Simulates a full OCSA activation (Fig. 9b) for a cell storing
/// `stored_one`.
///
/// # Panics
///
/// Panics if the internally-built testbench is inconsistent.
pub fn simulate_ocsa_activation(cfg: &ActivationConfig, stored_one: bool) -> SenseReport {
    try_simulate(SaTopologyKind::OffsetCancellation, cfg, stored_one)
        .expect("internal testbench is valid")
}

/// Simulates one activation of the given topology on the MNA engine.
///
/// # Errors
///
/// Returns [`SimError`] if the configuration produces an invalid testbench
/// (for example a non-positive timestep via pathological timings).
pub fn try_simulate(
    kind: SaTopologyKind,
    cfg: &ActivationConfig,
    stored_one: bool,
) -> Result<SenseReport, SimError> {
    activate(canonical_netlist(kind, cfg.dims.clone()), cfg, stored_one)
}

/// Simulates an activation of an **extracted** netlist: infers the SA roles
/// from the device classes, attaches the MAT-column testbench to the
/// inferred bitlines, and runs the matching schedule on the MNA engine.
///
/// This is the paper's closed loop (§VI-A): a `Pipeline` extraction can be
/// handed straight to the simulator, and a mis-extracted circuit fails with
/// a waveform deviation instead of only a graph mismatch.
///
/// # Errors
///
/// Returns [`SimError::RoleInference`] when the netlist is not a
/// recognisable sense amplifier, or any simulation error from the run.
pub fn simulate_extracted_activation(
    netlist: &Netlist,
    cfg: &ActivationConfig,
    stored_one: bool,
) -> Result<SenseReport, SimError> {
    activate(netlist.clone(), cfg, stored_one)
}

/// Sweeps threshold mismatch and returns the largest offset magnitude (in
/// millivolts, at `step_mv` granularity up to `max_mv`) for which the
/// topology senses **both** stored values correctly with **both** offset
/// polarities.
///
/// Classic SAs fail once the offset rivals the charge-sharing signal
/// (tens of mV); OCSAs cancel the offset and tolerate much more — the reason
/// the paper found them deployed in modern chips.
///
/// # Panics
///
/// Panics if `step_mv` is not positive or `max_mv < step_mv`.
pub fn max_tolerated_offset(
    kind: SaTopologyKind,
    cfg: &ActivationConfig,
    step_mv: f64,
    max_mv: f64,
) -> f64 {
    assert!(step_mv > 0.0 && max_mv >= step_mv, "invalid sweep bounds");
    let mut tolerated = 0.0;
    let mut offset = step_mv;
    while offset <= max_mv + 1e-9 {
        let mut all_ok = true;
        'combo: for stored in [false, true] {
            for sign in [-1.0, 1.0] {
                let mut c = cfg.clone();
                c.nsa_vt_offset = sign * offset * 1e-3;
                let rep = try_simulate(kind, &c, stored).expect("valid testbench");
                if !rep.correct {
                    all_ok = false;
                    break 'combo;
                }
            }
        }
        if !all_ok {
            break;
        }
        tolerated = offset;
        offset += step_mv;
    }
    tolerated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_senses_both_values() {
        let cfg = ActivationConfig::default();
        for stored in [false, true] {
            let rep = simulate_classic_activation(&cfg, stored);
            assert!(
                rep.correct,
                "classic failed stored={stored}: sensed_one={}",
                rep.sensed_one
            );
        }
    }

    #[test]
    fn ocsa_senses_both_values() {
        let cfg = ActivationConfig::default();
        for stored in [false, true] {
            let rep = simulate_ocsa_activation(&cfg, stored);
            assert!(
                rep.correct,
                "ocsa failed stored={stored}: sensed_one={}",
                rep.sensed_one
            );
        }
    }

    #[test]
    fn classic_restores_the_cell() {
        let cfg = ActivationConfig::default();
        let rep = simulate_classic_activation(&cfg, true);
        assert!(
            rep.restored_level > 0.9 * cfg.vdd,
            "restore reached {} V",
            rep.restored_level
        );
        let rep0 = simulate_classic_activation(&cfg, false);
        assert!(rep0.restored_level < 0.1 * cfg.vdd);
    }

    #[test]
    fn ocsa_charge_sharing_is_delayed() {
        // Section VI-D: charge sharing happens after offset cancellation in
        // OCSA chips, not immediately at ACT.
        let cfg = ActivationConfig::default();
        let classic = simulate_classic_activation(&cfg, true);
        let ocsa = simulate_ocsa_activation(&cfg, true);
        let tc = classic.charge_sharing_onset.expect("classic shares charge");
        let to = ocsa.charge_sharing_onset.expect("ocsa shares charge");
        let expected_delay = cfg.timings.offset_cancel_ns * 1e-9;
        assert!(
            to - tc > 0.8 * expected_delay,
            "ocsa onset {to} vs classic {tc}"
        );
    }

    #[test]
    fn large_offset_breaks_classic_but_not_ocsa() {
        let cfg = ActivationConfig {
            nsa_vt_offset: -0.08, // 80 mV early-conduction mismatch
            ..Default::default()
        };
        let classic = simulate_classic_activation(&cfg, true);
        assert!(
            !classic.correct,
            "80 mV offset should defeat the classic latch"
        );
        let ocsa = simulate_ocsa_activation(&cfg, true);
        assert!(ocsa.correct, "ocsa should cancel an 80 mV offset");
    }

    #[test]
    fn canonical_roles_use_the_schematic_names() {
        let classic = SaRoles::canonical(SaTopologyKind::Classic);
        assert_eq!(classic.bl, "BL");
        assert_eq!(classic.sense_l, "BL");
        assert_eq!(classic.lab, "LAB");
        assert_eq!(classic.precharge_gate, "PEQ");
        assert_eq!(classic.offset_device, "nSA_l");
        assert_eq!(classic.iso_gate, None);

        let ocsa = SaRoles::canonical(SaTopologyKind::OffsetCancellation);
        assert_eq!(ocsa.bl, "BL");
        assert_eq!(ocsa.sense_l, "SABL");
        assert_eq!(ocsa.precharge_gate, "PRE");
        assert_eq!(ocsa.iso_gate.as_deref(), Some("ISO"));
        assert_eq!(ocsa.oc_gate.as_deref(), Some("OC"));
        assert_eq!(ocsa.offset_device, "nSA_l");

        let iso = SaRoles::canonical(SaTopologyKind::ClassicWithIsolation);
        assert_eq!(iso.bl, "BL");
        assert_eq!(iso.sense_l, "IBL");
        assert_eq!(iso.iso_gate.as_deref(), Some("ISO"));
    }

    #[test]
    fn role_inference_rejects_a_broken_latch() {
        // Cut the cross-coupling: retarget one latch gate to its own sense
        // node. The graph is still a 9-transistor circuit, but no valid
        // schedule exists for it.
        let sa = topology::classic_sa(SaDimensions::default());
        let mut nl = Netlist::new("broken");
        for m in sa.netlist().mosfets() {
            let gate_name = if m.name == "nSA_l" {
                // Gate onto its own drain instead of the opposite bitline.
                sa.netlist().net_name(m.drain).to_owned()
            } else {
                sa.netlist().net_name(m.gate).to_owned()
            };
            let g = nl.add_net(gate_name);
            let s = nl.add_net(sa.netlist().net_name(m.source).to_owned());
            let d = nl.add_net(sa.netlist().net_name(m.drain).to_owned());
            nl.add_mosfet(m.name.clone(), m.polarity, m.class, m.dims, g, s, d);
        }
        let err = SaRoles::infer(&nl).unwrap_err();
        assert!(matches!(err, SimError::RoleInference(_)), "{err}");
    }

    #[test]
    fn extracted_style_netlist_simulates_via_inferred_roles() {
        // Rebuild the classic SA with anonymised extractor-style names; the
        // schedule must come out of role inference alone.
        let sa = topology::classic_sa(SaDimensions::default());
        let src = sa.netlist();
        let mut nl = Netlist::new("anon");
        let mut ids = std::collections::HashMap::new();
        for (i, _) in (0..src.net_count()).enumerate() {
            let id = nl.add_net(format!("n{i}"));
            ids.insert(i, id);
        }
        for (k, m) in src.mosfets().enumerate() {
            nl.add_mosfet(
                format!("m{k}"),
                m.polarity,
                m.class,
                m.dims,
                ids[&m.gate.0],
                ids[&m.source.0],
                ids[&m.drain.0],
            );
        }
        let cfg = ActivationConfig::default();
        for stored in [false, true] {
            let rep = simulate_extracted_activation(&nl, &cfg, stored).expect("roles infer");
            assert!(rep.correct, "anon netlist failed stored={stored}");
            assert_eq!(rep.topology, SaTopologyKind::Classic);
        }
    }

    #[test]
    fn canonical_and_extracted_netlists_share_one_activation_path() {
        // `try_simulate` on a topology kind and `simulate_extracted_activation`
        // on that topology's netlist are the same experiment: every trace and
        // the solver work must match bit for bit.
        let cfg = ActivationConfig::default();
        for kind in [
            SaTopologyKind::Classic,
            SaTopologyKind::OffsetCancellation,
            SaTopologyKind::ClassicWithIsolation,
        ] {
            let netlist = match kind {
                SaTopologyKind::Classic => topology::classic_sa(cfg.dims.clone()),
                SaTopologyKind::OffsetCancellation => topology::ocsa(cfg.dims.clone()),
                SaTopologyKind::ClassicWithIsolation => {
                    topology::classic_sa_with_isolation(cfg.dims.clone())
                }
            }
            .into_netlist();
            for stored in [false, true] {
                let a = try_simulate(kind, &cfg, stored).expect("canonical");
                let b = simulate_extracted_activation(&netlist, &cfg, stored).expect("extracted");
                assert_eq!(a.solve_stats, b.solve_stats, "{kind} stored={stored}");
                let mut nets: Vec<&str> = a.waveforms.nets().collect();
                nets.sort_unstable();
                let mut nets_b: Vec<&str> = b.waveforms.nets().collect();
                nets_b.sort_unstable();
                assert_eq!(nets, nets_b, "{kind} stored={stored}");
                let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                for net in nets {
                    assert_eq!(
                        bits(a.waveforms.trace(net).unwrap()),
                        bits(b.waveforms.trace(net).unwrap()),
                        "{kind} stored={stored} net {net}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_length_schedule_names_the_zero_duration() {
        let cfg = ActivationConfig {
            timings: PhaseTimings {
                precharge_ns: 0.0,
                offset_cancel_ns: 0.0,
                charge_share_ns: 0.0,
                sense_ns: 0.0,
                restore_ns: 0.0,
                final_precharge_ns: 0.0,
                slew_ns: 0.0,
            },
            ..Default::default()
        };
        let err = try_simulate(SaTopologyKind::Classic, &cfg, true).unwrap_err();
        assert_eq!(err, SimError::InvalidTimestep(0.0));
    }
}
