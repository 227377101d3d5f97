//! Property-based tests on the analog substrate: device-model invariants,
//! waveform interpolation, and charge conservation in the solver.

use hifi_dram::analog::{MnaCircuit, MnaTransient, MosfetModel, Stimulus, Waveform};
use hifi_dram::circuit::{Netlist, Polarity, TransistorClass, TransistorDims};
use hifi_dram::units::{charge_sharing_delta, Femtofarads, Nanometers, Volts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mosfet_current_is_monotone_in_gate_drive(
        wl in 0.5f64..10.0, vgs_a in 0.0f64..2.0, vgs_b in 0.0f64..2.0, vds in 0.01f64..1.5
    ) {
        let m = MosfetModel::new(Polarity::Nmos, wl);
        let (lo, hi) = if vgs_a <= vgs_b { (vgs_a, vgs_b) } else { (vgs_b, vgs_a) };
        prop_assert!(m.current(lo, vds) <= m.current(hi, vds) + 1e-15);
    }

    #[test]
    fn mosfet_channel_current_is_antisymmetric(
        wl in 0.5f64..10.0, vg in 0.0f64..2.4, va in 0.0f64..1.2, vb in 0.0f64..1.2
    ) {
        let m = MosfetModel::new(Polarity::Nmos, wl);
        let f = m.channel_current(vg, va, vb);
        let r = m.channel_current(vg, vb, va);
        prop_assert!((f + r).abs() < 1e-12, "forward {f} reverse {r}");
    }

    #[test]
    fn waveform_interpolation_stays_within_hull(
        points in prop::collection::vec((0.0f64..100.0, -2.0f64..2.0), 2..10),
        t in -10.0f64..120.0,
    ) {
        let mut pts = points.clone();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let wf = Waveform::pwl(pts.clone()).expect("sorted");
        let v = wf.value(t);
        let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn ideal_charge_sharing_delta_bounded_by_cell_swing(
        c_cell in 5.0f64..40.0, c_bl in 50.0f64..400.0, v_cell in 0.0f64..1.2
    ) {
        let dv = charge_sharing_delta(
            Femtofarads(c_cell), Volts(v_cell), Femtofarads(c_bl), Volts(0.55),
        );
        // |ΔV| ≤ |Vcell − Vpre| · Ccell/(Ccell+Cbl) < full swing.
        prop_assert!(dv.value().abs() <= (v_cell - 0.55).abs() * 1000.0 + 1e-9);
        // Sign follows the stored value.
        if v_cell > 0.56 { prop_assert!(dv.value() > 0.0); }
        if v_cell < 0.54 { prop_assert!(dv.value() < 0.0); }
    }

    #[test]
    fn solver_conserves_charge_between_isolated_capacitors(
        v0 in 0.0f64..1.2, c_a in 10.0f64..100.0, c_b in 10.0f64..100.0
    ) {
        // Two caps joined by an always-on NMOS settle to the
        // charge-weighted average voltage (plus tiny parasitic effects).
        let mut nl = Netlist::new("share");
        let a = nl.add_net("A");
        let b = nl.add_net("B");
        let gnd = nl.add_net("GND");
        let g = nl.add_net("G");
        nl.add_capacitor("ca", Femtofarads(c_a), a, gnd);
        nl.add_capacitor("cb", Femtofarads(c_b), b, gnd);
        nl.add_mosfet(
            "sw", Polarity::Nmos, TransistorClass::Access,
            TransistorDims::new(Nanometers(400.0), Nanometers(50.0)), g, a, b,
        );
        let circuit = MnaCircuit::from_netlist(&nl).with_parasitic(Femtofarads(0.001));
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0)).hold("G", Volts(2.4));
        let run = MnaTransient::new(30e-9)
            .with_initial("A", Volts(v0))
            .with_initial("B", Volts(0.0))
            .run(&circuit, &stim)
            .expect("runs");
        prop_assert!(
            run.stats.worst_kcl_residual_amps < 1e-9,
            "KCL residual {} A",
            run.stats.worst_kcl_residual_amps
        );
        let va = run.waveforms.final_voltage("A").unwrap();
        let vb = run.waveforms.final_voltage("B").unwrap();
        let expected = v0 * c_a / (c_a + c_b);
        prop_assert!((va - vb).abs() < 1e-6, "not settled: {va} vs {vb}");
        prop_assert!((va - expected).abs() < 1e-3, "va {va} expected {expected}");
    }
}
