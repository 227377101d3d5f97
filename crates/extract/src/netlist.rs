//! Netlist extraction: channels, source/drain splitting, via tracing.

use crate::components::{label_components, overlapping_labels};
use crate::slabs::{project_layer, Slab};
use crate::ExtractError;
use hifi_circuit::{DeviceId, Netlist, Polarity, TransistorClass, TransistorDims};
use hifi_geometry::Layer;
use hifi_synth::MaterialVolume;
use hifi_units::Nanometers;

/// One recognised transistor with extraction metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedDevice {
    /// Index into the extracted netlist.
    pub device: DeviceId,
    /// Measured drawn dimensions (W from gate∩active extent, L from the
    /// source–drain pitch).
    pub dims: TransistorDims,
    /// Channel bounding box in grid cells `(x0, y0, x1, y1)`.
    pub channel_bbox: (usize, usize, usize, usize),
    /// Fraction of the full grid height the gate component spans — ≈1.0 for
    /// the region-spanning common gates of Section V-C.
    pub gate_y_span_fraction: f64,
    /// Functional class once classified.
    pub class: Option<TransistorClass>,
}

/// The result of netlist extraction.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The extracted netlist (classes/polarities are refined by
    /// [`crate::classify()`]).
    pub netlist: Netlist,
    /// Per-transistor extraction metadata, aligned with netlist device ids.
    pub devices: Vec<ExtractedDevice>,
    /// Grid width (voxels).
    pub nx: usize,
    /// Grid height (voxels).
    pub ny: usize,
    /// Voxel edge (nm).
    pub voxel_nm: f64,
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Extracts the netlist from a material volume (no classification yet).
///
/// # Errors
///
/// Returns [`ExtractError::NoTransistors`] when no gate∩active overlap
/// exists (or every candidate was filtered as reconstruction debris), and
/// [`ExtractError::MalformedChannel`] when a channel is partially
/// connected — several substantial gates, or exactly one substantial
/// diffusion neighbour. Channels bordering *no* substantial gate or
/// diffusion at all are treated as debris and skipped, not errored.
pub fn extract_netlist(volume: &MaterialVolume) -> Result<Extraction, ExtractError> {
    extract_netlist_with(volume, &mut hifi_telemetry::NoopRecorder)
}

/// [`extract_netlist`] with instrumentation (see
/// [`crate::extract_with`] for the recorded counter names).
///
/// # Errors
///
/// Same as [`extract_netlist`].
pub fn extract_netlist_with<R: hifi_telemetry::Recorder>(
    volume: &MaterialVolume,
    rec: &mut R,
) -> Result<Extraction, ExtractError> {
    let (nx, ny, _) = volume.dims();
    let voxel = volume.voxel_nm();

    // Closing bridges small reconstruction gaps in the conducting layers;
    // active/gate stay raw so channel geometry (the measurement target)
    // is not distorted.
    let close = crate::slabs::close_unit;
    let active = project_layer(volume, Layer::Active);
    let gate = project_layer(volume, Layer::Gate);
    let contact = close(&project_layer(volume, Layer::Contact));
    let m1 = close(&project_layer(volume, Layer::Metal1));
    let via = close(&project_layer(volume, Layer::Via1));
    let m2 = close(&project_layer(volume, Layer::Metal2));

    // Channels are where gates cross active; removing them splits diffusion
    // into source/drain islands (the paper's step iii: "To correctly
    // identify transistors, we include active regions in the analysis").
    let channel: Slab = gate.intersect(&active);
    let sd: Slab = active.subtract(&channel);

    let gates = label_components(&gate);
    let sds = label_components(&sd);
    let contacts = label_components(&contact);
    let m1s = label_components(&m1);
    let vias = label_components(&via);
    let m2s = label_components(&m2);
    let channels = label_components(&channel);

    if rec.enabled() {
        rec.counter("extract.components.gate", gates.len() as u64);
        rec.counter("extract.components.diffusion", sds.len() as u64);
        rec.counter("extract.components.contact", contacts.len() as u64);
        rec.counter("extract.components.metal1", m1s.len() as u64);
        rec.counter("extract.components.via1", vias.len() as u64);
        rec.counter("extract.components.metal2", m2s.len() as u64);
        rec.counter("extract.components.channel", channels.len() as u64);
    }

    if channels.is_empty() {
        return Err(ExtractError::NoTransistors);
    }

    // Global conductor node ids.
    let base_gate = 0;
    let base_sd = base_gate + gates.len();
    let base_contact = base_sd + sds.len();
    let base_m1 = base_contact + contacts.len();
    let base_via = base_m1 + m1s.len();
    let base_m2 = base_via + vias.len();
    let total = base_m2 + m2s.len();
    let mut uf = UnionFind::new(total);

    // Contacts bond to whatever they overlap: gates, diffusion, and M1.
    for c in 0..contacts.len() {
        for g in overlapping_labels(&contacts, c, &gates) {
            uf.union(base_contact + c, base_gate + g);
        }
        for s in overlapping_labels(&contacts, c, &sds) {
            uf.union(base_contact + c, base_sd + s);
        }
        for w in overlapping_labels(&contacts, c, &m1s) {
            uf.union(base_contact + c, base_m1 + w);
        }
    }
    // Vias bond M1 to M2.
    for v in 0..vias.len() {
        for w in overlapping_labels(&vias, v, &m1s) {
            uf.union(base_via + v, base_m1 + w);
        }
        for w in overlapping_labels(&vias, v, &m2s) {
            uf.union(base_via + v, base_m2 + w);
        }
    }

    // Transistors: one per channel component.
    struct RawFet {
        gate_label: usize,
        sd_labels: [usize; 2],
        dims: TransistorDims,
        bbox: (usize, usize, usize, usize),
        gate_span: f64,
    }
    let mut raw = Vec::new();
    // Reconstruction noise can leave speckle components; ignore anything
    // smaller than a plausible minimum device footprint (~30 nm × 30 nm).
    let min_area = ((900.0 / (voxel * voxel)).ceil() as usize).max(4);
    for ch in 0..channels.len() {
        if channels.components[ch].area < min_area {
            rec.counter("extract.rejected.speckle_channels", 1);
            continue;
        }
        let mut gate_labels = overlapping_labels(&channels, ch, &gates);
        let gate_candidates = gate_labels.len();
        gate_labels.retain(|&g| gates.components[g].area >= min_area);
        if rec.enabled() {
            rec.counter(
                "extract.rejected.small_gates",
                (gate_candidates - gate_labels.len()) as u64,
            );
        }
        // Rank diffusion neighbours by shared boundary and keep substantial
        // ones; stray one-pixel contacts are artefacts.
        let sd_candidates = crate::components::adjacent_labels_counted(&channels, ch, &sds);
        let sd_candidate_count = sd_candidates.len();
        let mut sd_neighbours: Vec<(usize, usize)> = sd_candidates
            .into_iter()
            .filter(|&(l, c)| c >= 2 && sds.components[l].area >= min_area)
            .collect();
        if rec.enabled() {
            rec.counter(
                "extract.rejected.weak_diffusion_contacts",
                (sd_candidate_count - sd_neighbours.len()) as u64,
            );
        }
        sd_neighbours.sort_by_key(|&(_, contact)| std::cmp::Reverse(contact));
        let sd_neighbours: Vec<usize> = sd_neighbours.into_iter().map(|(l, _)| l).collect();
        // A channel with no substantial gate or no substantial diffusion at
        // all is reconstruction debris (thick-slice or heavy-drift stacks
        // smear gate poly across bare areas) — skip it like a speckle so
        // the genuine devices still extract. Anything *partially* connected
        // (one diffusion island, or several gates) is a real but malformed
        // transistor: silently dropping it would yield a plausible-looking
        // wrong netlist, so that stays a hard error.
        if gate_labels.is_empty() || sd_neighbours.is_empty() {
            rec.counter("extract.rejected.orphan_channels", 1);
            continue;
        }
        if gate_labels.len() != 1 || sd_neighbours.len() < 2 {
            return Err(ExtractError::MalformedChannel {
                neighbours: sd_neighbours.len(),
            });
        }
        let sd_neighbours = &sd_neighbours[..2];
        let comp = &channels.components[ch];
        // Orientation: the axis towards the two diffusion islands is the
        // current direction (L); the perpendicular extent is W.
        let (s0, s1) = (
            &sds.components[sd_neighbours[0]],
            &sds.components[sd_neighbours[1]],
        );
        let cx = |b: &(usize, usize, usize, usize)| (b.0 + b.2) as f64 / 2.0;
        let cy = |b: &(usize, usize, usize, usize)| (b.1 + b.3) as f64 / 2.0;
        let dx = (cx(&s0.bbox) - cx(&s1.bbox)).abs();
        let dy = (cy(&s0.bbox) - cy(&s1.bbox)).abs();
        let (l_cells, w_cells) = if dx >= dy {
            (comp.width_x(), comp.height_y())
        } else {
            (comp.height_y(), comp.width_x())
        };
        let g = &gates.components[gate_labels[0]];
        raw.push(RawFet {
            gate_label: gate_labels[0],
            sd_labels: [sd_neighbours[0], sd_neighbours[1]],
            dims: TransistorDims::new(
                Nanometers(w_cells as f64 * voxel),
                Nanometers(l_cells as f64 * voxel),
            ),
            bbox: comp.bbox,
            gate_span: g.height_y() as f64 / ny as f64,
        });
    }

    if raw.is_empty() {
        return Err(ExtractError::NoTransistors);
    }

    // Build the netlist: nets are union-find roots that carry at least one
    // device terminal.
    let mut netlist = Netlist::new("extracted");
    let mut devices = Vec::new();
    for (i, fet) in raw.iter().enumerate() {
        let g_root = uf.find(base_gate + fet.gate_label);
        let s_root = uf.find(base_sd + fet.sd_labels[0]);
        let d_root = uf.find(base_sd + fet.sd_labels[1]);
        let g = netlist.add_net(format!("n{g_root}"));
        let s = netlist.add_net(format!("n{s_root}"));
        let d = netlist.add_net(format!("n{d_root}"));
        let id = netlist.add_mosfet(
            format!("m{i}"),
            Polarity::Nmos,
            TransistorClass::Access,
            fet.dims,
            g,
            s,
            d,
        );
        devices.push(ExtractedDevice {
            device: id,
            dims: fet.dims,
            channel_bbox: fet.bbox,
            gate_y_span_fraction: fet.gate_span,
            class: None,
        });
    }

    Ok(Extraction {
        netlist,
        devices,
        nx,
        ny,
        voxel_nm: voxel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_geometry::LayerStack;
    use hifi_synth::Material;

    /// Hand-builds a volume with one transistor: active bar crossed by a
    /// gate, contacts on both diffusion pads and on the gate, an M1 wire on
    /// the drain and a via to M2.
    fn single_fet_volume() -> MaterialVolume {
        let stack = LayerStack::default_dram();
        let mut v = MaterialVolume::new(60, 40, 141, 5.0, stack);
        let zr = |l: Layer, v: &MaterialVolume| v.layer_z_range(l);
        let (az0, az1) = zr(Layer::Active, &v);
        let (gz0, gz1) = zr(Layer::Gate, &v);
        let (mz0, mz1) = zr(Layer::Metal1, &v);
        let (vz0, vz1) = zr(Layer::Via1, &v);
        let (m2z0, m2z1) = zr(Layer::Metal2, &v);
        // Active bar: x 10..40, y 10..26 (W = 16 cells * 5 nm = 80 nm).
        v.fill_box(10, 40, 10, 26, az0, az1, Material::ActiveSi, true);
        // Gate crossing at x 22..28 (L = 6 cells * 5 = 30 nm), overhang in y.
        v.fill_box(22, 28, 4, 34, gz0, gz1, Material::GatePoly, true);
        // Contacts: source pad, drain pad, gate overhang.
        let (cz0, cz1) = (az1, mz0);
        v.fill_box(14, 17, 16, 19, cz0, cz1, Material::Contact, false);
        v.fill_box(33, 36, 16, 19, cz0, cz1, Material::Contact, false);
        v.fill_box(23, 26, 29, 32, gz0, mz0, Material::Contact, false);
        // M1 pads over the contacts + a wire from the drain.
        v.fill_box(13, 18, 15, 20, mz0, mz1, Material::Metal1, true);
        v.fill_box(32, 55, 15, 20, mz0, mz1, Material::Metal1, true);
        v.fill_box(22, 27, 28, 33, mz0, mz1, Material::Metal1, true);
        // Via + M2 on the drain wire.
        v.fill_box(50, 53, 16, 19, vz0, vz1, Material::Via, true);
        v.fill_box(48, 55, 5, 30, m2z0, m2z1, Material::Metal2, true);
        v
    }

    #[test]
    fn extracts_single_transistor_with_dims() {
        let v = single_fet_volume();
        let ex = extract_netlist(&v).unwrap();
        assert_eq!(ex.devices.len(), 1);
        let d = &ex.devices[0];
        assert!(
            (d.dims.width.value() - 80.0).abs() <= 5.0,
            "W = {}",
            d.dims.width
        );
        assert!(
            (d.dims.length.value() - 30.0).abs() <= 5.0,
            "L = {}",
            d.dims.length
        );
        // Three nets: gate, source, drain(+wire+via+m2).
        assert_eq!(ex.netlist.net_count(), 3);
    }

    #[test]
    fn via_merges_m1_and_m2_into_one_net() {
        let v = single_fet_volume();
        let ex = extract_netlist(&v).unwrap();
        let m = ex.netlist.mosfets().next().unwrap();
        // Drain net carries wire + via + m2: still a single net id.
        assert_ne!(m.source, m.drain);
        assert_ne!(m.gate, m.drain);
    }

    #[test]
    fn instrumented_extraction_counts_components_and_devices() {
        use hifi_telemetry::JsonRecorder;
        let v = single_fet_volume();
        let mut rec = JsonRecorder::new();
        let ex = extract_netlist_with(&v, &mut rec).unwrap();
        assert_eq!(ex.devices.len(), 1);
        assert_eq!(rec.counter_total("extract.components.channel"), 1);
        assert_eq!(rec.counter_total("extract.components.gate"), 1);
        // Three contacts drawn, three components expected after closing.
        assert_eq!(rec.counter_total("extract.components.contact"), 3);
        // A clean hand-built volume rejects nothing.
        assert_eq!(rec.counter_total("extract.rejected.speckle_channels"), 0);
        assert_eq!(rec.counter_total("extract.rejected.small_gates"), 0);
        // The instrumented path returns the identical extraction.
        let plain = extract_netlist(&v).unwrap();
        assert_eq!(ex.devices, plain.devices);
    }

    #[test]
    fn empty_volume_yields_no_transistors() {
        let v = MaterialVolume::new(10, 10, 141, 5.0, LayerStack::default_dram());
        assert!(matches!(
            extract_netlist(&v),
            Err(ExtractError::NoTransistors)
        ));
    }

    #[test]
    fn vertical_orientation_measured_correctly() {
        // Same device rotated 90°: current along y.
        let stack = LayerStack::default_dram();
        let mut v = MaterialVolume::new(40, 60, 141, 5.0, stack);
        let (az0, az1) = v.layer_z_range(Layer::Active);
        let (gz0, gz1) = v.layer_z_range(Layer::Gate);
        v.fill_box(10, 26, 10, 40, az0, az1, Material::ActiveSi, true);
        v.fill_box(4, 34, 22, 28, gz0, gz1, Material::GatePoly, true);
        let ex = extract_netlist(&v).unwrap();
        let d = &ex.devices[0];
        assert!(
            (d.dims.width.value() - 80.0).abs() <= 5.0,
            "W = {}",
            d.dims.width
        );
        assert!(
            (d.dims.length.value() - 30.0).abs() <= 5.0,
            "L = {}",
            d.dims.length
        );
    }
}
