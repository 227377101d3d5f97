//! Tiling SA cells into a full region and voxelising it.

use crate::cell::{generate_cell, CellGroundTruth, TRACK_PITCH, WIRE_W};
use crate::material::{Material, MaterialVolume};
use crate::spec::SaRegionSpec;
use hifi_circuit::{Netlist, Polarity, TransistorClass};
use hifi_geometry::{Element, ElementKind, Layer, LayerStack, Layout, Rect};

/// Ground truth for the whole region.
#[derive(Debug, Clone)]
pub struct RegionGroundTruth {
    /// Per-cell ground truth (all cells share one topology and dimensions).
    pub cell: CellGroundTruth,
    /// The region-level netlist: per-pair bitlines and column selects,
    /// shared LA/LAB/VPRE/LIO/LIOB rails and common-gate control nets.
    pub region_netlist: Netlist,
}

/// A generated SA region: layout, voxelisation and ground truth.
#[derive(Debug, Clone)]
pub struct SaRegion {
    spec: SaRegionSpec,
    layout: Layout,
    cell_length: i64,
    cell_height: i64,
    /// X where the SA slots start (after MAT strip and transition).
    sa_x0: i64,
    /// Total region extent.
    extent: Rect,
    ground_truth: RegionGroundTruth,
}

impl SaRegion {
    /// The generator spec.
    pub fn spec(&self) -> &SaRegionSpec {
        &self.spec
    }

    /// The flattened region layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Region bounding extent.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// X coordinate where SA cells begin (end of the MAT→SA transition).
    pub fn sa_x0(&self) -> i64 {
        self.sa_x0
    }

    /// Height of one cell (pitch of the stacked pairs).
    pub fn cell_height(&self) -> i64 {
        self.cell_height
    }

    /// Length of one cell.
    pub fn cell_length(&self) -> i64 {
        self.cell_length
    }

    /// The window (in nm) covering exactly one cell's SA circuitry — the
    /// extraction target for topology identification.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range.
    pub fn cell_window(&self, pair: usize) -> Rect {
        assert!(pair < self.spec.n_pairs, "pair {pair} out of range");
        let y0 = pair as i64 * self.cell_height;
        Rect::new(
            (self.sa_x0, y0).into(),
            (self.sa_x0 + self.cell_length, y0 + self.cell_height).into(),
        )
    }

    /// Ground truth.
    pub fn ground_truth(&self) -> &RegionGroundTruth {
        &self.ground_truth
    }

    /// The ground-truth netlist an extraction of one [`Self::cell_window`]
    /// should recover (identical for every pair — cells share a topology).
    pub fn window_netlist(&self) -> &Netlist {
        &self.ground_truth.cell.netlist
    }

    /// Crops `volume` — a voxelisation (or imaging reconstruction) of this
    /// region — to `cell_window(pair)`, using the same nm→voxel rounding
    /// as [`SaRegion::voxelize`]. Returns `None` when the clamped window is
    /// empty, i.e. the volume does not extend to the requested cell (a
    /// degenerate reconstruction), instead of panicking like
    /// [`MaterialVolume::crop`].
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range (same contract as
    /// [`Self::cell_window`]).
    pub fn window_volume(&self, volume: &MaterialVolume, pair: usize) -> Option<MaterialVolume> {
        let window = self.cell_window(pair);
        let voxel = volume.voxel_nm();
        let to_vox = |nm: i64| ((nm as f64) / voxel).round().max(0.0) as usize;
        let (nx, ny, _) = volume.dims();
        let (x0, x1) = (to_vox(window.min().x), to_vox(window.max().x).min(nx));
        let (y0, y1) = (to_vox(window.min().y), to_vox(window.max().y).min(ny));
        if x0 >= x1 || y0 >= y1 {
            return None;
        }
        Some(volume.crop(x0, x1, y0, y1))
    }

    /// Voxel-grid dimensions `(nx, ny, nz)` of a full voxelisation of this
    /// region, without materializing it — what a consumer needs to plan an
    /// acquisition schedule before the volume exists.
    pub fn voxel_dims(&self) -> (usize, usize, usize) {
        let voxel = self.spec.voxel_nm;
        let stack = LayerStack::default_dram();
        let nx = ((self.extent.max().x as f64) / voxel).ceil() as usize + 1;
        let ny = ((self.extent.max().y as f64) / voxel).ceil() as usize + 1;
        let nz = (stack.total_height().value() / voxel).ceil() as usize;
        (nx, ny, nz)
    }

    /// Voxelises the layout into a material volume at the spec's voxel size.
    pub fn voxelize(&self) -> MaterialVolume {
        let voxel = self.spec.voxel_nm;
        let stack = LayerStack::default_dram();
        let (nx, ny, nz) = self.voxel_dims();
        let mut vol = MaterialVolume::new(nx, ny, nz, voxel, stack.clone());

        let band = |layer: Layer| {
            let e = stack.extent(layer);
            (
                (e.z_bottom.value() / voxel).floor() as usize,
                (e.z_top.value() / voxel).ceil() as usize,
            )
        };
        let vox = |nm: i64| ((nm as f64) / voxel).round().max(0.0) as usize;

        // Fill order: base layers first; contacts last without overwriting
        // so plugs rest on gates instead of punching through them.
        let order = [
            (Layer::Active, Material::ActiveSi, true),
            (Layer::Gate, Material::GatePoly, true),
            (Layer::Metal1, Material::Metal1, true),
            (Layer::Via1, Material::Via, true),
            (Layer::Metal2, Material::Metal2, true),
            (Layer::Capacitor, Material::Capacitor, true),
        ];
        for (layer, material, overwrite) in order {
            let (z0, z1) = band(layer);
            for e in self.layout.elements_on(layer) {
                let r = e.rect();
                vol.fill_box(
                    vox(r.min().x),
                    vox(r.max().x),
                    vox(r.min().y),
                    vox(r.max().y),
                    z0,
                    z1,
                    material,
                    overwrite,
                );
            }
        }
        // Contact plugs: from the top of active to the bottom of M1.
        let z0 = (stack.extent(Layer::Active).z_top.value() / voxel).floor() as usize;
        let z1 = (stack.extent(Layer::Metal1).z_bottom.value() / voxel).ceil() as usize;
        for e in self.layout.elements_on(Layer::Contact) {
            let r = e.rect();
            vol.fill_box(
                vox(r.min().x),
                vox(r.max().x),
                vox(r.min().y),
                vox(r.max().y),
                z0,
                z1,
                Material::Contact,
                false,
            );
        }
        vol
    }
}

/// Builds the region-level ground-truth netlist: one SA circuit per pair
/// with shared rails and common-gate nets.
fn region_netlist(spec: &SaRegionSpec) -> Netlist {
    let cell = generate_cell(spec);
    let src = &cell.ground_truth().netlist;
    let mut nl = Netlist::new(format!("region-{}x-{}", spec.n_pairs, spec.topology));
    let shared = [
        "LA", "LAB", "VPRE", "LIO", "LIOB", "PEQ", "PRE", "ISO", "OC",
    ];
    for pair in 0..spec.n_pairs {
        let map_name = |n: &str| -> String {
            if shared.contains(&n) {
                n.to_owned()
            } else {
                format!("{n}#{pair}")
            }
        };
        let devices: Vec<_> = src.devices().map(|(_, d)| d.clone()).collect();
        for d in devices {
            match d {
                hifi_circuit::Device::Mosfet(m) => {
                    let g = nl.add_net(map_name(src.net_name(m.gate)));
                    let s = nl.add_net(map_name(src.net_name(m.source)));
                    let dr = nl.add_net(map_name(src.net_name(m.drain)));
                    nl.add_mosfet(
                        format!("{}#{pair}", m.name),
                        m.polarity,
                        m.class,
                        m.dims,
                        g,
                        s,
                        dr,
                    );
                }
                hifi_circuit::Device::Capacitor(c) => {
                    let a = nl.add_net(map_name(src.net_name(c.a)));
                    let b = nl.add_net(map_name(src.net_name(c.b)));
                    nl.add_capacitor(format!("{}#{pair}", c.name), c.value, a, b);
                }
            }
        }
    }
    nl
}

/// Generates a full SA region from a spec.
pub fn generate_region(spec: &SaRegionSpec) -> SaRegion {
    let cell = generate_cell(spec);
    let mat_len = if spec.include_mat {
        spec.mat_length_nm
    } else {
        0
    };
    let sa_x0 = mat_len + spec.transition_nm;

    let mut layout = Layout::new(format!(
        "sa-region-{}x-{}",
        spec.n_pairs,
        spec.topology.name()
    ));

    // Tile the cells.
    for pair in 0..spec.n_pairs {
        layout.merge_translated(cell.layout(), sa_x0, pair as i64 * cell.height());
    }

    // Bitline continuations through the transition (and MAT strip): the
    // paper measures this MAT→SA overhead explicitly (Section V-C).
    for pair in 0..spec.n_pairs {
        let y_off = pair as i64 * cell.height();
        for (track_y, name) in [(cell.bl_track_y(), "BL"), (cell.blb_track_y(), "BLB")] {
            layout.push(
                Element::new(
                    Layer::Metal1,
                    Rect::new(
                        (0, y_off + track_y).into(),
                        (sa_x0, y_off + track_y + WIRE_W).into(),
                    ),
                    ElementKind::Wire,
                )
                .with_label(format!("{name}#{pair}")),
            );
        }
    }

    // MAT strip: honeycomb stacked capacitors above the bitlines (Fig. 7a).
    if spec.include_mat {
        let cap = 40;
        let pitch_x = 72;
        let pitch_y = 64;
        let total_h = spec.n_pairs as i64 * cell.height();
        let mut row = 0;
        let mut y = 8;
        while y + cap <= total_h {
            let x_shift = if row % 2 == 0 { 8 } else { 8 + pitch_x / 2 };
            let mut x = x_shift;
            while x + cap <= mat_len {
                layout.push(
                    Element::new(
                        Layer::Capacitor,
                        Rect::from_origin_size(x, y, cap, cap),
                        ElementKind::CellCapacitor,
                    )
                    .with_label("cell-cap"),
                );
                x += pitch_x;
            }
            y += pitch_y;
            row += 1;
        }
    }

    // Rail spines: M2 Y-wires joining each cell's rail tracks across the
    // region, one unique X per rail.
    let spine_x0 = sa_x0 + cell.length() + 40;
    let total_h = spec.n_pairs as i64 * cell.height();
    let mut spine_x = spine_x0;
    for (rail, track_y) in cell.rail_track_ys() {
        layout.push(
            Element::new(
                Layer::Metal2,
                Rect::new((spine_x, 0).into(), (spine_x + WIRE_W, total_h).into()),
                ElementKind::Wire,
            )
            .with_label(rail.clone()),
        );
        for pair in 0..spec.n_pairs {
            let y = pair as i64 * cell.height() + track_y;
            // Extend the rail M1 track to reach under the spine.
            layout.push(
                Element::new(
                    Layer::Metal1,
                    Rect::new(
                        (sa_x0 + cell.length() - WIRE_W, y).into(),
                        (spine_x + WIRE_W, y + WIRE_W).into(),
                    ),
                    ElementKind::Wire,
                )
                .with_label(rail.clone()),
            );
            layout.push(
                Element::new(
                    Layer::Via1,
                    Rect::from_origin_size(spine_x, y, WIRE_W, WIRE_W),
                    ElementKind::Via,
                )
                .with_label(rail.clone()),
            );
        }
        spine_x += 2 * TRACK_PITCH;
    }

    let extent = Rect::new((0, 0).into(), (spine_x + 40, total_h).into());

    SaRegion {
        spec: spec.clone(),
        cell_length: cell.length(),
        cell_height: cell.height(),
        sa_x0,
        extent,
        ground_truth: RegionGroundTruth {
            cell: cell.ground_truth().clone(),
            region_netlist: region_netlist(spec),
        },
        layout,
    }
}

/// Expected polarity by class under the paper's identification heuristic:
/// pSA latch devices are PMOS; everything else NMOS (Section V-A viii).
pub fn expected_polarity(class: TransistorClass) -> Polarity {
    if class == TransistorClass::PSa {
        Polarity::Pmos
    } else {
        Polarity::Nmos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_circuit::topology::SaTopologyKind;

    #[test]
    fn region_tiles_cells_and_spines() {
        let spec = SaRegionSpec::new(SaTopologyKind::Classic).with_pairs(3);
        let region = generate_region(&spec);
        // 3 cells' worth of active regions.
        assert_eq!(
            region
                .layout()
                .elements_of_kind(ElementKind::ActiveRegion)
                .count(),
            27
        );
        // 5 rail spines.
        let spines = region
            .layout()
            .elements_on(Layer::Metal2)
            .filter(|e| e.rect().height() == 3 * region.cell_height())
            .count();
        assert_eq!(spines, 5);
    }

    #[test]
    fn region_netlist_shares_rails_but_not_bitlines() {
        let spec = SaRegionSpec::new(SaTopologyKind::Classic).with_pairs(2);
        let region = generate_region(&spec);
        let nl = &region.ground_truth().region_netlist;
        assert_eq!(nl.device_count(), 18);
        assert!(nl.net("LA").is_some());
        assert!(nl.net("BL#0").is_some());
        assert!(nl.net("BL#1").is_some());
        assert!(nl.net("BL").is_none(), "bitlines are per-pair");
        // PEQ is shared: 6 gates attach (3 per cell).
        let peq = nl.net("PEQ").unwrap();
        assert_eq!(nl.net_degree(peq), 6);
    }

    #[test]
    fn cell_window_covers_one_cell() {
        let spec = SaRegionSpec::new(SaTopologyKind::OffsetCancellation).with_pairs(2);
        let region = generate_region(&spec);
        let w0 = region.cell_window(0);
        let w1 = region.cell_window(1);
        assert_eq!(w0.width(), region.cell_length());
        assert_eq!(w0.height(), region.cell_height());
        assert!(!w0.intersects(&w1));
    }

    #[test]
    fn window_volume_crops_to_the_cell_and_rejects_short_volumes() {
        let spec = SaRegionSpec::new(SaTopologyKind::Classic).with_pairs(2);
        let region = generate_region(&spec);
        let volume = region.voxelize();
        let cropped = region
            .window_volume(&volume, 1)
            .expect("full voxelisation covers every window");
        let voxel = volume.voxel_nm();
        let expected_nx = (region.cell_window(1).width() as f64 / voxel).round() as usize;
        assert!((cropped.dims().0 as i64 - expected_nx as i64).abs() <= 1);
        assert_eq!(
            region.window_netlist().device_count(),
            region.ground_truth().cell.netlist.device_count()
        );
        // A volume that stops short of the window (degenerate
        // reconstruction) yields None, not a panic.
        let short = volume.crop(0, 4, 0, 4);
        assert!(region.window_volume(&short, 0).is_none());
    }

    #[test]
    fn mirrored_window_volume_preserves_material_census() {
        let spec = SaRegionSpec::new(SaTopologyKind::OffsetCancellation);
        let region = generate_region(&spec);
        let volume = region.voxelize();
        let window = region.window_volume(&volume, 0).unwrap();
        for mirrored in [window.mirror_x(), window.mirror_y()] {
            for m in Material::ALL {
                assert_eq!(mirrored.count(m), window.count(m), "{m:?} census");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_out_of_range_panics() {
        let region = generate_region(&SaRegionSpec::new(SaTopologyKind::Classic));
        let _ = region.cell_window(5);
    }

    #[test]
    fn voxelization_contains_all_materials() {
        let spec = SaRegionSpec::new(SaTopologyKind::Classic)
            .with_pairs(1)
            .with_mat_strip(true);
        let region = generate_region(&spec);
        let vol = region.voxelize();
        for m in [
            Material::ActiveSi,
            Material::GatePoly,
            Material::Contact,
            Material::Metal1,
            Material::Via,
            Material::Metal2,
            Material::Capacitor,
        ] {
            assert!(vol.count(m) > 0, "{m:?} missing from volume");
        }
        // Mostly oxide, as in a real chip cross-section.
        assert!(vol.fill_fraction() < 0.5);
    }

    #[test]
    fn voxel_dims_match_the_voxelisation() {
        let spec = SaRegionSpec::new(SaTopologyKind::OffsetCancellation)
            .with_pairs(2)
            .with_mat_strip(true);
        let region = generate_region(&spec);
        assert_eq!(region.voxelize().dims(), region.voxel_dims());
    }

    #[test]
    fn contacts_do_not_punch_through_gates() {
        let spec = SaRegionSpec::new(SaTopologyKind::Classic).with_pairs(1);
        let region = generate_region(&spec);
        let vol = region.voxelize();
        // Wherever a contact voxel column exists over a gate, gate voxels
        // must survive beneath it.
        let (nx, ny, nz) = vol.dims();
        let mut checked = 0;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if vol.get(x, y, z) == Material::GatePoly {
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "gates exist in the volume");
    }

    #[test]
    fn transition_zone_has_only_wiring() {
        let spec = SaRegionSpec::new(SaTopologyKind::Classic).with_transition_nm(318);
        let region = generate_region(&spec);
        let window = Rect::new(
            (0, 0).into(),
            (region.sa_x0(), region.extent().max().y).into(),
        );
        for layer in [Layer::Active, Layer::Gate] {
            assert_eq!(
                region.layout().query(layer, window).count(),
                0,
                "{layer} in transition zone"
            );
        }
        assert!(region.layout().query(Layer::Metal1, window).count() > 0);
    }

    #[test]
    fn generated_layouts_have_no_floating_connectors() {
        use hifi_geometry::DesignRules;
        for kind in [SaTopologyKind::Classic, SaTopologyKind::OffsetCancellation] {
            let region = generate_region(&SaRegionSpec::new(kind).with_pairs(2));
            let rules = DesignRules::default_dram(18.0);
            let violations = rules.check_enclosure(region.layout());
            assert!(
                violations.is_empty(),
                "{kind}: {} floating connectors, first: {}",
                violations.len(),
                violations[0]
            );
        }
    }

    #[test]
    fn expected_polarity_heuristic() {
        assert_eq!(expected_polarity(TransistorClass::PSa), Polarity::Pmos);
        assert_eq!(expected_polarity(TransistorClass::NSa), Polarity::Nmos);
        assert_eq!(expected_polarity(TransistorClass::Column), Polarity::Nmos);
    }
}
