//! Material classes and the voxelised chip volume.

use hifi_geometry::{Layer, LayerStack};

/// Material of one voxel. These are the classes the paper's analysis
/// distinguishes in the SEM imagery ("we determine color intensities that
/// correspond to gates, wires and vias", Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Material {
    /// Inter-layer dielectric / empty space.
    Oxide = 0,
    /// Doped active silicon (source/drain diffusion and channels).
    ActiveSi = 1,
    /// Polysilicon gate.
    GatePoly = 2,
    /// Tungsten contact plug (active/gate up to M1).
    Contact = 3,
    /// Metal-1 wire (bitlines).
    Metal1 = 4,
    /// Via between M1 and M2.
    Via = 5,
    /// Metal-2 wire (rails, spines, cross-coupling).
    Metal2 = 6,
    /// Stacked-capacitor metal in the MAT.
    Capacitor = 7,
}

impl Material {
    /// All materials.
    pub const ALL: [Material; 8] = [
        Material::Oxide,
        Material::ActiveSi,
        Material::GatePoly,
        Material::Contact,
        Material::Metal1,
        Material::Via,
        Material::Metal2,
        Material::Capacitor,
    ];

    /// Decodes a voxel byte.
    pub const fn from_byte(b: u8) -> Option<Material> {
        match b {
            0 => Some(Material::Oxide),
            1 => Some(Material::ActiveSi),
            2 => Some(Material::GatePoly),
            3 => Some(Material::Contact),
            4 => Some(Material::Metal1),
            5 => Some(Material::Via),
            6 => Some(Material::Metal2),
            7 => Some(Material::Capacitor),
            _ => None,
        }
    }

    /// Whether the material conducts (oxide does not; a transistor channel
    /// is active silicon and handled separately during extraction).
    pub const fn is_conductor(self) -> bool {
        !matches!(self, Material::Oxide)
    }

    /// Mean secondary-electron image intensity (0–255) for this material.
    /// SE contrast tracks conductivity (Section IV: "SE depends on the
    /// conductivity").
    pub const fn se_intensity(self) -> f64 {
        match self {
            Material::Oxide => 25.0,
            Material::ActiveSi => 55.0,
            Material::Capacitor => 85.0,
            Material::GatePoly => 115.0,
            Material::Contact => 145.0,
            Material::Via => 175.0,
            Material::Metal1 => 205.0,
            Material::Metal2 => 235.0,
        }
    }

    /// Mean backscatter-electron intensity (0–255): BSE contrast tracks
    /// atomic number, separating tungsten plugs and metals more strongly.
    pub const fn bse_intensity(self) -> f64 {
        match self {
            Material::Oxide => 20.0,
            Material::ActiveSi => 50.0,
            Material::GatePoly => 80.0,
            Material::Capacitor => 110.0,
            Material::Metal1 => 140.0,
            Material::Via => 170.0,
            Material::Metal2 => 200.0,
            Material::Contact => 230.0,
        }
    }
}

/// A dense voxel grid of [`Material`]s with cubic voxels.
///
/// Axes: `x` = bitline direction, `y` = wordline direction, `z` = height
/// above the substrate (the FIB milling direction in the paper's setup is a
/// horizontal axis; slicing is performed by `hifi-imaging`).
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialVolume {
    nx: usize,
    ny: usize,
    nz: usize,
    voxel_nm: f64,
    stack: LayerStack,
    data: Vec<u8>,
}

impl MaterialVolume {
    /// Creates an all-oxide volume.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the voxel size is not positive.
    pub fn new(nx: usize, ny: usize, nz: usize, voxel_nm: f64, stack: LayerStack) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "volume dimensions must be non-zero"
        );
        assert!(voxel_nm > 0.0, "voxel size must be positive");
        Self {
            nx,
            ny,
            nz,
            voxel_nm,
            stack,
            data: vec![Material::Oxide as u8; nx * ny * nz],
        }
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Edge length of one voxel in nm.
    pub fn voxel_nm(&self) -> f64 {
        self.voxel_nm
    }

    /// The layer stack used to build this volume.
    pub fn stack(&self) -> &LayerStack {
        &self.stack
    }

    /// Total voxel count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the volume holds no voxels (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }

    /// The material at a voxel.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn get(&self, x: usize, y: usize, z: usize) -> Material {
        Material::from_byte(self.data[self.index(x, y, z)]).expect("valid voxel byte")
    }

    /// Sets the material at a voxel.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn set(&mut self, x: usize, y: usize, z: usize, m: Material) {
        let i = self.index(x, y, z);
        self.data[i] = m as u8;
    }

    /// Fills an axis-aligned box (half-open voxel ranges, clamped to the
    /// grid). When `overwrite` is false, existing non-oxide voxels are kept —
    /// used for contact plugs that must not punch through gates.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_box(
        &mut self,
        x0: usize,
        x1: usize,
        y0: usize,
        y1: usize,
        z0: usize,
        z1: usize,
        m: Material,
        overwrite: bool,
    ) {
        for z in z0..z1.min(self.nz) {
            for y in y0..y1.min(self.ny) {
                for x in x0..x1.min(self.nx) {
                    let i = self.index(x, y, z);
                    if overwrite || self.data[i] == Material::Oxide as u8 {
                        self.data[i] = m as u8;
                    }
                }
            }
        }
    }

    /// Converts a nm coordinate to a voxel index (floor).
    pub fn to_voxel(&self, nm: f64) -> usize {
        (nm / self.voxel_nm).floor().max(0.0) as usize
    }

    /// The voxel z-range (half-open) covering a layer's z-extent.
    pub fn layer_z_range(&self, layer: Layer) -> (usize, usize) {
        let e = self.stack.extent(layer);
        (
            self.to_voxel(e.z_bottom.value()),
            self.to_voxel(e.z_top.value()).min(self.nz),
        )
    }

    /// Fraction of voxels that are not oxide.
    pub fn fill_fraction(&self) -> f64 {
        let filled = self
            .data
            .iter()
            .filter(|&&b| b != Material::Oxide as u8)
            .count();
        filled as f64 / self.data.len() as f64
    }

    /// Counts voxels of one material.
    pub fn count(&self, m: Material) -> usize {
        self.data.iter().filter(|&&b| b == m as u8).count()
    }

    /// Crops the volume to the half-open voxel ranges `[x0, x1) × [y0, y1)`
    /// (full z), clamping to the grid.
    ///
    /// # Panics
    ///
    /// Panics if the clamped window is empty.
    pub fn crop(&self, x0: usize, x1: usize, y0: usize, y1: usize) -> MaterialVolume {
        let x1 = x1.min(self.nx);
        let y1 = y1.min(self.ny);
        assert!(x0 < x1 && y0 < y1, "empty crop window");
        let mut out =
            MaterialVolume::new(x1 - x0, y1 - y0, self.nz, self.voxel_nm, self.stack.clone());
        for z in 0..self.nz {
            for y in y0..y1 {
                for x in x0..x1 {
                    let m = self.get(x, y, z);
                    if m != Material::Oxide {
                        out.set(x - x0, y - y0, z, m);
                    }
                }
            }
        }
        out
    }

    /// The volume mirrored along the bitline (`x`) axis. Geometry, voxel
    /// size and layer stack are preserved; only the voxel contents flip.
    /// Mirroring is an isometry of the layout, so a correct extractor must
    /// recover an isomorphic netlist from the mirrored volume.
    pub fn mirror_x(&self) -> MaterialVolume {
        let mut out = self.clone();
        for z in 0..self.nz {
            for y in 0..self.ny {
                for x in 0..self.nx {
                    out.data[(z * self.ny + y) * self.nx + (self.nx - 1 - x)] =
                        self.data[self.index(x, y, z)];
                }
            }
        }
        out
    }

    /// The volume mirrored along the wordline (`y`) axis; see
    /// [`MaterialVolume::mirror_x`].
    pub fn mirror_y(&self) -> MaterialVolume {
        let mut out = self.clone();
        for z in 0..self.nz {
            for y in 0..self.ny {
                let flipped = self.ny - 1 - y;
                for x in 0..self.nx {
                    out.data[(z * self.nx * self.ny) + flipped * self.nx + x] =
                        self.data[self.index(x, y, z)];
                }
            }
        }
        out
    }

    /// The raw voxel bytes, `x`-major within `y` within `z` (the exact
    /// `MaterialVolume::index` layout). Every byte is a valid
    /// [`Material`] discriminant. Used by `hifi-store`'s binary codec.
    pub fn raw_voxels(&self) -> &[u8] {
        &self.data
    }

    /// Rebuilds a volume from raw parts (the inverse of
    /// [`MaterialVolume::raw_voxels`] plus the geometry accessors), used
    /// when decoding a stored volume. Returns `None` — instead of
    /// panicking, since the input may be a decoded artifact — when a
    /// dimension is zero, the voxel size is not positive, the data length
    /// does not match `nx * ny * nz`, or any byte is not a valid
    /// [`Material`].
    pub fn from_raw(
        nx: usize,
        ny: usize,
        nz: usize,
        voxel_nm: f64,
        stack: LayerStack,
        data: Vec<u8>,
    ) -> Option<Self> {
        if nx == 0 || ny == 0 || nz == 0 || voxel_nm.is_nan() || voxel_nm <= 0.0 {
            return None;
        }
        if data.len() != nx.checked_mul(ny)?.checked_mul(nz)? {
            return None;
        }
        if data.iter().any(|&b| Material::from_byte(b).is_none()) {
            return None;
        }
        Some(Self {
            nx,
            ny,
            nz,
            voxel_nm,
            stack,
            data,
        })
    }

    /// A cross-section slice at fixed `x` (the FIB cut plane): returns a
    /// `ny × nz` matrix of materials, row-major in `y` for each `z`.
    pub fn cross_section(&self, x: usize) -> Vec<Material> {
        let mut out = Vec::with_capacity(self.ny * self.nz);
        for z in 0..self.nz {
            for y in 0..self.ny {
                out.push(self.get(x, y, z));
            }
        }
        out
    }

    /// The slab `[x0, x1)` of the infinite periodic x-tiling of `self`
    /// (column `x` reads `self` at `x % nx`). A full-die volume is, to
    /// first order, this periodic repetition of one MAT/SA stripe along
    /// the bitline axis — the scale-sweep bench streams such dies without
    /// ever materializing them.
    ///
    /// # Panics
    ///
    /// Panics if `x0 >= x1`.
    pub fn periodic_slab_x(&self, x0: usize, x1: usize) -> MaterialVolume {
        assert!(x0 < x1, "empty periodic slab");
        let w = x1 - x0;
        let mut out = MaterialVolume::new(w, self.ny, self.nz, self.voxel_nm, self.stack.clone());
        for row in 0..self.ny * self.nz {
            let src_row = &self.data[row * self.nx..(row + 1) * self.nx];
            let dst_row = &mut out.data[row * w..(row + 1) * w];
            let mut written = 0usize;
            let mut src_x = x0 % self.nx;
            while written < w {
                let run = (self.nx - src_x).min(w - written);
                dst_row[written..written + run].copy_from_slice(&src_row[src_x..src_x + run]);
                written += run;
                src_x = 0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MaterialVolume {
        MaterialVolume::new(10, 8, 6, 5.0, LayerStack::default_dram())
    }

    #[test]
    fn starts_all_oxide() {
        let v = small();
        assert_eq!(v.fill_fraction(), 0.0);
        assert_eq!(v.get(0, 0, 0), Material::Oxide);
    }

    #[test]
    fn fill_box_clamps_and_counts() {
        let mut v = small();
        v.fill_box(2, 100, 1, 3, 0, 2, Material::Metal1, true);
        // x clamped to 10: (10-2) * 2 * 2 = 32 voxels.
        assert_eq!(v.count(Material::Metal1), 32);
        assert_eq!(v.get(5, 2, 1), Material::Metal1);
    }

    #[test]
    fn non_overwrite_preserves_existing() {
        let mut v = small();
        v.set(1, 1, 1, Material::GatePoly);
        v.fill_box(0, 3, 0, 3, 0, 3, Material::Contact, false);
        assert_eq!(v.get(1, 1, 1), Material::GatePoly, "gate kept under plug");
        assert_eq!(v.get(0, 0, 0), Material::Contact);
    }

    #[test]
    fn material_round_trip_and_conductivity() {
        for m in Material::ALL {
            assert_eq!(Material::from_byte(m as u8), Some(m));
        }
        assert_eq!(Material::from_byte(200), None);
        assert!(!Material::Oxide.is_conductor());
        assert!(Material::Metal1.is_conductor());
    }

    #[test]
    fn intensities_are_distinct_per_detector() {
        for pair in Material::ALL.iter().zip(Material::ALL.iter().skip(1)) {
            assert_ne!(pair.0.se_intensity(), pair.1.se_intensity());
        }
        // BSE separates the tungsten plug from silicon far more than SE does,
        // mirroring the detector physics the paper leans on.
        let sep_bse = Material::Contact.bse_intensity() - Material::ActiveSi.bse_intensity();
        let sep_se = Material::Contact.se_intensity() - Material::ActiveSi.se_intensity();
        assert!(sep_bse > sep_se);
    }

    #[test]
    fn cross_section_shape() {
        let v = small();
        assert_eq!(v.cross_section(3).len(), 8 * 6);
    }

    #[test]
    fn layer_z_ranges_follow_stack() {
        let v = small();
        let (m1_lo, m1_hi) = v.layer_z_range(Layer::Metal1);
        assert!(m1_lo < m1_hi || m1_hi == v.dims().2);
        // Active starts at the substrate.
        assert_eq!(v.layer_z_range(Layer::Active).0, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = MaterialVolume::new(0, 4, 4, 5.0, LayerStack::default_dram());
    }

    #[test]
    fn mirrors_are_involutions_and_flip_contents() {
        let mut v = small();
        v.fill_box(1, 3, 2, 5, 0, 2, Material::Metal1, true);
        v.set(0, 0, 0, Material::GatePoly);
        let mx = v.mirror_x();
        let my = v.mirror_y();
        assert_eq!(mx.dims(), v.dims());
        assert_eq!(mx.get(9, 0, 0), Material::GatePoly);
        assert_eq!(my.get(0, 7, 0), Material::GatePoly);
        assert_eq!(mx.count(Material::Metal1), v.count(Material::Metal1));
        assert_eq!(mx.mirror_x(), v, "mirror_x is an involution");
        assert_eq!(my.mirror_y(), v, "mirror_y is an involution");
    }

    #[test]
    fn raw_round_trip_preserves_volume() {
        let mut v = small();
        v.fill_box(1, 4, 2, 5, 0, 3, Material::GatePoly, true);
        let (nx, ny, nz) = v.dims();
        let back = MaterialVolume::from_raw(
            nx,
            ny,
            nz,
            v.voxel_nm(),
            v.stack().clone(),
            v.raw_voxels().to_vec(),
        )
        .expect("valid raw parts");
        assert_eq!(back, v);
    }

    fn textured() -> MaterialVolume {
        let mut v = small();
        v.fill_box(1, 7, 2, 6, 0, 3, Material::Metal1, true);
        v.fill_box(3, 9, 0, 4, 2, 5, Material::GatePoly, true);
        v.set(9, 7, 5, Material::Capacitor);
        v
    }

    #[test]
    fn periodic_slab_wraps_contents() {
        let v = textured();
        // One full period starting at 0 is the volume itself.
        assert_eq!(v.periodic_slab_x(0, 10), v);
        // A slab spanning two periods repeats the voxels.
        let two = v.periodic_slab_x(0, 20);
        for z in 0..6 {
            for y in 0..8 {
                for x in 0..20 {
                    assert_eq!(two.get(x, y, z), v.get(x % 10, y, z));
                }
            }
        }
        // A misaligned window reads modulo the period.
        let window = v.periodic_slab_x(7, 13);
        for x in 0..6 {
            assert_eq!(window.get(x, 3, 2), v.get((7 + x) % 10, 3, 2));
        }
    }

    #[test]
    fn from_raw_rejects_invalid_parts() {
        let v = small();
        let (nx, ny, nz) = v.dims();
        let stack = v.stack().clone();
        let data = v.raw_voxels().to_vec();
        // Wrong length.
        assert!(
            MaterialVolume::from_raw(nx, ny, nz + 1, 5.0, stack.clone(), data.clone()).is_none()
        );
        // Zero dimension / bad voxel size.
        assert!(MaterialVolume::from_raw(0, ny, nz, 5.0, stack.clone(), Vec::new()).is_none());
        assert!(MaterialVolume::from_raw(nx, ny, nz, -1.0, stack.clone(), data.clone()).is_none());
        // A byte that is not a material.
        let mut bad = data;
        bad[0] = 200;
        assert!(MaterialVolume::from_raw(nx, ny, nz, 5.0, stack, bad).is_none());
    }
}
