//! FIB slicing and SEM image formation.

use hifi_faults::{FaultKind, Recovery};
use hifi_synth::MaterialVolume;
use hifi_telemetry::LaneProfiler;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// SEM detector choice (Table I uses SE for vendor A and BSE elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// Secondary electrons: conductivity contrast.
    Se,
    /// Backscatter electrons: atomic-number contrast.
    Bse,
}

/// Acquisition parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ImagingConfig {
    /// Detector used for the whole stack.
    pub detector: DetectorKind,
    /// Dwell time per pixel (µs). Noise σ scales as `1/√dwell`
    /// (the paper uses 3 µs and 6 µs).
    pub dwell_us: f64,
    /// Standard deviation of the per-slice stage-drift innovation (pixels).
    /// Drift follows a mean-reverting (Ornstein–Uhlenbeck) walk — operators
    /// re-centre the field of view periodically, so drift stays bounded at
    /// roughly ±3× this value.
    pub drift_sigma_px: f64,
    /// Per-slice brightness random-walk step (intensity units).
    pub brightness_wander: f64,
    /// FIB slice thickness in voxels of the source volume (the paper mills
    /// 10 nm or 20 nm per slice).
    pub slice_voxels: usize,
    /// RNG seed: acquisitions are reproducible.
    pub seed: u64,
    /// Blank frame margin (pixels) around the cross-section, so stage drift
    /// moves content within the frame instead of clipping it at the image
    /// border — as an operator would frame the ROI with headroom.
    pub frame_margin_px: usize,
}

impl Default for ImagingConfig {
    fn default() -> Self {
        Self {
            detector: DetectorKind::Bse,
            dwell_us: 6.0,
            drift_sigma_px: 0.7,
            brightness_wander: 1.5,
            slice_voxels: 1,
            seed: 0x5EED,
            frame_margin_px: 16,
        }
    }
}

impl ImagingConfig {
    /// Noise standard deviation implied by the dwell time. Calibrated so
    /// that the paper's dwell times (3–6 µs) yield the SNR of a usable
    /// FIB/SEM acquisition (contrast ≈ 30 intensity units between adjacent
    /// material classes): ≈10σ at 3 µs, ≈7σ at 6 µs.
    pub fn noise_sigma(&self) -> f64 {
        18.0 / self.dwell_us.max(1e-6).sqrt()
    }
}

/// One SEM cross-section image: `ny × nz` intensity pixels (f32), row-major
/// in `y` per `z` row.
#[derive(Debug, Clone, PartialEq)]
pub struct SemImage {
    ny: usize,
    nz: usize,
    pixels: Vec<f32>,
}

impl SemImage {
    /// Creates a constant image.
    pub fn filled(ny: usize, nz: usize, value: f32) -> Self {
        Self {
            ny,
            nz,
            pixels: vec![value; ny * nz],
        }
    }

    /// Image dimensions `(ny, nz)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.ny, self.nz)
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn get(&self, y: usize, z: usize) -> f32 {
        self.pixels[z * self.ny + y]
    }

    /// Pixel setter.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn set(&mut self, y: usize, z: usize, v: f32) {
        self.pixels[z * self.ny + y] = v;
    }

    /// Raw pixel slice.
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Mutable raw pixels.
    pub fn pixels_mut(&mut self) -> &mut [f32] {
        &mut self.pixels
    }

    /// Returns the image translated by `(dy, dz)` pixels, filling exposed
    /// borders with `fill`.
    pub fn shifted(&self, dy: i32, dz: i32, fill: f32) -> SemImage {
        let mut out = SemImage::filled(self.ny, self.nz, fill);
        for z in 0..self.nz {
            let sz = z as i32 - dz;
            if sz < 0 || sz >= self.nz as i32 {
                continue;
            }
            for y in 0..self.ny {
                let sy = y as i32 - dy;
                if sy < 0 || sy >= self.ny as i32 {
                    continue;
                }
                out.set(y, z, self.get(sy as usize, sz as usize));
            }
        }
        out
    }

    /// Median intensity (used for brightness normalisation: the oxide
    /// background dominates every cross-section).
    ///
    /// The true median: the mean of the two middle values for even pixel
    /// counts. NaN pixels are tolerated (`total_cmp` ranks them last
    /// instead of aborting the run) and an empty image reports `0.0`.
    pub fn median(&self) -> f32 {
        median_of(self.pixels.clone())
    }

    /// Adds a constant offset.
    pub fn add_offset(&mut self, offset: f32) {
        for p in &mut self.pixels {
            *p += offset;
        }
    }
}

/// An acquired (or processed) stack of cross-section slices.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageStack {
    slices: Vec<SemImage>,
    /// Pixel edge in nm (equals the source voxel size).
    pixel_nm: f64,
    /// Slice thickness in source voxels.
    slice_voxels: usize,
    detector: DetectorKind,
    /// Blank frame margin around the imaged cross-section (pixels).
    frame_margin_px: usize,
}

impl ImageStack {
    /// Builds a stack from parts (used by processing steps).
    pub fn from_slices(
        slices: Vec<SemImage>,
        pixel_nm: f64,
        slice_voxels: usize,
        detector: DetectorKind,
    ) -> Self {
        Self {
            slices,
            pixel_nm,
            slice_voxels,
            detector,
            frame_margin_px: 0,
        }
    }

    /// Sets the frame margin recorded with the stack (builder style).
    pub fn with_frame_margin(mut self, margin_px: usize) -> Self {
        self.frame_margin_px = margin_px;
        self
    }

    /// Blank frame margin around the cross-section content (pixels).
    pub fn frame_margin_px(&self) -> usize {
        self.frame_margin_px
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Slice accessor.
    pub fn slice(&self, i: usize) -> &SemImage {
        &self.slices[i]
    }

    /// Mutable slices.
    pub fn slices_mut(&mut self) -> &mut [SemImage] {
        &mut self.slices
    }

    /// All slices.
    pub fn slices(&self) -> &[SemImage] {
        &self.slices
    }

    /// Pixel size (nm).
    pub fn pixel_nm(&self) -> f64 {
        self.pixel_nm
    }

    /// Slice thickness in source voxels.
    pub fn slice_voxels(&self) -> usize {
        self.slice_voxels
    }

    /// Detector the stack was acquired with.
    pub fn detector(&self) -> DetectorKind {
        self.detector
    }

    /// A planar (top-down) view at height-row `z`: axes (slice index, y).
    /// This is the cross-section → planar pivot of Section IV-C.
    ///
    /// `z` indexes *content* rows: on a framed stack the blank frame
    /// margin is added internally, so the view reads the same physical
    /// height whether or not the stack was acquired with headroom. An
    /// empty stack yields an empty image.
    pub fn planar_view(&self, z: usize) -> SemImage {
        let Some(first) = self.slices.first() else {
            return SemImage::filled(0, 0, 0.0);
        };
        let (ny, _) = first.dims();
        let z_row = z + self.frame_margin_px;
        let mut out = SemImage::filled(self.len(), ny, 0.0);
        for (x, s) in self.slices.iter().enumerate() {
            for y in 0..ny {
                out.set(x, y, s.get(y, z_row));
            }
        }
        // Planar image dims: (n_slices, ny) mapped into SemImage(ny=n_slices, nz=ny).
        out
    }

    /// Normalises per-slice brightness by pinning each slice's median (the
    /// oxide background) to the stack-wide median (the true median — mean
    /// of the two middle slices for even-length stacks; NaN pixels no
    /// longer abort the run).
    pub fn normalize_brightness(&mut self) {
        if self.slices.is_empty() {
            return;
        }
        let medians: Vec<f32> = rayon::par_map(&self.slices, SemImage::median);
        let target = median_of(medians.clone());
        for (s, m) in self.slices.iter_mut().zip(medians) {
            s.add_offset(target - m);
        }
    }
}

/// Ground-truth acquisition artefacts, for validating the post-processing.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftTruth {
    /// Cumulative (dy, dz) shift applied to each slice.
    pub shifts: Vec<(i32, i32)>,
    /// Brightness offset applied to each slice.
    pub brightness: Vec<f64>,
}

/// True median of a sample: mean of the two middle values when the length
/// is even, `0.0` when empty. `total_cmp` keeps a stray NaN pixel from
/// aborting the selection (NaNs order last).
///
/// A selection, not a sort: values equal under `total_cmp` have identical
/// bits, so the value selected at the middle rank — and, for even lengths,
/// the largest of the lower half beside it — is bit for bit what a full
/// sort would put there.
fn median_of(mut v: Vec<f32>) -> f32 {
    let len = v.len();
    if len == 0 {
        return 0.0;
    }
    let (lower, &mut mid, _) = v.select_nth_unstable_by(len / 2, f32::total_cmp);
    if len.is_multiple_of(2) {
        let below = lower
            .iter()
            .copied()
            .max_by(f32::total_cmp)
            .expect("an even-length sample has a lower half");
        (below + mid) / 2.0
    } else {
        mid
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Advances `rng` past the draws [`gaussian`] would consume for `count`
/// samples, without the Box-Muller arithmetic.
///
/// This is what lets [`acquire`] parallelise per-slice rendering while
/// staying bit-identical to a single sequential RNG stream: the sequential
/// artefact pass snapshots the RNG state at each slice boundary and skips
/// over the slice's noise draws; the parallel pass then replays exactly
/// those draws from the snapshot. Each `gaussian` consumes exactly two
/// `u64` draws (one per `gen_range`), which the test
/// `skipping_matches_gaussian_consumption` pins down.
fn skip_gaussians(rng: &mut StdRng, count: usize) {
    for _ in 0..2 * count {
        rng.next_u64();
    }
}

fn oxide_intensity(detector: DetectorKind) -> f32 {
    let base = match detector {
        DetectorKind::Se => hifi_synth::Material::Oxide.se_intensity(),
        DetectorKind::Bse => hifi_synth::Material::Oxide.bse_intensity(),
    };
    base as f32
}

/// Per-material mean intensity, indexed by the voxel byte. The same
/// `f64 → f32` conversion as the per-pixel `match` it replaces, done once
/// per render instead of once per pixel.
fn intensity_lut(detector: DetectorKind) -> [f32; 8] {
    let mut lut = [0.0f32; 8];
    for m in hifi_synth::Material::ALL {
        let base = match detector {
            DetectorKind::Se => m.se_intensity(),
            DetectorKind::Bse => m.bse_intensity(),
        };
        lut[m as usize] = base as f32;
    }
    lut
}

/// Renders the ideal (artefact-free) cross-section at milling position `x`,
/// framed with the configured blank margin.
///
/// The hot loop walks the raw voxel bytes of each `z` row directly and
/// writes one contiguous pixel row per `z` through the intensity LUT —
/// flat `f32` lanes with the per-pixel enum decode, detector branch and
/// 2-D index arithmetic hoisted out (bit-identical to the scalar form,
/// pinned by `blocked_render_matches_reference`).
fn render_cross_section(volume: &MaterialVolume, x: usize, cfg: &ImagingConfig) -> SemImage {
    let (nx, ny, nz) = volume.dims();
    let margin = cfg.frame_margin_px;
    let width = ny + 2 * margin;
    let mut img = SemImage::filled(width, nz + 2 * margin, oxide_intensity(cfg.detector));
    let lut = intensity_lut(cfg.detector);
    let raw = volume.raw_voxels();
    let pixels = img.pixels_mut();
    for z in 0..nz {
        // Voxels of this z plane, strided by nx in y, starting at column x.
        let src = &raw[z * ny * nx + x..];
        let dst_base = (z + margin) * width + margin;
        let dst = &mut pixels[dst_base..dst_base + ny];
        for (y, d) in dst.iter_mut().enumerate() {
            *d = lut[src[y * nx] as usize];
        }
    }
    img
}

/// Runs one per-slice work item, timed as a `name` span on the worker lane
/// that executed it when `lanes` is set. The profiler observes, it never
/// reorders, so output is identical with and without it.
pub(crate) fn lane_timed<T>(
    lanes: Option<&LaneProfiler>,
    name: &str,
    body: impl FnOnce() -> T,
) -> T {
    match lanes {
        Some(l) => l.time(name, rayon::current_thread_index() as u32, body),
        None => body(),
    }
}

/// Renders the ideal stack an artefact-free microscope would acquire: the
/// same slicing, framing and material contrast as [`acquire`] with no
/// noise, drift or brightness wander. Ground-truth reference for fidelity
/// metrics (PSNR of an acquired or denoised stack is measured against it).
/// With `lanes` set, every slice render is timed as a `render.slice` span.
pub fn render_ideal(
    volume: &MaterialVolume,
    cfg: &ImagingConfig,
    lanes: Option<&LaneProfiler>,
) -> ImageStack {
    let (nx, _, _) = volume.dims();
    let step = cfg.slice_voxels.max(1);
    let positions: Vec<usize> = (0..nx).step_by(step).collect();
    // Slices are independent; par_map preserves order, so the stack is
    // identical at any thread count.
    let slices = rayon::par_map(&positions, |&x| {
        lane_timed(lanes, "render.slice", || {
            render_cross_section(volume, x, cfg)
        })
    });
    ImageStack::from_slices(slices, volume.voxel_nm(), step, cfg.detector)
        .with_frame_margin(cfg.frame_margin_px)
}

/// Sequentially-derived inputs for rendering one acquired slice: milling
/// position, rounded stage drift, brightness offset, and the RNG state the
/// slice's shot noise starts from.
struct SliceArtefacts {
    x: usize,
    dy: i32,
    dz: i32,
    bright: f64,
    noise_rng: StdRng,
}

/// The sequential artefact schedule of an acquisition: per-slice drift,
/// brightness and noise-RNG snapshots, derived from the die *dimensions*
/// alone. This is what lets a streaming consumer image a full die slab by
/// slab while staying bit-identical to a whole-volume [`acquire`] — the
/// schedule is O(slices) in memory, independent of the voxel payload, and
/// any slice can then be rendered from whichever x-slab contains it.
pub struct AcquirePlan {
    artefacts: Vec<SliceArtefacts>,
    truth: DriftTruth,
    step: usize,
}

impl AcquirePlan {
    /// Builds the schedule for a die of `(nx, ny, nz)` voxels. Walks the
    /// single sequential RNG stream exactly as a whole-volume acquisition
    /// would (see `skip_gaussians`).
    pub fn for_dims(nx: usize, ny: usize, nz: usize, cfg: &ImagingConfig) -> Self {
        let step = cfg.slice_voxels.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let mut artefacts: Vec<SliceArtefacts> = Vec::new();
        let mut shifts = Vec::new();
        let mut brightness = Vec::new();
        // Continuous mean-reverting drift state, rounded per slice.
        let (mut fy, mut fz) = (0.0f64, 0.0f64);
        let mut bright = 0.0f64;
        const REVERSION: f64 = 0.94;

        let margin = cfg.frame_margin_px;
        let pixels_per_slice = (ny + 2 * margin) * (nz + 2 * margin);
        let mut x = 0usize;
        while x < nx {
            // Stage drift: mean-reverting walk (first slice is the reference).
            if !artefacts.is_empty() {
                fy = fy * REVERSION + gaussian(&mut rng) * cfg.drift_sigma_px;
                fz = fz * REVERSION + gaussian(&mut rng) * cfg.drift_sigma_px;
                bright = bright * REVERSION + gaussian(&mut rng) * cfg.brightness_wander;
            }
            let (dy, dz) = (fy.round() as i32, fz.round() as i32);
            artefacts.push(SliceArtefacts {
                x,
                dy,
                dz,
                bright,
                noise_rng: rng.clone(),
            });
            skip_gaussians(&mut rng, pixels_per_slice);
            shifts.push((dy, dz));
            brightness.push(bright);
            x += step;
        }
        Self {
            artefacts,
            truth: DriftTruth { shifts, brightness },
            step,
        }
    }

    /// [`AcquirePlan::for_dims`] for an in-memory volume.
    pub fn for_volume(volume: &MaterialVolume, cfg: &ImagingConfig) -> Self {
        let (nx, ny, nz) = volume.dims();
        Self::for_dims(nx, ny, nz, cfg)
    }

    /// Number of scheduled slices.
    pub fn len(&self) -> usize {
        self.artefacts.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.artefacts.is_empty()
    }

    /// Ground-truth artefacts of the schedule.
    pub fn truth(&self) -> &DriftTruth {
        &self.truth
    }

    /// Global milling position of slice `i`.
    pub fn slice_x(&self, i: usize) -> usize {
        self.artefacts[i].x
    }

    /// Indices of the scheduled slices whose milling position lies in the
    /// half-open x-slab `[x0, x1)`.
    pub fn slices_in_slab(&self, x0: usize, x1: usize) -> std::ops::Range<usize> {
        let start = x0.div_ceil(self.step).min(self.artefacts.len());
        let end = x1.div_ceil(self.step).min(self.artefacts.len());
        start..end.max(start)
    }

    /// Renders scheduled slice `i` from `slab`, a volume whose x-range
    /// starts at global voxel column `slab_x0`: the framed ideal
    /// cross-section, then the slice's drift shift, shot noise and
    /// brightness offset. Rendering a slice from a slab is bit-identical to
    /// rendering it from the whole die — the cross-section only reads the
    /// slice's own voxel column — and re-rendering it (a re-acquisition
    /// after a fault) replays the same noise snapshot, bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if the slice's milling position does not fall inside the slab.
    pub fn render(
        &self,
        slab: &MaterialVolume,
        slab_x0: usize,
        i: usize,
        cfg: &ImagingConfig,
    ) -> SemImage {
        let a = &self.artefacts[i];
        let (slab_nx, _, _) = slab.dims();
        assert!(
            a.x >= slab_x0 && a.x - slab_x0 < slab_nx,
            "slice {i} at x={} outside slab [{slab_x0}, {})",
            a.x,
            slab_x0 + slab_nx
        );
        let ideal = render_cross_section(slab, a.x - slab_x0, cfg);
        let mut img = ideal.shifted(a.dy, a.dz, oxide_intensity(cfg.detector));
        let sigma = cfg.noise_sigma();
        let mut rng = a.noise_rng.clone();
        for p in img.pixels_mut() {
            *p += (gaussian(&mut rng) * sigma + a.bright) as f32;
        }
        img
    }
}

/// Acquires a cross-section stack from a volume: for every FIB slice the
/// cross-section is rendered with material-dependent contrast, shot noise,
/// cumulative integer stage drift and brightness wander.
///
/// Rendering is parallel across slices but the output is bit-identical to
/// a fully sequential acquisition at any thread count: a sequential pass
/// walks the single RNG stream — drawing each slice's drift and brightness
/// innovations and snapshotting the state its noise starts from — and the
/// parallel pass replays each slice's noise draws from its snapshot (see
/// `skip_gaussians`).
///
/// Returns the stack and the ground-truth artefacts (for validation only —
/// the post-processing never sees them). [`acquire_with`] adds fault
/// recovery and lane profiling.
pub fn acquire(volume: &MaterialVolume, cfg: &ImagingConfig) -> (ImageStack, DriftTruth) {
    let out = acquire_with(volume, cfg, &AcquireOpts::default());
    (out.stack, out.truth)
}

/// How [`acquire_with`] executes. The default (fault-free, unprofiled) is
/// [`acquire`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AcquireOpts<'a> {
    /// The run's retry ledger: every slice acquisition consults its fault
    /// plan (sites `slice:<i>`, keyed on the global slice index) and
    /// failed ones are re-acquired under its policy; `None` acquires
    /// fault-free.
    pub recovery: Option<&'a Recovery>,
    /// Times each slice's acquisition, retries included, as an
    /// `acquire.slice` span on the worker lane that executed it.
    pub lanes: Option<&'a LaneProfiler>,
}

/// Result of [`acquire_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct AcquireOutcome {
    /// The acquired stack; degraded slices are interpolated in place.
    pub stack: ImageStack,
    /// Ground-truth artefacts, identical to a clean [`acquire`] (stage
    /// drift is a property of the mill schedule, not of which slice
    /// acquisitions failed).
    pub truth: DriftTruth,
    /// Slice indices that exhausted their retries and were interpolated
    /// from neighbours. Empty whenever the plan is recoverable under the
    /// policy (`policy.max_retries >= spec.max_consecutive`).
    pub degraded_slices: Vec<usize>,
}

/// [`acquire`] under the execution options of `opts`: every scheduled
/// slice of the [`AcquirePlan`] renders from `volume` in one parallel map.
///
/// Under [`AcquireOpts::recovery`] each slice acquisition consults the
/// ledger's plan and, when a fault is injected, is re-acquired through
/// [`Recovery::run`], which charges and logs the backoff. A re-acquired
/// slice replays the same RNG snapshot, so a recovered stack is
/// **bit-identical** to a clean one at any thread count. A slice that
/// exhausts its retries is interpolated from its nearest intact neighbours
/// (mean of both sides, copy of one side at the stack edges, oxide fill if
/// every slice failed) and flagged in [`AcquireOutcome::degraded_slices`].
pub fn acquire_with(
    volume: &MaterialVolume,
    cfg: &ImagingConfig,
    opts: &AcquireOpts,
) -> AcquireOutcome {
    let aplan = AcquirePlan::for_volume(volume, cfg);

    // Every slice renders, shifts and replays its noise draws
    // independently; `None` marks a slice that exhausted its retries.
    let acquire_one = |i: usize| -> Option<SemImage> {
        let render = || aplan.render(volume, 0, i, cfg);
        let Some(recovery) = opts.recovery else {
            return Some(render());
        };
        let plan = recovery.plan();
        let site = format!("slice:{i}");
        // A failed slice acquisition is always transient: the stage
        // position is unchanged and the mill schedule already advanced.
        let acquired = recovery.run(
            |_| true,
            || {
                if plan.is_some_and(|plan| plan.check(FaultKind::AcquireSlice, &site)) {
                    Err(())
                } else {
                    Ok(render())
                }
            },
        );
        // Transient-only error type: the only error is an exhausted budget.
        acquired.inspect_err(|_| recovery.degrade()).ok()
    };
    let indices: Vec<usize> = (0..aplan.len()).collect();
    let mut rendered = rayon::par_map(&indices, |&i| {
        lane_timed(opts.lanes, "acquire.slice", || acquire_one(i))
    });

    let degraded_slices: Vec<usize> = rendered
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    // Interpolate from *rendered* neighbours only (never from another
    // interpolated slice), reading the pre-fill state.
    let (_, ny, nz) = volume.dims();
    let m = 2 * cfg.frame_margin_px;
    let interpolated: Vec<(usize, SemImage)> = degraded_slices
        .iter()
        .map(|&i| (i, interpolate_slice(&rendered, i, ny + m, nz + m, cfg)))
        .collect();
    for (i, img) in interpolated {
        rendered[i] = Some(img);
    }
    let slices: Vec<SemImage> = rendered
        .into_iter()
        .map(|r| r.expect("every slot rendered or interpolated"))
        .collect();

    AcquireOutcome {
        stack: ImageStack::from_slices(
            slices,
            volume.voxel_nm(),
            cfg.slice_voxels.max(1),
            cfg.detector,
        )
        .with_frame_margin(cfg.frame_margin_px),
        truth: aplan.truth,
        degraded_slices,
    }
}

/// Best-effort stand-in for a slice whose acquisition exhausted retries:
/// the pixel-wise mean of the nearest intact slices on both sides, a copy
/// of the single intact side at a stack edge, or an `ny × nz` oxide
/// background if no slice survived.
fn interpolate_slice(
    rendered: &[Option<SemImage>],
    i: usize,
    ny: usize,
    nz: usize,
    cfg: &ImagingConfig,
) -> SemImage {
    let prev = rendered[..i]
        .iter()
        .rposition(|s| s.is_some())
        .and_then(|p| rendered[p].as_ref());
    let next = rendered[i + 1..]
        .iter()
        .position(|s| s.is_some())
        .and_then(|n| rendered[i + 1 + n].as_ref());
    match (prev, next) {
        (Some(a), Some(b)) => {
            let mut out = a.clone();
            for (p, q) in out.pixels_mut().iter_mut().zip(b.pixels()) {
                *p = (*p + q) / 2.0;
            }
            out
        }
        (Some(only), None) | (None, Some(only)) => only.clone(),
        (None, None) => SemImage::filled(ny, nz, oxide_intensity(cfg.detector)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_geometry::LayerStack;
    use hifi_synth::Material;

    fn test_volume() -> MaterialVolume {
        let mut v = MaterialVolume::new(20, 30, 25, 5.0, LayerStack::default_dram());
        v.fill_box(0, 20, 10, 14, 8, 10, Material::Metal1, true);
        v.fill_box(0, 20, 4, 6, 2, 4, Material::ActiveSi, true);
        v
    }

    #[test]
    fn skipping_matches_gaussian_consumption() {
        // The parallel acquire path depends on `skip_gaussians` advancing
        // the RNG exactly as `gaussian` calls would.
        let mut drawn = StdRng::seed_from_u64(0xABCD);
        let mut skipped = drawn.clone();
        for _ in 0..37 {
            let _ = gaussian(&mut drawn);
        }
        skip_gaussians(&mut skipped, 37);
        assert_eq!(drawn, skipped);
    }

    /// Scalar reference for the LUT/row-blocked cross-section renderer:
    /// per-pixel volume accessor, detector `match` and `f64 → f32` cast.
    fn render_cross_section_reference(
        volume: &MaterialVolume,
        x: usize,
        cfg: &ImagingConfig,
    ) -> SemImage {
        let (_, ny, nz) = volume.dims();
        let margin = cfg.frame_margin_px;
        let mut img = SemImage::filled(
            ny + 2 * margin,
            nz + 2 * margin,
            oxide_intensity(cfg.detector),
        );
        for z in 0..nz {
            for y in 0..ny {
                let m = volume.get(x, y, z);
                let base = match cfg.detector {
                    DetectorKind::Se => m.se_intensity(),
                    DetectorKind::Bse => m.bse_intensity(),
                };
                img.set(y + margin, z + margin, base as f32);
            }
        }
        img
    }

    #[test]
    fn blocked_render_matches_reference() {
        let v = test_volume();
        for detector in [DetectorKind::Se, DetectorKind::Bse] {
            for margin in [0usize, 16] {
                let cfg = ImagingConfig {
                    detector,
                    frame_margin_px: margin,
                    ..Default::default()
                };
                for x in [0usize, 7, 19] {
                    let got = render_cross_section(&v, x, &cfg);
                    let want = render_cross_section_reference(&v, x, &cfg);
                    let gb: Vec<u32> = got.pixels().iter().map(|p| p.to_bits()).collect();
                    let wb: Vec<u32> = want.pixels().iter().map(|p| p.to_bits()).collect();
                    assert_eq!(gb, wb, "x {x} margin {margin} detector {detector:?}");
                }
            }
        }
    }

    /// A half-rate slice-fault plan capped at two consecutive failures,
    /// under the default policy (3 retries): recoverable.
    fn recoverable() -> Recovery {
        let spec = hifi_faults::FaultSpec::disabled()
            .with_seed(3)
            .with_rate(FaultKind::AcquireSlice, 0.5)
            .with_max_consecutive(2);
        Recovery::new(Some(spec), hifi_faults::RetryPolicy::default())
    }

    #[test]
    fn acquire_with_matches_acquire_under_every_option() {
        let v = test_volume();
        let bits = |s: &ImageStack| -> Vec<u32> {
            s.slices()
                .iter()
                .flat_map(|img| img.pixels().iter().map(|p| p.to_bits()))
                .collect()
        };
        // One slice per voxel column, and a step that leaves gaps.
        for slice_voxels in [1usize, 3] {
            let cfg = ImagingConfig {
                slice_voxels,
                ..Default::default()
            };
            let (mono, mono_truth) = acquire(&v, &cfg);
            for faulted in [false, true] {
                for profiled in [false, true] {
                    let case = format!("step {slice_voxels}, faults {faulted}, lanes {profiled}");
                    let (recovery, lanes) = (recoverable(), LaneProfiler::new(0));
                    let opts = AcquireOpts {
                        recovery: faulted.then_some(&recovery),
                        lanes: profiled.then_some(&lanes),
                    };
                    let out = acquire_with(&v, &cfg, &opts);
                    assert_eq!(out.stack, mono, "{case}");
                    assert_eq!(bits(&out.stack), bits(&mono), "{case}");
                    assert_eq!(out.truth, mono_truth, "{case}");
                    assert!(out.degraded_slices.is_empty(), "{case}");
                    // A faulted run must inject, recover every slice and
                    // charge its backoff to the virtual clock.
                    let tally = recovery.plan().expect("plan").tally();
                    assert_eq!(tally.injected > 0, faulted, "{case}");
                    assert_eq!(tally.recovered > 0, faulted, "{case}");
                    assert_eq!(tally.degraded, 0, "{case}");
                    assert_eq!(!recovery.waited().is_zero(), faulted, "{case}");
                    // Every slice re-acquisition is a logged backoff.
                    assert_eq!(recovery.backoffs().len() as u64, tally.retried, "{case}");
                    let spans = lanes.drain();
                    let want = if profiled { mono.len() } else { 0 };
                    assert_eq!(spans.len(), want, "{case}");
                    assert!(spans.iter().all(|s| s.name == "acquire.slice"), "{case}");
                }
            }
        }
    }

    #[test]
    fn acquire_plan_slab_ranges_cover_all_slices() {
        let cfg = ImagingConfig {
            slice_voxels: 3,
            ..Default::default()
        };
        let plan = AcquirePlan::for_dims(20, 4, 4, &cfg);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.truth().shifts.len(), 7);
        let mut covered = Vec::new();
        for x0 in (0..20).step_by(5) {
            covered.extend(plan.slices_in_slab(x0, x0 + 5));
        }
        let all: Vec<usize> = (0..plan.len()).collect();
        assert_eq!(covered, all, "every slice in exactly one slab");
        for i in 0..plan.len() {
            assert_eq!(plan.slice_x(i), i * 3);
        }
    }

    /// The streaming contract `die_stream` and `scale_sweep` rely on: a
    /// slice rendered from any x-slab that holds its milling position is
    /// bit-identical to the same slice of a whole-volume acquisition.
    #[test]
    fn slab_renders_match_whole_volume_renders() {
        let v = test_volume();
        let (nx, _, _) = v.dims();
        let bits =
            |img: &SemImage| -> Vec<u32> { img.pixels().iter().map(|p| p.to_bits()).collect() };
        // Slab widths narrower than, straddling and equal to the slice
        // step and the die.
        for slice_voxels in [1usize, 3] {
            let cfg = ImagingConfig {
                slice_voxels,
                ..Default::default()
            };
            let (whole, _) = acquire(&v, &cfg);
            let plan = AcquirePlan::for_volume(&v, &cfg);
            for width in [1usize, 2, 3, 7, 19, 20] {
                let mut rendered = Vec::new();
                for x0 in (0..nx).step_by(width) {
                    let x1 = (x0 + width).min(nx);
                    let slab = v.periodic_slab_x(x0, x1);
                    for i in plan.slices_in_slab(x0, x1) {
                        let img = plan.render(&slab, x0, i, &cfg);
                        let case = format!("step {slice_voxels}, width {width}, slice {i}");
                        assert_eq!(bits(&img), bits(whole.slice(i)), "{case}");
                        rendered.push(i);
                    }
                }
                let all: Vec<usize> = (0..whole.len()).collect();
                assert_eq!(rendered, all, "step {slice_voxels}, width {width}");
            }
        }
    }

    #[test]
    fn acquisition_is_deterministic() {
        let v = test_volume();
        let cfg = ImagingConfig::default();
        let (a, ta) = acquire(&v, &cfg);
        let (b, tb) = acquire(&v, &cfg);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn slice_count_follows_thickness() {
        let v = test_volume();
        let mut cfg = ImagingConfig {
            slice_voxels: 1,
            ..Default::default()
        };
        assert_eq!(acquire(&v, &cfg).0.len(), 20);
        cfg.slice_voxels = 4;
        assert_eq!(acquire(&v, &cfg).0.len(), 5);
    }

    #[test]
    fn higher_dwell_means_less_noise() {
        let mut cfg = ImagingConfig {
            dwell_us: 3.0,
            ..Default::default()
        };
        let s3 = cfg.noise_sigma();
        cfg.dwell_us = 6.0;
        let s6 = cfg.noise_sigma();
        assert!(s6 < s3);
        assert!((s3 / s6 - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn materials_are_visible_above_noise() {
        let v = test_volume();
        let cfg = ImagingConfig {
            drift_sigma_px: 0.0,
            brightness_wander: 0.0,
            ..Default::default()
        };
        let (stack, _) = acquire(&v, &cfg);
        let img = stack.slice(5);
        let m = cfg.frame_margin_px;
        // Metal pixel vs oxide pixel: means far apart.
        let metal = img.get(11 + m, 8 + m);
        let oxide = img.get(m, 20 + m);
        assert!(metal - oxide > 80.0, "metal {metal} vs oxide {oxide}");
    }

    #[test]
    fn shifted_fills_border() {
        let mut img = SemImage::filled(4, 4, 1.0);
        img.set(0, 0, 9.0);
        let s = img.shifted(1, 0, 0.0);
        assert_eq!(s.get(1, 0), 9.0);
        assert_eq!(s.get(0, 0), 0.0);
    }

    #[test]
    fn normalization_removes_brightness_wander() {
        let v = test_volume();
        let cfg = ImagingConfig {
            drift_sigma_px: 0.0,
            brightness_wander: 8.0,
            dwell_us: 1e6, // effectively noiseless
            ..Default::default()
        };
        let (mut stack, truth) = acquire(&v, &cfg);
        assert!(truth.brightness.iter().any(|b| b.abs() > 4.0));
        stack.normalize_brightness();
        let medians: Vec<f32> = stack.slices().iter().map(SemImage::median).collect();
        let spread = medians.iter().cloned().fold(f32::MIN, f32::max)
            - medians.iter().cloned().fold(f32::MAX, f32::min);
        assert!(spread < 1.0, "median spread {spread}");
    }

    #[test]
    fn render_ideal_matches_artefact_free_acquisition() {
        let v = test_volume();
        let cfg = ImagingConfig {
            drift_sigma_px: 0.0,
            brightness_wander: 0.0,
            dwell_us: 1e12, // noise sigma ≈ 0, rounds away in f32
            ..Default::default()
        };
        let ideal = render_ideal(&v, &cfg, None);
        let (acquired, _) = acquire(&v, &cfg);
        assert_eq!(ideal.len(), acquired.len());
        assert_eq!(ideal.frame_margin_px(), acquired.frame_margin_px());
        for (a, b) in ideal.slices().iter().zip(acquired.slices()) {
            let max_diff = a
                .pixels()
                .iter()
                .zip(b.pixels())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 0.01, "max pixel difference {max_diff}");
        }
    }

    #[test]
    fn planar_view_shape() {
        let v = test_volume();
        let cfg = ImagingConfig::default();
        let (stack, _) = acquire(&v, &cfg);
        let planar = stack.planar_view(8);
        // Planar axes: (slice index, y including the frame margin).
        assert_eq!(planar.dims(), (stack.len(), 30 + 2 * cfg.frame_margin_px));
    }

    #[test]
    fn planar_view_of_empty_stack_is_empty() {
        let stack = ImageStack::from_slices(Vec::new(), 5.0, 1, DetectorKind::Bse);
        let planar = stack.planar_view(3);
        assert_eq!(planar.dims(), (0, 0));
        assert!(planar.pixels().is_empty());
    }

    #[test]
    fn planar_view_honors_frame_margin() {
        // Two framed slices with a marker at *content* row z=2: the planar
        // view indexed by content rows must read it, not the blank margin.
        let margin = 4usize;
        let (ny, nz) = (6usize, 5usize);
        let mut slices = Vec::new();
        for i in 0..2 {
            let mut img = SemImage::filled(ny + 2 * margin, nz + 2 * margin, 0.0);
            img.set(3 + margin, 2 + margin, 40.0 + i as f32);
            slices.push(img);
        }
        let framed = ImageStack::from_slices(slices.clone(), 5.0, 1, DetectorKind::Bse)
            .with_frame_margin(margin);
        let planar = framed.planar_view(2);
        assert_eq!(planar.get(0, 3 + margin), 40.0);
        assert_eq!(planar.get(1, 3 + margin), 41.0);
        // The same rows through an unframed stack of the same images land
        // on the raw z index instead.
        let unframed = ImageStack::from_slices(slices, 5.0, 1, DetectorKind::Bse);
        assert_eq!(unframed.planar_view(2 + margin).get(0, 3 + margin), 40.0);
    }

    /// The sort-based median the selection replaced, kept as the
    /// reference: a full `total_cmp` sort, then the middle value or the
    /// mean of the two middle values.
    fn median_reference(mut v: Vec<f32>) -> f32 {
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f32::total_cmp);
        let mid = v.len() / 2;
        if v.len().is_multiple_of(2) {
            (v[mid - 1] + v[mid]) / 2.0
        } else {
            v[mid]
        }
    }

    #[test]
    fn median_is_true_even_length_median() {
        let mut img = SemImage::filled(2, 1, 0.0);
        img.set(0, 0, 1.0);
        img.set(1, 0, 3.0);
        assert_eq!(img.median(), 2.0);
        let odd = SemImage::filled(3, 1, 5.0);
        assert_eq!(odd.median(), 5.0);
        let empty = SemImage::filled(0, 0, 0.0);
        assert_eq!(empty.median(), 0.0);
        // Bit for bit against the sort on odd and even lengths, with ±0.0,
        // NaN and duplicates landing in and around the middle ranks. NaN
        // takes one sign only: Rust leaves the bits of a sum of two
        // different NaNs unspecified, for the sort as for the selection.
        let mut rng = StdRng::seed_from_u64(0xED1A);
        for len in (1..=12).chain([255, 256]) {
            for round in 0..8 {
                let mut img = SemImage::filled(len, 1, 0.0);
                for p in img.pixels_mut() {
                    *p = match rng.gen_range(0..5u32) {
                        0 => [0.0, -0.0, f32::NAN][rng.gen_range(0..3usize)],
                        1 => rng.gen_range(-2..3i32) as f32,
                        _ => rng.gen_range(-9.0..9.0f32),
                    };
                }
                let want = median_reference(img.pixels().to_vec());
                assert_eq!(
                    img.median().to_bits(),
                    want.to_bits(),
                    "len {len}, round {round}: {:?}",
                    img.pixels()
                );
            }
        }
    }

    #[test]
    fn exhausted_slices_are_interpolated_and_flagged() {
        use hifi_faults::FaultSpec;
        let v = test_volume();
        let cfg = ImagingConfig::default();
        let (clean, _) = acquire(&v, &cfg);
        // Zero-retry policy: every injected slice degrades immediately.
        let spec = FaultSpec::disabled()
            .with_seed(11)
            .with_rate(FaultKind::AcquireSlice, 0.4)
            .with_max_consecutive(5);
        let recovery = Recovery::new(Some(spec), hifi_faults::RetryPolicy::none());
        let opts = AcquireOpts {
            recovery: Some(&recovery),
            ..Default::default()
        };
        let out = acquire_with(&v, &cfg, &opts);
        assert!(
            !out.degraded_slices.is_empty(),
            "seed 11 at 40% must degrade"
        );
        assert_eq!(out.stack.len(), clean.len(), "stack shape is preserved");
        let tally = recovery.plan().expect("plan").tally();
        assert_eq!(tally.degraded, out.degraded_slices.len() as u64);
        for i in 0..clean.len() {
            if out.degraded_slices.contains(&i) {
                assert_eq!(out.stack.slice(i).dims(), clean.slice(i).dims());
                assert_ne!(
                    out.stack.slice(i),
                    clean.slice(i),
                    "slice {i} was interpolated, not re-acquired"
                );
            } else {
                assert_eq!(out.stack.slice(i), clean.slice(i), "intact slice {i}");
            }
        }
    }

    #[test]
    fn interpolation_averages_neighbours_and_handles_edges() {
        let cfg = ImagingConfig::default();
        let img = |v: f32| SemImage::filled(2, 2, v);
        // Middle gap: mean of both sides.
        let rendered = vec![Some(img(10.0)), None, Some(img(30.0))];
        assert_eq!(interpolate_slice(&rendered, 1, 2, 2, &cfg), img(20.0));
        // Edge gap: copy of the single intact side.
        let rendered = vec![None, Some(img(7.0))];
        assert_eq!(interpolate_slice(&rendered, 0, 2, 2, &cfg), img(7.0));
        // Nearest *rendered* neighbour wins, skipping other gaps.
        let rendered = vec![Some(img(4.0)), None, None, Some(img(8.0))];
        assert_eq!(interpolate_slice(&rendered, 1, 2, 2, &cfg), img(6.0));
        assert_eq!(interpolate_slice(&rendered, 2, 2, 2, &cfg), img(6.0));
        // Total loss: oxide background.
        let rendered = vec![None, None];
        assert_eq!(
            interpolate_slice(&rendered, 0, 2, 2, &cfg),
            SemImage::filled(2, 2, oxide_intensity(cfg.detector))
        );
    }

    #[test]
    fn normalization_tolerates_nan_pixels() {
        let v = test_volume();
        let cfg = ImagingConfig {
            drift_sigma_px: 0.0,
            brightness_wander: 8.0,
            dwell_us: 1e6,
            ..Default::default()
        };
        let (mut stack, _) = acquire(&v, &cfg);
        // A dead detector pixel in one slice must not abort the run.
        stack.slices_mut()[2].set(1, 1, f32::NAN);
        stack.normalize_brightness();
        let medians: Vec<f32> = stack.slices().iter().map(SemImage::median).collect();
        assert!(medians.iter().all(|m| m.is_finite()), "medians {medians:?}");
        let spread = medians.iter().cloned().fold(f32::MIN, f32::max)
            - medians.iter().cloned().fold(f32::MAX, f32::min);
        assert!(spread < 1.0, "median spread {spread}");
    }
}
