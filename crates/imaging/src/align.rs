//! Slice alignment: each slice registered against the previous one.
//!
//! Section IV-C: "we align the slices using the mutual-information algorithm
//! of Dragonfly. In particular, each slide is aligned with respect to the
//! previous one." Wire heights can be 30 nm against ~4 µm cross-sections, so
//! residual misalignment must stay below 0.77% of the slice.

use crate::sem::{ImageStack, SemImage};
use hifi_telemetry::{names, NoopRecorder, Recorder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::Scope;
use std::time::Instant;

/// Similarity metric used for registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignMethod {
    /// Mutual information over a 32-bin joint histogram (the paper's
    /// method; robust to brightness offsets between slices).
    MutualInformation,
    /// Negative sum of squared differences (cheaper; brightness-sensitive).
    SquaredDifference,
}

const BINS: usize = 32;

/// `(min, max)` of an image's pixels. `f32::min`/`max` ignore NaN pixels
/// rather than poisoning the range.
fn pixel_range(img: &SemImage) -> (f32, f32) {
    img.pixels()
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Histogram bin of intensity `v` under a `[lo, hi)` range; a constant (or
/// all-NaN) image degenerates to a single bin.
#[inline(always)]
fn bin(v: f32, lo: f32, hi: f32) -> usize {
    let width = hi - lo;
    if width.is_nan() || width <= 0.0 {
        return 0;
    }
    (((v - lo) / width * BINS as f32).floor() as i32).clamp(0, BINS as i32 - 1) as usize
}

/// Every pixel of `img` as its MI histogram bin under the image's own
/// [`pixel_range`].
///
/// Each image's bin range is derived from its observed intensities instead
/// of the old fixed [0, 256): low-contrast BSE stacks collapsed into a
/// handful of bins and degraded registration, and per-image ranges make MI
/// exactly invariant to per-slice brightness offsets. The range spans the
/// *whole* image rather than the candidate overlap so the bin edges stay
/// identical across the offset search — per-overlap edges jitter as
/// outlier pixels enter and leave the overlap, putting spurious maxima
/// into the MI surface. A pixel's bin therefore depends only on the pixel
/// and the image, so [`register`] quantises each image once and the offset
/// search only counts index pairs: no float divide, floor or clamp per
/// pixel per candidate.
fn quantize(img: &SemImage) -> Vec<u8> {
    let (lo, hi) = pixel_range(img);
    img.pixels().iter().map(|&v| bin(v, lo, hi) as u8).collect()
}

/// Mutual information of the overlap of two `ny × nz` images, given as
/// [`quantize`]d bin indices, with `b` shifted by `(dy, dz)`.
///
/// The joint-histogram fill is row-blocked: the overlapping `y` interval
/// is resolved once per `z` row and the fill then walks two contiguous
/// rows of bin indices. Consecutive pixels go to four interleaved
/// sub-histograms, so runs of one bin pair (the oxide background) do not
/// serialise on a single counter; the sub-histograms are summed before the
/// entropy pass, so the counts, and the score, are exact.
fn mutual_information(a: &[u8], b: &[u8], (ny, nz): (usize, usize), dy: i32, dz: i32) -> f64 {
    const LANES: usize = 4;
    let mut lanes = [[0u32; BINS * BINS]; LANES];
    let mut count = 0u32;
    // Overlapping y interval in a's frame: 0 <= y < ny and 0 <= y + dy < ny.
    let y_lo = 0.max(-dy) as usize;
    let y_hi = ny.min((ny as i32 - dy).max(0) as usize);
    // Bin indices are below BINS, so the mask never changes a pair's slot;
    // it only proves the index in bounds.
    let slot = |ia: u8, ib: u8| (usize::from(ia) * BINS + usize::from(ib)) & (BINS * BINS - 1);
    for z in 0..nz {
        let bz = z as i32 + dz;
        if bz < 0 || bz >= nz as i32 || y_lo >= y_hi {
            continue;
        }
        let a_row = &a[z * ny + y_lo..z * ny + y_hi];
        let b_base = bz as usize * ny + (y_lo as i32 + dy) as usize;
        let b_row = &b[b_base..b_base + (y_hi - y_lo)];
        let (a_quads, b_quads) = (a_row.chunks_exact(LANES), b_row.chunks_exact(LANES));
        let (a_tail, b_tail) = (a_quads.remainder(), b_quads.remainder());
        for (qa, qb) in a_quads.zip(b_quads) {
            for (lane, (&ia, &ib)) in lanes.iter_mut().zip(qa.iter().zip(qb)) {
                lane[slot(ia, ib)] += 1;
            }
        }
        for (&ia, &ib) in a_tail.iter().zip(b_tail) {
            lanes[0][slot(ia, ib)] += 1;
        }
        count += (y_hi - y_lo) as u32;
    }
    if count == 0 {
        return f64::NEG_INFINITY;
    }
    let mut joint = [[0u32; BINS]; BINS];
    for (i, row) in joint.iter_mut().enumerate() {
        for (j, c) in row.iter_mut().enumerate() {
            *c = lanes.iter().map(|lane| lane[i * BINS + j]).sum();
        }
    }
    let n = count as f64;
    let mut pa = [0.0f64; BINS];
    let mut pb = [0.0f64; BINS];
    for (i, row) in joint.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            let p = c as f64 / n;
            pa[i] += p;
            pb[j] += p;
        }
    }
    let mut mi = 0.0;
    for (i, row) in joint.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let p = c as f64 / n;
            mi += p * (p / (pa[i] * pb[j])).ln();
        }
    }
    mi
}

fn neg_ssd(a: &SemImage, b: &SemImage, dy: i32, dz: i32) -> f64 {
    let (ny, nz) = a.dims();
    let mut acc = 0.0f64;
    let mut count = 0u32;
    for z in 0..nz {
        let bz = z as i32 + dz;
        if bz < 0 || bz >= nz as i32 {
            continue;
        }
        for y in 0..ny {
            let by = y as i32 + dy;
            if by < 0 || by >= ny as i32 {
                continue;
            }
            let d = (a.get(y, z) - b.get(by as usize, bz as usize)) as f64;
            acc += d * d;
            count += 1;
        }
    }
    if count == 0 {
        f64::NEG_INFINITY
    } else {
        -(acc / count as f64)
    }
}

/// The similarity of `b` shifted by `(dy, dz)` against `a`. It owns what it
/// reads, so search helpers can still be finishing a score while the
/// caller folds the slice into the template.
type Surface = Arc<dyn Fn(i32, i32) -> f64 + Send + Sync>;

fn surface(a: &SemImage, b: &SemImage, method: AlignMethod) -> Surface {
    match method {
        // Hoisted out of the offset search: bins depend only on the pixel
        // and the image-wide range, so both images are quantised once per
        // registration rather than once per candidate offset.
        AlignMethod::MutualInformation => {
            let (qa, qb, dims) = (quantize(a), quantize(b), a.dims());
            Arc::new(move |dy, dz| mutual_information(&qa, &qb, dims, dy, dz))
        }
        AlignMethod::SquaredDifference => {
            let (a, b) = (a.clone(), b.clone());
            Arc::new(move |dy, dz| neg_ssd(&a, &b, dy, dz))
        }
    }
}

/// One registration's candidate offsets, shared by the threads scoring
/// them.
struct Search {
    surface: Surface,
    candidates: Vec<(i32, i32)>,
    next: AtomicUsize,
    scores: Vec<OnceLock<f64>>,
}

impl Search {
    /// Scores candidates one at a time until none is left unclaimed.
    fn claim_all(&self) {
        loop {
            // Relaxed: the counter only hands out indices; each score is
            // published through its own `OnceLock`.
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&(dy, dz)) = self.candidates.get(k) else {
                return;
            };
            let _ = self.scores[k].set((self.surface)(dy, dz));
        }
    }
}

/// Helper threads that score the candidate offsets of every registration
/// of one alignment.
///
/// One slice's search is a couple of milliseconds of work, too little to
/// pay for spawning threads per slice or to split into one fixed share per
/// thread: each slice would wait for a fresh thread to be scheduled and
/// then for the slowest share, so wall time would follow whatever else the
/// machine runs. The helpers therefore live as long as the alignment and
/// claim candidates one at a time. The caller claims too, and once none is
/// left it scores any candidate a helper has not finished yet itself
/// rather than wait for the helper. A score is a pure function of its
/// offset, so the scores are bit-identical whichever thread computed each
/// one.
struct SearchPool {
    helpers: Vec<Sender<Arc<Search>>>,
}

impl SearchPool {
    /// Starts `helpers` threads in `scope`; they exit when the pool drops.
    fn start<'scope>(scope: &'scope Scope<'scope, '_>, helpers: usize) -> Self {
        let helpers = (0..helpers)
            .map(|_| {
                let (post, searches) = mpsc::channel::<Arc<Search>>();
                scope.spawn(move || searches.iter().for_each(|s| s.claim_all()));
                post
            })
            .collect();
        Self { helpers }
    }

    /// Scores every candidate offset on `surface`, in candidate order.
    fn scores(&self, surface: Surface, candidates: Vec<(i32, i32)>) -> Vec<((i32, i32), f64)> {
        let search = Arc::new(Search {
            surface,
            scores: candidates.iter().map(|_| OnceLock::new()).collect(),
            candidates,
            next: AtomicUsize::new(0),
        });
        if search.candidates.len() > 1 {
            for post in &self.helpers {
                // A helper that is gone leaves its share to the caller.
                let _ = post.send(Arc::clone(&search));
            }
        }
        search.claim_all();
        search
            .candidates
            .iter()
            .zip(&search.scores)
            .map(|(&(dy, dz), s)| ((dy, dz), *s.get_or_init(|| (search.surface)(dy, dz))))
            .collect()
    }
}

/// Finds the shift of `b` relative to `a` maximising the similarity metric,
/// searching `center ± window` (`window >= 0`) in both axes. A small bias
/// towards the `center` hypothesis suppresses metric jitter on featureless
/// slices. Returns the winning shift and its similarity score.
fn register(
    pool: &SearchPool,
    a: &SemImage,
    b: &SemImage,
    method: AlignMethod,
    window: i32,
    center: (i32, i32),
) -> ((i32, i32), f64) {
    // The centre and the other (2·window+1)² - 1 candidate offsets are
    // scored in parallel; the argmax then scans the scores in the same
    // order the sequential search visited them, with the same strict
    // comparison, so the winning offset is identical at any thread count.
    let mut candidates = Vec::with_capacity((2 * window as usize + 1).pow(2));
    candidates.push(center);
    for dz in (center.1 - window)..=(center.1 + window) {
        for dy in (center.0 - window)..=(center.0 + window) {
            if (dy, dz) != center {
                candidates.push((dy, dz));
            }
        }
    }
    let mut scores = pool.scores(surface(a, b, method), candidates).into_iter();
    let (_, score_c) = scores.next().expect("the centre is a candidate");
    let (mut best, mut best_score) = (center, score_c);
    for (offset, score) in scores {
        if score > best_score {
            best_score = score;
            best = offset;
        }
    }
    let margin = 0.002 * score_c.abs().max(1e-6);
    if best != center && best_score < score_c + margin {
        return (center, score_c);
    }
    (best, best_score)
}

/// Aligns every slice into slice 0's frame, mutating the stack in place.
/// Returns the per-slice corrections applied (slice 0 is the reference, so
/// its correction is `(0, 0)`).
///
/// Registration runs against an exponential moving **template** of the
/// already-corrected slices rather than chaining slice-to-slice offsets:
/// sequential chaining turns every ±1 px registration error into a permanent
/// walk of the whole remaining stack, while template registration keeps
/// errors independent. The metric operates on median-filtered copies
/// (registration-only filtering); the slice data itself is not filtered.
/// `window` is the search half-width in pixels; a negative window is
/// treated as 0, so only the centre hypothesis is scored.
pub fn align(stack: &mut ImageStack, method: AlignMethod, window: i32) -> Vec<(i32, i32)> {
    align_with(stack, method, window, &mut NoopRecorder)
}

/// [`align`] with instrumentation: records the registration score and the
/// applied shift magnitude for every slice as gauges
/// (`align.slice_score`, `align.slice_shift_px`), and counts slices whose
/// correction is non-zero (`align.corrected_slices`) next to the total
/// (`align.slices`).
pub fn align_with<R: Recorder>(
    stack: &mut ImageStack,
    method: AlignMethod,
    window: i32,
    rec: &mut R,
) -> Vec<(i32, i32)> {
    let n = stack.len();
    rec.counter("align.slices", n as u64);
    let mut corrections = vec![(0, 0); n];
    if n < 2 {
        return corrections;
    }
    // A negative window searches the centre hypothesis alone.
    let window = window.max(0);
    let background = stack.slice(0).median();
    // Each slice gets its registration-only median prefilter when its turn
    // comes, so one filtered copy is alive at a time, not a second stack.
    let mut template = crate::denoise::median3x3(stack.slice(0));
    let (ny, nz) = template.dims();
    // Search around the previous slice's drift estimate: per-step drift is
    // small even when the accumulated drift exceeds the window.
    let mut prev_drift = (0i32, 0i32);
    const EMA: f32 = 0.15;
    // Every thread scores at least one of the (2·window+1)² candidates.
    let candidates = (2 * window as usize + 1).pow(2);
    let helpers = rayon::current_num_threads()
        .min(candidates)
        .saturating_sub(1);
    std::thread::scope(|scope| {
        let pool = SearchPool::start(scope, helpers);
        for (i, correction) in corrections.iter_mut().enumerate().skip(1) {
            let filtered = crate::denoise::median3x3(stack.slice(i));
            let t0 = rec.enabled().then(Instant::now);
            let ((dy, dz), score) =
                register(&pool, &template, &filtered, method, window, prev_drift);
            if rec.enabled() {
                rec.gauge("align.slice_score", score);
                rec.gauge("align.slice_shift_px", ((dy * dy + dz * dz) as f64).sqrt());
                if (dy, dz) != (0, 0) {
                    rec.counter("align.corrected_slices", 1);
                }
                if let Some(t0) = t0 {
                    rec.histogram(names::HIST_ALIGN_SLICE_US, t0.elapsed().as_micros() as u64);
                }
                // Every offset in the ±window square, the centre included, is
                // scored once.
                let iters = (2 * window as u64 + 1).pow(2);
                rec.histogram(names::HIST_ALIGN_SEARCH_ITERS, iters);
            }
            *correction = (-dy, -dz);
            // Slice i is unmodified until this iteration overwrites it, so
            // no copy of the original stack is kept. It is overwritten in
            // place: its buffer may belong to another thread's heap, and
            // replacing it would move the whole stack onto this one.
            let corrected = stack.slice(i).shifted(-dy, -dz, background);
            stack.slices_mut()[i]
                .pixels_mut()
                .copy_from_slice(corrected.pixels());
            // Fold the corrected (filtered) slice into the template.
            let corrected_f = filtered.shifted(-dy, -dz, background);
            for z in 0..nz {
                for y in 0..ny {
                    let t = template.get(y, z);
                    template.set(y, z, t * (1.0 - EMA) + corrected_f.get(y, z) * EMA);
                }
            }
            prev_drift = (dy, dz);
        }
    });
    corrections
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::{acquire, DetectorKind, ImagingConfig};
    use hifi_geometry::LayerStack;
    use hifi_synth::{Material, MaterialVolume};

    fn structured_volume() -> MaterialVolume {
        let mut v = MaterialVolume::new(16, 48, 40, 5.0, LayerStack::default_dram());
        // A few wires and plugs at varying positions so slices have texture.
        v.fill_box(0, 16, 8, 12, 30, 34, Material::Metal1, true);
        v.fill_box(0, 16, 20, 26, 10, 14, Material::GatePoly, true);
        v.fill_box(0, 16, 36, 44, 20, 28, Material::Contact, true);
        v.fill_box(4, 12, 30, 34, 0, 8, Material::ActiveSi, true);
        v
    }

    /// [`register`] on a pool with one search helper.
    fn register_pair(
        a: &SemImage,
        b: &SemImage,
        method: AlignMethod,
        window: i32,
        center: (i32, i32),
    ) -> ((i32, i32), f64) {
        std::thread::scope(|s| register(&SearchPool::start(s, 1), a, b, method, window, center))
    }

    fn drifted_config(method_seed: u64) -> ImagingConfig {
        ImagingConfig {
            detector: DetectorKind::Bse,
            dwell_us: 50.0, // low noise so the test isolates drift
            drift_sigma_px: 1.0,
            brightness_wander: 0.0,
            slice_voxels: 1,
            seed: method_seed,
            ..ImagingConfig::default()
        }
    }

    /// Runs alignment against a drifted acquisition and returns the mean
    /// absolute *residual* drift in pixels (corrections vs ground truth).
    fn residual_after(method: AlignMethod) -> f64 {
        let v = structured_volume();
        let (mut stack, truth) = acquire(&v, &drifted_config(42));
        assert!(
            truth.shifts.iter().any(|&(a, b)| a != 0 || b != 0),
            "drift actually happened"
        );
        let corrections = align(&mut stack, method, 4);
        let mut total = 0.0;
        for (c, t) in corrections.iter().zip(&truth.shifts) {
            // A perfect aligner applies the negated ground-truth drift.
            total += ((c.0 + t.0).abs() + (c.1 + t.1).abs()) as f64;
        }
        total / corrections.len() as f64
    }

    #[test]
    fn mutual_information_alignment_recovers_drift() {
        let residual = residual_after(AlignMethod::MutualInformation);
        // Well under one pixel of residual drift on average — far below the
        // paper's 0.77%-of-slice tolerance.
        assert!(residual < 0.5, "mean residual drift {residual} px");
    }

    #[test]
    fn ssd_alignment_also_recovers_drift() {
        let residual = residual_after(AlignMethod::SquaredDifference);
        assert!(residual < 0.5, "mean residual drift {residual} px");
    }

    #[test]
    fn alignment_without_drift_is_a_no_op() {
        let v = structured_volume();
        let mut cfg = drifted_config(1);
        cfg.drift_sigma_px = 0.0;
        cfg.dwell_us = 1e6;
        let (mut stack, _) = acquire(&v, &cfg);
        let before = stack.clone();
        let corrections = align(&mut stack, AlignMethod::MutualInformation, 3);
        assert!(corrections.iter().all(|&c| c == (0, 0)));
        assert_eq!(stack, before);
    }

    #[test]
    fn single_slice_stack_is_reference() {
        let v = structured_volume();
        let mut cfg = drifted_config(1);
        cfg.slice_voxels = 100; // one slice
        let (mut stack, _) = acquire(&v, &cfg);
        assert_eq!(stack.len(), 1);
        let c = align(&mut stack, AlignMethod::MutualInformation, 3);
        assert_eq!(c, vec![(0, 0)]);
    }

    #[test]
    fn mi_is_robust_to_brightness_offsets() {
        // Shift intensities of one image: MI unchanged at the true offset,
        // SSD degraded.
        let v = structured_volume();
        let mut cfg = drifted_config(9);
        cfg.drift_sigma_px = 0.0;
        cfg.dwell_us = 1e6;
        let (stack, _) = acquire(&v, &cfg);
        let a = stack.slice(3).clone();
        let mut b = a.shifted(2, 1, a.median());
        b.add_offset(4.0); // within the same intensity bin: MI unaffected
        let ((dy, dz), score) = register_pair(&a, &b, AlignMethod::MutualInformation, 4, (0, 0));
        assert_eq!((dy, dz), (2, 1));
        assert!(score.is_finite());
    }

    #[test]
    fn mi_recovers_drift_on_low_contrast_stacks() {
        // Compress a slice's intensities into [100, 108] — a low-contrast
        // BSE acquisition. The fixed [0, 256) binning collapsed this into
        // one or two bins; range-adaptive binning must still register the
        // true shift.
        let v = structured_volume();
        let mut cfg = drifted_config(5);
        cfg.drift_sigma_px = 0.0;
        cfg.dwell_us = 1e6;
        let (stack, _) = acquire(&v, &cfg);
        let src = stack.slice(3);
        let (lo, hi) = src
            .pixels()
            .iter()
            .fold((f32::MAX, f32::MIN), |(l, h), &p| (l.min(p), h.max(p)));
        let mut a = src.clone();
        for p in a.pixels_mut() {
            *p = 100.0 + (*p - lo) / (hi - lo) * 8.0;
        }
        let b = a.shifted(2, 1, a.median());
        let ((dy, dz), score) = register_pair(&a, &b, AlignMethod::MutualInformation, 4, (0, 0));
        assert_eq!((dy, dz), (2, 1));
        assert!(score.is_finite());
    }

    #[test]
    fn mi_handles_constant_overlap() {
        // Degenerate case for range-adaptive binning: zero intensity range.
        let a = crate::sem::SemImage::filled(8, 8, 42.0);
        let b = crate::sem::SemImage::filled(8, 8, 42.0);
        let ((dy, dz), score) = register_pair(&a, &b, AlignMethod::MutualInformation, 2, (0, 0));
        assert_eq!((dy, dz), (0, 0));
        assert!(score.is_finite() || score == f64::NEG_INFINITY);
    }

    /// The original MI kernel, kept verbatim as the scalar reference: it
    /// recomputes both images' ranges per call and bounds-branches per
    /// pixel instead of row-blocking the histogram fill.
    fn mutual_information_reference(a: &SemImage, b: &SemImage, dy: i32, dz: i32) -> f64 {
        const BINS: usize = 32;
        let (ny, nz) = a.dims();
        let mut joint = [[0u32; BINS]; BINS];
        let mut count = 0u32;
        let range_of = |img: &SemImage| {
            img.pixels()
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                })
        };
        let (min_a, max_a) = range_of(a);
        let (min_b, max_b) = range_of(b);
        let bin = |v: f32, lo: f32, hi: f32| {
            let width = hi - lo;
            if width.is_nan() || width <= 0.0 {
                return 0usize;
            }
            (((v - lo) / width * BINS as f32).floor() as i32).clamp(0, BINS as i32 - 1) as usize
        };
        for z in 0..nz {
            let bz = z as i32 + dz;
            if bz < 0 || bz >= nz as i32 {
                continue;
            }
            for y in 0..ny {
                let by = y as i32 + dy;
                if by < 0 || by >= ny as i32 {
                    continue;
                }
                let (va, vb) = (a.get(y, z), b.get(by as usize, bz as usize));
                joint[bin(va, min_a, max_a)][bin(vb, min_b, max_b)] += 1;
                count += 1;
            }
        }
        if count == 0 {
            return f64::NEG_INFINITY;
        }
        let n = count as f64;
        let mut pa = [0.0f64; BINS];
        let mut pb = [0.0f64; BINS];
        for (i, row) in joint.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                let p = c as f64 / n;
                pa[i] += p;
                pb[j] += p;
            }
        }
        let mut mi = 0.0;
        for (i, row) in joint.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let p = c as f64 / n;
                mi += p * (p / (pa[i] * pb[j])).ln();
            }
        }
        mi
    }

    /// Regression test for the quantised, row-blocked MI kernel: every
    /// candidate offset (including fully and partially out-of-frame ones)
    /// must score bit-identically to the per-offset-recompute reference.
    #[test]
    fn blocked_mi_matches_reference_at_every_offset() {
        let v = structured_volume();
        let (stack, _) = acquire(&v, &drifted_config(13));
        let a = stack.slice(2);
        let b = stack.slice(3);
        let (ny, nz) = a.dims();
        let big = ny.max(nz) as i32;
        let mut offsets: Vec<(i32, i32)> = Vec::new();
        for dz in -5..=5 {
            for dy in -5..=5 {
                offsets.push((dy, dz));
            }
        }
        // Degenerate overlaps: entire rows/columns out of frame.
        offsets.extend([(big, 0), (0, big), (-big, -big), (big - 1, 1 - big)]);
        let (qa, qb) = (quantize(a), quantize(b));
        for (dy, dz) in offsets {
            let got = mutual_information(&qa, &qb, a.dims(), dy, dz);
            let want = mutual_information_reference(a, b, dy, dz);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "offset ({dy}, {dz}): {got} vs {want}"
            );
        }
        // Constant images: the degenerate single-bin path.
        let ca = SemImage::filled(8, 8, 42.0);
        let qc = quantize(&ca);
        let got = mutual_information(&qc, &qc, ca.dims(), 1, -2);
        assert_eq!(
            got.to_bits(),
            mutual_information_reference(&ca, &ca, 1, -2).to_bits()
        );
    }

    /// Full alignment is bit-identical at 1, 2 and 8 threads with the
    /// quantised bins (the candidate scoring is the parallel stage).
    #[test]
    fn alignment_is_identical_across_thread_counts() {
        let v = structured_volume();
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let (mut stack, _) = acquire(&v, &drifted_config(42));
                let corrections = align(&mut stack, AlignMethod::MutualInformation, 4);
                (stack, corrections)
            })
        };
        let (base_stack, base_corr) = run(1);
        for threads in [2usize, 8] {
            let (stack, corr) = run(threads);
            assert_eq!(base_corr, corr, "corrections @ {threads} threads");
            assert_eq!(base_stack, stack, "stack @ {threads} threads");
        }
    }

    #[test]
    fn align_with_records_per_slice_gauges() {
        use hifi_telemetry::JsonRecorder;
        let v = structured_volume();
        let (mut stack, _) = acquire(&v, &drifted_config(42));
        let n = stack.len();
        let mut rec = JsonRecorder::new();
        let instrumented = align_with(&mut stack, AlignMethod::MutualInformation, 4, &mut rec);
        // Same corrections as the uninstrumented path.
        let (mut stack2, _) = acquire(&v, &drifted_config(42));
        let plain = align(&mut stack2, AlignMethod::MutualInformation, 4);
        assert_eq!(instrumented, plain);
        assert_eq!(stack, stack2);
        // One score and one shift gauge per registered slice (all but the
        // reference slice 0).
        let scores = rec
            .events()
            .iter()
            .filter(|e| e.name == "align.slice_score")
            .count();
        assert_eq!(scores, n - 1);
        assert_eq!(rec.counter_total("align.slices"), n as u64);
        assert!(rec.counter_total("align.corrected_slices") <= (n - 1) as u64);
    }

    /// A negative window used to overflow `2 * window as usize` (a debug
    /// panic) and, in release, to record (2w+1)² search iterations while
    /// only the centre was scored. It now searches the centre alone.
    #[test]
    fn negative_window_scores_only_the_centre() {
        use hifi_telemetry::{EventType, JsonRecorder};
        let v = structured_volume();
        let (acquired, _) = acquire(&v, &drifted_config(42));
        let a = acquired.slice(3).clone();
        // A real (2, 1) shift that any non-negative window would correct.
        let b = a.shifted(2, 1, a.median());
        let mut stack = ImageStack::from_slices(vec![a, b], 5.0, 1, DetectorKind::Bse);
        let before = stack.clone();
        let mut rec = JsonRecorder::new();
        let corrections = align_with(&mut stack, AlignMethod::MutualInformation, -1, &mut rec);
        assert_eq!(corrections, vec![(0, 0), (0, 0)]);
        assert_eq!(stack, before);
        let iters: Vec<Option<u64>> = rec
            .events()
            .iter()
            .filter(|e| e.kind == EventType::Histogram && e.name == names::HIST_ALIGN_SEARCH_ITERS)
            .map(|e| e.delta)
            .collect();
        assert_eq!(iters, vec![Some(1)]);
    }

    /// The caller scores a candidate a helper is stuck on itself rather
    /// than wait for the helper. Here the helper blocks inside its first
    /// candidate until the search has returned; the search must still
    /// return promptly, with every score the surface's value.
    #[test]
    fn search_does_not_wait_for_a_stalled_helper() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;
        use std::time::Duration;
        let caller = std::thread::current().id();
        let claimed = Arc::new(AtomicBool::new(false));
        let (release, stall) = mpsc::channel::<()>();
        let stall = Mutex::new(stall);
        let helper_claimed = Arc::clone(&claimed);
        let surface: Surface = Arc::new(move |dy, dz| {
            if std::thread::current().id() == caller {
                // Hold the caller until the helper has claimed a candidate.
                let t0 = Instant::now();
                while !helper_claimed.load(Ordering::Acquire)
                    && t0.elapsed() < Duration::from_secs(10)
                {
                    std::thread::yield_now();
                }
            } else {
                helper_claimed.store(true, Ordering::Release);
                let stall = stall.lock().expect("stall lock");
                let _ = stall.recv_timeout(Duration::from_secs(10));
            }
            f64::from(dy * 100 + dz)
        });
        let candidates: Vec<(i32, i32)> = (-2..=2)
            .flat_map(|dz| (-2..=2).map(move |dy| (dy, dz)))
            .collect();
        std::thread::scope(|s| {
            let pool = SearchPool::start(s, 1);
            let t0 = Instant::now();
            let scores = pool.scores(surface, candidates.clone());
            let waited = t0.elapsed();
            let _ = release.send(());
            assert!(claimed.load(Ordering::Acquire), "the helper never ran");
            assert!(
                waited < Duration::from_secs(5),
                "the search waited {waited:?} for a stalled helper"
            );
            let want: Vec<((i32, i32), f64)> = candidates
                .iter()
                .map(|&(dy, dz)| ((dy, dz), f64::from(dy * 100 + dz)))
                .collect();
            assert_eq!(scores, want);
        });
    }
}
