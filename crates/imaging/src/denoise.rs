//! Total-variation denoising (Chambolle's dual projection algorithm).
//!
//! The paper filters every cross-section with an edge-preserving
//! total-variation denoiser (split-Bregman or Chambolle) before alignment
//! (Section IV-C). We implement Chambolle (2004): minimise
//! `‖u − f‖² / (2λ) + TV(u)` by projected gradient on the dual variable.

use crate::sem::{ImageStack, SemImage};

/// Denoises one image with Chambolle's algorithm.
///
/// `lambda` balances fidelity against smoothing (larger = smoother);
/// `iterations` of the dual update with the standard step 0.25.
///
/// # Panics
///
/// Panics if `lambda` is not positive.
pub fn chambolle_tv(image: &SemImage, lambda: f32, iterations: usize) -> SemImage {
    let mut scratch = TvScratch::default();
    chambolle_tv_with(image, lambda, iterations, &mut scratch)
}

/// Reusable working buffers for [`chambolle_tv_with`]: the dual field
/// `(p1, p2)`, its divergence, and the materialized primal `u`. Denoising a
/// stack slice-by-slice through one `TvScratch` performs no per-slice
/// allocation once the buffers reach the slice size.
#[derive(Debug, Default, Clone)]
pub struct TvScratch {
    p1: Vec<f32>,
    p2: Vec<f32>,
    div: Vec<f32>,
    u: Vec<f32>,
}

impl TvScratch {
    fn resize(&mut self, n: usize) {
        for buf in [&mut self.p1, &mut self.p2, &mut self.div, &mut self.u] {
            buf.clear();
            buf.resize(n, 0.0);
        }
    }
}

/// `div p` of the dual field into `div`, row-flat so the inner loops carry
/// no index arithmetic beyond a unit stride (autovectorizer-friendly).
/// Subtracting a literal `0.0` at the `y = 0` / `z = 0` borders is exact,
/// so folding the border case into the expressions below would be
/// bit-identical — it is kept explicit to keep each inner loop flat.
fn divergence(p1: &[f32], p2: &[f32], div: &mut [f32], ny: usize, nz: usize) {
    for z in 0..nz {
        let base = z * ny;
        if z == 0 {
            div[0] = p1[0] + p2[0];
            for y in 1..ny {
                let i = base + y;
                div[i] = (p1[i] - p1[i - 1]) + p2[i];
            }
        } else {
            div[base] = p1[base] + (p2[base] - p2[base - ny]);
            for y in 1..ny {
                let i = base + y;
                div[i] = (p1[i] - p1[i - 1]) + (p2[i] - p2[i - ny]);
            }
        }
    }
}

/// One dual-ascent step at pixel `i` given the forward gradient of `u`.
/// With u = f − λ·div p, the update direction is ∇(div p − f/λ) = −∇u/λ,
/// followed by the semi-implicit reprojection 1 + τ|g|.
#[inline(always)]
fn dual_step(p1: &mut [f32], p2: &mut [f32], i: usize, gx: f32, gy: f32, lambda: f32, tau: f32) {
    let g1 = -gx / lambda;
    let g2 = -gy / lambda;
    let denom = 1.0 + tau * (g1 * g1 + g2 * g2).sqrt();
    p1[i] = (p1[i] + tau * g1) / denom;
    p2[i] = (p2[i] + tau * g2) / denom;
}

/// [`chambolle_tv`] against caller-owned scratch buffers, so a denoising
/// loop reuses one arena across slices.
///
/// The primal `u = f − λ·div p` is materialized once per dual iteration
/// into `scratch.u` — the dual ascent reads each value three times (here /
/// right / down), and recomputing it through a closure tripled the
/// multiply-subtract work of the hottest loop in the pipeline. Every value
/// is produced by the same arithmetic expression as the scalar reference,
/// so the result is bit-identical (pinned by `matches_scalar_reference`).
pub fn chambolle_tv_with(
    image: &SemImage,
    lambda: f32,
    iterations: usize,
    scratch: &mut TvScratch,
) -> SemImage {
    assert!(lambda > 0.0, "lambda must be positive");
    let (ny, nz) = image.dims();
    let n = ny * nz;
    if n == 0 {
        return image.clone();
    }
    scratch.resize(n);
    let TvScratch { p1, p2, div, u } = scratch;
    let f = image.pixels();
    let tau = 0.25f32;

    for _ in 0..iterations {
        divergence(p1, p2, div, ny, nz);
        // u = f − λ·div p, materialized once for the whole image.
        for i in 0..n {
            u[i] = f[i] - lambda * div[i];
        }
        // Dual ascent, row-flat with the borders peeled off so the hot
        // interior loop is branch-free over contiguous f32 lanes.
        for z in 0..nz {
            let base = z * ny;
            if z + 1 < nz {
                for y in 0..ny - 1 {
                    let i = base + y;
                    let here = u[i];
                    dual_step(p1, p2, i, u[i + 1] - here, u[i + ny] - here, lambda, tau);
                }
                let i = base + ny - 1;
                dual_step(p1, p2, i, 0.0, u[i + ny] - u[i], lambda, tau);
            } else {
                for y in 0..ny - 1 {
                    let i = base + y;
                    dual_step(p1, p2, i, u[i + 1] - u[i], 0.0, lambda, tau);
                }
                dual_step(p1, p2, base + ny - 1, 0.0, 0.0, lambda, tau);
            }
        }
    }
    // Final primal: u = f − λ div p.
    divergence(p1, p2, div, ny, nz);
    let mut out = image.clone();
    let pixels = out.pixels_mut();
    for i in 0..n {
        pixels[i] = f[i] - lambda * div[i];
    }
    out
}

/// `f32::total_cmp`'s sort key of the bit pattern `bits`: every bit but
/// the sign flipped on negative values, compared as `i32`. The map is its
/// own inverse, so it also turns a key back into the pixel's bits.
#[inline(always)]
fn total_key(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// Median of nine keys: Paeth's 19-exchange network (as given by
/// Devillard). Each exchange `x` yields `(min, max)`; the network is
/// written out in single assignments, with the halves no later exchange
/// reads discarded, so every key stays in a register.
#[inline(always)]
fn median9([p0, p1, p2, p3, p4, p5, p6, p7, p8]: [i32; 9]) -> i32 {
    #[inline(always)]
    fn x(a: i32, b: i32) -> (i32, i32) {
        (a.min(b), a.max(b))
    }
    // Sort the triples (0 1 2), (3 4 5) and (6 7 8).
    let (p1, p2) = x(p1, p2);
    let (p4, p5) = x(p4, p5);
    let (p7, p8) = x(p7, p8);
    let (p0, p1) = x(p0, p1);
    let (p3, p4) = x(p3, p4);
    let (p6, p7) = x(p6, p7);
    let (p1, p2) = x(p1, p2);
    let (p4, p5) = x(p4, p5);
    let (p7, p8) = x(p7, p8);
    // Largest minimum into 6, smallest maximum into 2, median of the
    // middles into 4.
    let (_, p3) = x(p0, p3);
    let (p5, _) = x(p5, p8);
    let (p4, p7) = x(p4, p7);
    let (_, p6) = x(p3, p6);
    let (_, p4) = x(p1, p4);
    let (p2, _) = x(p2, p5);
    let (p4, _) = x(p4, p7);
    // Median of 2, 4 and 6 into 4.
    let (p4, p2) = x(p4, p2);
    let (_, p4) = x(p6, p4);
    let (p4, _) = x(p4, p2);
    p4
}

/// Median of the clamped neighbourhood of the border pixel `(y, z)`.
fn border_median(image: &SemImage, y: usize, z: usize) -> f32 {
    let (ny, nz) = image.dims();
    let mut window = [0.0f32; 9];
    let mut n = 0;
    for pz in z.saturating_sub(1)..(z + 2).min(nz) {
        for py in y.saturating_sub(1)..(y + 2).min(ny) {
            window[n] = image.get(py, pz);
            n += 1;
        }
    }
    window[..n].sort_by(f32::total_cmp);
    window[n / 2]
}

/// 3×3 median filter — the edge-preserving prefilter of the pipeline.
///
/// Unlike total variation, the median does not shrink the amplitude of
/// small bright features (the SA region's wires are only 2–4 pixels wide in
/// cross-section), while suppressing shot noise by ≈3×. Borders use the
/// clamped neighbourhood.
///
/// An order statistic, not the true median: the filter only emits values
/// present in the neighbourhood, ranked by `f32::total_cmp`, so a stray NaN
/// pixel (ranked last) cannot abort the run. Interior pixels run the
/// median-of-9 network on the `i32` keys `total_cmp` compares, which picks
/// the same bit pattern a sort would; the border pixels sort their smaller
/// neighbourhoods.
pub fn median3x3(image: &SemImage) -> SemImage {
    let (ny, nz) = image.dims();
    let mut out = image.clone();
    let keys: Vec<i32> = image
        .pixels()
        .iter()
        .map(|v| total_key(v.to_bits() as i32))
        .collect();
    let pixels = out.pixels_mut();
    for z in 1..nz.saturating_sub(1) {
        let (above, row, below) = (
            &keys[(z - 1) * ny..z * ny],
            &keys[z * ny..(z + 1) * ny],
            &keys[(z + 1) * ny..(z + 2) * ny],
        );
        for y in 1..ny.saturating_sub(1) {
            let m = median9([
                above[y - 1],
                above[y],
                above[y + 1],
                row[y - 1],
                row[y],
                row[y + 1],
                below[y - 1],
                below[y],
                below[y + 1],
            ]);
            pixels[z * ny + y] = f32::from_bits(total_key(m) as u32);
        }
    }
    for z in 0..nz {
        let interior_row = z > 0 && z + 1 < nz;
        for y in 0..ny {
            if interior_row && y > 0 && y + 1 < ny {
                continue;
            }
            out.set(y, z, border_median(image, y, z));
        }
    }
    out
}

/// Denoises every slice of a stack in place with Chambolle TV. Keep `lambda`
/// small (≈2) on SA-region stacks: wires are only 2–4 pixels across and
/// stronger TV shrinks their amplitude below the classification margins.
///
/// Slices are independent, so they are denoised in parallel; each slice is
/// transformed purely from its own pixels, making the result bit-identical
/// at any thread count.
pub fn denoise(stack: &mut ImageStack, lambda: f32, iterations: usize) {
    denoise_profiled(stack, lambda, iterations, None);
}

/// [`denoise`] with optional per-slice lane profiling: when `lanes` is
/// set, each slice's TV pass is timed as a `denoise.slice` span on the
/// worker lane that executed it.
pub fn denoise_profiled(
    stack: &mut ImageStack,
    lambda: f32,
    iterations: usize,
    lanes: Option<&hifi_telemetry::LaneProfiler>,
) {
    rayon::par_chunks_mut(stack.slices_mut(), |chunk| {
        // One scratch arena per worker chunk: slices within a chunk reuse
        // the same dual-field and primal buffers.
        let mut scratch = TvScratch::default();
        for s in chunk {
            *s = crate::sem::lane_timed(lanes, "denoise.slice", || {
                chambolle_tv_with(s, lambda, iterations, &mut scratch)
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The original scalar implementation, kept verbatim as the reference
    /// for the buffer-reusing row-flat kernel: nested `(y, z)` loops and a
    /// closure that recomputes `u = f − λ·div p` at every access.
    fn chambolle_tv_reference(image: &SemImage, lambda: f32, iterations: usize) -> SemImage {
        assert!(lambda > 0.0, "lambda must be positive");
        let (ny, nz) = image.dims();
        let n = ny * nz;
        let mut p1 = vec![0.0f32; n];
        let mut p2 = vec![0.0f32; n];
        let mut div = vec![0.0f32; n];
        let idx = |y: usize, z: usize| z * ny + y;
        let tau = 0.25f32;
        for _ in 0..iterations {
            for z in 0..nz {
                for y in 0..ny {
                    let i = idx(y, z);
                    let a = p1[i] - if y > 0 { p1[idx(y - 1, z)] } else { 0.0 };
                    let b = p2[i] - if z > 0 { p2[idx(y, z - 1)] } else { 0.0 };
                    div[i] = a + b;
                }
            }
            for z in 0..nz {
                for y in 0..ny {
                    let i = idx(y, z);
                    let u = |yy: usize, zz: usize| {
                        let j = idx(yy, zz);
                        image.get(yy, zz) - lambda * div[j]
                    };
                    let here = u(y, z);
                    let gx = if y + 1 < ny { u(y + 1, z) - here } else { 0.0 };
                    let gy = if z + 1 < nz { u(y, z + 1) - here } else { 0.0 };
                    let g1 = -gx / lambda;
                    let g2 = -gy / lambda;
                    let denom = 1.0 + tau * (g1 * g1 + g2 * g2).sqrt();
                    p1[i] = (p1[i] + tau * g1) / denom;
                    p2[i] = (p2[i] + tau * g2) / denom;
                }
            }
        }
        for z in 0..nz {
            for y in 0..ny {
                let i = idx(y, z);
                let a = p1[i] - if y > 0 { p1[idx(y - 1, z)] } else { 0.0 };
                let b = p2[i] - if z > 0 { p2[idx(y, z - 1)] } else { 0.0 };
                div[i] = a + b;
            }
        }
        let mut out = image.clone();
        for z in 0..nz {
            for y in 0..ny {
                let v = image.get(y, z) - lambda * div[idx(y, z)];
                out.set(y, z, v);
            }
        }
        out
    }

    fn assert_bits_equal(a: &SemImage, b: &SemImage, what: &str) {
        let ab: Vec<u32> = a.pixels().iter().map(|p| p.to_bits()).collect();
        let bb: Vec<u32> = b.pixels().iter().map(|p| p.to_bits()).collect();
        assert_eq!(ab, bb, "{what}");
    }

    /// The regression test for the materialized-`u` kernel: bit-identical
    /// to the scalar closure-based reference on noisy data, odd dims and
    /// single-row/column edge shapes.
    #[test]
    fn matches_scalar_reference() {
        let (_, noisy) = noisy_step(25.0, 3);
        for &(lambda, iters) in &[(2.0f32, 10usize), (12.0, 30), (0.7, 5)] {
            assert_bits_equal(
                &chambolle_tv(&noisy, lambda, iters),
                &chambolle_tv_reference(&noisy, lambda, iters),
                &format!("lambda {lambda} iters {iters}"),
            );
        }
        for &(ny, nz) in &[(1usize, 7usize), (7, 1), (1, 1), (5, 3)] {
            let mut img = SemImage::filled(ny, nz, 10.0);
            let mut rng = StdRng::seed_from_u64(9);
            for p in img.pixels_mut() {
                *p += rng.gen_range(-30.0..30.0) as f32;
            }
            assert_bits_equal(
                &chambolle_tv(&img, 4.0, 12),
                &chambolle_tv_reference(&img, 4.0, 12),
                &format!("dims ({ny}, {nz})"),
            );
        }
    }

    /// Scratch reuse across differently-sized and differently-valued
    /// slices must not leak state between calls.
    #[test]
    fn scratch_reuse_is_stateless() {
        let (_, a) = noisy_step(20.0, 5);
        let mut small = SemImage::filled(9, 6, 70.0);
        small.set(4, 3, 200.0);
        let mut scratch = TvScratch::default();
        let first = chambolle_tv_with(&a, 3.0, 8, &mut scratch);
        let shrunk = chambolle_tv_with(&small, 3.0, 8, &mut scratch);
        let again = chambolle_tv_with(&a, 3.0, 8, &mut scratch);
        assert_bits_equal(&first, &again, "same input through reused scratch");
        assert_bits_equal(&shrunk, &chambolle_tv(&small, 3.0, 8), "shrunk slice");
    }

    /// The stack-level kernel must stay bit-identical to per-slice scalar
    /// reference runs at 1, 2 and 8 threads (chunk boundaries move, the
    /// pixels must not).
    #[test]
    fn stack_denoise_matches_reference_across_thread_counts() {
        let slices: Vec<SemImage> = (0..7).map(|s| noisy_step(22.0, 40 + s).1).collect();
        let reference: Vec<SemImage> = slices
            .iter()
            .map(|s| chambolle_tv_reference(s, 2.0, 10))
            .collect();
        for threads in [1usize, 2, 8] {
            let mut stack =
                ImageStack::from_slices(slices.clone(), 5.0, 1, crate::sem::DetectorKind::Bse);
            rayon::with_num_threads(threads, || denoise(&mut stack, 2.0, 10));
            for (i, (got, want)) in stack.slices().iter().zip(&reference).enumerate() {
                assert_bits_equal(got, want, &format!("slice {i} @ {threads} threads"));
            }
        }
    }

    /// The original sort-based filter, kept verbatim as the reference for
    /// the key-network interior: every pixel sorts its clamped
    /// neighbourhood with `total_cmp` and takes element `n / 2`.
    fn median3x3_reference(image: &SemImage) -> SemImage {
        let (ny, nz) = image.dims();
        let mut out = image.clone();
        let mut window = [0.0f32; 9];
        for z in 0..nz {
            for y in 0..ny {
                let mut n = 0;
                for dz in -1i32..=1 {
                    for dy in -1i32..=1 {
                        let (py, pz) = (y as i32 + dy, z as i32 + dz);
                        if py >= 0 && py < ny as i32 && pz >= 0 && pz < nz as i32 {
                            window[n] = image.get(py as usize, pz as usize);
                            n += 1;
                        }
                    }
                }
                window[..n].sort_by(f32::total_cmp);
                out.set(y, z, window[n / 2]);
            }
        }
        out
    }

    /// The median-of-9 network on `total_cmp` keys (and the sorted
    /// borders) pick the same bit pattern as the sort-based filter. The
    /// shapes hit every neighbourhood size (1, 2, 3, 4, 6, 9); the pixels
    /// mix ±NaN, ±0.0, ±∞, integer ties and fractional noise; and every
    /// 0/1 pattern of a 3×3 image checks the network's one interior pixel
    /// exhaustively (a comparator network that selects correctly on all
    /// 0/1 inputs does so on every input).
    #[test]
    fn median3x3_matches_sort_reference_bit_for_bit() {
        const SPECIAL: [f32; 6] = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(0x3D3);
        let shapes = [
            (1usize, 1usize),
            (1, 6),
            (6, 1),
            (2, 2),
            (3, 3),
            (5, 4),
            (167, 121),
        ];
        for (ny, nz) in shapes {
            for round in 0..4 {
                let mut img = SemImage::filled(ny, nz, 0.0);
                for p in img.pixels_mut() {
                    *p = match rng.gen_range(0..4u32) {
                        0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                        1 => rng.gen_range(-3..4i32) as f32,
                        _ => rng.gen_range(-50.0..250.0f32),
                    };
                }
                assert_bits_equal(
                    &median3x3(&img),
                    &median3x3_reference(&img),
                    &format!("{ny}x{nz}, round {round}"),
                );
            }
        }
        for pattern in 0u32..1 << 9 {
            let mut img = SemImage::filled(3, 3, 0.0);
            for (i, p) in img.pixels_mut().iter_mut().enumerate() {
                *p = (pattern >> i & 1) as f32;
            }
            assert_bits_equal(
                &median3x3(&img),
                &median3x3_reference(&img),
                &format!("0/1 pattern {pattern:09b}"),
            );
        }
    }

    /// A step-edge image with additive noise.
    fn noisy_step(sigma: f32, seed: u64) -> (SemImage, SemImage) {
        let (ny, nz) = (40, 30);
        let mut clean = SemImage::filled(ny, nz, 30.0);
        for z in 0..nz {
            for y in 20..ny {
                clean.set(y, z, 200.0);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noisy = clean.clone();
        for p in noisy.pixels_mut() {
            // Uniform noise is fine for this test.
            *p += rng.gen_range(-sigma..sigma);
        }
        (clean, noisy)
    }

    fn mse(a: &SemImage, b: &SemImage) -> f32 {
        let n = a.pixels().len() as f32;
        a.pixels()
            .iter()
            .zip(b.pixels())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            / n
    }

    #[test]
    fn denoising_reduces_error_against_clean_image() {
        let (clean, noisy) = noisy_step(25.0, 7);
        let den = chambolle_tv(&noisy, 12.0, 30);
        let before = mse(&clean, &noisy);
        let after = mse(&clean, &den);
        assert!(
            after < before * 0.5,
            "denoise should halve the MSE: {before} -> {after}"
        );
    }

    #[test]
    fn edges_are_preserved() {
        let (_, noisy) = noisy_step(20.0, 11);
        let den = chambolle_tv(&noisy, 10.0, 30);
        // The step at y=20 must survive: strong contrast across the edge.
        let left: f32 = (0..30).map(|z| den.get(18, z)).sum::<f32>() / 30.0;
        let right: f32 = (0..30).map(|z| den.get(22, z)).sum::<f32>() / 30.0;
        assert!(right - left > 120.0, "edge contrast {left} vs {right}");
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let img = SemImage::filled(10, 10, 55.0);
        let den = chambolle_tv(&img, 10.0, 15);
        for (a, b) in img.pixels().iter().zip(den.pixels()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_lambda_rejected() {
        let img = SemImage::filled(4, 4, 0.0);
        let _ = chambolle_tv(&img, 0.0, 5);
    }
}
