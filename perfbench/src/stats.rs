//! Order statistics for latency samples.

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Percentiles the tail rule picks from, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9, 99.99
/// that has at least [`TAIL_MIN_BEYOND`] samples beyond it, by nearest
/// rank: the `p`-th percentile is the `ceil(p/100 · n)`-th smallest sample
/// and the samples ranked after it lie beyond it. `None` when even the
/// median has fewer than ten samples beyond it (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| {
            // Rounded before the ceiling so that e.g. 99.9% of 10 000 is
            // rank 9 990, not 9 991 through float error.
            let rank = ((p / 100.0 * n as f64 * 1e6).round() / 1e6).ceil() as usize;
            (p, rank.max(1))
        })
        .find(|&(_, rank)| n >= rank && n - rank >= TAIL_MIN_BEYOND)
        .map(|(percentile, rank)| Tail {
            percentile,
            value: sorted[rank - 1],
            beyond: n - rank,
        })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_twenty_samples() {
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).expect("20 samples give a median tail");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn tail_climbs_the_ladder_as_samples_grow() {
        let cases = [
            (39, 50.0),
            (40, 75.0),
            (99, 75.0),
            (100, 90.0),
            (200, 95.0),
            (999, 95.0),
            (1_000, 99.0),
            (10_000, 99.9),
            (100_000, 99.99),
        ];
        for (n, want) in cases {
            let t = tail(&ramp(n)).expect("enough samples");
            assert_eq!(t.percentile, want, "n = {n}");
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n = {n}: {t:?}");
            // The value is the sample at the nearest rank.
            assert_eq!(t.value, (n - t.beyond) as f64, "n = {n}");
        }
    }

    #[test]
    fn tail_counts_exactly_the_samples_ranked_beyond() {
        let t = tail(&ramp(1_000)).unwrap();
        assert_eq!((t.value, t.beyond), (990.0, 10));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.value, t.beyond), (9_990.0, 10));
    }
}
