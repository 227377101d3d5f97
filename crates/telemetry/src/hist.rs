//! Fixed log2-bucket latency/size histograms.
//!
//! [`Histogram`] is the third metric kind next to counters and gauges:
//! stages record individual `u64` observations (per-slice latencies in µs,
//! store payload sizes in bytes, retry backoff delays, search iteration
//! counts) and the report layer folds them into a compact
//! [`HistogramSummary`] (count/min/p50/p90/p99/max).
//!
//! # Bucketing
//!
//! Buckets are powers of two: observation `v` lands in bucket
//! `bit_width(v)` (so bucket 0 holds exactly `0`, bucket `b ≥ 1` holds
//! `2^(b-1) ..= 2^b - 1`). 65 buckets cover the full `u64` range with no
//! allocation-time configuration and no floating point, which keeps
//! recording cheap and the summaries bit-deterministic. Quantiles are
//! resolved to the upper bound of the bucket containing the requested
//! rank, clamped into `[min, max]` — a value that is exact for the tails
//! the profile gate cares about and never inverts ordering
//! (`p50 ≤ p90 ≤ p99` by construction).

use serde::{Deserialize, Serialize};

/// Number of log2 buckets: one for zero plus one per `u64` bit.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for an observation: 0 for 0, else `bit_width(v)`.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (`2^b - 1`; bucket 0 → 0).
    pub fn bucket_upper_bound(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else if bucket >= 64 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one. Merging is associative and
    /// commutative: bucket counts, counts and sums add; min/max take the
    /// extremes. `merge(a, merge(b, c)) == merge(merge(a, b), c)`.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing rank `ceil(q · count)`, clamped into `[min, max]`.
    /// Returns 0 when empty. Monotonic in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Condenses the histogram into its named summary form.
    pub fn summarize(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// Compact rendering of one histogram for reports and profiles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Histogram name (e.g. `acquire.slice_us`).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Smallest observation.
    pub min: u64,
    /// Median (bucket upper bound, clamped into `[min, max]`).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSummary {
    /// One-line human rendering, e.g.
    /// `acquire.slice_us: n=64 min=812 p50=1023 p90=2047 p99=4095 max=3922`.
    pub fn render(&self) -> String {
        format!(
            "{}: n={} min={} p50={} p90={} p99={} max={}",
            self.name, self.count, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for b in 0..HISTOGRAM_BUCKETS {
            let hi = Histogram::bucket_upper_bound(b);
            assert_eq!(Histogram::bucket_index(hi), b, "upper bound of {b}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        let s = h.summarize("empty");
        assert_eq!((s.count, s.min, s.p50, s.max), (0, 0, 0, 0));
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = Histogram::new();
        for v in [3u64, 5, 9, 17, 33, 65, 129, 1025] {
            h.record(v);
        }
        let s = h.summarize("t");
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 1025);
        // Single value: every quantile collapses onto it.
        let mut one = Histogram::new();
        one.record(42);
        assert_eq!(one.quantile(0.0), 42);
        assert_eq!(one.quantile(0.5), 42);
        assert_eq!(one.quantile(1.0), 42);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let values_a = [1u64, 2, 1000, 7];
        let values_b = [0u64, 3, 500_000];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in values_a {
            a.record(v);
            all.record(v);
        }
        for v in values_b {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
