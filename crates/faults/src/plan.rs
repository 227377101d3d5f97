//! The seeded fault plan: which attempt at which site fails.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The injectable failure classes, mirroring the paper's Section IV
/// failure modes on their software counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A FIB/SEM slice acquisition fails (bad mill, charging, curtaining)
    /// and must be re-acquired from the same stage position.
    AcquireSlice,
    /// A transient I/O error while reading an artifact-store blob.
    StoreRead,
    /// A transient I/O error while writing an artifact-store blob.
    StoreWrite,
    /// A stored blob reads back corrupted (bit rot, torn write) and must
    /// be evicted and recomputed.
    CorruptBlob,
    /// A pipeline stage dies mid-flight (panic), caught and retried as a
    /// transient error.
    StagePanic,
}

impl FaultKind {
    /// Every kind, in lane order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::AcquireSlice,
        FaultKind::StoreRead,
        FaultKind::StoreWrite,
        FaultKind::CorruptBlob,
        FaultKind::StagePanic,
    ];

    /// Stable lane index (sub-seed selector).
    fn lane(self) -> usize {
        match self {
            FaultKind::AcquireSlice => 0,
            FaultKind::StoreRead => 1,
            FaultKind::StoreWrite => 2,
            FaultKind::CorruptBlob => 3,
            FaultKind::StagePanic => 4,
        }
    }

    /// Human-readable kind name (used in error messages and counters).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::AcquireSlice => "acquire_slice",
            FaultKind::StoreRead => "store_read",
            FaultKind::StoreWrite => "store_write",
            FaultKind::CorruptBlob => "corrupt_blob",
            FaultKind::StagePanic => "stage_panic",
        }
    }
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Declarative description of a fault plan: per-kind injection rates, a
/// seed, and the recoverability cap.
///
/// A spec is plain data (`Clone + PartialEq`); the live [`FaultPlan`]
/// built from it carries the run-scoped attempt and counter state. Rates
/// are per-*attempt* probabilities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed every injection decision derives from.
    pub seed: u64,
    /// Probability a given slice-acquisition attempt fails.
    pub acquire_slice_rate: f64,
    /// Probability a given store read attempt fails transiently.
    pub store_read_rate: f64,
    /// Probability a given store write attempt fails transiently.
    pub store_write_rate: f64,
    /// Probability a stored blob reads back corrupted.
    pub corrupt_blob_rate: f64,
    /// Probability a guarded stage attempt panics.
    pub stage_panic_rate: f64,
    /// Hard cap on *consecutive* failures any single site can see: from
    /// this attempt number on, the site always succeeds. Every fault in
    /// the plan is recoverable by a [`crate::RetryPolicy`] whose
    /// `max_retries >= max_consecutive`.
    pub max_consecutive: u32,
}

impl FaultSpec {
    /// A plan that injects nothing (useful for measuring plumbing
    /// overhead: the fault machinery runs, every check passes).
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            acquire_slice_rate: 0.0,
            store_read_rate: 0.0,
            store_write_rate: 0.0,
            corrupt_blob_rate: 0.0,
            stage_panic_rate: 0.0,
            max_consecutive: 1,
        }
    }

    /// Every fault kind at the same `rate`, failing at most twice in a
    /// row — recoverable under the default [`crate::RetryPolicy`].
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            acquire_slice_rate: rate,
            store_read_rate: rate,
            store_write_rate: rate,
            corrupt_blob_rate: rate,
            stage_panic_rate: rate,
            max_consecutive: 2,
        }
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-kind rate (builder style).
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        match kind {
            FaultKind::AcquireSlice => self.acquire_slice_rate = rate,
            FaultKind::StoreRead => self.store_read_rate = rate,
            FaultKind::StoreWrite => self.store_write_rate = rate,
            FaultKind::CorruptBlob => self.corrupt_blob_rate = rate,
            FaultKind::StagePanic => self.stage_panic_rate = rate,
        }
        self
    }

    /// Sets the consecutive-failure cap (builder style).
    pub fn with_max_consecutive(mut self, cap: u32) -> Self {
        self.max_consecutive = cap;
        self
    }

    /// The rate configured for `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::AcquireSlice => self.acquire_slice_rate,
            FaultKind::StoreRead => self.store_read_rate,
            FaultKind::StoreWrite => self.store_write_rate,
            FaultKind::CorruptBlob => self.corrupt_blob_rate,
            FaultKind::StagePanic => self.stage_panic_rate,
        }
    }

    /// Whether any kind can ever inject.
    pub fn is_enabled(&self) -> bool {
        FaultKind::ALL.iter().any(|k| self.rate(*k) > 0.0)
    }
}

/// Point-in-time copy of a plan's fault counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTally {
    /// Faults injected (failed attempts handed to call sites).
    pub injected: u64,
    /// Retry attempts performed in response to injected faults.
    pub retried: u64,
    /// Operations that succeeded after at least one retry.
    pub recovered: u64,
    /// Operations that exhausted their retries and were gracefully
    /// degraded (e.g. a slice interpolated from its neighbours).
    pub degraded: u64,
}

/// A live fault plan: the pure injection function plus run-scoped attempt
/// tracking and counters.
///
/// Injection decisions are a pure function of `(seed, kind, site,
/// attempt)` — two plans built from the same [`FaultSpec`] inject exactly
/// the same faults no matter how calls interleave across threads. The
/// per-site attempt counters (which make repeated [`FaultPlan::check`]
/// calls walk the attempt axis) are independent per site, so parallel
/// workers touching disjoint sites stay deterministic too.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Per-kind sub-seeds, drawn from a seeded RNG at construction so
    /// the kinds' decision streams are independent.
    lanes: [u64; 5],
    attempts: Mutex<HashMap<(u8, u64), u32>>,
    injected: AtomicU64,
    retried: AtomicU64,
    recovered: AtomicU64,
    degraded: AtomicU64,
}

impl FaultPlan {
    /// Builds the live plan for one run of a pipeline.
    pub fn new(spec: FaultSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let lanes = [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ];
        Self {
            spec,
            lanes,
            attempts: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Registers one attempt of `kind` at `site` and reports whether this
    /// attempt fails. Consecutive calls for the same site walk the attempt
    /// axis, so a transient fault clears after at most
    /// [`FaultSpec::max_consecutive`] failures.
    pub fn check(&self, kind: FaultKind, site: &str) -> bool {
        let site_hash = hash_site(site);
        let attempt = {
            let mut attempts = self.attempts.lock().expect("fault plan poisoned");
            let slot = attempts.entry((kind.lane() as u8, site_hash)).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        let fail = self.decides(kind, site_hash, attempt);
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fail
    }

    /// The pure decision function: would attempt number `attempt` at the
    /// site fail? Exposed for tests that verify order independence.
    pub fn would_fail(&self, kind: FaultKind, site: &str, attempt: u32) -> bool {
        self.decides(kind, hash_site(site), attempt)
    }

    fn decides(&self, kind: FaultKind, site_hash: u64, attempt: u32) -> bool {
        if attempt >= self.spec.max_consecutive {
            return false;
        }
        let rate = self.spec.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        unit_interval(self.lanes[kind.lane()], site_hash, attempt) < rate
    }

    /// Panics if this stage attempt is injected — the caller is expected
    /// to run it under `catch_unwind` and convert the unwind into a
    /// transient, retryable error.
    pub fn trip_stage(&self, stage: &str) {
        if self.check(FaultKind::StagePanic, stage) {
            panic!("injected transient fault in stage `{stage}`");
        }
    }

    /// Counts retry attempts made in response to injected faults (only
    /// [`crate::Recovery`] keeps this tally).
    pub(crate) fn record_retried(&self, n: u64) {
        self.retried.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts operations that recovered after at least one retry.
    pub(crate) fn record_recovered(&self, n: u64) {
        self.recovered.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts operations degraded after exhausting their retries.
    pub(crate) fn record_degraded(&self, n: u64) {
        self.degraded.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of the plan's counters.
    pub fn tally(&self) -> FaultTally {
        FaultTally {
            injected: self.injected.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// FNV-1a over the site string (stable across platforms — the vendored
/// hasher is fully specified).
fn hash_site(site: &str) -> u64 {
    let mut h = fnv::FnvHasher::default();
    h.write(site.as_bytes());
    h.finish()
}

/// Maps `(lane, site, attempt)` to a uniform value in `[0, 1)`.
///
/// FNV-1a is nearly linear in its last input bytes, so its top bits for
/// consecutive attempts at one site move together; the SplitMix64
/// finaliser mixes every input bit into every output bit, which makes a
/// site's attempts independent draws.
fn unit_interval(lane: u64, site_hash: u64, attempt: u32) -> f64 {
    let mut h = fnv::FnvHasher::with_key(lane);
    h.write(&site_hash.to_le_bytes());
    h.write(&attempt.to_le_bytes());
    // Top 53 bits → the unit interval, like rand's f64 conversion.
    (splitmix64(h.finish()) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The SplitMix64 finaliser: a bijection on `u64` with full avalanche.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let a = FaultPlan::new(FaultSpec::uniform(42, 0.5));
        let b = FaultPlan::new(FaultSpec::uniform(42, 0.5));
        // Query b in reverse order: decisions must match a's exactly.
        let sites: Vec<String> = (0..64).map(|i| format!("slice:{i}")).collect();
        let forward: Vec<bool> = sites
            .iter()
            .map(|s| a.would_fail(FaultKind::AcquireSlice, s, 0))
            .collect();
        let backward: Vec<bool> = sites
            .iter()
            .rev()
            .map(|s| b.would_fail(FaultKind::AcquireSlice, s, 0))
            .collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "injection must not depend on query order"
        );
        // A 50% plan over 64 sites essentially never injects 0 or 64.
        let n = forward.iter().filter(|f| **f).count();
        assert!(n > 8 && n < 56, "suspicious injection count {n}");
    }

    #[test]
    fn seeds_change_the_pattern_and_kinds_are_independent() {
        let a = FaultPlan::new(FaultSpec::uniform(1, 0.5));
        let b = FaultPlan::new(FaultSpec::uniform(2, 0.5));
        let sites: Vec<String> = (0..128).map(|i| format!("s{i}")).collect();
        let pattern = |p: &FaultPlan, kind| -> Vec<bool> {
            sites.iter().map(|s| p.would_fail(kind, s, 0)).collect()
        };
        assert_ne!(
            pattern(&a, FaultKind::AcquireSlice),
            pattern(&b, FaultKind::AcquireSlice),
            "different seeds must inject differently"
        );
        assert_ne!(
            pattern(&a, FaultKind::AcquireSlice),
            pattern(&a, FaultKind::StoreRead),
            "kinds must not share a decision stream"
        );
    }

    #[test]
    fn a_sites_consecutive_attempts_are_independent() {
        // Among the sites whose attempt 0 fails, attempt 1 must fail at the
        // plan's rate again, not at a rate tied to attempt 0's draw.
        let sites: Vec<String> = (0..10_000).map(|i| format!("slice:{i}")).collect();
        for rate in [0.1, 0.3, 0.5, 0.7] {
            let spec = FaultSpec::disabled()
                .with_seed(5)
                .with_rate(FaultKind::AcquireSlice, rate)
                .with_max_consecutive(4);
            let plan = FaultPlan::new(spec);
            let fails =
                |site: &str, attempt| plan.would_fail(FaultKind::AcquireSlice, site, attempt);
            let first: Vec<&String> = sites.iter().filter(|s| fails(s, 0)).collect();
            let both = first.iter().filter(|s| fails(s, 1)).count();
            let conditional = both as f64 / first.len() as f64;
            assert!(
                (conditional - rate).abs() <= 0.04,
                "rate {rate}: P(attempt 1 fails | attempt 0 failed) = {conditional:.3} \
                 over {} sites",
                first.len()
            );
        }
    }

    #[test]
    fn max_consecutive_caps_every_site() {
        let spec = FaultSpec::uniform(9, 1.0).with_max_consecutive(3);
        let plan = FaultPlan::new(spec);
        // Rate 1.0: attempts 0..3 all fail, attempt 3 must pass.
        for attempt in 0..3 {
            assert!(
                plan.check(FaultKind::StoreRead, "blob"),
                "attempt {attempt}"
            );
        }
        assert!(!plan.check(FaultKind::StoreRead, "blob"), "capped attempt");
        assert_eq!(plan.tally().injected, 3);
    }

    #[test]
    fn disabled_spec_never_injects() {
        let plan = FaultPlan::new(FaultSpec::disabled());
        assert!(!plan.spec().is_enabled());
        for i in 0..32 {
            for kind in FaultKind::ALL {
                assert!(!plan.check(kind, &format!("site{i}")));
            }
        }
        assert_eq!(plan.tally(), FaultTally::default());
    }

    #[test]
    fn check_walks_the_attempt_axis_per_site() {
        let spec = FaultSpec::disabled()
            .with_seed(5)
            .with_rate(FaultKind::AcquireSlice, 1.0)
            .with_max_consecutive(1);
        let plan = FaultPlan::new(spec);
        assert!(plan.check(FaultKind::AcquireSlice, "slice:0"));
        // Second attempt at the same site passes; a fresh site fails again.
        assert!(!plan.check(FaultKind::AcquireSlice, "slice:0"));
        assert!(plan.check(FaultKind::AcquireSlice, "slice:1"));
    }

    #[test]
    fn tally_tracks_recovery_bookkeeping() {
        let plan = FaultPlan::new(FaultSpec::disabled());
        plan.record_retried(3);
        plan.record_recovered(2);
        plan.record_degraded(1);
        let t = plan.tally();
        assert_eq!((t.retried, t.recovered, t.degraded), (3, 2, 1));
    }

    #[test]
    #[should_panic(expected = "injected transient fault in stage `reconstruct`")]
    fn trip_stage_panics_when_injected() {
        let spec = FaultSpec::disabled()
            .with_rate(FaultKind::StagePanic, 1.0)
            .with_max_consecutive(1);
        FaultPlan::new(spec).trip_stage("reconstruct");
    }
}
