//! Bounded retries with deterministic exponential backoff, and the
//! run-scoped [`Recovery`] ledger that charges them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::{FaultPlan, FaultSpec};

/// How a fallible operation is retried: a bounded number of retries with
/// exponential backoff, saturating at a delay ceiling.
///
/// Backoff is *virtual* (see [`VirtualClock`]): delays are accounted, not
/// slept, so a faulted pipeline run is as fast as a clean one and the
/// backoff schedule is exactly reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail on first error).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Multiplier applied per retry (exponential growth).
    pub multiplier: f64,
    /// Ceiling the backoff saturates at.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// Three retries, 10 ms doubling to a 500 ms ceiling — enough to
    /// clear any fault a default [`crate::FaultSpec`] injects
    /// (`max_consecutive = 2`).
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            multiplier: 2.0,
            max_delay: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// The backoff before retry number `retry` (0-based):
    /// `base * multiplier^retry`, saturating at `max_delay` (including
    /// against `f64` overflow for absurd retry numbers).
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = self.multiplier.max(1.0).powi(retry.min(1_000) as i32);
        let nanos = self.base_delay.as_nanos() as f64 * factor;
        if !nanos.is_finite() || nanos >= self.max_delay.as_nanos() as f64 {
            self.max_delay
        } else {
            Duration::from_nanos(nanos as u64)
        }
    }

    /// Total virtual delay if every retry in the budget is used.
    ///
    /// Saturates instead of overflowing: huge budgets (`max_retries` up to
    /// `u32::MAX`) and ceiling-sized delays cap at [`Duration::MAX`]. The
    /// sum is computed in closed form past the point the schedule goes
    /// constant — [`Self::backoff`] clamps its exponent at 1000, so from
    /// retry 1000 on every backoff equals `backoff(1000)` — keeping this
    /// O(min(max_retries, 1000)) rather than O(max_retries).
    pub fn total_budget(&self) -> Duration {
        let head = self.max_retries.min(1_000);
        let mut total = Duration::ZERO;
        for r in 0..head {
            total = total.saturating_add(self.backoff(r));
        }
        let tail = self.max_retries - head;
        if tail > 0 {
            total = total.saturating_add(self.backoff(1_000).saturating_mul(tail));
        }
        total
    }
}

/// Accumulates virtual backoff time instead of sleeping.
///
/// Real sleeps would make faulted runs slow and their wall-clock telemetry
/// noisy; a virtual clock keeps the backoff schedule observable (tests
/// assert on it) while recovery stays instant.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total virtual time slept so far.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// Typed give-up: the retry budget ran out; `last` is the error of the
/// final attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct GaveUp<E> {
    /// Total attempts made (initial try + retries).
    pub attempts: u32,
    /// The error the final attempt produced.
    pub last: E,
    /// Virtual backoff time spent before giving up.
    pub waited: Duration,
}

impl<E: core::fmt::Display> GaveUp<E> {
    /// Flattens into the site-annotated, `Clone + PartialEq` form error
    /// enums embed.
    pub fn into_exhausted(self, site: impl Into<String>) -> Exhausted {
        Exhausted {
            site: site.into(),
            attempts: self.attempts,
            last_error: self.last.to_string(),
            waited: self.waited,
        }
    }
}

/// A retried operation that exhausted its budget, rendered for embedding
/// in error enums that need `Clone + PartialEq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhausted {
    /// Which operation gave up (e.g. `"store.get"`, `"stage:reconstruct"`).
    pub site: String,
    /// Total attempts made.
    pub attempts: u32,
    /// Rendered error of the final attempt.
    pub last_error: String,
    /// Virtual backoff time spent.
    pub waited: Duration,
}

impl core::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} gave up after {} attempts ({:?} backoff): {}",
            self.site, self.attempts, self.waited, self.last_error
        )
    }
}

impl std::error::Error for Exhausted {}

/// Why [`retry`] stopped without a value.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryError<E> {
    /// The error was not transient; retrying cannot help.
    Fatal(E),
    /// Every attempt in the budget failed transiently.
    GaveUp(GaveUp<E>),
}

/// Runs `op` under `policy`: transient errors (per `is_transient`) are
/// retried with exponential backoff charged to `clock`; fatal errors
/// return immediately. `op` receives the 0-based attempt number.
///
/// On success returns the value and the number of *retries* it took
/// (0 = first attempt succeeded), so callers can account recoveries.
///
/// # Errors
///
/// [`RetryError::Fatal`] on the first non-transient error,
/// [`RetryError::GaveUp`] once `policy.max_retries` retries are spent.
pub fn retry<T, E>(
    policy: &RetryPolicy,
    clock: &VirtualClock,
    is_transient: impl Fn(&E) -> bool,
    op: impl FnMut(u32) -> Result<T, E>,
) -> Result<(T, u32), RetryError<E>> {
    retry_observed(policy, clock, is_transient, |_, _| {}, op)
}

/// [`retry`] with a backoff observer: `observe(retry_number, delay)` is
/// called for every backoff charged to the clock, *before* the retried
/// attempt runs.
fn retry_observed<T, E>(
    policy: &RetryPolicy,
    clock: &VirtualClock,
    is_transient: impl Fn(&E) -> bool,
    mut observe: impl FnMut(u32, Duration),
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> Result<(T, u32), RetryError<E>> {
    let mut waited = Duration::ZERO;
    let mut attempt = 0u32;
    loop {
        match op(attempt) {
            Ok(v) => return Ok((v, attempt)),
            Err(e) if !is_transient(&e) => return Err(RetryError::Fatal(e)),
            Err(e) => {
                if attempt >= policy.max_retries {
                    return Err(RetryError::GaveUp(GaveUp {
                        attempts: attempt + 1,
                        last: e,
                        waited,
                    }));
                }
                let delay = policy.backoff(attempt);
                clock.advance(delay);
                observe(attempt, delay);
                waited += delay;
                attempt += 1;
            }
        }
    }
}

/// The retry ledger of one run: its optional [`FaultPlan`], its
/// [`RetryPolicy`], the [`VirtualClock`] its backoff is charged to, and a
/// log of every backoff charged.
///
/// Every retried operation of the run goes through [`Recovery::run`] and
/// every degraded one through [`Recovery::degrade`], so the plan's
/// `retried`/`recovered`/`degraded` tallies, the clock and the log are
/// written in one place: each logged backoff is one counted retry. The
/// ledger is `Sync`, so parallel workers share one by reference.
#[derive(Debug)]
pub struct Recovery {
    plan: Option<Arc<FaultPlan>>,
    policy: RetryPolicy,
    clock: VirtualClock,
    backoffs: Mutex<Vec<Duration>>,
}

impl Recovery {
    /// A ledger for one run: a fresh plan built from `faults` (`None`
    /// injects nothing) and retries under `policy`.
    pub fn new(faults: Option<FaultSpec>, policy: RetryPolicy) -> Self {
        Self {
            plan: faults.map(|spec| Arc::new(FaultPlan::new(spec))),
            policy,
            clock: VirtualClock::new(),
            backoffs: Mutex::default(),
        }
    }

    /// The run's fault plan, if injection is configured.
    pub fn plan(&self) -> Option<&Arc<FaultPlan>> {
        self.plan.as_ref()
    }

    /// Runs `op` under the policy, as [`retry`] does: transient errors
    /// (per `is_transient`) back off on the clock, fatal ones return at
    /// once. Every backoff is logged and counted as a retry, and a success
    /// after at least one retry as a recovery.
    ///
    /// # Errors
    ///
    /// [`RetryError::Fatal`] on the first non-transient error,
    /// [`RetryError::GaveUp`] once the policy's retries are spent.
    pub fn run<T, E>(
        &self,
        is_transient: impl Fn(&E) -> bool,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, RetryError<E>> {
        let charge = |_retry, delay| {
            self.backoffs.lock().expect(POISONED).push(delay);
            if let Some(plan) = &self.plan {
                plan.record_retried(1);
            }
        };
        let (value, retries) =
            retry_observed(&self.policy, &self.clock, is_transient, charge, |_| op())?;
        if retries > 0 {
            if let Some(plan) = &self.plan {
                plan.record_recovered(1);
            }
        }
        Ok(value)
    }

    /// Records an operation that exhausted its retries and was degraded
    /// (a slice interpolated from its neighbours).
    pub fn degrade(&self) {
        if let Some(plan) = &self.plan {
            plan.record_degraded(1);
        }
    }

    /// Total virtual backoff charged so far.
    pub fn waited(&self) -> Duration {
        self.clock.elapsed()
    }

    /// Every backoff charged so far, shortest first, so the log reads the
    /// same whatever order parallel workers charged it in.
    pub fn backoffs(&self) -> Vec<Duration> {
        let mut log = self.backoffs.lock().expect(POISONED).clone();
        log.sort_unstable();
        log
    }
}

/// Why taking the backoff log's lock can fail.
const POISONED: &str = "a thread panicked while charging a backoff";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_saturates() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            multiplier: 2.0,
            max_delay: Duration::from_millis(100),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(80));
        // Saturation: 160 ms clamps to the 100 ms ceiling, forever after.
        assert_eq!(p.backoff(4), Duration::from_millis(100));
        assert_eq!(p.backoff(63), Duration::from_millis(100));
        assert_eq!(p.backoff(u32::MAX), Duration::from_millis(100));
    }

    #[test]
    fn total_budget_sums_the_schedule() {
        let p = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            multiplier: 2.0,
            max_delay: Duration::from_millis(500),
        };
        assert_eq!(p.total_budget(), Duration::from_millis(10 + 20 + 40));
        assert_eq!(RetryPolicy::none().total_budget(), Duration::ZERO);
    }

    #[test]
    fn total_budget_saturates_for_absurd_budgets() {
        // u32::MAX retries at the delay ceiling must neither overflow nor
        // take O(max_retries) time to account.
        let p = RetryPolicy {
            max_retries: u32::MAX,
            base_delay: Duration::from_secs(u64::MAX / 2),
            multiplier: 2.0,
            max_delay: Duration::MAX,
        };
        assert_eq!(p.total_budget(), Duration::MAX);
        // A non-growing schedule (multiplier 1.0) still sums in closed
        // form: every retry costs the base delay.
        let flat = RetryPolicy {
            max_retries: 2_000_000,
            base_delay: Duration::from_nanos(3),
            multiplier: 1.0,
            max_delay: Duration::from_secs(1),
        };
        assert_eq!(flat.total_budget(), Duration::from_nanos(3) * 2_000_000);
    }

    #[test]
    fn retry_recovers_and_reports_retry_count() {
        let clock = VirtualClock::new();
        let mut failures = 2;
        let out = retry(
            &RetryPolicy::default(),
            &clock,
            |_: &&str| true,
            |attempt| {
                if failures > 0 {
                    failures -= 1;
                    Err("transient")
                } else {
                    Ok(attempt)
                }
            },
        )
        .expect("recovers");
        assert_eq!(out, (2, 2));
        assert_eq!(clock.elapsed(), Duration::from_millis(10 + 20));
    }

    #[test]
    fn zero_retry_policy_gives_up_immediately() {
        let clock = VirtualClock::new();
        let err = retry(
            &RetryPolicy::none(),
            &clock,
            |_: &&str| true,
            |_| Err::<(), _>("transient"),
        )
        .unwrap_err();
        match err {
            RetryError::GaveUp(g) => {
                assert_eq!(g.attempts, 1);
                assert_eq!(g.waited, Duration::ZERO);
            }
            RetryError::Fatal(_) => panic!("transient error must give up, not go fatal"),
        }
        assert_eq!(clock.elapsed(), Duration::ZERO, "no backoff was due");
    }

    #[test]
    fn fatal_errors_short_circuit() {
        let clock = VirtualClock::new();
        let mut calls = 0;
        let err = retry(
            &RetryPolicy::default(),
            &clock,
            |e: &&str| *e != "fatal",
            |_| {
                calls += 1;
                Err::<(), _>("fatal")
            },
        )
        .unwrap_err();
        assert_eq!(err, RetryError::Fatal("fatal"));
        assert_eq!(calls, 1, "fatal errors must not be retried");
    }

    #[test]
    fn gave_up_renders_into_exhausted() {
        let g = GaveUp {
            attempts: 4,
            last: "disk on fire",
            waited: Duration::from_millis(70),
        };
        let ex = g.into_exhausted("store.get");
        assert_eq!(ex.attempts, 4);
        assert_eq!(ex.site, "store.get");
        let msg = ex.to_string();
        assert!(msg.contains("4 attempts"), "{msg}");
        assert!(msg.contains("disk on fire"), "{msg}");
    }

    #[test]
    fn recovery_logs_and_counts_every_backoff_it_charges() {
        let ms = Duration::from_millis;
        let recovery = Recovery::new(Some(FaultSpec::disabled()), RetryPolicy::default());
        let mut failures = 3;
        let flaky = || {
            if failures > 0 {
                failures -= 1;
                Err("transient")
            } else {
                Ok(())
            }
        };
        recovery.run(|_: &&str| true, flaky).expect("recovers");
        let err = recovery.run(|_: &&str| true, || Err::<(), _>("down"));
        assert!(matches!(err, Err(RetryError::GaveUp(ref g)) if g.attempts == 4));
        recovery.degrade();
        let err = recovery.run(|e: &&str| *e != "fatal", || Err::<(), _>("fatal"));
        assert_eq!(err, Err(RetryError::Fatal("fatal")));
        // Both retried operations charged 10, 20 and 40 ms; the log is
        // sorted, and the clock holds its sum.
        let log = recovery.backoffs();
        assert_eq!(log, [10, 10, 20, 20, 40, 40].map(ms));
        assert_eq!(recovery.waited(), log.iter().sum::<Duration>());
        let tally = recovery.plan().expect("plan").tally();
        assert_eq!((tally.retried, tally.recovered, tally.degraded), (6, 1, 1));

        // Without a plan the clock and log are still charged and nothing
        // is tallied.
        let bare = Recovery::new(None, RetryPolicy::default());
        assert!(bare.run(|_: &&str| true, || Err::<(), _>("down")).is_err());
        bare.degrade();
        assert!(bare.plan().is_none());
        assert_eq!(bare.backoffs(), [10, 20, 40].map(ms));
        assert_eq!(bare.waited(), ms(70));
    }

    #[test]
    fn virtual_clock_accumulates_without_sleeping() {
        let clock = VirtualClock::new();
        let start = std::time::Instant::now();
        clock.advance(Duration::from_secs(3600));
        clock.advance(Duration::from_secs(1800));
        assert_eq!(clock.elapsed(), Duration::from_secs(5400));
        assert!(start.elapsed() < Duration::from_secs(1), "must not sleep");
    }
}
