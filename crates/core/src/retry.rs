//! A bounded retry/backoff policy shared by every component that waits
//! on another process: the worker supervisor (pacing respawns of dead
//! workers) and the `varbench query` HTTP client (waiting for a server
//! to accept connections).
//!
//! The policy is a *pure schedule*: given an attempt number it returns
//! how long to pause before the next attempt, or `None` when the caller
//! should give up. Elapsed time is tracked by summing the pauses the
//! schedule itself hands out — never by reading a clock — so users of
//! this type stay inside the repo's L002 no-wallclock lint without any
//! carve-out.
//!
//! ```
//! use std::time::Duration;
//! use varbench_core::retry::RetryPolicy;
//!
//! let policy = RetryPolicy::new(4)
//!     .initial_backoff(Duration::from_millis(10))
//!     .max_backoff(Duration::from_millis(40));
//! // Exponential doubling, capped at max_backoff, then exhaustion.
//! let pauses: Vec<_> = (0..4).map(|i| policy.backoff_after(i)).collect();
//! assert_eq!(
//!     pauses,
//!     vec![
//!         Some(Duration::from_millis(10)),
//!         Some(Duration::from_millis(20)),
//!         Some(Duration::from_millis(40)),
//!         None, // last attempt: no further retry
//!     ]
//! );
//! ```

#![deny(missing_docs)]

use std::time::Duration;

/// Bounded exponential backoff: up to `attempts` tries, pausing
/// `initial_backoff * 2^k` (capped at `max_backoff`) between them, with
/// the *sum* of all pauses additionally capped by `budget`.
///
/// The schedule is deterministic (no jitter): varbench's own invariants
/// are built on reproducibility, and the handful of processes in a
/// worker fleet do not need thundering-herd protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    attempts: u32,
    initial: Duration,
    max: Duration,
    budget: Duration,
}

impl RetryPolicy {
    /// A policy with `attempts` total tries and the default pacing:
    /// 25 ms initial backoff, 1 s cap, 60 s total sleep budget.
    ///
    /// # Panics
    ///
    /// Panics if `attempts == 0` — a policy that never tries cannot
    /// return a result.
    pub fn new(attempts: u32) -> RetryPolicy {
        assert!(attempts > 0, "a retry policy needs at least one attempt");
        RetryPolicy {
            attempts,
            initial: Duration::from_millis(25),
            max: Duration::from_secs(1),
            budget: Duration::from_secs(60),
        }
    }

    /// Sets the pause before the first retry (doubles each retry after).
    pub fn initial_backoff(mut self, d: Duration) -> RetryPolicy {
        self.initial = d;
        self
    }

    /// Caps every individual pause at `d`.
    pub fn max_backoff(mut self, d: Duration) -> RetryPolicy {
        self.max = d;
        self
    }

    /// Caps the *total* time slept across all retries. Once the
    /// cumulative schedule reaches the budget, `backoff_after` returns
    /// `None` even if attempts remain.
    pub fn budget(mut self, d: Duration) -> RetryPolicy {
        self.budget = d;
        self
    }

    /// Total number of attempts this policy allows.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The cap on any individual pause (see [`RetryPolicy::max_backoff`]).
    /// Callers honoring an external pacing hint — e.g. a server's
    /// `Retry-After` header — clamp the hint to this so a hostile or
    /// misconfigured peer cannot stretch the schedule past its bounds.
    pub fn max_pause(&self) -> Duration {
        self.max
    }

    /// The pause to take after failed attempt `attempt` (0-based), or
    /// `None` when the policy is exhausted (attempt cap or sleep budget
    /// reached) and the caller should surface the last error.
    ///
    /// The final pause is truncated so the cumulative sleep never
    /// exceeds [`RetryPolicy::budget`]; a truncation to zero means
    /// exhaustion, not a busy-loop.
    pub fn backoff_after(&self, attempt: u32) -> Option<Duration> {
        if attempt.checked_add(1)? >= self.attempts {
            return None;
        }
        let mut slept = Duration::ZERO;
        for k in 0..attempt {
            slept = slept.saturating_add(self.nominal(k));
        }
        let remaining = self.budget.checked_sub(slept)?;
        let pause = self.nominal(attempt).min(remaining);
        if pause.is_zero() && !self.nominal(attempt).is_zero() {
            return None; // budget exhausted
        }
        Some(pause)
    }

    /// The uncapped-by-budget pause after attempt `k`: `initial * 2^k`,
    /// saturating, capped at `max_backoff`.
    fn nominal(&self, k: u32) -> Duration {
        let doubled = self
            .initial
            .checked_mul(1u32.checked_shl(k).unwrap_or(u32::MAX))
            .unwrap_or(self.max);
        doubled.min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn doubles_and_caps() {
        let p = RetryPolicy::new(6)
            .initial_backoff(ms(10))
            .max_backoff(ms(35));
        assert_eq!(p.backoff_after(0), Some(ms(10)));
        assert_eq!(p.backoff_after(1), Some(ms(20)));
        assert_eq!(p.backoff_after(2), Some(ms(35)), "capped");
        assert_eq!(p.backoff_after(3), Some(ms(35)));
        assert_eq!(p.backoff_after(5), None, "last attempt has no retry");
    }

    #[test]
    fn budget_truncates_then_exhausts() {
        let p = RetryPolicy::new(10)
            .initial_backoff(ms(10))
            .max_backoff(ms(10))
            .budget(ms(25));
        assert_eq!(p.backoff_after(0), Some(ms(10)));
        assert_eq!(p.backoff_after(1), Some(ms(10)));
        assert_eq!(p.backoff_after(2), Some(ms(5)), "truncated to budget");
        assert_eq!(p.backoff_after(3), None, "budget spent");
    }

    #[test]
    fn max_pause_reports_the_per_pause_cap() {
        assert_eq!(
            RetryPolicy::new(2).max_backoff(ms(7)).max_pause(),
            ms(7),
            "clamp for external pacing hints like Retry-After"
        );
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::new(0);
    }
}
