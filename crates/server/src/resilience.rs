//! Retry, backoff, and per-phone circuit breaking for the live path.
//!
//! The paper's prototype treats every hiccup as a phone failure; real
//! deployments see a messier middle ground — transient send errors, slow
//! phones, corrupted frames — where killing the phone on first contact
//! is wasteful and keeping it forever is worse. This module supplies the
//! two standard tools: [`RetryPolicy`], exponential backoff with
//! deterministic jitter and a per-send deadline, for errors worth a second
//! attempt; and [`WindowBreaker`], a per-phone failure window, for phones
//! that keep flapping and need to be quarantined out of the schedule.
//! Both are pure schedules over caller-supplied time: the live event loop
//! turns a backoff into a wheel timer and the kernel feeds the breaker its
//! own `now`, so nothing here sleeps or reads a clock.

use cwc_sim::Distributions;
use cwc_types::Micros;
use std::collections::VecDeque;
use std::time::Duration;

/// Exponential backoff with deterministic jitter and a per-send deadline.
///
/// Jitter is derived from `jitter_seed`, the send label, and the attempt
/// number — no wall-clock entropy — so a chaos run replays its exact retry
/// timing from the seed.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so 3 means "retry twice").
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base: Duration,
    /// Upper bound on a single backoff wait.
    pub cap: Duration,
    /// Hard bound on one logical send, retries included. When exceeded,
    /// the last error is returned even if attempts remain.
    pub deadline: Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(40),
            deadline: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based) of the send
    /// labelled `label`: `base * 2^(attempt-1)`, capped, scaled by a
    /// deterministic jitter factor in `[0.5, 1.5)`.
    pub fn backoff(&self, label: &str, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt.saturating_sub(1)));
        let capped = exp.min(self.cap);
        let mut rng =
            cwc_chaos::ChaosRng::new(self.jitter_seed).derive(&format!("{label}/{attempt}"));
        capped.mul_f64(0.5 + rng.next_f64())
    }
}

/// Configuration of a per-phone circuit breaker.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Failures within [`BreakerConfig::window`] that trip the breaker.
    pub threshold: u32,
    /// Sliding window over which failures are counted.
    pub window: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            window: Duration::from_secs(10),
        }
    }
}

/// A per-phone failure counter with a sliding window. Once open it stays
/// open: a quarantined phone re-enters service at the next run, not the
/// next loop iteration (matching the paper's "wait for the next
/// scheduling instant" treatment of failed phones). Time is whatever the
/// caller passes in ([`Micros`] of driver time): the sans-IO coordinator
/// kernel embeds this, and the kernel never reads a wall clock.
#[derive(Debug, Clone)]
pub struct WindowBreaker {
    threshold: u32,
    window: Micros,
    failures: VecDeque<Micros>,
    open: bool,
}

impl WindowBreaker {
    /// A closed breaker tripping at `threshold` failures per `window`.
    pub fn new(threshold: u32, window: Micros) -> Self {
        WindowBreaker {
            threshold,
            window,
            failures: VecDeque::new(),
            open: false,
        }
    }

    /// Records one failure at `now`; returns `true` iff this failure
    /// tripped the breaker open (callers quarantine exactly then).
    pub fn record(&mut self, now: Micros) -> bool {
        if self.open {
            return false;
        }
        self.failures.push_back(now);
        while let Some(&front) = self.failures.front() {
            if now.0.saturating_sub(front.0) > self.window.0 {
                self.failures.pop_front();
            } else {
                break;
            }
        }
        if self.failures.len() as u32 >= self.threshold.max(1) {
            self.open = true;
        }
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let policy = RetryPolicy {
            jitter_seed: 7,
            ..Default::default()
        };
        assert_eq!(policy.backoff("a", 1), policy.backoff("a", 1));
        assert_ne!(policy.backoff("a", 1), policy.backoff("b", 1));
        // Jitter is ±50%, growth is 2×: attempt 3's floor (2x base) exceeds
        // attempt 1's ceiling (1.5x base).
        assert!(policy.backoff("a", 3) > policy.backoff("a", 1));
        // Capped: late attempts never exceed 1.5 * cap.
        assert!(policy.backoff("a", 30) <= policy.cap.mul_f64(1.5));
    }

    #[test]
    fn breaker_trips_at_threshold_and_stays_open() {
        let mut b = WindowBreaker::new(3, Micros(60_000_000));
        assert!(!b.record(Micros(0)));
        assert!(!b.record(Micros(1)));
        assert!(b.record(Micros(2)), "third failure in window trips");
        assert!(!b.record(Micros(3)), "already open: no second trip signal");
    }

    #[test]
    fn breaker_window_ages_failures_out() {
        let mut b = WindowBreaker::new(2, Micros(10_000_000));
        assert!(!b.record(Micros(0)));
        // The first failure is 11 s old when the second lands: aged out.
        assert!(!b.record(Micros(11_000_000)));
        // The second is 1 s old when the third lands: still in the window.
        assert!(b.record(Micros(12_000_000)), "two in window trip");
    }
}
