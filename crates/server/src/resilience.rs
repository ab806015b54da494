//! Per-phone circuit breaking for the coordinator.
//!
//! The paper's prototype treats a lost connection as a phone failure, and
//! so does this coordinator: no send is retried, and the kernel
//! reschedules the failed work (§5–§6). What that leaves is a phone that
//! keeps flapping — spurious failure reports, protocol violations, stalled
//! chunks — and [`WindowBreaker`], a per-phone failure window, quarantines
//! it out of the schedule. It is a pure schedule over caller-supplied
//! time: the kernel feeds it its own `now`, so nothing here sleeps or
//! reads a clock.

// Panic-safety (DESIGN.md §8): the breaker judges misbehaving peers.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use cwc_types::Micros;
use std::collections::VecDeque;
use std::time::Duration;

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
