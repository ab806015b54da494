//! Span timing helpers for phase breakdowns.
//!
//! Wall-clock phases (the kernel's scheduling instants) use [`timed`];
//! simulated phases (transfer/execute in the engine) already know their
//! duration and call
//! [`MetricsRegistry::observe`](crate::MetricsRegistry::observe) directly.

use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// Times `f` on the wall clock and records the elapsed microseconds into
/// histogram `name` (convention: suffix `_us`, e.g. `span.schedule_us`);
/// returns `f`'s result. The duration is recorded on drop, so a phase
/// that unwinds is recorded too.
pub fn timed<R>(registry: &MetricsRegistry, name: &str, f: impl FnOnce() -> R) -> R {
    struct Guard<'a> {
        registry: &'a MetricsRegistry,
        name: &'a str,
        start: Instant,
    }
    impl Drop for Guard<'_> {
        fn drop(&mut self) {
            let us = self.start.elapsed().as_micros() as u64;
            self.registry.histogram(self.name).record(us as f64);
        }
    }
    let _guard = Guard {
        registry,
        name,
        start: Instant::now(),
    };
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_wraps_a_closure() {
        let m = MetricsRegistry::new();
        let v = timed(&m, "span.closure_us", || 7);
        assert_eq!(v, 7);
        assert_eq!(m.histogram("span.closure_us").count(), 1);
    }
}
