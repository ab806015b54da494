//! Span timing helpers for phase breakdowns.
//!
//! Wall-clock phases (measure/schedule/ship in the live path) use the RAII
//! [`SpanGuard`]; simulated phases (transfer/execute in the engine) already
//! know their duration and call
//! [`MetricsRegistry::observe`](crate::MetricsRegistry::observe) directly.

use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// RAII wall-clock timer: records elapsed microseconds into a histogram
/// when dropped (or when [`SpanGuard::finish`] is called for the value).
#[must_use = "a span records on drop; binding to `_` drops immediately"]
pub struct SpanGuard {
    registry: MetricsRegistry,
    name: String,
    start: Instant,
    armed: bool,
}

impl SpanGuard {
    /// Starts timing; `name` is the histogram the duration lands in
    /// (convention: suffix `_us`, e.g. `span.schedule_us`).
    pub fn start(registry: &MetricsRegistry, name: impl Into<String>) -> Self {
        SpanGuard {
            registry: registry.clone(),
            name: name.into(),
            start: Instant::now(),
            armed: true,
        }
    }

    /// Elapsed microseconds so far, without stopping the span.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Stops the span now, records it, and returns the elapsed microseconds.
    pub fn finish(mut self) -> u64 {
        let us = self.elapsed_us();
        self.registry.histogram(&self.name).record(us as f64);
        self.armed = false;
        us
    }

    /// Drops the span without recording anything.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let us = self.elapsed_us();
            self.registry.histogram(&self.name).record(us as f64);
        }
    }
}

/// Times `f` on the wall clock and records the duration into histogram
/// `name`; returns `f`'s result.
pub fn timed<R>(registry: &MetricsRegistry, name: &str, f: impl FnOnce() -> R) -> R {
    let span = SpanGuard::start(registry, name);
    let out = f();
    span.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let m = MetricsRegistry::new();
        {
            let _span = SpanGuard::start(&m, "span.test_us");
        }
        assert_eq!(m.histogram("span.test_us").count(), 1);
    }

    #[test]
    fn finish_returns_elapsed_and_records_once() {
        let m = MetricsRegistry::new();
        let span = SpanGuard::start(&m, "span.test_us");
        let us = span.finish();
        let h = m.histogram("span.test_us");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), us as f64);
    }

    #[test]
    fn cancel_records_nothing() {
        let m = MetricsRegistry::new();
        SpanGuard::start(&m, "span.test_us").cancel();
        assert_eq!(m.histogram("span.test_us").count(), 0);
    }

    #[test]
    fn timed_wraps_a_closure() {
        let m = MetricsRegistry::new();
        let v = timed(&m, "span.closure_us", || 7);
        assert_eq!(v, 7);
        assert_eq!(m.histogram("span.closure_us").count(), 1);
    }
}
