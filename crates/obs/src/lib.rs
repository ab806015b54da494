//! # cwc-obs — observability for the CWC workspace
//!
//! A dependency-free (std-only) observability layer shared by every crate in
//! the workspace:
//!
//! 1. **Event bus** ([`EventBus`]): structured [`Event`] records — sim-time
//!    or wall-time stamped, severity-tagged, with key/value fields — fanned
//!    out to pluggable sinks ([`MemorySink`], [`TextSink`], [`JsonlSink`]).
//!    With no sinks attached, emission is a near-free no-op, so
//!    instrumentation stays always-on in library code.
//! 2. **Metrics registry** ([`MetricsRegistry`]): named counters, gauges and
//!    fixed-bucket histograms with p50/p95/p99 summaries. Counters and
//!    histogram recording are lock-free atomics.
//! 3. **Span timing** ([`timed`]): wall-clock phase timers; simulated
//!    phases record their known durations directly.
//! 4. **Causal tracing & forensics** ([`TraceCtx`], [`FlightRecorder`]):
//!    per-chunk trace contexts stamped onto events so a chunk lifecycle is
//!    one span tree, and a bounded per-phone flight recorder with
//!    anomaly-triggered JSONL dumps.
//!
//! The [`Obs`] bundle ties one bus and one registry together and is what the
//! rest of the stack passes around (e.g. in `EngineConfig`). It is `Clone`
//! (shared handles) and `Default` (silent: no sinks, empty registry).
//!
//! ```
//! use cwc_obs::{Event, MemorySink, Obs};
//! use std::sync::Arc;
//!
//! let obs = Obs::new();
//! let sink = Arc::new(MemorySink::new());
//! obs.bus.attach(sink.clone());
//!
//! obs.emit_with(|| Event::sim(1_000_000, "engine", "job.complete").field("job", 3u64));
//! obs.metrics.inc("engine.jobs_completed");
//! obs.metrics.observe("span.execute_ms", 1250.0);
//!
//! assert_eq!(sink.len(), 1);
//! assert_eq!(obs.metrics.counter_value("engine.jobs_completed"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod event;
mod flight;
pub mod json;
mod metrics;
mod span;
mod trace;

pub use bus::{EventBus, EventSink, JsonlSink, MemorySink, SinkId, TextSink};
pub use event::{Clock, Event, Severity, Value};
pub use flight::{read_dump_events, FlightRecorder, MetricsSnapshot, ANOMALY_EVENTS};
pub use metrics::{Counter, Histogram, HistogramSummary, MetricsRegistry, MetricsReport};
pub use span::timed;
pub use trace::{TraceCtx, PARENT_FIELD, SPAN_FIELD, TRACE_FIELD};

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The bundle the rest of the workspace passes around: one event bus plus
/// one metrics registry, and a process-start epoch for wall-clock events.
///
/// Cloning shares the underlying bus/registry. The `Default` value is
/// silent — no sinks, empty registry — so library code can emit
/// unconditionally at negligible cost.
#[derive(Clone, Debug)]
pub struct Obs {
    /// The shared event bus.
    pub bus: EventBus,
    /// The shared metrics registry.
    pub metrics: MetricsRegistry,
    epoch: Instant,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            bus: EventBus::new(),
            metrics: MetricsRegistry::new(),
            epoch: Instant::now(),
        }
    }
}

impl Obs {
    /// A silent observability bundle (no sinks attached).
    pub fn new() -> Self {
        Self::default()
    }

    /// An `Obs` logging human-readable lines (Info and above) to stdout —
    /// the default for the CLI binaries.
    pub fn to_stdout() -> Self {
        let obs = Obs::new();
        obs.bus.attach(Arc::new(TextSink::stdout()));
        obs
    }

    /// Microseconds of wall time since this `Obs` was created.
    fn wall_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A wall-clock [`Event`] stamped "now", ready for fields and
    /// [`Obs::emit_with`].
    pub fn wall_event(&self, scope: impl Into<String>, name: impl Into<String>) -> Event {
        Event::wall(self.wall_us(), scope, name)
    }

    /// Emits the event `build` returns, if anything is listening. With no
    /// sink attached `build` never runs, so a per-chunk call site neither
    /// formats nor allocates for an event nobody would see.
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if self.bus.has_sinks() {
            self.bus.emit(build());
        }
    }

    /// Attaches a JSONL file sink at `path`; every subsequent event is
    /// appended as one JSON object per line.
    pub fn attach_jsonl(&self, path: impl AsRef<Path>) -> io::Result<SinkId> {
        let sink = JsonlSink::create(path)?;
        Ok(self.bus.attach(Arc::new(sink)))
    }

    /// Flushes all sinks (call before process exit so buffered JSONL/text
    /// output reaches disk).
    pub fn flush(&self) {
        self.bus.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_is_silent_and_cheap() {
        let obs = Obs::new();
        assert!(!obs.bus.has_sinks());
        obs.emit_with(|| Event::sim(0, "t", "ignored"));
        obs.metrics.inc("still.counts");
        assert_eq!(obs.metrics.counter_value("still.counts"), 1);
    }

    #[test]
    fn emit_with_builds_the_event_only_for_a_listener() {
        let obs = Obs::new();
        let built = std::cell::Cell::new(0u32);
        let build = || {
            built.set(built.get() + 1);
            Event::wall(7, "sched", "task.assigned").field("job", 3u64)
        };
        obs.emit_with(build);
        assert_eq!(built.get(), 0, "event built with nobody listening");

        let sink = Arc::new(MemorySink::new());
        let id = obs.bus.attach(sink.clone());
        obs.emit_with(build);
        obs.bus.emit(build());
        assert_eq!(built.get(), 2);
        let got = sink.snapshot();
        // Same delivery as the eager path, field for field.
        let (lazy, eager) = (&got[0], &got[1]);
        assert_eq!((lazy.seq, eager.seq), (1, 2));
        assert_eq!(lazy.fields, eager.fields);
        assert_eq!((&lazy.scope, &lazy.name), (&eager.scope, &eager.name));

        obs.bus.detach(id);
        obs.emit_with(build);
        assert_eq!(built.get(), 2, "event built after the last sink left");
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new();
        let clone = obs.clone();
        let sink = Arc::new(MemorySink::new());
        obs.bus.attach(sink.clone());
        clone.emit_with(|| Event::sim(0, "t", "via-clone"));
        clone.metrics.inc("shared");
        assert_eq!(sink.len(), 1);
        assert_eq!(obs.metrics.counter_value("shared"), 1);
    }

    #[test]
    fn wall_event_uses_wall_clock() {
        let obs = Obs::new();
        let e = obs.wall_event("bin", "start");
        assert_eq!(e.clock, Clock::Wall);
    }
}
