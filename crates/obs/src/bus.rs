//! Event bus: fan-out of [`Event`]s to pluggable sinks.
//!
//! The bus is always safe to emit into. With zero sinks attached, `emit` is
//! a single relaxed atomic load and a drop — recording can therefore stay
//! always-on in library code, with the caller deciding whether anything
//! listens. Sequence numbers are assigned under the sink lock so every sink
//! observes events in one global order, even with concurrent emitters.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, Severity};

/// A destination for events. Implementations must tolerate concurrent calls.
pub trait EventSink: Send + Sync {
    /// Receives one event. `event.seq` is already assigned.
    fn accept(&self, event: &Event);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Handle returned by [`EventBus::attach`]; pass to [`EventBus::detach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkId(u64);

#[derive(Default)]
struct BusInner {
    /// Mirrors `sinks.len()` so `emit` can bail without taking the lock.
    sink_count: AtomicUsize,
    next_id: AtomicU64,
    /// Sink list plus the sequence counter; sharing one lock makes
    /// (assign seq, deliver) atomic, giving sinks a total event order.
    sinks: Mutex<(u64, SinkList)>,
}

type SinkList = Vec<(SinkId, Arc<dyn EventSink>)>;

/// Cheaply clonable handle to a shared event bus.
#[derive(Clone, Default)]
pub struct EventBus {
    inner: Arc<BusInner>,
}

impl fmt::Debug for EventBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("sinks", &self.inner.sink_count.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventBus {
    /// A bus with no sinks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a sink; it receives every subsequent event.
    pub fn attach(&self, sink: Arc<dyn EventSink>) -> SinkId {
        let id = SinkId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let mut guard = self.inner.sinks.lock().unwrap_or_else(|e| e.into_inner());
        guard.1.push((id, sink));
        self.inner
            .sink_count
            .store(guard.1.len(), Ordering::Relaxed);
        id
    }

    /// Detaches a sink previously attached; returns whether it was found.
    pub fn detach(&self, id: SinkId) -> bool {
        let mut guard = self.inner.sinks.lock().unwrap_or_else(|e| e.into_inner());
        let before = guard.1.len();
        guard.1.retain(|(sid, _)| *sid != id);
        self.inner
            .sink_count
            .store(guard.1.len(), Ordering::Relaxed);
        guard.1.len() != before
    }

    /// Whether at least one sink is attached. Emission is a no-op otherwise.
    pub fn has_sinks(&self) -> bool {
        self.inner.sink_count.load(Ordering::Relaxed) > 0
    }

    /// Assigns the event a global sequence number and delivers it to every
    /// attached sink. With no sinks this is a near-free no-op.
    pub fn emit(&self, mut event: Event) {
        if !self.has_sinks() {
            return;
        }
        let mut guard = self.inner.sinks.lock().unwrap_or_else(|e| e.into_inner());
        guard.0 += 1;
        event.seq = guard.0;
        for (_, sink) in guard.1.iter() {
            sink.accept(&event);
        }
    }

    /// Flushes every attached sink.
    pub fn flush(&self) {
        let guard = self.inner.sinks.lock().unwrap_or_else(|e| e.into_inner());
        for (_, sink) in guard.1.iter() {
            sink.flush();
        }
    }
}

/// Unbounded in-memory collector, mainly for tests and for building run
/// traces after the fact.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out everything collected so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Removes and returns everything collected so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn accept(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

/// Human-readable line-per-event sink over any writer (typically stdout).
/// Events below `min_severity` are dropped.
pub struct TextSink {
    min_severity: Severity,
    out: Mutex<Box<dyn Write + Send>>,
}

impl TextSink {
    /// A text sink over an arbitrary writer, reporting Info and above.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        TextSink {
            min_severity: Severity::Info,
            out: Mutex::new(out),
        }
    }

    /// A text sink writing to stdout.
    pub fn stdout() -> Self {
        Self::new(Box::new(io::stdout()))
    }

    /// Sets the minimum severity to report (builder style).
    pub fn with_min_severity(mut self, min: Severity) -> Self {
        self.min_severity = min;
        self
    }
}

impl EventSink for TextSink {
    fn accept(&self, event: &Event) {
        if event.severity < self.min_severity {
            return;
        }
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{event}");
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

/// JSON-lines file sink: one [`Event::to_json`] object per line. This is the
/// machine-readable run log (e.g. for reconstructing the Fig. 12 timeline).
pub struct JsonlSink {
    path: PathBuf,
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the log file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlSink {
            path,
            out: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Where the log is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl EventSink for JsonlSink {
    fn accept(&self, event: &Event) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        EventSink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn emit_without_sinks_is_a_no_op() {
        let bus = EventBus::new();
        assert!(!bus.has_sinks());
        bus.emit(Event::sim(0, "t", "nothing.listens"));
        // Attaching later starts from a clean slate.
        let sink = Arc::new(MemorySink::new());
        bus.attach(sink.clone());
        assert!(bus.has_sinks());
        bus.emit(Event::sim(1, "t", "heard"));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn detach_stops_delivery() {
        let bus = EventBus::new();
        let sink = Arc::new(MemorySink::new());
        let id = bus.attach(sink.clone());
        bus.emit(Event::sim(0, "t", "one"));
        assert!(bus.detach(id));
        assert!(!bus.detach(id));
        bus.emit(Event::sim(1, "t", "two"));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn fan_out_reaches_every_sink() {
        let bus = EventBus::new();
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        bus.attach(a.clone());
        bus.attach(b.clone());
        for i in 0..3u64 {
            bus.emit(Event::sim(i, "t", "tick"));
        }
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn concurrent_emitters_get_a_total_order() {
        // Satellite test: event ordering under concurrent emitters. Each
        // sink must see strictly increasing sequence numbers with no gaps
        // in the union, i.e. (seq assignment, delivery) is atomic.
        let bus = EventBus::new();
        let sink = Arc::new(MemorySink::new());
        bus.attach(sink.clone());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let bus = bus.clone();
                thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        bus.emit(Event::sim(i, "thread", format!("t{t}")).field("i", i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = sink.snapshot();
        assert_eq!(events.len(), (THREADS * PER_THREAD) as usize);
        for w in events.windows(2) {
            assert!(
                w[0].seq < w[1].seq,
                "sink saw seq {} before {}",
                w[0].seq,
                w[1].seq
            );
        }
        assert_eq!(events[0].seq, 1);
        assert_eq!(events.last().unwrap().seq, THREADS * PER_THREAD);
        // Per-thread emission order is preserved within the total order.
        for t in 0..THREADS {
            let name = format!("t{t}");
            let mine: Vec<u64> = events
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.get("i").unwrap().as_u64().unwrap())
                .collect();
            let sorted: Vec<u64> = (0..PER_THREAD).collect();
            assert_eq!(mine, sorted);
        }
    }
}
