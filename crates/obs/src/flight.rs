//! Fleet flight recorder: bounded per-phone event rings, periodic metrics
//! snapshots, and anomaly-triggered JSONL dumps.
//!
//! A [`FlightRecorder`] is an [`EventSink`](crate::EventSink): attach it to
//! a bus and it retains the last 256 events for every phone it hears
//! about (events without a `phone` field share a `fleet` ring), plus the
//! last 16 [`MetricsReport`] snapshots, one taken every 512 accepted
//! events. Memory is bounded by construction — rings never grow past
//! their capacity, and the set of ring keys is bounded by the fleet size.
//!
//! When an anomaly event arrives (stall-watchdog fire, circuit-breaker
//! quarantine, fleet loss, chaos unplug/crash), the recorder dumps its
//! retained state to a JSONL file in `dump_dir` — the last seconds of
//! context *before* the failure, which is exactly what a post-mortem
//! needs. At most 8 dumps are written over the recorder's lifetime.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::bus::EventSink;
use crate::event::Event;
use crate::metrics::{MetricsRegistry, MetricsReport};

/// Event names that trigger a flight-recorder dump.
pub const ANOMALY_EVENTS: [&str; 5] = [
    "task.stalled",
    "worker.quarantined",
    "worker.lost",
    "fleet.lost",
    "phone.unplugged",
];

/// Ring key for events that carry no `phone` field.
const FLEET_KEY: &str = "fleet";

/// Events retained per ring key (per phone, plus the shared `fleet` ring).
const PER_KEY_CAPACITY: usize = 256;

/// A metrics snapshot is taken every this many accepted events.
const SNAPSHOT_EVERY: u64 = 512;

/// Snapshots retained (oldest evicted first).
const SNAPSHOT_CAPACITY: usize = 16;

/// Maximum number of dump files written over the recorder's lifetime.
const MAX_DUMPS: usize = 8;

/// One retained metrics snapshot.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Bus sequence number of the event that triggered the snapshot.
    pub at_seq: u64,
    /// Timestamp (on the triggering event's clock) of the snapshot.
    pub at_time_us: u64,
    /// The registry contents at that moment.
    pub report: MetricsReport,
}

#[derive(Default)]
struct RecorderInner {
    rings: BTreeMap<String, VecDeque<Event>>,
    snapshots: VecDeque<MetricsSnapshot>,
    accepted: u64,
    dumps_written: Vec<PathBuf>,
}

/// Bounded always-on recorder of recent per-phone history. See the module
/// docs for the retention and dump model.
pub struct FlightRecorder {
    dump_dir: PathBuf,
    metrics: MetricsRegistry,
    inner: Mutex<RecorderInner>,
}

impl FlightRecorder {
    /// A recorder snapshotting `metrics` and writing its dumps into
    /// `dump_dir` (created on the first dump).
    pub fn new(dump_dir: PathBuf, metrics: MetricsRegistry) -> Self {
        FlightRecorder {
            dump_dir,
            metrics,
            inner: Mutex::new(RecorderInner::default()),
        }
    }

    /// Total events accepted so far (including evicted ones).
    #[cfg(test)]
    fn accepted(&self) -> u64 {
        self.lock().accepted
    }

    /// Current (ring key, retained length) pairs, sorted by key.
    #[cfg(test)]
    fn ring_lens(&self) -> Vec<(String, usize)> {
        self.lock()
            .rings
            .iter()
            .map(|(k, r)| (k.clone(), r.len()))
            .collect()
    }

    /// Everything currently retained across all rings, in bus order.
    #[cfg(test)]
    fn retained(&self) -> Vec<Event> {
        let inner = self.lock();
        let mut all: Vec<Event> = inner.rings.values().flatten().cloned().collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Bus sequence numbers of the metrics snapshots currently retained.
    #[cfg(test)]
    fn snapshot_seqs(&self) -> Vec<u64> {
        self.lock().snapshots.iter().map(|s| s.at_seq).collect()
    }

    /// Paths of every anomaly dump written so far.
    pub fn dumps(&self) -> Vec<PathBuf> {
        self.lock().dumps_written.clone()
    }

    /// Forces a dump of the current state (same format as an anomaly
    /// dump), tagged with `reason`. Counts against the dump bound.
    pub fn dump_now(&self, reason: &str) -> io::Result<Option<PathBuf>> {
        let mut inner = self.lock();
        self.write_dump(&mut inner, reason, 0)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Writes one JSONL dump: a header line, every retained event in bus
    /// order, then the retained metrics snapshots. Returns `Ok(None)` when
    /// the dump budget is spent.
    fn write_dump(
        &self,
        inner: &mut RecorderInner,
        reason: &str,
        at_seq: u64,
    ) -> io::Result<Option<PathBuf>> {
        if inner.dumps_written.len() >= MAX_DUMPS {
            return Ok(None);
        }
        let dir = &self.dump_dir;
        std::fs::create_dir_all(dir)?;
        let slug: String = reason
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!(
            "flight-{:03}-seq{:08}-{slug}.jsonl",
            inner.dumps_written.len(),
            at_seq
        ));
        let mut out = BufWriter::new(File::create(&path)?);
        writeln!(
            out,
            "{{\"flight_dump\":{{\"reason\":{},\"at_seq\":{at_seq},\"accepted\":{}}}}}",
            {
                let mut s = String::new();
                crate::json::write_str(&mut s, reason);
                s
            },
            inner.accepted
        )?;
        let mut all: Vec<&Event> = inner.rings.values().flatten().collect();
        all.sort_by_key(|e| e.seq);
        for e in all {
            writeln!(out, "{}", e.to_json())?;
        }
        for s in &inner.snapshots {
            writeln!(
                out,
                "{{\"metrics_snapshot\":{{\"at_seq\":{},\"at_t_us\":{},\"report\":{}}}}}",
                s.at_seq,
                s.at_time_us,
                s.report.to_json()
            )?;
        }
        out.flush()?;
        inner.dumps_written.push(path.clone());
        Ok(Some(path))
    }

    fn ring_key(event: &Event) -> String {
        match event.get("phone") {
            Some(v) => v.to_string(),
            None => FLEET_KEY.to_string(),
        }
    }
}

impl EventSink for FlightRecorder {
    fn accept(&self, event: &Event) {
        let mut inner = self.lock();
        inner.accepted += 1;
        let ring = inner
            .rings
            .entry(Self::ring_key(event))
            .or_insert_with(|| VecDeque::with_capacity(PER_KEY_CAPACITY));
        if ring.len() == PER_KEY_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event.clone());

        if inner.accepted.is_multiple_of(SNAPSHOT_EVERY) {
            let snap = MetricsSnapshot {
                at_seq: event.seq,
                at_time_us: event.time_us,
                report: self.metrics.report(),
            };
            if inner.snapshots.len() == SNAPSHOT_CAPACITY {
                inner.snapshots.pop_front();
            }
            inner.snapshots.push_back(snap);
        }

        if ANOMALY_EVENTS.contains(&event.name.as_str()) {
            // Dump failures must never take the run down; the recorder is
            // best-effort by design.
            let _ = self.write_dump(&mut inner, &event.name, event.seq);
        }
    }
}

/// Loads the event lines back out of a dump file written by
/// [`FlightRecorder`], skipping the header and snapshot lines.
pub fn read_dump_events(path: impl AsRef<Path>) -> io::Result<Vec<Event>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter_map(|l| Event::from_json(l).ok())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::EventBus;
    use std::sync::Arc;

    fn recorder(dump_dir: PathBuf) -> (EventBus, Arc<FlightRecorder>, MetricsRegistry) {
        let bus = EventBus::new();
        let metrics = MetricsRegistry::new();
        let rec = Arc::new(FlightRecorder::new(dump_dir, metrics.clone()));
        bus.attach(rec.clone());
        (bus, rec, metrics)
    }

    /// A dump directory no test without an anomaly ever creates.
    fn unused_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cwc-flight-{tag}-{}", std::process::id()))
    }

    #[test]
    fn memory_stays_bounded_under_a_10k_event_soak() {
        let (bus, rec, metrics) = recorder(unused_dir("soak"));
        for i in 0..10_000u64 {
            metrics.inc("soak.events");
            bus.emit(
                Event::sim(i, "engine", "segment.execute")
                    .field("phone", format!("phone-{}", i % 7))
                    .field("i", i),
            );
        }
        assert_eq!(rec.accepted(), 10_000);
        let lens = rec.ring_lens();
        assert_eq!(lens.len(), 7, "one ring per phone: {lens:?}");
        for (key, len) in &lens {
            assert_eq!(*len, 256, "ring {key} holds {len}, not its 256 capacity");
        }
        // 19 snapshots were taken (one per 512 events); the newest 16 stay.
        let seqs = rec.snapshot_seqs();
        assert_eq!(seqs.len(), 16);
        assert!(seqs.iter().all(|s| s % 512 == 0), "{seqs:?}");
        assert_eq!(seqs.last(), Some(&(19 * 512)));
        // Retention is newest-first eviction: the last event per ring is
        // the last one emitted to it.
        let retained = rec.retained();
        assert_eq!(retained.len(), 7 * 256);
        assert_eq!(
            retained.last().and_then(|e| e.get("i")).cloned(),
            Some(crate::Value::U64(9_999))
        );
        assert!(rec.dumps().is_empty(), "no anomaly, no dump");
    }

    #[test]
    fn events_without_a_phone_share_the_fleet_ring() {
        let (bus, rec, _) = recorder(unused_dir("fleet"));
        bus.emit(Event::sim(0, "engine", "run.start"));
        bus.emit(Event::sim(1, "engine", "run.start"));
        bus.emit(Event::sim(2, "engine", "segment.execute").field("phone", "phone-0"));
        let lens = rec.ring_lens();
        assert_eq!(
            lens,
            vec![("fleet".to_string(), 2), ("phone-0".to_string(), 1)]
        );
        assert!(rec.snapshot_seqs().is_empty(), "no snapshot before 512");
    }

    #[test]
    fn anomalies_trigger_bounded_dumps() {
        let dir = unused_dir("anomaly");
        let _ = std::fs::remove_dir_all(&dir);
        let (bus, rec, metrics) = recorder(dir.clone());
        metrics.inc("chaos.crashes");
        for i in 0..512u64 {
            bus.emit(Event::sim(i, "engine", "segment.transfer").field("phone", "phone-1"));
        }
        // Nine anomalies, but only eight dumps allowed.
        for i in 0..9u64 {
            bus.emit(
                Event::sim(1_000 + i, "failure", "task.stalled")
                    .field("phone", "phone-1")
                    .field("job", i),
            );
        }
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 8, "the dump bound caps the output");
        for path in &dumps {
            let events = read_dump_events(path).unwrap();
            assert!(!events.is_empty(), "dump {path:?} has retained events");
            assert!(events.iter().any(|e| e.name == "task.stalled"));
            let text = std::fs::read_to_string(path).unwrap();
            assert!(text.lines().next().unwrap().contains("flight_dump"));
            assert!(
                text.contains("metrics_snapshot"),
                "dump carries metrics snapshots"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_now_writes_a_manual_dump() {
        let dir = unused_dir("manual");
        let _ = std::fs::remove_dir_all(&dir);
        let (bus, rec, _) = recorder(dir.clone());
        bus.emit(Event::sim(0, "engine", "run.start"));
        let path = rec.dump_now("end of run").unwrap().expect("dump written");
        assert!(path.exists());
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.contains("end-of-run"), "file name is slugged: {name}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"reason\":\"end of run\""), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
