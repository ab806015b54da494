//! A silent run pays nothing for narration: with no sink on the bus,
//! `script::record` — called before every `Kernel::step` on the live
//! path — must not touch the heap, and the simulator's `Engine::run` must
//! not build its two events per chunk. Checked with a counting global
//! allocator, which is why these tests have a binary to themselves.

use cwc_obs::{Event, MemorySink, Obs, Severity, TraceCtx};
use cwc_server::coord::{script, CoordEvent, TimerKind};
use cwc_server::{Engine, EngineConfig, FleetBuilder, WorkloadBuilder};
use cwc_types::{JobId, Micros, PhoneId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread (const-initialised and without a
    /// destructor, so reading it from inside the allocator allocates
    /// nothing itself).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn recording_a_step_without_a_sink_does_not_allocate() {
    // The per-chunk events, plus one whose encoding copies a string.
    let steps = [
        CoordEvent::ReportOk {
            slot: 1,
            seq: 9,
            job: JobId(4),
            exec_ms: 12.5,
        },
        CoordEvent::TimerFired {
            kind: TimerKind::Stall,
            slot: 0,
            token: 9,
        },
        CoordEvent::ConnectionLost {
            slot: 1,
            why: "phone-1 lost (connection reset by peer)".into(),
        },
    ];
    let obs = Obs::new();
    let record_all = || {
        for ev in &steps {
            script::record(&obs, Micros(42), ev);
        }
    };
    assert_eq!(allocations_during(record_all), 0);

    // The counter does see the same calls once somebody listens.
    let sink = Arc::new(MemorySink::new());
    obs.bus.attach(sink.clone());
    assert!(allocations_during(record_all) >= steps.len());
    assert_eq!(
        script::harvest(&sink.snapshot()).expect("harvest").len(),
        steps.len()
    );
}

/// Allocations and timeline segments of one fault-free `Engine::run` of
/// `jobs` jobs on the paper's testbed, narrating into `obs`.
fn engine_run(jobs: usize, obs: &Obs) -> (usize, usize) {
    let workload = WorkloadBuilder::new(7)
        .breakable(jobs, "wordcount", 25, 800, 1_200)
        .build();
    let config = EngineConfig {
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    let engine =
        Engine::new(FleetBuilder::new(7).build(), workload, Vec::new(), config).expect("engine");
    let mut segments = 0;
    let allocations = allocations_during(|| {
        let out = engine.run().expect("run");
        assert_eq!(out.completed_jobs, jobs);
        segments = out.segments.len();
    });
    (allocations, segments)
}

#[test]
fn engine_run_without_a_sink_builds_no_event_per_segment() {
    // What one `segment.transfer` / `segment.execute` event costs to
    // build: scope, name, eight keys, two formatted ids, the field list.
    let per_event = allocations_during(|| {
        let ctx = TraceCtx::root(1, 2);
        let event = ctx
            .stamp(Event::sim(0, "engine", "segment.execute"))
            .severity(Severity::Debug)
            .field("phone", PhoneId(3).to_string())
            .field("job", JobId(4).to_string())
            .field("start_us", 5u64)
            .field("kb", 6u64)
            .field("rescheduled", false);
        std::hint::black_box(event);
    });
    assert!(per_event >= 12, "{per_event}");

    // The growth from 50 to 100 jobs, so the once-per-run narration and
    // the fleet-sized setup cancel: everything a silent run allocates per
    // extra segment — kernel bookkeeping, commands, metric names — is
    // less than building a single event for it would be.
    let silent = Obs::new();
    let (small_allocs, small_segments) = engine_run(50, &silent);
    let (large_allocs, large_segments) = engine_run(100, &silent);
    let extra_segments = large_segments - small_segments;
    let extra_allocs = large_allocs - small_allocs;
    assert!(
        extra_segments >= 100,
        "{small_segments} -> {large_segments}"
    );
    assert!(
        extra_allocs < per_event * extra_segments,
        "{extra_allocs} allocations for {extra_segments} more segments, {per_event} per event"
    );

    // The counter does see the events once somebody listens.
    let traced = Obs::new();
    traced.bus.attach(Arc::new(MemorySink::new()));
    let (small_traced, _) = engine_run(50, &traced);
    let (large_traced, _) = engine_run(100, &traced);
    assert!(large_traced - small_traced >= extra_allocs + per_event * extra_segments);
}
