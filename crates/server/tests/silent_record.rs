//! A silent run pays nothing for the replay script: with no sink on the
//! bus, `script::record` — called before every `Kernel::step` on the live
//! path — must not touch the heap. Checked with a counting global
//! allocator, which is why this test has a binary to itself.

use cwc_obs::{MemorySink, Obs};
use cwc_server::coord::{script, CoordEvent, TimerKind};
use cwc_types::{JobId, Micros};
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
