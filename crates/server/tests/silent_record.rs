//! A silent run pays nothing for narration: with no sink on the bus,
//! `script::record` — called before every kernel step on the live
//! path — must not touch the heap, and the simulator's `Engine::run` must
//! not build its two events per chunk. The kernel's steady-state steps
//! allocate nothing at all, given a warm command buffer. Checked with a
//! counting global allocator, which is why these tests have a binary to
//! themselves.

use cwc_obs::{Event, MemorySink, Obs, Severity, TraceCtx};
use cwc_server::coord::{
    script, CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy,
    TimerKind,
};
use cwc_server::{Engine, EngineConfig, FleetBuilder, WorkloadBuilder};
use cwc_types::{CpuSpec, JobId, JobSpec, KiloBytes, Micros, MsPerKb, PhoneId, PhoneInfo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
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
    // A first run registers the shared registry's metric names; the
    // measured runs below then pay only for their own work.
    engine_run(50, &silent);
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

fn probed(slot: usize) -> PhoneInfo {
    let cpu = CpuSpec::new(1_400 - 200 * slot as u32, 2);
    let radio = cwc_types::RadioTech::Wifi80211g;
    PhoneInfo::new(PhoneId(slot as u32), cpu, radio, MsPerKb(2.0 + slot as f64))
}

/// The ship each slot has in flight, from a step's commands.
fn note_ships(cmds: &[CoordCommand], in_flight: &mut BTreeMap<usize, (u64, JobId)>) {
    for cmd in cmds {
        if let CoordCommand::ShipInput { slot, seq, job, .. } = *cmd {
            in_flight.insert(slot, (seq, job));
        }
    }
}

#[test]
fn steady_state_kernel_steps_do_not_allocate() {
    const SLOTS: usize = 3;
    let jobs = (0..24)
        .map(|i| JobSpec::atomic(JobId(i), "photoblur", KiloBytes(40), KiloBytes(60)))
        .collect();
    let mut kernel = Kernel::new(KernelConfig {
        scheduler: cwc_core::SchedulerKind::Greedy,
        jobs,
        baselines: cwc_server::engine::paper_baselines(),
        keepalive_period: Micros::from_secs(30),
        tolerated_misses: 3,
        reschedule: ReschedulePolicy::Solver {
            delay: Micros::from_secs(60),
        },
        stall_timeout: None,
        breaker: None,
        reliability: None,
        slo: BTreeMap::new(),
        replication: None,
        speculation: None,
        bandwidth_blind: false,
        style: DriverStyle::Sim,
        obs: Obs::new(),
    })
    .expect("kernel");
    let mut cmds = Vec::new();
    let mut in_flight = BTreeMap::new();
    let mut now = Micros::ZERO;
    for slot in 0..SLOTS {
        let info = probed(slot);
        kernel.step_into(now, CoordEvent::Probe { slot, info }, &mut cmds);
    }
    kernel.step_into(now, CoordEvent::Start, &mut cmds);
    note_ships(&cmds, &mut in_flight);
    assert_eq!(in_flight.len(), SLOTS, "every slot got work");
    let mut report = |kernel: &mut Kernel, cmds: &mut Vec<CoordCommand>, slot| {
        let (seq, job) = in_flight[&slot];
        now = Micros(now.0 + 1_000_000);
        let ev = CoordEvent::ReportOk {
            slot,
            seq,
            job,
            exec_ms: 90.0,
        };
        cmds.clear();
        let allocations = allocations_during(|| kernel.step_into(now, ev, cmds));
        note_ships(cmds, &mut in_flight);
        allocations
    };
    // Warm-up: every slot reports once, so each has the executable, the
    // predictor has learned each slot's rate, and the buffer has grown.
    for slot in 0..SLOTS {
        report(&mut kernel, &mut cmds, slot);
    }

    // An atomic job's only chunk reports: the job is credited and
    // completes, and the slot's next queued item ships.
    let completed = kernel.completed_at().len();
    assert_eq!(report(&mut kernel, &mut cmds, 0), 0, "{cmds:?}");
    assert_eq!(kernel.completed_at().len(), completed + 1);
    assert!(matches!(
        cmds[0],
        CoordCommand::RecordResult { slot: 0, .. }
    ));
    assert!(matches!(cmds[1], CoordCommand::ShipInput { slot: 0, .. }));
    assert_eq!(cmds.len(), 2);

    // A known slot's probe reply outside a scheduling round.
    cmds.clear();
    let probe = CoordEvent::Probe {
        slot: 1,
        info: probed(1),
    };
    assert_eq!(
        allocations_during(|| kernel.step_into(now, probe, &mut cmds)),
        0
    );
    assert!(cmds.is_empty());

    // And inside one, while other replies are still awaited: slot 2 fails
    // online, the round's timer fires and probes the two survivors.
    let (seq, job) = in_flight[&2];
    let failed = CoordEvent::ReportFailed {
        slot: 2,
        seq,
        job,
        processed_kb: 0,
        checkpoint: None,
    };
    kernel.step_into(now, failed, &mut cmds);
    let round = CoordEvent::TimerFired {
        kind: TimerKind::Reschedule,
        slot: 0,
        token: 0,
    };
    cmds.clear();
    kernel.step_into(now, round, &mut cmds);
    assert!(matches!(
        cmds[..],
        [
            CoordCommand::SendProbe { slot: 0 },
            CoordCommand::SendProbe { slot: 1 }
        ]
    ));
    cmds.clear();
    let probe = CoordEvent::Probe {
        slot: 0,
        info: probed(0),
    };
    assert_eq!(
        allocations_during(|| kernel.step_into(now, probe, &mut cmds)),
        0
    );
    assert!(cmds.is_empty(), "the round waits for slot 1");
}

/// A kernel config over `n` breakable single-program specs, ids ascending.
fn batch_config(n: u32) -> KernelConfig {
    let spec = |i| JobSpec::breakable(JobId(i), "primecount", KiloBytes(30), KiloBytes(1));
    KernelConfig {
        scheduler: cwc_core::SchedulerKind::Greedy,
        jobs: (0..n).map(spec).collect(),
        baselines: cwc_server::engine::paper_baselines(),
        keepalive_period: Micros::from_secs(30),
        tolerated_misses: 3,
        reschedule: ReschedulePolicy::RoundRobin,
        stall_timeout: None,
        breaker: None,
        reliability: None,
        slo: BTreeMap::new(),
        replication: None,
        speculation: None,
        bandwidth_blind: false,
        style: DriverStyle::Live,
        obs: Obs::new(),
    }
}

#[test]
fn admitting_a_batch_allocates_nothing_per_job() {
    // The rows take one allocation and the program's name one handle,
    // however many specs share it: no map node or name copy per job.
    let admit = |n| {
        let cfg = batch_config(n);
        let mut kernel = None;
        let allocations = allocations_during(|| kernel = Some(Kernel::new(cfg).expect("kernel")));
        assert_eq!(kernel.expect("kernel").specs().len(), n as usize);
        allocations
    };
    assert_eq!(admit(1_000), admit(4_000));
}

#[test]
fn setting_a_known_programs_baseline_does_not_allocate() {
    let mut predictor = cwc_core::RuntimePredictor::new();
    predictor.set_baseline("primecount", 14.0);
    let again = allocations_during(|| predictor.set_baseline("primecount", 12.5));
    assert_eq!(again, 0);
    // The counter does see a program's first registration.
    assert!(allocations_during(|| predictor.set_baseline("wordcount", 80.0)) > 0);
}

#[test]
fn derisking_an_instant_allocates_nothing_per_job() {
    // Pricing for failure risk scales the phones and the distinct cost
    // columns where they are: no job's spec or name is copied.
    let derisk = |n: u32| {
        let mut predictor = cwc_core::RuntimePredictor::new();
        predictor.set_baseline("primecount", 14.0);
        let phones: Vec<PhoneInfo> = (0..4).map(probed).collect();
        let spec = |i| JobSpec::breakable(JobId(i), "primecount", KiloBytes(30), KiloBytes(1));
        let jobs: Vec<JobSpec> = (0..n).map(spec).collect();
        let programs: Vec<&str> = jobs.iter().map(|j| j.program.as_str()).collect();
        let c = predictor.cost_matrix(&phones, &programs);
        let mut problem =
            cwc_core::SchedProblem::new(phones.clone(), jobs.clone(), c).expect("problem");
        let fail_prob = [0.1, 0.0, 0.3, 0.2];
        let allocations = allocations_during(|| {
            cwc_core::derisk(&mut problem, &fail_prob, 0.5).expect("derisked");
        });
        assert!(problem.phones[0].bandwidth.0 > phones[0].bandwidth.0);
        allocations
    };
    assert_eq!(derisk(1_000), derisk(4_000));
}

/// Allocations of the cold instant (`Start`) that queues `n` one-KB
/// single-program jobs on one slot, and of the re-solve that moves all
/// `n` to a second slot once the first is lost.
fn instant_allocations(n: u32) -> (usize, usize) {
    let mut kernel = Kernel::new(KernelConfig {
        reschedule: ReschedulePolicy::Solver {
            delay: Micros::from_secs(1),
        },
        style: DriverStyle::Sim,
        ..batch_config(n)
    })
    .expect("kernel");
    let now = Micros::ZERO;
    let mut cmds = Vec::with_capacity(64);
    let mut step = |kernel: &mut Kernel, ev| {
        cmds.clear();
        allocations_during(|| kernel.step_into(now, ev, &mut cmds))
    };
    step(
        &mut kernel,
        CoordEvent::Probe {
            slot: 0,
            info: probed(0),
        },
    );
    let cold = step(&mut kernel, CoordEvent::Start);
    step(
        &mut kernel,
        CoordEvent::Probe {
            slot: 1,
            info: probed(1),
        },
    );
    let why = "unplugged".to_string();
    step(&mut kernel, CoordEvent::ConnectionLost { slot: 0, why });
    let round = CoordEvent::TimerFired {
        kind: TimerKind::Reschedule,
        slot: 0,
        token: 0,
    };
    step(&mut kernel, round);
    let resolve = step(
        &mut kernel,
        CoordEvent::Probe {
            slot: 1,
            info: probed(1),
        },
    );
    assert_eq!(kernel.reschedule_rounds(), 1);
    let outstanding: u64 = kernel.check_view().outstanding_kb().values().sum();
    assert_eq!(outstanding, u64::from(n), "every residual is queued again");
    (cold, resolve)
}

#[test]
fn a_re_solve_allocates_no_more_per_residual_than_the_cold_instant() {
    // Both instants pack `n` single-KB jobs onto one phone; a residual's
    // spec and cost column come from its row's program id, as a cold
    // job's do, so what 3 000 more jobs add is the same in both.
    let (cold_small, resolve_small) = instant_allocations(1_000);
    let (cold_large, resolve_large) = instant_allocations(4_000);
    assert_eq!(
        resolve_large - resolve_small,
        cold_large - cold_small,
        "cold {cold_small} -> {cold_large}, re-solve {resolve_small} -> {resolve_large}"
    );
}
