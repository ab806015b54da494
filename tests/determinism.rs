//! Determinism regression gate: two identically-seeded engine runs must be
//! byte-identical. This is the property the `determinism` lint rule exists
//! to protect — no wall clocks, no OS-seeded RNG, no hash-order iteration
//! anywhere on the scheduling path. Runs include failure injections so the
//! reschedule rounds (which validate every residual schedule, and under
//! `debug_assertions` the residual list itself) are exercised too.

use cwc::server::coord::{
    script, CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy,
};
use cwc::server::engine::{paper_baselines, Engine, EngineConfig, EngineOutcome, FailureInjection};
use cwc::server::workload::{paper_workload, WorkloadBuilder};
use cwc::server::{engine_digest, testbed_fleet, FleetBuilder};
use cwc::types::{CpuSpec, Micros, MsPerKb, PhoneId, PhoneInfo, RadioTech};
use cwc_core::SchedulerKind;
use std::collections::VecDeque;

fn run(seed: u64) -> EngineOutcome {
    let jobs = paper_workload(seed);
    let injections = vec![
        FailureInjection {
            at: Micros::from_secs(60),
            phone: PhoneId(2),
            offline: false,
            replug_at: Some(Micros::from_secs(200)),
        },
        FailureInjection {
            at: Micros::from_secs(90),
            phone: PhoneId(7),
            offline: true,
            replug_at: None,
        },
    ];
    Engine::run_on_testbed(seed, jobs, injections, EngineConfig::default()).expect("engine run")
}

fn assert_identical(a: &EngineOutcome, b: &EngineOutcome) {
    assert_eq!(a.makespan, b.makespan, "makespans diverged");
    assert_eq!(
        a.predicted_makespan_ms, b.predicted_makespan_ms,
        "predicted makespans diverged"
    );
    assert_eq!(a.segments, b.segments, "activity segments diverged");
    assert_eq!(
        a.partitions_per_job, b.partitions_per_job,
        "partition counts diverged"
    );
    assert_eq!(a.phone_completion, b.phone_completion);
    assert_eq!(a.completed_jobs, b.completed_jobs);
    assert_eq!(a.rescheduled_items, b.rescheduled_items);
}

#[test]
fn identically_seeded_runs_are_identical() {
    for seed in [3, 17] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.completed_jobs, a.total_jobs, "seed {seed} incomplete");
        assert_identical(&a, &b);
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the trivial way the test above could pass: the engine
    // ignoring its seed entirely.
    let a = run(3);
    let b = run(4);
    assert_ne!(
        (a.makespan, a.segments.len()),
        (b.makespan, b.segments.len()),
        "seeds 3 and 4 produced identical runs"
    );
}

// ---------------------------------------------------------------------------
// Kernel equivalence: the sans-IO coordinator is a pure function of its
// (now, event) script, independent of which driver dispatches it.
// ---------------------------------------------------------------------------

fn kernel_config() -> KernelConfig {
    KernelConfig {
        scheduler: SchedulerKind::Greedy,
        jobs: WorkloadBuilder::new(11)
            .breakable(3, "primecount", 30, 100, 300)
            .build(),
        baselines: paper_baselines().into_iter().collect(),
        keepalive_period: Micros::from_secs(5),
        tolerated_misses: 3,
        reschedule: ReschedulePolicy::RoundRobin,
        stall_timeout: None,
        breaker: None,
        reliability: None,
        slo: std::collections::BTreeMap::new(),
        replication: None,
        speculation: None,
        bandwidth_blind: false,
        style: DriverStyle::Live,
        obs: cwc::obs::Obs::new(),
    }
}

fn probe_info(slot: usize) -> PhoneInfo {
    PhoneInfo::new(
        PhoneId(slot as u32),
        CpuSpec::new(800 + 200 * slot as u32, 2),
        RadioTech::ThreeG,
        MsPerKb(8.0 + slot as f64),
    )
    .with_ram_kb(262_144)
}

/// Drives a kernel closed-loop like a driver would — every `ShipInput`
/// gets a scripted reply (one transient failure, then successes) — and
/// returns the event script it produced alongside the Debug-formatted
/// command stream.
fn scripted_run() -> (Vec<(Micros, CoordEvent)>, Vec<String>) {
    let mut kernel = Kernel::new(kernel_config()).expect("kernel construction");
    let mut steps = Vec::new();
    let mut lines = Vec::new();
    let mut queue: VecDeque<(Micros, CoordEvent)> = (0..3)
        .map(|slot| {
            (
                Micros::ZERO,
                CoordEvent::Probe {
                    slot,
                    info: probe_info(slot),
                },
            )
        })
        .collect();
    queue.push_back((Micros::ZERO, CoordEvent::Start));
    let mut clock = 0u64;
    let mut failed_once = false;
    while let Some((now, ev)) = queue.pop_front() {
        steps.push((now, ev.clone()));
        for cmd in kernel.step(now, ev) {
            lines.push(format!("{cmd:?}"));
            if let CoordCommand::ShipInput {
                slot,
                seq,
                job,
                len_kb,
                ..
            } = cmd
            {
                clock += 2_000_000;
                let at = Micros(clock);
                if failed_once {
                    queue.push_back((
                        at,
                        CoordEvent::ReportOk {
                            slot,
                            seq,
                            job,
                            exec_ms: len_kb as f64 * 1.5,
                        },
                    ));
                } else {
                    failed_once = true;
                    queue.push_back((
                        at,
                        CoordEvent::ReportFailed {
                            slot,
                            seq,
                            job,
                            processed_kb: 0,
                            checkpoint: None,
                        },
                    ));
                }
            }
        }
    }
    assert!(kernel.finished(), "scripted run did not drain the batch");
    (steps, lines)
}

#[test]
fn same_event_script_yields_byte_identical_command_streams() {
    // Path 1: a closed-loop driver generating the script as it goes.
    let (steps, live) = scripted_run();
    assert!(!live.is_empty(), "scripted run produced no commands");

    // Path 2: blind replay of the recorded script into a fresh kernel.
    let replayed = script::replay(&steps, kernel_config()).expect("replay");
    assert_eq!(live, replayed, "replay diverged from the driving run");

    // Path 3: through the text codec (as a harvested live recording
    // would arrive) — encode/decode must not perturb the stream.
    let decoded: Vec<(Micros, CoordEvent)> = steps
        .iter()
        .map(|(now, ev)| script::decode(&script::encode(*now, ev)).expect("codec round trip"))
        .collect();
    assert_eq!(steps, decoded, "script codec is lossy");
    let recoded = script::replay(&decoded, kernel_config()).expect("replay decoded");
    assert_eq!(live, recoded, "decoded replay diverged");
}

#[test]
fn driver_style_moves_nothing_but_the_keepalive_timers() {
    // The scripted failure run again, stepped through a kernel of each
    // style with otherwise equal configs: every command — what is shipped
    // where, what is cancelled, every timer — must agree but the
    // keep-alives `Start` arms for a live driver. A stall watchdog per
    // ship (none fires in the script) puts a timer in the stream too.
    let (steps, _) = scripted_run();
    let decisions = |style: DriverStyle| -> Vec<String> {
        let cfg = KernelConfig {
            style,
            stall_timeout: Some(Micros::from_secs(30)),
            ..kernel_config()
        };
        let mut lines = script::replay(&steps, cfg).expect("replay");
        lines.retain(|l| !l.starts_with("StartTimer { kind: KeepAlive"));
        lines
    };
    let live = decisions(DriverStyle::Live);
    assert!(live.iter().any(|l| l.contains("rescheduled: true")));
    assert!(live
        .iter()
        .any(|l| l.starts_with("StartTimer { kind: Stall")));
    assert_eq!(live, decisions(DriverStyle::Sim));
}

// ---------------------------------------------------------------------------
// Pinned outcomes: the simulator's RNG streams are part of its contract. A
// change that draws one sample more, fewer or in another order moves these
// words; `benchmark/`'s `makespan_ratio` only samples what they hold whole.
// ---------------------------------------------------------------------------

/// `benchmark/`'s seed splitter, so the instances below are the ones its
/// `sim-fleet --quick` and `paper-testbed` workloads build for seed 7.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over [`engine_digest`]: makespan, `completed_at`, every
/// `Segment`, `partitions_per_job`, `rescheduled_items` and the rest of
/// the outcome, in one word.
fn outcome_hash(out: &EngineOutcome) -> u64 {
    engine_digest(out)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn failure_mix_fleet_outcome_is_pinned() {
    // `Instance::fleet_with_failures(7, 4, 100)`: 4 houses × 10 phones,
    // 80 breakable + 20 atomic jobs, every tenth phone unplugging from
    // t = 30 s, alternately offline and online.
    let fleet = FleetBuilder::new(sub_seed(7, 1))
        .houses(4)
        .phones_per_house(10)
        .build();
    let jobs = WorkloadBuilder::new(sub_seed(7, 2))
        .breakable(80, "primecount", 30, 200, 2_000)
        .atomic(20, "photoblur", 40, 100, 800)
        .build();
    let injections: Vec<FailureInjection> = fleet
        .iter()
        .step_by(10)
        .enumerate()
        .map(|(k, phone)| FailureInjection {
            at: Micros::from_secs(30 + k as u64),
            phone: phone.id(),
            offline: k % 2 == 0,
            replug_at: None,
        })
        .collect();
    let out = Engine::new(fleet, jobs, injections, EngineConfig::default())
        .and_then(Engine::run)
        .expect("engine run");
    assert_eq!(out.completed_jobs, out.total_jobs);
    assert_eq!(
        (out.makespan.0, out.segments.len(), out.rescheduled_items),
        (536_725_198, 358, 47)
    );
    assert_eq!(outcome_hash(&out), 0x96d9_0bf5_90a2_5943);
}

#[test]
fn paper_testbed_outcome_is_pinned() {
    let out = Engine::new(
        testbed_fleet(sub_seed(7, 1)),
        paper_workload(sub_seed(7, 2)),
        Vec::new(),
        EngineConfig::default(),
    )
    .and_then(Engine::run)
    .expect("engine run");
    assert_eq!(out.completed_jobs, 150);
    assert_eq!((out.makespan.0, out.segments.len()), (881_725_867, 334));
    assert_eq!(outcome_hash(&out), 0xb042_6dce_f1e4_7154);
}
