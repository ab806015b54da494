//! Additional engine-level integration tests: baseline schedulers under
//! failures, the horizon cutoff, bandwidth-blind ablation behavior, and
//! the reliability extension inside the engine.

use cwc_core::SchedulerKind;
use cwc_server::workload::WorkloadBuilder;
use cwc_server::{testbed_fleet, Engine, EngineConfig, FailureInjection};
use cwc_types::{JobSpec, Micros, PhoneId};

fn jobs(n: usize, min_kb: u64, max_kb: u64) -> Vec<JobSpec> {
    WorkloadBuilder::new(13)
        .breakable(n, "primecount", 30, min_kb, max_kb)
        .build()
}

#[test]
fn equal_split_recovers_from_failures_too() {
    // Failure handling is scheduler-independent: the migration machinery
    // must work under the baseline schedulers as well.
    let injections = vec![FailureInjection {
        at: Micros::from_secs(20),
        phone: PhoneId(3),
        offline: false,
        replug_at: None,
    }];
    for kind in [SchedulerKind::EqualSplit, SchedulerKind::RoundRobin] {
        let out = Engine::new(
            testbed_fleet(21),
            jobs(20, 300, 900),
            injections.clone(),
            EngineConfig {
                scheduler: kind,
                ..Default::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(out.completed_jobs, 20, "{kind:?} failed to recover");
    }
}

#[test]
fn horizon_cuts_off_unfinishable_runs() {
    // A workload far too big for a tiny horizon: the engine must stop at
    // the horizon with partial completion rather than loop.
    let out = Engine::new(
        testbed_fleet(22),
        jobs(40, 3_000, 6_000),
        vec![],
        EngineConfig {
            horizon: Micros::from_secs(30),
            ..Default::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(out.completed_jobs < 40);
    assert!(out.makespan <= Micros::from_secs(30));
}

#[test]
fn bandwidth_blind_never_beats_aware_on_heterogeneous_links() {
    let fleet = testbed_fleet(23);
    let batch = jobs(30, 500, 2_000);
    let aware = Engine::new(
        fleet.clone(),
        batch.clone(),
        vec![],
        EngineConfig::default(),
    )
    .unwrap()
    .run()
    .unwrap();
    let blind = Engine::new(fleet, batch, vec![], EngineConfig::default())
        .unwrap()
        .run_bandwidth_blind()
        .unwrap();
    assert_eq!(aware.completed_jobs, 30);
    assert_eq!(blind.completed_jobs, 30);
    assert!(
        blind.makespan.as_secs_f64() >= aware.makespan.as_secs_f64() * 0.95,
        "blind {} should not beat aware {}",
        blind.makespan,
        aware.makespan
    );
}

#[test]
fn reliability_config_shifts_load_off_doomed_phones() {
    // Phone 0 will fail at 30 s; with a perfect failure prediction the
    // risk-aware engine should route (almost) nothing to it and migrate
    // less than the neutral engine.
    let injections = vec![FailureInjection {
        at: Micros::from_secs(30),
        phone: PhoneId(0),
        offline: false,
        replug_at: None,
    }];
    let mut probs = vec![0.0f64; 18];
    probs[0] = 0.95;

    let batch = jobs(30, 500, 1_500);
    let neutral = Engine::new(
        testbed_fleet(24),
        batch.clone(),
        injections.clone(),
        EngineConfig::default(),
    )
    .unwrap()
    .run()
    .unwrap();
    let aware = Engine::new(
        testbed_fleet(24),
        batch,
        injections,
        EngineConfig {
            reliability: Some((probs, 1.0)),
            ..Default::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(neutral.completed_jobs, 30);
    assert_eq!(aware.completed_jobs, 30);
    let kb_on_phone0 = |out: &cwc_server::EngineOutcome| -> f64 {
        out.segments
            .iter()
            .filter(|s| s.phone == PhoneId(0))
            .map(|s| (s.end.saturating_sub(s.start)).as_secs_f64())
            .sum()
    };
    assert!(
        kb_on_phone0(&aware) <= kb_on_phone0(&neutral),
        "risk-aware run should not load the doomed phone more"
    );
    assert!(aware.rescheduled_items <= neutral.rescheduled_items);
}

#[test]
fn injections_against_unknown_phones_error_cleanly() {
    let injections = vec![FailureInjection {
        at: Micros::from_secs(5),
        phone: PhoneId(999),
        offline: false,
        replug_at: Some(Micros::from_secs(10)),
    }];
    let result = Engine::new(
        testbed_fleet(25),
        jobs(3, 100, 200),
        injections,
        EngineConfig::default(),
    )
    .unwrap()
    .run();
    assert!(result.is_err(), "unknown phone in injection must surface");
}

#[test]
fn double_unplug_of_same_phone_is_idempotent() {
    let injections = vec![
        FailureInjection {
            at: Micros::from_secs(10),
            phone: PhoneId(2),
            offline: false,
            replug_at: None,
        },
        FailureInjection {
            at: Micros::from_secs(12),
            phone: PhoneId(2),
            offline: false,
            replug_at: None,
        },
    ];
    let out = Engine::new(
        testbed_fleet(26),
        jobs(15, 300, 800),
        injections,
        EngineConfig::default(),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(out.completed_jobs, 15);
}

#[test]
fn a_memory_sink_on_the_obs_bus_records_the_run_story() {
    let injections = vec![FailureInjection {
        at: Micros::from_secs(15),
        phone: PhoneId(1),
        offline: false,
        replug_at: None,
    }];
    let obs = cwc_obs::Obs::new();
    let sink = std::sync::Arc::new(cwc_obs::MemorySink::new());
    obs.bus.attach(sink.clone());
    Engine::new(
        testbed_fleet(27),
        jobs(12, 300, 800),
        injections,
        EngineConfig {
            obs,
            ..Default::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();
    // The story is the sim-time events; wall-clock ones (scheduler
    // convergence spans) ride the same bus.
    let mut story = sink.take();
    story.retain(|e| e.clock == cwc_obs::Clock::Sim);
    let text: String = story
        .iter()
        .map(|e| format!("{} {}\n", e.scope, e.message()))
        .collect();
    assert!(text.contains("initial schedule"), "{text}");
    assert!(text.contains("unplugged"), "{text}");
    assert!(text.contains("reschedule round"), "{text}");
    assert!(text.contains("complete"), "{text}");
    for w in story.windows(2) {
        assert!(w[0].time_us <= w[1].time_us);
    }
}

#[test]
fn scales_to_a_hundred_phone_fleet() {
    // An enterprise-scale fleet: 100 phones, 300 jobs. Completes, stays
    // deterministic, and the greedy still beats round-robin.
    use cwc_server::FleetBuilder;
    let fleet = || {
        FleetBuilder::new(31)
            .houses(10)
            .phones_per_house(10)
            .build()
    };
    let batch = WorkloadBuilder::new(31)
        .breakable(200, "primecount", 30, 100, 600)
        .atomic(100, "photoblur", 40, 50, 300)
        .build();
    let greedy = Engine::new(fleet(), batch.clone(), vec![], EngineConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(greedy.completed_jobs, 300);
    let rr = Engine::new(
        fleet(),
        batch,
        vec![],
        EngineConfig {
            scheduler: SchedulerKind::RoundRobin,
            ..Default::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(rr.completed_jobs, 300);
    assert!(
        greedy.makespan < rr.makespan,
        "greedy {} vs round-robin {}",
        greedy.makespan,
        rr.makespan
    );
}

#[test]
fn a_repeated_job_id_is_refused_by_the_run() {
    // The engine admits its batch through the kernel, which refuses an id
    // two jobs carry rather than keep one of them.
    let mut batch = jobs(6, 300, 900);
    batch[4].id = batch[1].id;
    let id = batch[1].id;
    let engine = Engine::new(
        testbed_fleet(21),
        batch,
        Vec::new(),
        EngineConfig::default(),
    );
    match engine.unwrap().run() {
        Err(cwc_types::CwcError::Config(msg)) => {
            assert_eq!(msg, format!("job id {id} submitted twice"))
        }
        other => panic!("{other:?}"),
    }
}
