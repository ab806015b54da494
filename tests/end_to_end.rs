//! Cross-crate integration tests: the full CWC stack from workload
//! construction through scheduling, simulated execution, failure
//! migration, and the LP benchmark.

use cwc::prelude::*;
use cwc::server::engine::paper_baselines;
use cwc::server::{Engine, EngineConfig, FailureInjection};
use cwc_core::{relaxed_lower_bound, RuntimePredictor, SchedProblem};
use cwc_server::workload::WorkloadBuilder;
use cwc_types::Micros;

#[test]
fn paper_evaluation_ordering_holds() {
    // §6's headline: greedy < {equal-split, round-robin} on the testbed.
    let fleet = testbed_fleet(2012);
    let jobs = paper_workload(2012);
    let run = |scheduler| {
        let cfg = EngineConfig {
            scheduler,
            ..EngineConfig::default()
        };
        let engine = Engine::new(fleet.clone(), jobs.clone(), vec![], cfg).unwrap();
        engine.run().unwrap()
    };
    let greedy = run(SchedulerKind::Greedy);
    let eq = run(SchedulerKind::EqualSplit);
    let rr = run(SchedulerKind::RoundRobin);
    assert_eq!(greedy.completed_jobs, 150);
    assert_eq!(eq.completed_jobs, 150);
    assert_eq!(rr.completed_jobs, 150);
    assert!(greedy.makespan < eq.makespan);
    assert!(greedy.makespan < rr.makespan);
    // The paper's ≈1.6x margin, loosely.
    assert!(eq.makespan.as_secs_f64() / greedy.makespan.as_secs_f64() > 1.3);
}

#[test]
fn readme_quickstart_table_matches_the_example_runs() {
    // `examples/quickstart.rs`'s three runs, each row printed as the
    // example prints it, must appear verbatim in the README's table.
    let readme = include_str!("../README.md");
    let fleet = testbed_fleet(42);
    let jobs = paper_workload(42);
    for kind in SchedulerKind::ALL {
        let cfg = EngineConfig {
            scheduler: kind,
            ..EngineConfig::default()
        };
        let out = Engine::new(fleet.clone(), jobs.clone(), vec![], cfg)
            .unwrap()
            .run()
            .unwrap();
        let row = format!(
            "{:<12} {:>9.0}s {:>11.0}s {:>7}/{}",
            kind.label(),
            out.makespan.as_secs_f64(),
            out.predicted_makespan_ms / 1e3,
            out.completed_jobs,
            out.total_jobs,
        );
        assert!(
            readme.lines().any(|line| line == row),
            "README.md's quickstart table lacks {row:?}"
        );
    }
}

#[test]
fn greedy_sits_between_lp_bound_and_baselines() {
    // Build the exact problem the engine would schedule, then check
    // T_relaxed ≤ T_greedy directly.
    let mut fleet = testbed_fleet(5);
    let jobs = paper_workload(5);
    let mut predictor = RuntimePredictor::new();
    for (program, t_s) in paper_baselines() {
        predictor.set_baseline(&program, t_s);
    }
    let infos: Vec<PhoneInfo> = fleet.iter_mut().map(|p| p.info(Micros::ZERO)).collect();
    let programs: Vec<&str> = jobs.iter().map(|j| j.program.as_str()).collect();
    let c = predictor.cost_matrix(&infos, &programs);
    let problem = SchedProblem::new(infos, jobs, c).unwrap();

    let schedule = cwc_core::GreedyScheduler.schedule(&problem).unwrap();
    schedule.validate(&problem).unwrap();
    let bound = relaxed_lower_bound(&problem).unwrap();
    assert!(
        schedule.predicted_makespan_ms >= bound - 1e-6,
        "greedy {} below LP bound {bound}",
        schedule.predicted_makespan_ms
    );
    // The gap should be modest — the greedy is a good heuristic.
    assert!(
        schedule.predicted_makespan_ms <= bound * 2.0,
        "gap implausibly large: {} vs {bound}",
        schedule.predicted_makespan_ms
    );
}

#[test]
fn mass_failure_still_completes_if_one_phone_survives() {
    let jobs = WorkloadBuilder::new(3)
        .breakable(10, "primecount", 30, 100, 300)
        .build();
    // Unplug 17 of 18 phones early; everything must migrate to the last.
    let injections: Vec<FailureInjection> = (0..17u32)
        .map(|i| FailureInjection {
            at: Micros::from_secs(2 + u64::from(i)),
            phone: PhoneId(i),
            offline: i % 3 == 0, // mix online and offline failures
            replug_at: None,
        })
        .collect();
    let out = Engine::run_on_testbed(3, jobs, injections, EngineConfig::default()).unwrap();
    assert_eq!(out.completed_jobs, 10, "survivor must finish the batch");
    // Phone 17 (the survivor) did real work.
    assert!(out
        .segments
        .iter()
        .any(|s| s.phone == PhoneId(17) && s.rescheduled));
}

#[test]
fn everything_fails_leaves_jobs_incomplete_without_hanging() {
    let jobs = WorkloadBuilder::new(4)
        .breakable(6, "primecount", 30, 2_000, 4_000)
        .build();
    let injections: Vec<FailureInjection> = (0..18u32)
        .map(|i| FailureInjection {
            at: Micros::from_secs(1),
            phone: PhoneId(i),
            offline: false,
            replug_at: None,
        })
        .collect();
    let out = Engine::run_on_testbed(4, jobs, injections, EngineConfig::default()).unwrap();
    assert!(out.completed_jobs < 6, "no fleet, no results");
}

#[test]
fn offline_failures_lose_progress_online_failures_keep_it() {
    // Same scenario twice; the offline variant must re-execute more work.
    let jobs = WorkloadBuilder::new(9)
        .breakable(8, "primecount", 30, 1_500, 2_500)
        .build();
    let run = |offline: bool| {
        let injections = vec![FailureInjection {
            at: Micros::from_secs(60),
            phone: PhoneId(0),
            offline,
            replug_at: None,
        }];
        Engine::run_on_testbed(9, jobs.clone(), injections, EngineConfig::default()).unwrap()
    };
    let online = run(false);
    let offline = run(true);
    assert_eq!(online.completed_jobs, 8);
    assert_eq!(offline.completed_jobs, 8);
    // Offline failure is detected 90 s later and loses the checkpoint, so
    // it can never finish sooner than the online-failure run.
    assert!(
        offline.makespan >= online.makespan,
        "offline {} vs online {}",
        offline.makespan,
        online.makespan
    );
}

#[test]
fn experiment_is_deterministic_per_seed() {
    let mk = || {
        let fleet = testbed_fleet(77);
        let jobs = paper_workload(77);
        let engine = Engine::new(fleet, jobs, vec![], EngineConfig::default()).unwrap();
        engine.run().unwrap()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.segments.len(), b.segments.len());
    assert_eq!(a.predicted_makespan_ms, b.predicted_makespan_ms);
}

#[test]
fn different_seeds_change_the_timeline() {
    let run = |seed| {
        let (fleet, jobs) = (testbed_fleet(seed), paper_workload(seed));
        let engine = Engine::new(fleet, jobs, vec![], EngineConfig::default()).unwrap();
        engine.run().unwrap().makespan
    };
    assert_ne!(run(1), run(2));
}
