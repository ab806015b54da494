//! Proactive-reliability features under the sim engine (DESIGN.md §12):
//! risk-driven replication, speculative re-execution of stragglers, and
//! SLO-class scheduling — all decided inside the sans-IO kernel, so these
//! tests double as the duplicate-completion dedup gate for the sim path.

// Test harness code: unwrap on setup is the right failure mode here, and
// clippy's allow-unwrap-in-tests only reaches #[test] fns.
#![allow(clippy::unwrap_used)]

use cwc_core::{ReplicationPolicy, SpeculationPolicy};
use cwc_obs::{MemorySink, Obs};
use cwc_server::workload::WorkloadBuilder;
use cwc_server::{Engine, EngineConfig, FailureInjection};
use cwc_types::{JobId, Micros, PhoneId, SloClass};
use std::collections::BTreeMap;
use std::sync::Arc;

/// 18-phone testbed; phone 3 is predicted 90% likely to unplug, so with
/// the 0.3 threshold every atomic placement on it gets a replica on the
/// most reliable independent phone. Aggressiveness 0 keeps derisking out
/// of the picture so placement matches the neutral run — the risky phone
/// still receives work, and the prediction then comes true: an online
/// unplug at 8 s.
fn replication_config(obs: Obs) -> EngineConfig {
    let mut probs = vec![0.0f64; 18];
    probs[3] = 0.9;
    EngineConfig {
        obs,
        reliability: Some((probs, 0.0)),
        replication: Some(ReplicationPolicy::new(0.3).unwrap()),
        ..Default::default()
    }
}

fn captured(config: EngineConfig, obs: &Obs) -> (cwc_server::EngineOutcome, Vec<cwc_obs::Event>) {
    let sink = Arc::new(MemorySink::new());
    obs.bus.attach(sink.clone());
    let jobs = WorkloadBuilder::new(41)
        .atomic(24, "photoblur", 40, 400, 900)
        .build();
    let injections = vec![FailureInjection {
        at: Micros::from_secs(8),
        phone: PhoneId(3),
        offline: false,
        replug_at: None,
    }];
    let out = Engine::run_on_testbed(41, jobs, injections, config).unwrap();
    obs.flush();
    (out, sink.snapshot())
}

#[test]
fn replication_credits_each_job_exactly_once() {
    let obs = Obs::new();
    let (out, events) = captured(replication_config(obs.clone()), &obs);
    assert_eq!(out.completed_jobs, 24);

    // Replicas were actually planned and shipped...
    assert!(obs.metrics.counter_value("sched.replica.planned") > 0);
    assert!(obs.metrics.counter_value("sched.replica.shipped") > 0);

    // ...and first-result-wins dedup held: every job completed exactly
    // once, even where both copies raced to the finish line. (The sim
    // kernel also debug-asserts against over-crediting.)
    let mut completions: BTreeMap<String, u32> = BTreeMap::new();
    for e in events.iter().filter(|e| e.name == "job.complete") {
        if let Some(cwc_obs::Value::Str(job)) = e.get("job") {
            *completions.entry(job.clone()).or_insert(0) += 1;
        }
    }
    assert_eq!(completions.len(), 24, "every job completes");
    assert!(
        completions.values().all(|&n| n == 1),
        "duplicate completion credited: {completions:?}"
    );

    // Resolved groups account for their losers: anything cancelled or
    // still queued when the winner reported is recorded as wasted work.
    let won = obs.metrics.counter_value("sched.replica.won");
    let wasted = obs.metrics.counter_value("sched.replica.wasted");
    assert!(won + wasted > 0, "no replica race was ever resolved");
}

/// Serializes every sim-clock event. Wall-clock events (scheduler
/// convergence telemetry) are excluded: their timestamps are real
/// machine time, not part of the deterministic run.
fn sim_trace(events: &[cwc_obs::Event]) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.clock == cwc_obs::Clock::Sim)
        .map(cwc_obs::Event::to_json)
        .collect()
}

#[test]
fn replicated_runs_are_byte_identical_across_repeats() {
    let runs: Vec<Vec<String>> = (0..2)
        .map(|_| {
            let obs = Obs::new();
            let (_, events) = captured(replication_config(obs.clone()), &obs);
            sim_trace(&events)
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "replica placement must be deterministic run to run"
    );
}

#[test]
fn speculation_rescues_work_lost_to_a_silently_dark_phone() {
    // Phone 2 goes silently dark at 60 s with work in flight. The chunk's
    // speculate watchdog fires before the keep-alive timeout declares the
    // phone offline, so a copy is already running elsewhere by then.
    let obs = Obs::new();
    let jobs = WorkloadBuilder::new(42)
        .breakable(10, "primecount", 30, 1_500, 2_500)
        .build();
    let injections = vec![FailureInjection {
        at: Micros::from_secs(60),
        phone: PhoneId(2),
        offline: true,
        replug_at: None,
    }];
    let config = EngineConfig {
        obs: obs.clone(),
        speculation: Some(SpeculationPolicy::new(1.2, 8).unwrap()),
        ..Default::default()
    };
    let out = Engine::run_on_testbed(42, jobs, injections, config).unwrap();
    assert_eq!(out.completed_jobs, 10);
    assert!(
        obs.metrics.counter_value("sched.speculation.launched") >= 1,
        "the dark phone's in-flight chunk must be speculated on"
    );
    let launched = obs.metrics.counter_value("sched.speculation.launched");
    assert!(launched <= 8, "budget overrun: {launched} launches");
}

#[test]
fn speculation_budget_of_zero_disables_launches() {
    let obs = Obs::new();
    let jobs = WorkloadBuilder::new(42)
        .breakable(10, "primecount", 30, 1_500, 2_500)
        .build();
    let injections = vec![FailureInjection {
        at: Micros::from_secs(60),
        phone: PhoneId(2),
        offline: true,
        replug_at: None,
    }];
    let config = EngineConfig {
        obs: obs.clone(),
        speculation: Some(SpeculationPolicy::new(1.2, 0).unwrap()),
        ..Default::default()
    };
    let out = Engine::run_on_testbed(42, jobs, injections, config).unwrap();
    assert_eq!(
        out.completed_jobs, 10,
        "recovery must not depend on speculation"
    );
    assert_eq!(obs.metrics.counter_value("sched.speculation.launched"), 0);
}

#[test]
fn slo_deadlines_are_latched_met_or_missed_exactly_once_per_job() {
    let obs = Obs::new();
    let jobs = WorkloadBuilder::new(43)
        .breakable(8, "primecount", 30, 500, 1_500)
        .build();
    // Job 0: impossible 1 ms deadline. Job 1: generous one-hour deadline.
    // Everything else is best-effort or undeclared.
    let mut slo = BTreeMap::new();
    slo.insert(JobId(0), SloClass::Deadline(1));
    slo.insert(JobId(1), SloClass::Deadline(3_600_000));
    slo.insert(JobId(2), SloClass::BestEffort);
    let config = EngineConfig {
        obs: obs.clone(),
        slo,
        ..Default::default()
    };
    let out = Engine::run_on_testbed(43, jobs, Vec::new(), config).unwrap();
    assert_eq!(out.completed_jobs, 8);
    let met = obs.metrics.counter_value("slo.deadline.met");
    let missed = obs.metrics.counter_value("slo.deadline.missed");
    assert_eq!(met + missed, 2, "one verdict per deadline-class job");
    assert_eq!(missed, 1, "the 1 ms deadline is infeasible");
    assert_eq!(met, 1, "the one-hour deadline is trivially met");
}

#[test]
fn slo_ordering_leaves_undeclared_runs_untouched() {
    // A uniformly best-effort SLO map must be a strict no-op: the stable
    // sort keeps the packer's order within a class, so the event stream
    // matches a default (no-SLO) run byte for byte.
    let run = |slo: BTreeMap<JobId, SloClass>| -> Vec<String> {
        let obs = Obs::new();
        let sink = Arc::new(MemorySink::new());
        obs.bus.attach(sink.clone());
        let jobs = WorkloadBuilder::new(44)
            .breakable(6, "wordcount", 25, 400, 1_000)
            .build();
        let config = EngineConfig {
            obs: obs.clone(),
            slo,
            ..Default::default()
        };
        Engine::run_on_testbed(44, jobs, Vec::new(), config).unwrap();
        obs.flush();
        sim_trace(&sink.snapshot())
    };
    let uniform: BTreeMap<JobId, SloClass> =
        (0..6).map(|j| (JobId(j), SloClass::BestEffort)).collect();
    assert_eq!(run(BTreeMap::new()), run(uniform));
}
