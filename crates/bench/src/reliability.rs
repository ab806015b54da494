//! Proactive-reliability acceptance scenarios (DESIGN.md §12).
//!
//! Pits the reactive baseline (the paper's recovery path: keep-alive
//! timeout, then migrate) against the proactive stack — risk-driven
//! replication + speculative re-execution + SLO classes — on fleets
//! where 10–30% of the phones unplug silently late in the run with
//! perfect failure prediction. Both runs see identical workloads and identical
//! injections; the only difference is whether the kernel acts on the
//! prediction before the failure. The `figures proactive` section records
//! the ladder at [`SEED`] under `proactive_reliability` in the committed
//! `FIGURES.json`, and the `reliability_acceptance` test gates the same
//! scenarios.

use cwc_core::{ReplicationPolicy, SpeculationPolicy};
use cwc_obs::Obs;
use cwc_server::workload::WorkloadBuilder;
use cwc_server::{Engine, EngineConfig, FailureInjection};
use cwc_types::{JobId, JobSpec, Micros, PhoneId, SloClass};
use std::collections::BTreeMap;

/// The seed of the recorded ladder and of its acceptance gate, so the
/// committed numbers are the scenarios the gate checks.
pub const SEED: u64 = 41;

/// Phones in the standard testbed fleet.
pub const FLEET: usize = 18;

/// Breakable jobs in the scenario workload.
pub const BREAKABLE_JOBS: usize = 20;
/// Atomic jobs in the scenario workload (the replication beneficiaries).
pub const ATOMIC_JOBS: usize = 8;
/// Jobs admitted under a (comfortably feasible) deadline.
pub const DEADLINE_JOBS: usize = 2;
/// The deadline, far above either run's makespan: feasible by design.
pub const DEADLINE_MS: u64 = 1_800_000;

/// One failure-rate scenario, both arms.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Fraction of the fleet that unplugs silently mid-run.
    pub failure_fraction: f64,
    /// How many phones that rounds to.
    pub phones_failed: usize,
    /// Reactive-recovery makespan (ms).
    pub baseline_ms: f64,
    /// Proactive-stack makespan (ms).
    pub proactive_ms: f64,
    /// Jobs completed by the reactive arm (must be the full batch).
    pub baseline_completed: usize,
    /// Jobs completed by the proactive arm (must be the full batch).
    pub proactive_completed: usize,
    /// Replicas the proactive arm planned at the initial schedule.
    pub replicas_planned: u64,
    /// Speculative copies the proactive arm launched.
    pub speculation_launched: u64,
    /// Deadline-class jobs that finished inside their deadline.
    pub deadline_met: u64,
    /// Deadline-class jobs that finished late.
    pub deadline_missed: u64,
}

fn workload(seed: u64) -> Vec<JobSpec> {
    WorkloadBuilder::new(seed)
        .breakable(BREAKABLE_JOBS, "primecount", 30, 1_000, 2_000)
        .atomic(ATOMIC_JOBS, "photoblur", 40, 400, 900)
        .build()
}

/// The doomed phone indices for a given count, spread across the fleet
/// so failures hit different houses, deterministically.
fn doomed(count: usize) -> Vec<usize> {
    (0..count).map(|k| (k * FLEET) / count).collect()
}

/// Staggered silent unplugs late in the run, while final chunks are in
/// flight. Late failures are the expensive ones for reactive recovery:
/// the fleet is nearly drained, so the lost chunk re-executes only
/// after the keep-alive timeout (90 s) plus the §5 grace period (60 s),
/// and that dead time lands directly on the makespan instead of being
/// absorbed by the remaining queue. Early failures are nearly free for
/// both arms — the redistributed work just folds into the backlog.
fn injections(doomed: &[usize]) -> Vec<FailureInjection> {
    doomed
        .iter()
        .enumerate()
        .map(|(k, &i)| FailureInjection {
            at: Micros::from_secs(260 + 8 * k as u64),
            phone: PhoneId(i as u32),
            offline: true,
            replug_at: None,
        })
        .collect()
}

fn deadline_map() -> BTreeMap<JobId, SloClass> {
    (0..DEADLINE_JOBS as u32)
        .map(|j| (JobId(j), SloClass::Deadline(DEADLINE_MS)))
        .collect()
}

/// Runs both arms of one failure-rate scenario.
pub fn run_scenario(seed: u64, failure_fraction: f64) -> ScenarioOutcome {
    let phones_failed = ((FLEET as f64) * failure_fraction).round() as usize;
    let doomed = doomed(phones_failed);
    let inj = injections(&doomed);

    let baseline =
        Engine::run_on_testbed(seed, workload(seed), inj.clone(), EngineConfig::default())
            .expect("baseline scenario runs");

    // Perfect prediction of exactly the phones that will fail; zero
    // aggressiveness keeps placement identical to the baseline so the
    // delta is attributable to replication + speculation alone.
    let mut probs = vec![0.0f64; FLEET];
    for &i in &doomed {
        probs[i] = 0.9;
    }
    let obs = Obs::new();
    let proactive = Engine::run_on_testbed(
        seed,
        workload(seed),
        inj,
        EngineConfig {
            obs: obs.clone(),
            reliability: Some((probs, 0.0)),
            replication: Some(ReplicationPolicy::new(0.5).expect("valid threshold")),
            // Tight slack: the sim predictor is near-exact, so 5% past
            // the predicted finish is already a strong straggler signal
            // and catches silently-dark slots well inside the keep-alive
            // window.
            speculation: Some(SpeculationPolicy::new(1.05, 16).expect("valid policy")),
            slo: deadline_map(),
            ..Default::default()
        },
    )
    .expect("proactive scenario runs");

    ScenarioOutcome {
        failure_fraction,
        phones_failed,
        baseline_ms: baseline.makespan.as_ms_f64(),
        proactive_ms: proactive.makespan.as_ms_f64(),
        baseline_completed: baseline.completed_jobs,
        proactive_completed: proactive.completed_jobs,
        replicas_planned: obs.metrics.counter_value("sched.replica.planned"),
        speculation_launched: obs.metrics.counter_value("sched.speculation.launched"),
        deadline_met: obs.metrics.counter_value("slo.deadline.met"),
        deadline_missed: obs.metrics.counter_value("slo.deadline.missed"),
    }
}

/// The standard acceptance ladder: 10%, 20%, 30% of the fleet fails.
pub fn run_acceptance(seed: u64) -> Vec<ScenarioOutcome> {
    [0.1, 0.2, 0.3]
        .into_iter()
        .map(|f| run_scenario(seed, f))
        .collect()
}
