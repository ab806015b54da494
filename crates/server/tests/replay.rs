//! Record/replay gate for the live path: a real multi-worker TCP batch
//! (fault-free and under chaos) is recorded as a `(now, event)` script
//! through the obs bus, then replayed offline into fresh kernels.
//!
//! Because the coordinator kernel is sans-IO, the recorded script fully
//! determines the run: replaying it must (a) produce byte-identical
//! command streams across independent replays, and (b) drive a fresh
//! kernel to the same terminal state the live run reported (same
//! completed jobs, migrations, keep-alive counts, quarantines).

// Test harness code: unwrap on setup (bind, spawn) is the right failure
// mode here, and clippy's allow-unwrap-in-tests only reaches #[test] fns.
#![allow(clippy::unwrap_used)]

use cwc_chaos::{FaultKind, FaultPlan, FaultProfile};
use cwc_core::SchedulerKind;
use cwc_obs::{MemorySink, Obs};
use cwc_server::coord::{script, CoordEvent, Kernel};
use cwc_server::live::{
    live_kernel_config, run_live_server_with, run_worker_chaos, LiveJob, LiveOutcome, LivePolicy,
    WorkerConfig,
};
use cwc_server::resilience::BreakerConfig;
use cwc_tasks::{inputs, standard_registry};
use cwc_types::{JobId, JobKind, Micros, PhoneId};
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn soak_seed() -> u64 {
    std::env::var("CWC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn batch(seed: u64) -> Vec<LiveJob> {
    vec![
        LiveJob::new(
            JobId(0),
            JobKind::Breakable,
            "primecount",
            30,
            inputs::number_file(96, seed ^ 5),
        ),
        LiveJob::new(
            JobId(1),
            JobKind::Breakable,
            "wordcount",
            25,
            inputs::text_file(64, seed ^ 6, "lowes"),
        ),
        LiveJob::new(
            JobId(2),
            JobKind::Atomic,
            "photoblur",
            40,
            inputs::image_file(96, 64, seed ^ 7),
        ),
    ]
}

fn policy() -> LivePolicy {
    LivePolicy {
        stall_timeout: Duration::from_secs(2),
        keepalive_period: Duration::from_millis(200),
        breaker: BreakerConfig {
            threshold: 4,
            window: Duration::from_secs(30),
        },
        ..Default::default()
    }
}

/// The proactive-reliability stack, all on: every slot predicted risky
/// (so each atomic placement is replicated), the straggler watchdog armed
/// with a small budget, and a per-job SLO mix. Aggressiveness 0 keeps the
/// derisk repricing out so placement itself is unchanged.
fn proactive_policy() -> LivePolicy {
    let mut slo = std::collections::BTreeMap::new();
    slo.insert(JobId(0), cwc_types::SloClass::Deadline(60_000));
    slo.insert(JobId(1), cwc_types::SloClass::BestEffort);
    LivePolicy {
        reliability: Some((vec![0.9; 4], 0.0)),
        slo,
        replication: Some(cwc_core::ReplicationPolicy::new(0.3).unwrap()),
        speculation: Some(cwc_core::SpeculationPolicy::new(4.0, 4).unwrap()),
        ..policy()
    }
}

/// One recorded live batch: `n` identical workers, an optional server-side
/// fault plan, and a `MemorySink` capturing the kernel's event script.
/// Returns the server-side `Obs` too so tests can inspect its counters.
#[allow(clippy::disallowed_methods)]
fn recorded_run_with(
    n: u32,
    chaos: Option<FaultPlan>,
    mut pol: LivePolicy,
) -> (LiveOutcome, Vec<(Micros, CoordEvent)>, Obs) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    for i in 0..n {
        let cfg = WorkerConfig::new(PhoneId(i), 1200, 500.0);
        let unplug = Arc::new(AtomicBool::new(false));
        let registry = standard_registry();
        thread::spawn(move || {
            let obs = Obs::new();
            let _ = run_worker_chaos(addr, cfg, registry, unplug, &obs, None);
        });
    }
    let obs = Obs::new();
    let sink = Arc::new(MemorySink::new());
    obs.bus.attach(sink.clone());
    pol.chaos = chaos;
    let out = run_live_server_with(
        listener,
        n as usize,
        batch(soak_seed()),
        standard_registry(),
        SchedulerKind::Greedy,
        Duration::from_secs(120),
        pol,
        &obs,
    )
    .expect("live run");
    let steps = script::harvest(&sink.snapshot()).expect("recorded script parses");
    (out, steps, obs)
}

fn recorded_run(n: u32, chaos: Option<FaultPlan>) -> (LiveOutcome, Vec<(Micros, CoordEvent)>) {
    let (out, steps, _) = recorded_run_with(n, chaos, policy());
    (out, steps)
}

/// Replays `steps` into a fresh, silently-observed kernel built from the
/// same public configuration the live server used.
fn replayed(steps: &[(Micros, CoordEvent)], pol: &LivePolicy) -> (Kernel, Vec<String>) {
    let cfg = live_kernel_config(
        &batch(soak_seed()),
        &standard_registry(),
        SchedulerKind::Greedy,
        pol,
        Obs::new(),
    )
    .expect("kernel config");
    let mut kernel = Kernel::new(cfg).expect("kernel");
    let mut lines = Vec::new();
    for (now, ev) in steps {
        for cmd in kernel.step(*now, ev.clone()) {
            lines.push(format!("{cmd:?}"));
        }
    }
    (kernel, lines)
}

fn assert_replay_matches(out: &LiveOutcome, steps: &[(Micros, CoordEvent)], pol: &LivePolicy) {
    assert!(!steps.is_empty(), "the live driver recorded no steps");
    let (kernel, first) = replayed(steps, pol);
    let (_, second) = replayed(steps, pol);
    assert_eq!(first, second, "independent replays diverged");
    assert!(!first.is_empty(), "replay produced no commands");

    // The replayed kernel reaches the exact terminal state the live run
    // reported.
    let replayed_jobs: Vec<JobId> = kernel.completed_at().keys().copied().collect();
    let live_jobs: Vec<JobId> = out.results.keys().copied().collect();
    assert_eq!(replayed_jobs, live_jobs, "completed jobs diverged");
    assert_eq!(kernel.migrated(), out.migrated, "migration count diverged");
    assert_eq!(
        kernel.keepalives_acked(),
        out.keepalives_acked,
        "keep-alive count diverged"
    );
    assert_eq!(
        kernel.quarantined(),
        out.quarantined,
        "quarantines diverged"
    );
    assert_eq!(
        kernel.finished(),
        out.failure.is_none(),
        "terminal disposition diverged"
    );
}

/// Fault-free recording: the replay must complete all three jobs.
#[test]
fn fault_free_live_run_replays_exactly() {
    let (out, steps) = recorded_run(4, None);
    assert!(out.failure.is_none(), "fault-free run must not degrade");
    assert_eq!(out.results.len(), 3);
    assert_replay_matches(&out, &steps, &policy());
}

/// Chaos recording (one chaos-soak seed, server-side frame drops): the
/// retry/stall/requeue recovery path is captured in the script, and the
/// replay still lands on the live run's terminal state.
#[test]
fn chaos_live_run_replays_exactly() {
    let seed = soak_seed();
    let chaos = FaultPlan::new(seed, FaultProfile::single(FaultKind::Drop, 0.15));
    let (out, steps) = recorded_run(4, Some(chaos));
    assert!(
        out.failure.is_none(),
        "drop soak degraded (seed {seed}): {:?}",
        out.failure
    );
    assert_replay_matches(&out, &steps, &policy());
}

/// Proactive-reliability recording: replication, speculation, and SLO
/// classes all enabled. The batch's atomic job is replicated (every slot
/// is predicted risky), first-result-wins dedup holds on the live path —
/// each job is credited exactly once — and the recorded script still
/// replays to the exact terminal state, replica placements included.
#[test]
fn proactive_reliability_live_run_replays_exactly() {
    let (out, steps, obs) = recorded_run_with(4, None, proactive_policy());
    assert!(
        out.failure.is_none(),
        "proactive run degraded: {:?}",
        out.failure
    );
    // Exactly-once results despite redundant copies in flight.
    assert_eq!(out.results.len(), 3);
    assert!(
        obs.metrics.counter_value("sched.replica.planned") >= 1,
        "the atomic job on a risky slot must be replicated"
    );
    // A resolved race leaves a trace: either the replica won or the
    // loser's copy was cancelled/retired as wasted work.
    let won = obs.metrics.counter_value("sched.replica.won");
    let wasted = obs.metrics.counter_value("sched.replica.wasted");
    assert!(won + wasted >= 1, "replica race never resolved");
    // The deadline verdict latched exactly once for the one deadline job.
    let met = obs.metrics.counter_value("slo.deadline.met");
    let missed = obs.metrics.counter_value("slo.deadline.missed");
    assert_eq!(met + missed, 1, "one verdict for the one deadline job");
    assert_replay_matches(&out, &steps, &proactive_policy());
}
