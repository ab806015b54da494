//! Seeded chaos soak: full multi-worker live batches under every fault
//! class, checked against a fault-free reference run.
//!
//! Fleet configs are identical across workers, which makes the greedy
//! partition boundaries invariant under connection-order permutation —
//! so whenever the batch completes, the aggregated bytes must equal the
//! fault-free run's bytes exactly, no matter what the wire did in
//! between. The seed comes from `CWC_CHAOS_SEED` when set (CI pins a few)
//! and is printed on failure.

// Test harness code: unwrap on setup (bind, spawn) is the right failure
// mode here, and clippy's allow-unwrap-in-tests only reaches #[test] fns.
#![allow(clippy::unwrap_used)]

use cwc_chaos::{FaultKind, FaultPlan, FaultProfile};
use cwc_core::SchedulerKind;
use cwc_server::live::{
    run_live_server_with, run_worker_chaos, LiveJob, LiveOutcome, LivePolicy, WorkerConfig,
};
use cwc_server::resilience::BreakerConfig;
use cwc_tasks::{inputs, standard_registry};
use cwc_types::{CwcResult, JobId, JobKind, PhoneId};
use std::collections::BTreeMap;
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

/// A small mixed batch: two breakable jobs and one atomic one.
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

/// Identical configs: partition boundaries don't depend on which thread
/// wins the connect race.
fn fleet(n: u32) -> Vec<WorkerConfig> {
    (0..n)
        .map(|i| WorkerConfig::new(PhoneId(i), 1200, 500.0))
        .collect()
}

/// Spawns `configs` as worker threads, each optionally chaos-driven.
#[allow(clippy::disallowed_methods)]
fn spawn_fleet(
    addr: std::net::SocketAddr,
    configs: Vec<WorkerConfig>,
    plans: Vec<Option<FaultPlan>>,
) {
    for (cfg, plan) in configs.into_iter().zip(plans) {
        let unplug = Arc::new(AtomicBool::new(false));
        let registry = standard_registry();
        thread::spawn(move || {
            let obs = cwc_obs::Obs::new();
            // Chaotic workers may die by design (crash faults) or lose
            // their connection (reset faults); the server copes.
            let _ = run_worker_chaos(addr, cfg, registry, unplug, &obs, plan.as_ref());
        });
    }
}

/// One full live batch: `n` workers, per-worker fault plans, a server
/// policy. Returns the outcome.
fn soak_run(n: u32, plans: Vec<Option<FaultPlan>>, policy: LivePolicy) -> CwcResult<LiveOutcome> {
    soak_run_observed(n, plans, policy, &cwc_obs::Obs::new())
}

/// [`soak_run`], with the server recording on the caller's `obs`.
fn soak_run_observed(
    n: u32,
    plans: Vec<Option<FaultPlan>>,
    policy: LivePolicy,
    obs: &cwc_obs::Obs,
) -> CwcResult<LiveOutcome> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    spawn_fleet(addr, fleet(n), plans);
    run_live_server_with(
        listener,
        n as usize,
        batch(soak_seed()),
        standard_registry(),
        SchedulerKind::Greedy,
        Duration::from_secs(120),
        policy,
        obs,
    )
}

/// Quick policy: short stalls and keep-alive periods so recovery paths
/// actually fire within a test's lifetime.
fn soak_policy() -> LivePolicy {
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

fn reference() -> BTreeMap<JobId, Vec<u8>> {
    let out = soak_run(4, vec![None; 4], soak_policy()).expect("fault-free run");
    assert!(out.failure.is_none(), "fault-free run must not degrade");
    assert_eq!(out.results.len(), 3);
    out.results
}

fn assert_identical(results: &BTreeMap<JobId, Vec<u8>>, reference: &BTreeMap<JobId, Vec<u8>>) {
    assert_eq!(results.len(), reference.len(), "job coverage differs");
    for (id, bytes) in reference {
        assert_eq!(
            results.get(id),
            Some(bytes),
            "job {id} bytes differ from the fault-free run (seed {})",
            soak_seed()
        );
    }
}

/// Every recoverable wire-fault class, injected on the *server's* send
/// paths: the batch must complete with bytes identical to the fault-free
/// run. Lost and mangled frames degrade to stall-requeues; duplicates are
/// deduplicated by sequence number.
#[test]
fn wire_faults_on_the_server_side_preserve_results() {
    let seed = soak_seed();
    let reference = reference();
    for kind in [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Corrupt,
        FaultKind::PartialWrite,
        FaultKind::Delay,
    ] {
        let mut policy = soak_policy();
        policy.chaos = Some(FaultPlan::new(seed, FaultProfile::single(kind, 0.15)));
        let out = soak_run(4, vec![None; 4], policy)
            .unwrap_or_else(|e| panic!("{} soak errored (seed {seed}): {e}", kind.name()));
        assert!(
            out.failure.is_none(),
            "{} soak degraded (seed {seed}): {:?}",
            kind.name(),
            out.failure
        );
        assert_identical(&out.results, &reference);
    }
}

/// The same recoverable wire faults on the *workers'* send paths (lost
/// completion reports, duplicated failure reports, corrupted results):
/// stall-requeue plus sequence-number dedup must still converge on
/// identical bytes.
#[test]
fn wire_faults_on_the_worker_side_preserve_results() {
    let seed = soak_seed();
    let reference = reference();
    for kind in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::Corrupt] {
        let plan = FaultPlan::new(seed, FaultProfile::single(kind, 0.12));
        // Two chaotic workers, two clean: the batch always has somewhere
        // sane to land.
        let plans = vec![Some(plan.clone()), Some(plan), None, None];
        let out = soak_run(4, plans, soak_policy())
            .unwrap_or_else(|e| panic!("{} worker soak errored (seed {seed}): {e}", kind.name()));
        assert!(
            out.failure.is_none(),
            "{} worker soak degraded (seed {seed})",
            kind.name()
        );
        assert_identical(&out.results, &reference);
    }
}

/// The `corrupt` profile at full strength on one worker: every data-phase
/// frame it sends arrives with a flipped bit. The server's codec must skip
/// each one whole, the batch must still converge on identical bytes
/// through the other three workers, and every skipped frame must show up
/// on `net.crc_rejected` — never more of them than the plan injected.
#[test]
fn corrupted_worker_frames_are_counted_on_net_crc_rejected() {
    let seed = soak_seed();
    let reference = reference();
    let obs = cwc_obs::Obs::new();
    let plan = FaultPlan::observed(
        seed,
        FaultProfile::single(FaultKind::Corrupt, 1.0),
        obs.clone(),
    );
    // Every report the chaotic worker sends is lost, so each chunk it is
    // handed costs one stall before the breaker retires it: keep stalls short.
    let policy = LivePolicy {
        stall_timeout: Duration::from_millis(400),
        ..soak_policy()
    };
    let out = soak_run_observed(4, vec![Some(plan), None, None, None], policy, &obs)
        .unwrap_or_else(|e| panic!("corrupt-counter soak errored (seed {seed}): {e}"));
    assert!(
        out.failure.is_none(),
        "corrupt-counter soak degraded (seed {seed}): {:?}",
        out.failure
    );
    assert_identical(&out.results, &reference);
    let rejected = obs.metrics.counter_value("net.crc_rejected");
    let injected = obs.metrics.counter_value("chaos.injected.corrupt");
    assert!(
        rejected > 0,
        "no CRC rejection published (seed {seed}, {injected} injected)"
    );
    assert!(
        rejected <= injected,
        "{rejected} rejections from {injected} corrupted frames (seed {seed})"
    );
}

/// Connection resets tear sockets mid-frame. Torn workers are lost
/// (offline failures) and their slices migrate; the run must never
/// error, and any fully-covered run must be byte-identical.
#[test]
fn connection_resets_degrade_gracefully() {
    let seed = soak_seed();
    let reference = reference();
    let mut policy = soak_policy();
    policy.chaos = Some(FaultPlan::new(
        seed,
        FaultProfile::single(FaultKind::Reset, 0.05),
    ));
    let out = soak_run(4, vec![None; 4], policy)
        .unwrap_or_else(|e| panic!("reset soak errored (seed {seed}): {e}"));
    match &out.failure {
        None => assert_identical(&out.results, &reference),
        Some(f) => {
            assert_eq!(
                f.workers_lost, 4,
                "degraded only when the whole fleet is gone"
            );
            assert!(!f.detail.is_empty());
        }
    }
}

/// Workers that crash at chunk boundaries vanish without a report. Their
/// partitions restart on the survivors; results stay byte-identical.
#[test]
fn crash_at_chunk_boundary_migrates_losslessly() {
    let seed = soak_seed();
    let reference = reference();
    let plan = FaultPlan::new(seed, FaultProfile::single(FaultKind::Crash, 0.5));
    let plans = vec![Some(plan.clone()), Some(plan), None, None];
    let out = soak_run(4, plans, soak_policy())
        .unwrap_or_else(|e| panic!("crash soak errored (seed {seed}): {e}"));
    assert!(
        out.failure.is_none(),
        "two clean workers must finish the batch"
    );
    assert_identical(&out.results, &reference);
}

/// Slow-loris workers crawl through their chunks. The stall watchdog
/// requeues their tasks onto healthy peers; the batch completes with the
/// exact reference bytes (stale late reports are dropped by seq).
#[test]
fn slow_loris_workers_cannot_stall_the_batch() {
    let seed = soak_seed();
    let reference = reference();
    let mut profile = FaultProfile::single(FaultKind::SlowLoris, 0.8);
    profile.max_delay = Duration::from_millis(40);
    let plan = FaultPlan::new(seed, profile);
    let plans = vec![Some(plan.clone()), Some(plan), None, None];
    let out = soak_run(4, plans, soak_policy())
        .unwrap_or_else(|e| panic!("slow-loris soak errored (seed {seed}): {e}"));
    assert!(out.failure.is_none());
    assert_identical(&out.results, &reference);
}

/// Graceful degradation: every worker crashes on its first task. The run
/// must return `Ok` with a partial outcome and an explicit failure
/// summary — never `Err`, never a panic.
#[test]
fn losing_the_whole_fleet_returns_a_partial_outcome() {
    let seed = soak_seed();
    let plan = FaultPlan::new(seed, FaultProfile::single(FaultKind::Crash, 1.0));
    let plans = vec![Some(plan.clone()); 4];
    let out = soak_run(4, plans, soak_policy())
        .unwrap_or_else(|e| panic!("fleet-loss soak errored (seed {seed}): {e}"));
    let failure = out
        .failure
        .expect("whole fleet lost: must report a failure summary");
    assert_eq!(failure.workers_lost, 4);
    assert!(
        !failure.unprocessed_kb.is_empty(),
        "crashing every task must leave input uncovered"
    );
    // Whatever results exist are partial aggregations, not garbage: every
    // reported job is from the batch.
    for id in out.results.keys() {
        assert!(id.0 < 3, "unknown job {id} in partial results");
    }
}

/// A malicious (or badly broken) worker registers cleanly, then answers
/// every shipment with spurious `TaskFailed` reports for work it was
/// never given, sprinkles unknown frames, and completes nothing. The
/// breaker must quarantine it; the clean workers finish the batch with
/// reference bytes. This is the regression test for the two old
/// batch-killers: spurious `TaskFailed` panicked the server, and any
/// unexpected frame returned a batch-level `Err`.
#[test]
#[allow(clippy::disallowed_methods)]
fn malicious_worker_is_quarantined_not_fatal() {
    let seed = soak_seed();
    let reference = reference();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // A connection's slot is its place in the accept order, and with a
    // liar in it this fleet is not symmetric: how many items the schedule
    // queues on the liar's slot — hence how many breaker marks it can
    // collect — depends on which slot it got. So the liar, speaking raw
    // frames, connects from this thread before an honest worker exists
    // (slot 0 on every run)...
    let mut conn = cwc_net::FramedTcp::connect(addr).unwrap();
    thread::spawn(move || -> CwcResult<()> {
        conn.send(&cwc_net::Frame::Register {
            phone: PhoneId(9),
            clock_mhz: 1200,
            cores: 2,
            radio: cwc_types::RadioTech::Wifi80211g,
            ram_kb: 1 << 20,
        })?;
        let _ack = conn.recv()?;
        loop {
            match conn.recv()? {
                cwc_net::Frame::BandwidthProbe { probe_id, .. } => {
                    conn.send(&cwc_net::Frame::BandwidthReport {
                        probe_id,
                        kb_per_sec: 500.0,
                    })?;
                }
                cwc_net::Frame::ShipInput { .. } => {
                    // Never executes; reports failures for phantom work
                    // and emits a frame the server never expects here.
                    conn.send(&cwc_net::Frame::TaskFailed {
                        job: JobId(7_777),
                        seq: 424_242,
                        processed_kb: 3,
                        checkpoint: vec![0xde, 0xad].into(),
                    })?;
                    conn.send(&cwc_net::Frame::BandwidthReport {
                        probe_id: 99,
                        kb_per_sec: -1.0,
                    })?;
                }
                cwc_net::Frame::KeepAlive { seq } => {
                    conn.send(&cwc_net::Frame::KeepAliveAck { seq })?;
                }
                cwc_net::Frame::Shutdown => return Ok(()),
                _ => {}
            }
        }
    });
    // ...and three honest workers race for the rest, which are alike.
    spawn_fleet(addr, fleet(3), vec![None; 3]);

    let out = run_live_server_with(
        listener,
        4,
        batch(seed),
        standard_registry(),
        SchedulerKind::Greedy,
        Duration::from_secs(120),
        soak_policy(),
        &cwc_obs::Obs::new(),
    )
    .unwrap_or_else(|e| panic!("malicious-worker soak errored (seed {seed}): {e}"));
    assert!(out.failure.is_none(), "three honest workers must finish");
    // NOTE: the liar's partition boundaries come from a 4-phone schedule,
    // so bytes are compared job-by-job against a 4-phone reference — the
    // fleet shape matches the reference run's.
    assert_identical(&out.results, &reference);
    assert!(
        out.quarantined >= 1,
        "the flapping worker must be quarantined (got {})",
        out.quarantined
    );
}
