//! Sharded-equivalence properties (DESIGN.md §15).
//!
//! The sharded fleet driver's contract is that parallelism is invisible:
//! one shard is byte-identical to the single-kernel engine, and an
//! N-shard run's [`cwc_server::FleetOutcome::digest`] is byte-identical
//! across pool widths and repeated runs — thread interleaving can never
//! reach the output. The chaos-soak variant kills a whole shard's phones
//! mid-run and checks that cross-shard stealing recovers every residual
//! chunk, still deterministically.

// Test harness code: unwrap on setup is the right failure mode, and
// clippy's allow-unwrap-in-tests only reaches #[test] fns.
#![allow(clippy::unwrap_used)]

use cwc_server::{
    engine_digest, Engine, EngineConfig, FailureInjection, FleetBuilder, FleetEngine, ShardConfig,
    WorkloadBuilder,
};
use cwc_types::{JobSpec, Micros};
use proptest::prelude::*;

fn jobs(seed: u64, n: usize, min_kb: u64, max_kb: u64) -> Vec<JobSpec> {
    WorkloadBuilder::new(seed)
        .breakable(n, "primecount", 30, min_kb, max_kb)
        .atomic(n / 4, "photoblur", 40, min_kb, max_kb)
        .build()
}

fn sharded_digest(
    fleet_seed: u64,
    job_seed: u64,
    n_jobs: usize,
    shards: usize,
    threads: usize,
    injections: Vec<FailureInjection>,
) -> String {
    let fleet = FleetBuilder::new(fleet_seed).houses(4).build();
    let cfg = ShardConfig {
        shards,
        threads,
        seed: fleet_seed ^ job_seed,
        ..Default::default()
    };
    FleetEngine::new(fleet, jobs(job_seed, n_jobs, 100, 600), injections, cfg)
        .unwrap()
        .run()
        .unwrap()
        .digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N-shard output is byte-identical across two pool widths and three
    /// repeated runs — the tentpole determinism contract.
    #[test]
    fn digest_is_identical_across_thread_counts_and_repeats(
        fleet_seed in 0u64..500,
        job_seed in 0u64..500,
        n_jobs in 6usize..20,
        shards in 2usize..6,
    ) {
        let reference = sharded_digest(fleet_seed, job_seed, n_jobs, shards, 1, vec![]);
        for threads in [1usize, 4] {
            for _ in 0..3 {
                let digest =
                    sharded_digest(fleet_seed, job_seed, n_jobs, shards, threads, vec![]);
                prop_assert_eq!(
                    &digest, &reference,
                    "digest diverged at {} threads", threads
                );
            }
        }
    }

    /// One shard degenerates to the single-kernel engine, byte for byte.
    #[test]
    fn one_shard_equals_the_single_kernel_engine(
        fleet_seed in 0u64..500,
        job_seed in 0u64..500,
        n_jobs in 6usize..20,
    ) {
        let fleet = FleetBuilder::new(fleet_seed).houses(4).build();
        let batch = jobs(job_seed, n_jobs, 100, 600);
        let plain = Engine::new(fleet.clone(), batch.clone(), vec![], EngineConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let cfg = ShardConfig { shards: 1, ..Default::default() };
        let sharded = FleetEngine::new(fleet, batch, vec![], cfg)
            .unwrap()
            .run()
            .unwrap();
        let shard0 = sharded.per_shard[0].outcome.as_ref().unwrap();
        prop_assert_eq!(engine_digest(shard0), engine_digest(&plain));
        prop_assert_eq!(sharded.makespan, plain.makespan);
        prop_assert_eq!(sharded.completed_jobs, plain.completed_jobs);
    }
}

/// All injections that unplug every phone of `shard` at `at`, derived
/// from the same plan the engine will use (keys and shard count match).
fn kill_shard_injections(
    fleet_seed: u64,
    shards: usize,
    shard: usize,
    at: Micros,
) -> Vec<FailureInjection> {
    let fleet = FleetBuilder::new(fleet_seed).houses(4).build();
    let probe = FleetEngine::new(
        fleet.clone(),
        jobs(1, 4, 100, 200),
        vec![],
        ShardConfig {
            shards,
            ..Default::default()
        },
    )
    .unwrap();
    probe.plan().members[shard]
        .iter()
        .map(|&i| FailureInjection {
            at,
            phone: fleet[i].id(),
            offline: true,
            replug_at: None,
        })
        .collect()
}

#[test]
fn mass_unplug_of_a_whole_shard_is_rebalanced_by_stealing() {
    // Every phone of shard 1 goes silently dark early in the run; the
    // allocator must turn the shard's shortfall into residual chunks for
    // the survivors, and the batch must still complete in full.
    let fleet = FleetBuilder::new(11).houses(4).build();
    let batch = jobs(7, 16, 1_500, 2_500);
    let injections = kill_shard_injections(11, 4, 1, Micros::from_secs(5));
    let lost = injections.len();
    assert!(lost > 0, "shard 1 must have phones to kill");
    let cfg = ShardConfig {
        shards: 4,
        seed: 77,
        ..Default::default()
    };
    let out = FleetEngine::new(fleet, batch, injections, cfg)
        .unwrap()
        .run()
        .unwrap();
    assert!(
        out.stolen_chunks > 0,
        "shard 1's shortfall must be redistributed: {}",
        out.digest()
    );
    assert!(out.steal_rounds >= 1);
    assert_eq!(
        out.completed_jobs,
        out.total_jobs,
        "survivors must finish the stolen residuals: {}",
        out.digest()
    );
    let loss = out.fleet_loss.expect("lost workers must be reported");
    assert_eq!(loss.workers_lost, lost);
    assert!(
        loss.unprocessed_kb.is_empty(),
        "no KB may stay unprocessed after stealing: {:?}",
        loss.unprocessed_kb
    );
}

#[test]
fn a_shard_with_no_work_steals_a_dead_shards_batch() {
    // One atomic job on two shards: one shard gets it whole and the
    // other idles with its phones plugged in. When every phone of the
    // working shard goes dark, the idle shard is the only survivor and
    // must finish the job.
    let (fleet_seed, shards) = (11, 2);
    let fleet = FleetBuilder::new(fleet_seed).houses(4).build();
    let batch = WorkloadBuilder::new(7)
        .atomic(1, "photoblur", 40, 1_500, 2_500)
        .build();
    let cfg = ShardConfig {
        shards,
        seed: 77,
        ..Default::default()
    };
    let run = |injections| {
        FleetEngine::new(fleet.clone(), batch.clone(), injections, cfg.clone())
            .unwrap()
            .run()
            .unwrap()
    };
    let calm = run(vec![]);
    let busy = calm.per_shard.iter().position(|s| s.jobs == 1).unwrap();
    assert!(calm
        .per_shard
        .iter()
        .any(|s| s.jobs == 0 && !s.phones.is_empty()));
    let out = run(kill_shard_injections(
        fleet_seed,
        shards,
        busy,
        Micros::from_secs(5),
    ));
    assert!(out.steal_rounds >= 1, "{}", out.digest());
    assert_eq!(
        (out.completed_jobs, out.total_jobs),
        (1, 1),
        "the idle shard must finish the dead shard's job: {}",
        out.digest()
    );
}

#[test]
fn mass_unplug_runs_stay_deterministic_across_thread_counts() {
    // The chaos-soak variant of the byte-identity property: same dead
    // shard, same residual stealing, digests equal at 1 and 4 threads,
    // three repeats each.
    let injections = kill_shard_injections(23, 4, 2, Micros::from_secs(5));
    let reference = sharded_digest_with(23, injections.clone(), 1);
    assert!(reference.contains("stolen="), "digest: {reference}");
    for threads in [1usize, 4] {
        for _ in 0..3 {
            let digest = sharded_digest_with(23, injections.clone(), threads);
            assert_eq!(digest, reference, "diverged at {threads} threads");
        }
    }
}

fn sharded_digest_with(
    fleet_seed: u64,
    injections: Vec<FailureInjection>,
    threads: usize,
) -> String {
    let fleet = FleetBuilder::new(fleet_seed).houses(4).build();
    let cfg = ShardConfig {
        shards: 4,
        threads,
        seed: 5,
        ..Default::default()
    };
    FleetEngine::new(fleet, jobs(9, 16, 1_500, 2_500), injections, cfg)
        .unwrap()
        .run()
        .unwrap()
        .digest()
}
