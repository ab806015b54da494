//! Sharded-coordination scale benchmark (DESIGN.md §15).
//!
//! One greedy CBP kernel packs a |P|·|J| cost matrix per capacity probe,
//! so a single coordinator caps scheduling throughput long before a
//! million-phone fleet. Sharding shrinks the problem in *both*
//! dimensions: N shards of |P|/N phones schedule |J|/N-job slices, so
//! the aggregate pack work falls ~N× even before thread-level
//! parallelism — which is exactly what this bench measures.
//!
//! Per ladder point (1/2/4/8 shards over the same ≥100k-phone synthetic
//! fleet): wall-clock of phone partitioning + job splitting, wall-clock
//! of the per-shard subproblem builds + greedy packs on the
//! work-stealing [`cwc_server::WorkerPool`], and the aggregate
//! scheduling throughput in jobs/s — the `--compare` CI gate. A
//! mass-unplug scenario then runs the full sharded *simulation* driver
//! ([`cwc_server::FleetEngine`]) with one whole shard's phones dying
//! mid-run and reports the cross-shard residual stealing that recovers
//! the shortfall.

use crate::obj;
use crate::report::JsonValue;
use cwc_core::{partition_jobs, GreedyScheduler, SchedProblem};
use cwc_server::coord::{charging_cluster_keys, plan_shards};
use cwc_server::engine::FailureInjection;
use cwc_server::{FleetBuilder, FleetEngine, ShardConfig, WorkerPool, WorkloadBuilder};
use cwc_types::{
    CpuSpec, CwcError, CwcResult, JobId, JobSpec, KiloBytes, Micros, MsPerKb, PhoneId, PhoneInfo,
    RadioTech,
};
use std::time::Instant;

/// The shard ladder every report carries.
pub const SHARD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Default fleet size for the ladder (the acceptance floor is 100k).
pub const LADDER_PHONES: usize = 100_000;

/// Default job-batch size for the ladder.
pub const LADDER_JOBS: usize = 400;

/// One measured ladder point.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Kernel shard count.
    pub shards: usize,
    /// Fleet size.
    pub phones: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs the partitioner divided across more than one shard.
    pub split_jobs: usize,
    /// Wall-clock of phone planning + job splitting, ms.
    pub plan_ms: f64,
    /// Wall-clock of per-shard subproblem builds + greedy packs on the
    /// pool, ms.
    pub pack_ms: f64,
    /// Aggregate scheduling throughput, jobs per second of pack time —
    /// the regression-gated metric.
    pub jobs_per_sec: f64,
    /// Largest single-shard pack input, |P_s|·|J_s| cells (the serial
    /// critical path a thread pool cannot shrink).
    pub max_shard_cells: u64,
    /// Tasks the pool's workers stole from siblings while packing.
    pub pool_steals: u64,
    /// Assignments across all shard schedules.
    pub assignments: usize,
}

impl From<ShardPoint> for JsonValue {
    fn from(p: ShardPoint) -> Self {
        obj!(p {
            shards,
            phones,
            jobs,
            split_jobs,
            plan_ms,
            pack_ms,
            jobs_per_sec,
            max_shard_cells,
            pool_steals,
            assignments
        })
    }
}

/// Outcome of the mass-unplug stealing scenario.
#[derive(Debug, Clone)]
pub struct MassUnplugOutcome {
    /// Kernel shard count.
    pub shards: usize,
    /// Fleet size.
    pub phones: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Phones of the killed shard (all unplug, offline, mid-run).
    pub killed: usize,
    /// Residual chunks redistributed to survivor shards.
    pub stolen_chunks: u64,
    /// Steal rounds that ran.
    pub steal_rounds: u32,
    /// Jobs fully completed after stealing.
    pub completed_jobs: usize,
    /// Jobs in the batch.
    pub total_jobs: usize,
    /// Workers the fleet summary accounts as lost.
    pub workers_lost: usize,
    /// Fleet makespan (initial epoch + steal epochs), µs of sim time.
    pub makespan_us: u64,
}

impl From<MassUnplugOutcome> for JsonValue {
    fn from(o: MassUnplugOutcome) -> Self {
        obj!(o {
            shards,
            phones,
            jobs,
            killed,
            stolen_chunks,
            steal_rounds,
            completed_jobs,
            total_jobs,
            workers_lost,
            makespan_us
        })
    }
}

/// Deterministic synthetic fleet with heterogeneous clocks and bandwidths.
fn synth_phones(n: usize) -> Vec<PhoneInfo> {
    (0..n)
        .map(|i| {
            PhoneInfo::new(
                PhoneId::from_index(i),
                CpuSpec::new(806 + (i as u32 * 97) % 700, 2),
                RadioTech::Wifi80211g,
                MsPerKb(1.0 + (i as f64 * 7.3) % 69.0),
            )
        })
        .collect()
}

/// Deterministic synthetic batch, every third job atomic.
fn synth_jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|j| {
            let id = JobId::from_index(j);
            let size = KiloBytes(200 + (j as u64 * 131) % 1_800);
            if j % 3 == 2 {
                JobSpec::atomic(id, "photoblur", KiloBytes(40), size)
            } else {
                JobSpec::breakable(id, "primecount", KiloBytes(30), size)
            }
        })
        .collect()
}

/// The ladder's cost model: 150 ms/KB on the 806 MHz reference, scaled
/// by clock.
fn clock_scaled_costs(phones: &[PhoneInfo], num_jobs: usize) -> Vec<Vec<f64>> {
    phones
        .iter()
        .map(|p| {
            (0..num_jobs)
                .map(|_| 150.0 * 806.0 / f64::from(p.cpu.clock_mhz))
                .collect()
        })
        .collect()
}

/// The ladder's fleet: [`synth_phones`] four to a site, profiler-style
/// unplug probabilities cycling the quartiles — the statistics
/// [`charging_cluster_keys`] buckets by.
fn synth_fleet(n: usize) -> (Vec<PhoneInfo>, Vec<u64>) {
    let sites: Vec<u64> = (0..n as u64).map(|i| i / 4).collect();
    let unplug: Vec<f64> = (0..n).map(|i| f64::from((i % 20) as u32) / 20.0).collect();
    (
        synth_phones(n),
        charging_cluster_keys(&sites, Some(&unplug)),
    )
}

/// Runs one ladder point: partition `phones`/`jobs` into `shards`
/// shards, then build + pack every shard subproblem on the pool.
pub fn run_point(
    phones: &[PhoneInfo],
    keys: &[u64],
    jobs: &[JobSpec],
    shards: usize,
) -> CwcResult<ShardPoint> {
    let plan_started = Instant::now();
    let plan = plan_shards(keys, shards);
    let weights: Vec<f64> = plan
        .members
        .iter()
        .map(|m| {
            m.iter()
                .map(|&i| {
                    let cpu = &phones[i].cpu;
                    f64::from(cpu.clock_mhz) * f64::from(cpu.cores)
                })
                .sum()
        })
        .collect();
    let split = partition_jobs(jobs, &weights)?;
    let plan_ms = plan_started.elapsed().as_secs_f64() * 1e3;

    let max_shard_cells = plan
        .members
        .iter()
        .zip(&split.per_shard)
        .map(|(m, j)| m.len() as u64 * j.len() as u64)
        .max()
        .unwrap_or(0);

    // Subproblem construction (including the per-shard cost matrix) runs
    // inside the pooled task: a real shard builds its own cost model, and
    // the build shrinks quadratically with the shard count just like the
    // pack does.
    let pool = WorkerPool::new(shards);
    let tasks: Vec<_> = (0..shards)
        .map(|s| {
            let members = &plan.members[s];
            let shard_jobs = &split.per_shard[s];
            move || -> CwcResult<usize> {
                if members.is_empty() || shard_jobs.is_empty() {
                    return Ok(0);
                }
                let sub_phones: Vec<PhoneInfo> = members.iter().map(|&i| phones[i]).collect();
                let c = clock_scaled_costs(&sub_phones, shard_jobs.len());
                let problem = SchedProblem::new(sub_phones, shard_jobs.to_vec(), c.into())?;
                let schedule = GreedyScheduler.schedule(&problem)?;
                Ok(schedule.num_assignments())
            }
        })
        .collect();
    let pack_started = Instant::now();
    let (results, stats) = pool.run(tasks);
    let pack_ms = pack_started.elapsed().as_secs_f64() * 1e3;
    let mut assignments = 0;
    for r in results {
        assignments += r?;
    }

    Ok(ShardPoint {
        shards,
        phones: phones.len(),
        jobs: jobs.len(),
        split_jobs: split.split_jobs(),
        plan_ms,
        pack_ms,
        jobs_per_sec: jobs.len() as f64 / (pack_ms / 1e3).max(1e-9),
        max_shard_cells,
        pool_steals: stats.steals,
        assignments,
    })
}

/// Runs the whole ladder over one shared instance.
pub fn run_ladder(num_phones: usize, num_jobs: usize) -> CwcResult<Vec<ShardPoint>> {
    let (phones, keys) = synth_fleet(num_phones);
    let jobs = synth_jobs(num_jobs);
    SHARD_LADDER
        .iter()
        .map(|&s| run_point(&phones, &keys, &jobs, s))
        .collect()
}

/// The stealing scenario: a 4-shard simulated fleet loses every phone of
/// one shard mid-run; the allocator must recover the shortfall through
/// survivor shards and still complete the batch.
pub fn run_mass_unplug() -> CwcResult<MassUnplugOutcome> {
    const SHARDS: usize = 4;
    const KILLED_SHARD: usize = 1;
    let fleet = FleetBuilder::new(11).houses(8).build();
    let jobs = WorkloadBuilder::new(7)
        .breakable(24, "primecount", 30, 1_500, 2_500)
        .atomic(6, "photoblur", 40, 1_500, 2_500)
        .build();
    let cfg = ShardConfig {
        shards: SHARDS,
        seed: 77,
        ..Default::default()
    };
    let probe = FleetEngine::new(fleet.clone(), jobs.clone(), Vec::new(), cfg.clone())?;
    let injections: Vec<FailureInjection> = probe.plan().members[KILLED_SHARD]
        .iter()
        .map(|&i| FailureInjection {
            at: Micros::from_secs(30),
            phone: fleet[i].id(),
            offline: true,
            replug_at: None,
        })
        .collect();
    let killed = injections.len();
    let phones = fleet.len();
    let out = FleetEngine::new(fleet, jobs.clone(), injections, cfg)?.run()?;
    if out.completed_jobs != out.total_jobs {
        return Err(CwcError::Config(format!(
            "mass-unplug scenario failed to recover: {}/{} jobs",
            out.completed_jobs, out.total_jobs
        )));
    }
    Ok(MassUnplugOutcome {
        shards: SHARDS,
        phones,
        jobs: jobs.len(),
        killed,
        stolen_chunks: out.stolen_chunks,
        steal_rounds: out.steal_rounds,
        completed_jobs: out.completed_jobs,
        total_jobs: out.total_jobs,
        workers_lost: out.fleet_loss.as_ref().map(|l| l.workers_lost).unwrap_or(0),
        makespan_us: out.makespan.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ladder_point_schedules_everything() {
        let (phones, keys) = synth_fleet(400);
        let jobs = synth_jobs(40);
        let one = run_point(&phones, &keys, &jobs, 1).unwrap();
        let four = run_point(&phones, &keys, &jobs, 4).unwrap();
        assert!(one.assignments >= jobs.len());
        assert!(four.assignments >= jobs.len());
        assert_eq!(one.split_jobs, 0, "1 shard never divides a job");
        assert!(four.max_shard_cells < one.max_shard_cells);
    }

    #[test]
    fn mass_unplug_scenario_reports_stealing() {
        let out = run_mass_unplug().unwrap();
        assert!(out.stolen_chunks > 0);
        assert!(out.steal_rounds >= 1);
        assert_eq!(out.completed_jobs, out.total_jobs);
        assert_eq!(out.workers_lost, out.killed);
    }
}
