//! The sharded fleet driver: N coordinator kernels on a work-stealing
//! thread pool (DESIGN.md §15).
//!
//! [`FleetEngine`] is to a million-phone fleet what [`crate::Engine`] is
//! to one batch: it partitions the phones into shards by site/charging
//! cluster ([`crate::coord::fleet::plan_shards`]), splits the job batch
//! across shards by capacity weight (`cwc_core::partition_jobs`), runs
//! one independent simulated engine — one kernel — per shard on a
//! [`WorkerPool`], and merges the per-shard outcomes through the sans-IO
//! [`FleetAllocator`]. When a shard's phones unplug en masse and its
//! kernel reports a [`FleetLoss`], the allocator turns the shortfall
//! into a residual batch that surviving shards execute in follow-up
//! **steal rounds**.
//!
//! **Why determinism survives the pool.** Each shard's engine is a
//! sealed deterministic computation over inputs fixed before any thread
//! starts (sub-fleet, job slices, injections, per-shard seed, fresh
//! per-shard [`cwc_obs::Obs`] so command streams record independently).
//! The pool returns results by task index; the allocator folds them in
//! shard-id order; every merge map is a `BTreeMap`. Thread count and
//! interleaving therefore cannot reach the output — [`FleetOutcome::digest`]
//! is byte-identical across pool widths and repeated runs, which
//! `tests/sharding.rs` proptest-enforces. Wall-clock-dependent pool
//! statistics ([`FleetOutcome::pool_steals`]) are deliberately excluded
//! from the digest.
//!
//! The fleet makespan composes sequentially: the initial epoch ends when
//! the slowest shard finishes (`max` over shards), and each steal round
//! appends its own epoch (residual redistribution happens after the
//! losses are known). That is pessimistic for survivors that finished
//! early, and exact for the worst-case shard — the quantity the paper's
//! makespan argument cares about.

use crate::coord::fleet::{charging_cluster_keys, plan_shards, FleetAllocator, ShardPlan};
use crate::coord::FleetLoss;
use crate::engine::{Engine, EngineConfig, EngineOutcome, FailureInjection};
use crate::pool::WorkerPool;
use cwc_chaos::shard_seed;
use cwc_core::partition_jobs;
use cwc_device::Phone;
use cwc_types::{CwcError, CwcResult, JobSpec, Micros, PhoneId};
use std::collections::BTreeMap;

/// Maximum residual steal rounds after shard losses (2 covers a survivor
/// shard dying during round 1).
const MAX_STEAL_ROUNDS: u32 = 2;

/// Knobs for a sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Kernel shard count (≥ 1).
    pub shards: usize,
    /// Pool width; `0` means one thread per shard (clamped to the host's
    /// available parallelism by the pool user — the driver itself never
    /// reads the host, so the shard *outputs* stay host-independent).
    pub threads: usize,
    /// Run seed. Per-shard seeds derive as `cwc_chaos::shard_seed(seed,
    /// shard)` and are recorded on each [`ShardOutcome`], so a chaos plan
    /// can derive its per-shard faults from them.
    pub seed: u64,
    /// Per-shard engine configuration. `reliability` is split by shard
    /// membership; `obs` is **not** shared — every shard records to a
    /// fresh handle so command streams stay independent.
    pub base: EngineConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            threads: 0,
            seed: 0,
            base: EngineConfig::default(),
        }
    }
}

/// One shard's slice of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// Seed derived for this shard (`shard_seed(run_seed, shard)`).
    pub seed: u64,
    /// Member phones.
    pub phones: Vec<PhoneId>,
    /// Job slices assigned in the initial split.
    pub jobs: usize,
    /// The shard engine's outcome (`None` for a shard with no phones or
    /// no work — nothing ran).
    pub outcome: Option<EngineOutcome>,
}

/// The merged result of a sharded run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Fleet makespan: slowest shard of the initial epoch plus one epoch
    /// per steal round (see module docs).
    pub makespan: Micros,
    /// Jobs whose every KB completed, fleet-wide.
    pub completed_jobs: usize,
    /// Jobs in the original batch.
    pub total_jobs: usize,
    /// Per-shard accounts, indexed by shard.
    pub per_shard: Vec<ShardOutcome>,
    /// Residual chunks redistributed between shards.
    pub stolen_chunks: u64,
    /// Steal rounds that actually ran.
    pub steal_rounds: u32,
    /// Tasks the pool's workers stole from siblings — wall-clock
    /// dependent, excluded from [`FleetOutcome::digest`].
    pub pool_steals: u64,
    /// Aggregated cross-shard failure summary (`None` when every job
    /// completed and no worker was lost).
    pub fleet_loss: Option<FleetLoss>,
}

impl FleetOutcome {
    /// Canonical serialization of everything deterministic in the
    /// outcome. Two sharded runs are considered byte-identical iff their
    /// digests match; the proptests compare digests across thread counts
    /// and repeats.
    pub fn digest(&self) -> String {
        let mut s = format!(
            "makespan={};completed={}/{};stolen={};rounds={}",
            self.makespan.0,
            self.completed_jobs,
            self.total_jobs,
            self.stolen_chunks,
            self.steal_rounds
        );
        if let Some(loss) = &self.fleet_loss {
            s.push_str(&format!(
                ";loss(workers={},quarantined={},unprocessed={:?})",
                loss.workers_lost, loss.quarantined, loss.unprocessed_kb
            ));
        }
        for sh in &self.per_shard {
            s.push_str(&format!(
                "\nshard {} seed={} phones={:?} jobs={}",
                sh.shard, sh.seed, sh.phones, sh.jobs
            ));
            if let Some(out) = &sh.outcome {
                s.push(' ');
                s.push_str(&engine_digest(out));
            }
        }
        s
    }
}

/// Canonical serialization of one engine outcome (used by the 1-shard ≡
/// single-kernel equivalence test as well as the fleet digest).
pub fn engine_digest(out: &EngineOutcome) -> String {
    let mut s = format!(
        "makespan={};predicted={:?};completed={}/{};rescheduled={};lost={}/{};completed_at={:?};partitions={:?};phone_completion={:?}",
        out.makespan.0,
        out.predicted_makespan_ms,
        out.completed_jobs,
        out.total_jobs,
        out.rescheduled_items,
        out.workers_lost,
        out.quarantined_workers,
        out.completed_at,
        out.partitions_per_job,
        out.phone_completion,
    );
    if let Some(loss) = &out.fleet_loss {
        s.push_str(&format!(
            ";loss(workers={},quarantined={},unprocessed={:?})",
            loss.workers_lost, loss.quarantined, loss.unprocessed_kb
        ));
    }
    s.push_str(";segments=");
    for seg in &out.segments {
        s.push_str(&format!(
            "({},{},{:?},{},{},{})",
            seg.phone, seg.job, seg.kind, seg.start.0, seg.end.0, seg.rescheduled
        ));
    }
    s
}

/// One shard's epoch input: sub-fleet, job slices, injections. `None`
/// for shards with nothing to run this epoch.
type ShardInput = Option<(Vec<Phone>, Vec<JobSpec>, Vec<FailureInjection>)>;

/// The sharded simulated deployment; see the module docs.
pub struct FleetEngine {
    fleet: Vec<Phone>,
    jobs: Vec<JobSpec>,
    injections: Vec<FailureInjection>,
    keys: Vec<u64>,
    cfg: ShardConfig,
}

impl FleetEngine {
    /// Creates a sharded engine. Default cluster keys bucket every phone
    /// by its predicted unplug probability (`cfg.base.reliability`, the
    /// profiler-derived statistic) on a single site; use
    /// [`FleetEngine::with_keys`] when real site topology is known.
    pub fn new(
        fleet: Vec<Phone>,
        jobs: Vec<JobSpec>,
        injections: Vec<FailureInjection>,
        cfg: ShardConfig,
    ) -> CwcResult<Self> {
        if fleet.is_empty() {
            return Err(CwcError::Config("empty fleet".into()));
        }
        if cfg.shards == 0 {
            return Err(CwcError::Config("shards must be >= 1".into()));
        }
        let sites = vec![0u64; fleet.len()];
        let unplug = cfg.base.reliability.as_ref().map(|(p, _)| p.as_slice());
        let keys = charging_cluster_keys(&sites, unplug);
        Ok(FleetEngine {
            fleet,
            jobs,
            injections,
            keys,
            cfg,
        })
    }

    /// Overrides the cluster keys (one per phone, e.g. from
    /// [`crate::coord::fleet::cluster_key`] over real sites).
    pub fn with_keys(mut self, keys: Vec<u64>) -> CwcResult<Self> {
        if keys.len() != self.fleet.len() {
            return Err(CwcError::Config(format!(
                "{} cluster keys for {} phones",
                keys.len(),
                self.fleet.len()
            )));
        }
        self.keys = keys;
        Ok(self)
    }

    /// The phone→shard plan this engine will run with.
    pub fn plan(&self) -> ShardPlan {
        plan_shards(&self.keys, self.cfg.shards)
    }

    /// Runs the sharded experiment to completion and merges the shards.
    pub fn run(self) -> CwcResult<FleetOutcome> {
        let plan = self.plan();
        let shards = plan.members.len();
        // Capacity weight: Σ clock×cores over members — the same proxy
        // the partition uses to balance job KB against shard horsepower.
        let weights: Vec<f64> = plan
            .members
            .iter()
            .map(|m| {
                m.iter()
                    .map(|&i| {
                        let cpu = &self.fleet[i].spec().cpu.spec;
                        f64::from(cpu.clock_mhz) * f64::from(cpu.cores)
                    })
                    .sum()
            })
            .collect();
        let mut allocator = FleetAllocator::new(&self.jobs);
        let split = partition_jobs(&self.jobs, &weights)?;

        // Sub-fleets are kept (cloned) for steal rounds.
        let shard_fleets: Vec<Vec<Phone>> = plan
            .members
            .iter()
            .map(|m| m.iter().map(|&i| self.fleet[i].clone()).collect())
            .collect();
        let id_to_index: BTreeMap<PhoneId, usize> = self
            .fleet
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id(), i))
            .collect();
        let mut shard_injections: Vec<Vec<FailureInjection>> = vec![Vec::new(); shards];
        for inj in &self.injections {
            let Some(&idx) = id_to_index.get(&inj.phone) else {
                continue;
            };
            if let Some(s) = plan.shard_of(idx) {
                shard_injections[s].push(*inj);
            }
        }

        let threads = if self.cfg.threads == 0 {
            shards
        } else {
            self.cfg.threads
        };
        let pool = WorkerPool::new(threads);
        let mut pool_steals = 0u64;

        // Initial epoch: every populated shard runs its slice.
        let inputs: Vec<ShardInput> = (0..shards)
            .map(|s| {
                if shard_fleets[s].is_empty() || split.per_shard[s].is_empty() {
                    None
                } else {
                    Some((
                        shard_fleets[s].clone(),
                        split.per_shard[s].clone(),
                        shard_injections[s].clone(),
                    ))
                }
            })
            .collect();
        let (results, stats) = self.run_epoch(&pool, inputs)?;
        pool_steals += stats;

        let mut per_shard: Vec<ShardOutcome> = Vec::with_capacity(shards);
        let mut makespan = Micros::ZERO;
        let mut survivors: Vec<usize> = Vec::new();
        for (s, outcome) in results.into_iter().enumerate() {
            if let Some(out) = &outcome {
                allocator.record_shard(
                    s,
                    &split.per_shard[s],
                    &out.completed_at,
                    out.fleet_loss.as_ref(),
                );
                if out.fleet_loss.is_none() {
                    // Solver-policy shards park residuals instead of
                    // declaring fleet loss; account the dead slots here.
                    allocator.note_lost_workers(s, out.workers_lost, out.quarantined_workers);
                }
                makespan = makespan.max(out.makespan);
                if out.workers_lost < shard_fleets[s].len() {
                    survivors.push(s);
                }
            } else if !shard_fleets[s].is_empty() {
                // Idle shard (phones but no work): a survivor for steals.
                survivors.push(s);
            }
            per_shard.push(ShardOutcome {
                shard: s,
                seed: shard_seed(self.cfg.seed, s as u64),
                phones: plan.members[s]
                    .iter()
                    .map(|&i| self.fleet[i].id())
                    .collect(),
                jobs: split.per_shard[s].len(),
                outcome,
            });
        }

        // Steal rounds: survivors re-run the dead shards' shortfall.
        let mut steal_rounds = 0u32;
        for _ in 0..MAX_STEAL_ROUNDS {
            if !allocator.has_pending() || survivors.is_empty() {
                break;
            }
            let residuals = allocator.residual_batch();
            steal_rounds += 1;
            let round_weights: Vec<f64> = (0..shards)
                .map(|s| {
                    if survivors.contains(&s) {
                        weights[s]
                    } else {
                        0.0
                    }
                })
                .collect();
            let round_split = partition_jobs(&residuals, &round_weights)?;
            let inputs: Vec<ShardInput> = (0..shards)
                .map(|s| {
                    if round_split.per_shard[s].is_empty() {
                        None
                    } else {
                        // Fresh clones: the epoch starts from plugged-in
                        // survivors (the mass-unplug already happened).
                        Some((
                            shard_fleets[s].clone(),
                            round_split.per_shard[s].clone(),
                            Vec::new(),
                        ))
                    }
                })
                .collect();
            let (results, stats) = self.run_epoch(&pool, inputs)?;
            pool_steals += stats;
            let mut epoch = Micros::ZERO;
            let mut next_survivors = Vec::new();
            for (s, outcome) in results.into_iter().enumerate() {
                if let Some(out) = &outcome {
                    allocator.record_shard(
                        s,
                        &round_split.per_shard[s],
                        &out.completed_at,
                        out.fleet_loss.as_ref(),
                    );
                    if out.fleet_loss.is_none() {
                        allocator.note_lost_workers(s, out.workers_lost, out.quarantined_workers);
                    }
                    epoch = epoch.max(out.makespan);
                    if out.workers_lost < shard_fleets[s].len() {
                        next_survivors.push(s);
                    }
                } else if survivors.contains(&s) {
                    next_survivors.push(s);
                }
            }
            makespan = Micros(makespan.0 + epoch.0);
            survivors = next_survivors;
        }

        Ok(FleetOutcome {
            makespan,
            completed_jobs: allocator.completed_jobs(),
            total_jobs: allocator.total_jobs(),
            per_shard,
            stolen_chunks: allocator.stolen_chunks(),
            steal_rounds,
            pool_steals,
            fleet_loss: allocator.fleet_summary(),
        })
    }

    /// Runs one epoch's populated shards on the pool; `None` inputs stay
    /// `None` outputs. Results come back in shard order regardless of
    /// which worker ran what.
    fn run_epoch(
        &self,
        pool: &WorkerPool,
        inputs: Vec<ShardInput>,
    ) -> CwcResult<(Vec<Option<EngineOutcome>>, u64)> {
        let base = &self.cfg.base;
        let plan_reliability = |fleet: &[Phone]| -> Option<(Vec<f64>, f64)> {
            base.reliability.as_ref().map(|(probs, alpha)| {
                // Reliability is indexed by slot: re-index to the
                // sub-fleet via the phones' original fleet positions.
                let id_probs: BTreeMap<PhoneId, f64> = self
                    .fleet
                    .iter()
                    .zip(probs.iter())
                    .map(|(p, &pr)| (p.id(), pr))
                    .collect();
                (
                    fleet
                        .iter()
                        .map(|p| id_probs.get(&p.id()).copied().unwrap_or(0.0))
                        .collect(),
                    *alpha,
                )
            })
        };
        let tasks: Vec<_> = inputs
            .into_iter()
            .map(|input| {
                let reliability = input.as_ref().and_then(|(f, _, _)| plan_reliability(f));
                let base = base.clone();
                move || -> CwcResult<Option<EngineOutcome>> {
                    let Some((fleet, jobs, injections)) = input else {
                        return Ok(None);
                    };
                    let slo = base
                        .slo
                        .iter()
                        .filter(|(id, _)| jobs.iter().any(|j| j.id == **id))
                        .map(|(id, c)| (*id, *c))
                        .collect();
                    let cfg = EngineConfig {
                        reliability,
                        slo,
                        // Independent per-shard recording: a shared obs
                        // handle would interleave shard events in
                        // wall-arrival order and break byte-identity.
                        obs: cwc_obs::Obs::new(),
                        ..base
                    };
                    Engine::new(fleet, jobs, injections, cfg)?.run().map(Some)
                }
            })
            .collect();
        let (results, stats) = pool.run(tasks);
        let mut out = Vec::with_capacity(results.len());
        for r in results {
            out.push(r?);
        }
        Ok((out, stats.steals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::FleetBuilder;
    use crate::workload::WorkloadBuilder;

    fn jobs(n: usize) -> Vec<JobSpec> {
        WorkloadBuilder::new(1)
            .breakable(n, "primecount", 30, 100, 400)
            .build()
    }

    #[test]
    fn one_shard_matches_single_kernel_engine() {
        let fleet = FleetBuilder::new(3).build();
        let plain = Engine::new(fleet.clone(), jobs(12), vec![], EngineConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let sharded = FleetEngine::new(fleet, jobs(12), vec![], ShardConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(sharded.per_shard.len(), 1);
        let shard0 = sharded.per_shard[0].outcome.as_ref().unwrap();
        assert_eq!(
            engine_digest(shard0),
            engine_digest(&plain),
            "1-shard output must be byte-identical to the single-kernel path"
        );
        assert_eq!(sharded.makespan, plain.makespan);
        assert_eq!(sharded.completed_jobs, plain.completed_jobs);
        assert_eq!(sharded.stolen_chunks, 0);
    }

    #[test]
    fn four_shards_complete_everything() {
        let fleet = FleetBuilder::new(5).houses(4).build();
        let cfg = ShardConfig {
            shards: 4,
            ..Default::default()
        };
        let out = FleetEngine::new(fleet, jobs(24), vec![], cfg)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.completed_jobs, 24);
        assert_eq!(out.total_jobs, 24);
        assert!(out.fleet_loss.is_none());
        assert_eq!(out.per_shard.len(), 4);
        assert!(out.per_shard.iter().all(|s| !s.phones.is_empty()));
    }

    #[test]
    fn shard_seeds_follow_the_splittable_scheme() {
        let fleet = FleetBuilder::new(1).build();
        let cfg = ShardConfig {
            shards: 3,
            seed: 99,
            ..Default::default()
        };
        let out = FleetEngine::new(fleet, jobs(6), vec![], cfg)
            .unwrap()
            .run()
            .unwrap();
        for sh in &out.per_shard {
            assert_eq!(sh.seed, cwc_chaos::shard_seed(99, sh.shard as u64));
        }
        // And the sim-side factory lands on the same seed.
        let streams = cwc_sim::RngStreams::new(99);
        assert_eq!(streams.shard(2).master_seed(), cwc_chaos::shard_seed(99, 2));
    }

    #[test]
    fn digest_is_stable_across_runs() {
        let mk = || {
            let fleet = FleetBuilder::new(7).houses(4).build();
            let cfg = ShardConfig {
                shards: 4,
                threads: 2,
                ..Default::default()
            };
            FleetEngine::new(fleet, jobs(20), vec![], cfg)
                .unwrap()
                .run()
                .unwrap()
        };
        assert_eq!(mk().digest(), mk().digest());
    }
}
