//! Fleet sharding: phone partitioning and the cross-shard allocator
//! (DESIGN.md §15).
//!
//! A million-phone fleet cannot be scheduled by one kernel — the greedy
//! CBP pack costs ~|P|·|J| per probe, so one coordinator caps scheduling
//! throughput no matter how fast PR 5 made the packer. This module holds
//! the **sans-IO** half of the sharding layer:
//!
//! * [`plan_shards`] — deterministic phone→shard assignment that keeps
//!   site/charging-pattern clusters together ([`cluster_key`] buckets a
//!   phone by its site and its profiler-predicted unplug probability, the
//!   same statistic `overnight::OvernightPlan::fail_prob` derives from
//!   the behavioral study), so a house-wide outage or a morning unplug
//!   wave lands on few shards instead of all of them;
//! * [`FleetAllocator`] — the bookkeeping state machine over per-shard
//!   results of a batch split by [`cwc_core::partition_jobs`]: it
//!   merges per-shard completions and [`FleetLoss`] summaries in job-id
//!   order (BTreeMap discipline), and turns the shortfall of a dead
//!   shard into a **residual batch** for the survivors — the work-
//!   stealing protocol between shards.
//!
//! The thread pool, engines, and clocks live *outside* this module (in
//! [`crate::shard`]); everything here is pure state, which is what keeps
//! the determinism and sans-IO lint families and the byte-identity
//! proofs applicable to the allocator exactly as they are to the kernel.

use super::kernel::FleetLoss;
use cwc_types::{JobId, JobSpec, KiloBytes, Micros};
use std::collections::BTreeMap;

/// Buckets a phone for shard planning: phones that share a site and a
/// charging-risk quartile belong to the same cluster. `unplug_prob` is
/// the profiler-derived probability of unplugging during the run window
/// (0 when no behavioral history is available).
pub fn cluster_key(site: u64, unplug_prob: f64) -> u64 {
    let quartile = (unplug_prob.clamp(0.0, 1.0) * 4.0).min(3.0) as u64;
    site * 4 + quartile
}

/// Convenience over [`cluster_key`] for a whole fleet: `sites[i]` is
/// phone `i`'s site (house / AP), `unplug[i]` its predicted unplug
/// probability (all zero when `None`).
pub fn charging_cluster_keys(sites: &[u64], unplug: Option<&[f64]>) -> Vec<u64> {
    sites
        .iter()
        .enumerate()
        .map(|(i, &site)| {
            let p = unplug.and_then(|u| u.get(i).copied()).unwrap_or(0.0);
            cluster_key(site, p)
        })
        .collect()
}

/// Deterministic phone→shard assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Per shard: member phone indices, ascending. Some trailing shards
    /// may be empty when there are fewer phones than shards.
    pub members: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Number of shards with at least one phone.
    pub fn active_shards(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// The shard owning phone index `phone`, if any.
    pub fn shard_of(&self, phone: usize) -> Option<usize> {
        self.members
            .iter()
            .position(|m| m.binary_search(&phone).is_ok())
    }
}

/// Partitions phone indices `0..keys.len()` across `shards` shards.
///
/// Phones are grouped by cluster key; clusters are laid out in ascending
/// key order and cut into contiguous runs of `ceil(n / shards)`, so a
/// cluster is kept whole unless it alone exceeds a shard's share. With
/// one shard the plan is the identity (the sharded-equivalence anchor).
pub fn plan_shards(keys: &[u64], shards: usize) -> ShardPlan {
    let shards = shards.max(1);
    let n = keys.len();
    if shards == 1 {
        return ShardPlan {
            members: vec![(0..n).collect()],
        };
    }
    let mut clusters: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (idx, &key) in keys.iter().enumerate() {
        clusters.entry(key).or_default().push(idx);
    }
    let target = n.div_ceil(shards);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut shard = 0;
    for (_, cluster) in clusters {
        for idx in cluster {
            if members[shard].len() >= target && shard + 1 < shards {
                shard += 1;
            }
            members[shard].push(idx);
        }
    }
    for m in &mut members {
        m.sort_unstable();
    }
    ShardPlan { members }
}

/// Cross-shard bookkeeping: job splitting, completion merging, loss
/// aggregation, and the residual-stealing protocol. Pure state — the
/// driver in [`crate::shard`] owns every thread and clock.
///
/// Mutation discipline: like the kernel's bookkeeping, the allocator's
/// accounting fields are private, so only this file can assign them (a
/// write from any other module does not compile), and the conservation
/// invariant — every KB of every job is exactly one of *done*, *pending
/// residual*, or *lost* — survives refactors of the drivers around it.
#[derive(Debug, Clone)]
pub struct FleetAllocator {
    /// Parent specs by id (program, executable, kind) for residual
    /// reconstruction.
    catalog: BTreeMap<JobId, JobSpec>,
    /// Total input KB per job, from the original batch.
    expected_kb: BTreeMap<JobId, u64>,
    /// Input KB confirmed completed, per job, across all shards and
    /// steal rounds.
    done_kb: BTreeMap<JobId, u64>,
    /// Shortfall awaiting redistribution (filled by `record_shard`,
    /// drained by `residual_batch`).
    pending_kb: BTreeMap<JobId, u64>,
    /// Workers lost across all shards (aggregated `FleetLoss`).
    lost_workers: usize,
    /// Of those, quarantined by shard circuit breakers.
    lost_quarantined: usize,
    /// Human-readable per-shard loss accounts.
    loss_detail: Vec<String>,
    /// Residual chunks handed to survivor shards so far.
    chunks_stolen: u64,
    /// Completed steal rounds.
    rounds_stolen: u32,
}

impl FleetAllocator {
    /// An allocator over the original job batch.
    pub fn new(jobs: &[JobSpec]) -> FleetAllocator {
        FleetAllocator {
            catalog: jobs.iter().map(|j| (j.id, j.clone())).collect(),
            expected_kb: jobs.iter().map(|j| (j.id, j.input_kb.0)).collect(),
            done_kb: BTreeMap::new(),
            pending_kb: BTreeMap::new(),
            lost_workers: 0,
            lost_quarantined: 0,
            loss_detail: Vec::new(),
            chunks_stolen: 0,
            rounds_stolen: 0,
        }
    }

    /// Folds one shard's outcome into the fleet account. `assigned` is
    /// the slice list that shard ran, `completed` the per-job completion
    /// times its kernel reported, `loss` its graceful-degradation summary
    /// (if its fleet died). Any slice neither completed nor covered by
    /// the loss shortfall becomes a pending residual too — an unfinished
    /// slice must be re-run somewhere regardless of why it stalled.
    pub fn record_shard(
        &mut self,
        shard: usize,
        assigned: &[JobSpec],
        completed: &BTreeMap<JobId, Micros>,
        loss: Option<&FleetLoss>,
    ) {
        for slice in assigned {
            let slice_kb = slice.input_kb.0;
            if completed.contains_key(&slice.id) {
                *self.done_kb.entry(slice.id).or_default() += slice_kb;
                continue;
            }
            let shortfall = loss
                .map(|l| l.unprocessed_kb.get(&slice.id).copied().unwrap_or(slice_kb))
                .unwrap_or(slice_kb)
                .min(slice_kb);
            *self.done_kb.entry(slice.id).or_default() += slice_kb - shortfall;
            if shortfall > 0 {
                *self.pending_kb.entry(slice.id).or_default() += shortfall;
            }
        }
        if let Some(l) = loss {
            self.lost_workers += l.workers_lost;
            self.lost_quarantined += l.quarantined;
            self.loss_detail
                .push(format!("shard {shard}: {}", l.detail));
        }
    }

    /// Accounts worker losses a shard's kernel observed without reaching
    /// its graceful-degradation summary (under the solver reschedule
    /// policy a fully-dead shard parks residuals waiting for a replug, so
    /// its engine ends with dead slots but no [`FleetLoss`]). Callers
    /// pass this *instead of* `record_shard`'s `loss` accounting, never
    /// in addition — double-reporting the same phones would inflate the
    /// fleet summary.
    pub fn note_lost_workers(&mut self, shard: usize, workers: usize, quarantined: usize) {
        if workers == 0 {
            return;
        }
        self.lost_workers += workers;
        self.lost_quarantined += quarantined;
        self.loss_detail
            .push(format!("shard {shard}: {workers} worker(s) lost"));
    }

    /// Drains the pending shortfall into a residual job batch for the
    /// survivor shards (the steal protocol): per job, one chunk of the
    /// missing KB, atomic jobs staying atomic, ids preserved so later
    /// completions merge onto the same accounts. Returns an empty vec
    /// when nothing is pending; otherwise bumps the steal counters.
    pub fn residual_batch(&mut self) -> Vec<JobSpec> {
        if self.pending_kb.is_empty() {
            return Vec::new();
        }
        let pending = std::mem::take(&mut self.pending_kb);
        let mut batch = Vec::with_capacity(pending.len());
        for (id, kb) in pending {
            let Some(parent) = self.catalog.get(&id) else {
                continue; // unknown id: drop rather than invent a spec
            };
            let spec = if parent.kind.is_atomic() {
                JobSpec::atomic(id, parent.program.as_str(), parent.exe_kb, KiloBytes(kb))
            } else {
                JobSpec::breakable(id, parent.program.as_str(), parent.exe_kb, KiloBytes(kb))
            };
            batch.push(spec);
        }
        self.chunks_stolen += batch.len() as u64;
        self.rounds_stolen += 1;
        batch
    }

    /// Whether any shortfall is awaiting a steal round.
    pub fn has_pending(&self) -> bool {
        !self.pending_kb.is_empty()
    }

    /// Residual chunks redistributed so far.
    pub fn stolen_chunks(&self) -> u64 {
        self.chunks_stolen
    }

    /// Steal rounds executed so far.
    pub fn steal_rounds(&self) -> u32 {
        self.rounds_stolen
    }

    /// Jobs whose every KB completed.
    pub fn completed_jobs(&self) -> usize {
        self.expected_kb
            .iter()
            .filter(|(id, &kb)| self.done_kb.get(id).copied().unwrap_or(0) >= kb)
            .count()
    }

    /// Total jobs in the original batch.
    pub fn total_jobs(&self) -> usize {
        self.expected_kb.len()
    }

    /// The aggregated cross-shard failure summary, if any KB of any job
    /// is still unprocessed (and not pending a steal round). `None`
    /// means the fleet completed everything.
    pub fn fleet_summary(&self) -> Option<FleetLoss> {
        let mut unprocessed: BTreeMap<JobId, u64> = BTreeMap::new();
        for (&id, &expected) in &self.expected_kb {
            let done = self.done_kb.get(&id).copied().unwrap_or(0);
            let pending = self.pending_kb.get(&id).copied().unwrap_or(0);
            let missing = expected.saturating_sub(done + pending);
            if missing > 0 {
                unprocessed.insert(id, missing);
            }
        }
        if unprocessed.is_empty() && self.lost_workers == 0 {
            return None;
        }
        Some(FleetLoss {
            workers_lost: self.lost_workers,
            quarantined: self.lost_quarantined,
            unprocessed_kb: unprocessed,
            detail: self.loss_detail.join("; "),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_core::partition_jobs;

    fn jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::breakable(JobId(0), "primecount", KiloBytes(30), KiloBytes(600)),
            JobSpec::atomic(JobId(1), "photoblur", KiloBytes(40), KiloBytes(300)),
            JobSpec::breakable(JobId(2), "primecount", KiloBytes(30), KiloBytes(500)),
        ]
    }

    #[test]
    fn one_shard_plan_is_identity() {
        let plan = plan_shards(&[5, 5, 7, 7, 7, 9], 1);
        assert_eq!(plan.members, vec![vec![0, 1, 2, 3, 4, 5]]);
    }

    #[test]
    fn clusters_stay_together_when_they_fit() {
        // Two clusters of 3 over 2 shards: one cluster per shard.
        let keys = [4u64, 9, 4, 9, 4, 9];
        let plan = plan_shards(&keys, 2);
        assert_eq!(plan.members[0], vec![0, 2, 4], "key-4 cluster");
        assert_eq!(plan.members[1], vec![1, 3, 5], "key-9 cluster");
    }

    #[test]
    fn oversized_cluster_is_cut_contiguously() {
        let keys = [1u64; 10];
        let plan = plan_shards(&keys, 4);
        assert_eq!(
            plan.members.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 3, 3, 1]
        );
        assert_eq!(plan.active_shards(), 4);
    }

    #[test]
    fn more_shards_than_phones_leaves_trailing_shards_empty() {
        let plan = plan_shards(&[1, 2], 4);
        assert_eq!(plan.active_shards(), 2);
        assert_eq!(plan.members.len(), 4);
        assert_eq!(plan.shard_of(1), Some(1));
        assert_eq!(plan.shard_of(7), None);
    }

    #[test]
    fn cluster_key_buckets_by_risk_quartile() {
        assert_eq!(cluster_key(3, 0.0), 12);
        assert_eq!(cluster_key(3, 0.3), 13);
        assert_eq!(cluster_key(3, 0.99), 15);
        assert_eq!(cluster_key(3, 1.0), 15, "p=1 stays in the top quartile");
    }

    #[test]
    fn allocator_merges_clean_completion() {
        let jobs = jobs();
        let mut alloc = FleetAllocator::new(&jobs);
        let split = partition_jobs(&jobs, &[1.0, 1.0]).unwrap();
        for shard in 0..2 {
            let done: BTreeMap<JobId, Micros> = split.per_shard[shard]
                .iter()
                .map(|j| (j.id, Micros(1)))
                .collect();
            alloc.record_shard(shard, &split.per_shard[shard], &done, None);
        }
        assert_eq!(alloc.completed_jobs(), 3);
        assert!(alloc.fleet_summary().is_none());
        assert!(!alloc.has_pending());
    }

    #[test]
    fn dead_shard_shortfall_becomes_a_residual_batch() {
        let jobs = jobs();
        let mut alloc = FleetAllocator::new(&jobs);
        let split = partition_jobs(&jobs, &[1.0, 1.0]).unwrap();
        // Shard 0 completes; shard 1 dies having processed nothing.
        let done: BTreeMap<JobId, Micros> = split.per_shard[0]
            .iter()
            .map(|j| (j.id, Micros(1)))
            .collect();
        alloc.record_shard(0, &split.per_shard[0], &done, None);
        let loss = FleetLoss {
            workers_lost: 6,
            quarantined: 1,
            unprocessed_kb: split.per_shard[1]
                .iter()
                .map(|j| (j.id, j.input_kb.0))
                .collect(),
            detail: "all phones unplugged".into(),
        };
        alloc.record_shard(1, &split.per_shard[1], &BTreeMap::new(), Some(&loss));
        assert!(alloc.has_pending());
        let batch = alloc.residual_batch();
        assert_eq!(batch.len(), split.per_shard[1].len());
        assert_eq!(alloc.stolen_chunks(), batch.len() as u64);
        assert_eq!(alloc.steal_rounds(), 1);
        // Kind and id are preserved.
        for residual in &batch {
            let parent = &jobs.iter().find(|j| j.id == residual.id).unwrap();
            assert_eq!(residual.kind.is_atomic(), parent.kind.is_atomic());
        }
        // A survivor completing the batch closes the account.
        let done: BTreeMap<JobId, Micros> = batch.iter().map(|j| (j.id, Micros(2))).collect();
        alloc.record_shard(0, &batch, &done, None);
        assert_eq!(alloc.completed_jobs(), 3);
        // Lost workers keep the summary present even with all KB done.
        let summary = alloc.fleet_summary().unwrap();
        assert_eq!(summary.workers_lost, 6);
        assert!(summary.unprocessed_kb.is_empty());
    }

    #[test]
    fn unfinished_slice_without_loss_is_still_stolen() {
        let jobs = jobs();
        let mut alloc = FleetAllocator::new(&jobs);
        // One shard, nothing completed, no loss report (e.g. horizon hit).
        alloc.record_shard(0, &jobs, &BTreeMap::new(), None);
        let batch = alloc.residual_batch();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.iter().map(|j| j.input_kb.0).sum::<u64>(), 1_400);
    }
}
