//! Problem partitioning for sharded coordination (DESIGN.md §15).
//!
//! A million-phone fleet is scheduled as N independent kernel shards;
//! this module decides what slice of the job batch each shard sees. The
//! split must be **deterministic** (sharded runs are byte-identical
//! across thread counts), must degenerate to the **identity** at one
//! shard (the sharded-equivalence contract: 1 shard ≡ the single-kernel
//! path), and should shrink the per-shard packing problem in *both*
//! dimensions — the greedy CBP search costs ~|P|·|J| per probe, so
//! handing every shard the full job list would only buy thread-level
//! parallelism, not algorithmic headroom.
//!
//! The rule, per job, in input order:
//!
//! * A **breakable** job whose input exceeds the mean active-shard load
//!   (`total_kb / active_shards`) is *divided*: its `input_kb` splits
//!   across all active shards proportionally to shard capacity weight
//!   (largest-remainder rounding, whole-KB slices, zero slices dropped).
//!   This is the "split a job's input across shards" path — one giant
//!   job still uses the whole fleet.
//! * Every other job (small breakables and all **atomics** — an atomic
//!   job must execute on one phone, hence live inside one shard) is
//!   assigned *whole* to the shard that finishes it earliest under the
//!   capacity weights (LPT: jobs considered largest-first, ties by
//!   input order; shard ties by lowest shard id).
//!
//! Slices keep the parent [`JobId`], so per-shard completions merge back
//! onto the original batch without a translation table.

use cwc_types::{CwcError, CwcResult, JobId, JobSpec, KiloBytes};
use std::collections::BTreeMap;

/// One shard's share of a partitioned job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlice {
    /// Which shard executes this slice.
    pub shard: usize,
    /// Slice length in KB (the whole job for unsplit assignments).
    pub kb: u64,
}

/// The deterministic outcome of [`partition_jobs`].
#[derive(Debug, Clone)]
pub struct JobPartition {
    /// Per-shard job lists, in the original batch order. Slices keep the
    /// parent job's id, program, executable size, and kind.
    pub per_shard: Vec<Vec<JobSpec>>,
    /// Per job: where its input went. Unsplit jobs have one slice.
    pub slices: BTreeMap<JobId, Vec<ShardSlice>>,
}

/// Splits `jobs` across `weights.len()` shards (see module docs for the
/// rule). `weights[s]` is shard `s`'s capacity proxy — any non-negative
/// scale (phone count, Σ clock×cores); shards with zero weight receive
/// nothing. Errors if no shard has positive weight.
pub fn partition_jobs(jobs: &[JobSpec], weights: &[f64]) -> CwcResult<JobPartition> {
    let active: Vec<usize> = weights
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0.0)
        .map(|(s, _)| s)
        .collect();
    if active.is_empty() {
        return Err(CwcError::Config(
            "partition_jobs: no shard has positive weight".into(),
        ));
    }
    let total_weight: f64 = active.iter().map(|&s| weights[s]).sum();
    let total_kb: u64 = jobs.iter().map(|j| j.input_kb.0).sum();
    // A breakable job bigger than the mean active-shard load would
    // dominate whichever shard it landed on whole; divide it instead.
    let split_threshold = total_kb / active.len() as u64;

    // Indexed per-shard accumulation keeps the final lists in input order.
    let mut assigned: Vec<Vec<(usize, JobSpec)>> = vec![Vec::new(); weights.len()];
    let mut slices: BTreeMap<JobId, Vec<ShardSlice>> = BTreeMap::new();
    let mut load: Vec<f64> = vec![0.0; weights.len()];

    // Whole-job assignments go largest-first (LPT) for balance; `order`
    // remembers each job's batch position for the final ordering.
    let mut whole: Vec<usize> = Vec::new();
    for (pos, job) in jobs.iter().enumerate() {
        let splittable =
            !job.kind.is_atomic() && active.len() > 1 && job.input_kb.0 > split_threshold;
        if !splittable {
            whole.push(pos);
            continue;
        }
        // Proportional split, largest-remainder rounding to whole KB.
        let kb = job.input_kb.0;
        let mut cut: Vec<(usize, u64, f64)> = active
            .iter()
            .map(|&s| {
                let exact = kb as f64 * weights[s] / total_weight;
                (s, exact as u64, exact - (exact as u64) as f64)
            })
            .collect();
        let assigned_kb: u64 = cut.iter().map(|&(_, floor, _)| floor).sum();
        let mut remainder = kb - assigned_kb;
        // Hand leftover KB to the largest fractional remainders; ties by
        // lowest shard id (sort is stable over the shard-ordered input).
        let mut by_frac: Vec<usize> = (0..cut.len()).collect();
        by_frac.sort_by(|&a, &b| {
            cut[b]
                .2
                .partial_cmp(&cut[a].2)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for i in by_frac {
            if remainder == 0 {
                break;
            }
            cut[i].1 += 1;
            remainder -= 1;
        }
        for (s, slice_kb, _) in cut {
            if slice_kb == 0 {
                continue;
            }
            let slice = JobSpec::breakable(
                job.id,
                job.program.as_str(),
                job.exe_kb,
                KiloBytes(slice_kb),
            );
            load[s] += slice_kb as f64 / weights[s];
            assigned[s].push((pos, slice));
            slices.entry(job.id).or_default().push(ShardSlice {
                shard: s,
                kb: slice_kb,
            });
        }
    }

    // LPT over the remaining whole jobs: biggest first, placed on the
    // shard with the earliest weighted finish time.
    whole.sort_by(|&a, &b| jobs[b].input_kb.0.cmp(&jobs[a].input_kb.0).then(a.cmp(&b)));
    for pos in whole {
        let job = &jobs[pos];
        let mut best = active[0];
        let mut best_finish = f64::INFINITY;
        for &s in &active {
            let finish = (load[s] * weights[s] + job.input_kb.0 as f64) / weights[s];
            if finish < best_finish {
                best_finish = finish;
                best = s;
            }
        }
        load[best] += job.input_kb.0 as f64 / weights[best];
        assigned[best].push((pos, job.clone()));
        slices.entry(job.id).or_default().push(ShardSlice {
            shard: best,
            kb: job.input_kb.0,
        });
    }

    let per_shard = assigned
        .into_iter()
        .map(|mut jobs| {
            jobs.sort_by_key(|&(pos, _)| pos);
            jobs.into_iter().map(|(_, j)| j).collect()
        })
        .collect();
    Ok(JobPartition { per_shard, slices })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total KB the partition assigned to `shard`.
    fn shard_kb(p: &JobPartition, shard: usize) -> u64 {
        p.per_shard[shard].iter().map(|j| j.input_kb.0).sum()
    }

    fn batch() -> Vec<JobSpec> {
        (0..12)
            .map(|j| {
                let id = JobId::from_index(j);
                let kb = KiloBytes(100 + (j as u64 * 137) % 900);
                if j % 3 == 2 {
                    JobSpec::atomic(id, "photoblur", KiloBytes(40), kb)
                } else {
                    JobSpec::breakable(id, "primecount", KiloBytes(30), kb)
                }
            })
            .collect()
    }

    #[test]
    fn one_shard_is_the_identity() {
        let jobs = batch();
        let p = partition_jobs(&jobs, &[3.0]).unwrap();
        assert_eq!(p.per_shard.len(), 1);
        assert_eq!(
            p.per_shard[0], jobs,
            "1-shard partition must not reorder or resize"
        );
        assert!(p.slices.values().all(|s| s.len() == 1), "no job divided");
    }

    #[test]
    fn input_kb_is_conserved() {
        let jobs = batch();
        for shards in [1usize, 2, 3, 4, 8] {
            let weights: Vec<f64> = (0..shards).map(|s| 1.0 + s as f64).collect();
            let p = partition_jobs(&jobs, &weights).unwrap();
            let total: u64 = (0..shards).map(|s| shard_kb(&p, s)).sum();
            assert_eq!(total, jobs.iter().map(|j| j.input_kb.0).sum::<u64>());
            for job in &jobs {
                let sliced: u64 = p.slices[&job.id].iter().map(|s| s.kb).sum();
                assert_eq!(sliced, job.input_kb.0, "job {:?}", job.id);
            }
        }
    }

    #[test]
    fn atomic_jobs_are_never_divided() {
        let jobs = batch();
        let p = partition_jobs(&jobs, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        for job in jobs.iter().filter(|j| j.kind.is_atomic()) {
            assert_eq!(
                p.slices[&job.id].len(),
                1,
                "atomic {:?} was divided",
                job.id
            );
        }
    }

    #[test]
    fn oversized_breakable_jobs_divide_across_shards() {
        let mut jobs = batch();
        jobs.push(JobSpec::breakable(
            JobId::from_index(99),
            "primecount",
            KiloBytes(30),
            KiloBytes(50_000),
        ));
        let p = partition_jobs(&jobs, &[1.0, 2.0, 1.0]).unwrap();
        let slices = &p.slices[&JobId::from_index(99)];
        assert_eq!(slices.len(), 3, "the giant job must use every shard");
        // Proportional to weight: the 2.0 shard gets ~half.
        let mid = slices.iter().find(|s| s.shard == 1).unwrap().kb;
        assert!((24_000..=26_000).contains(&mid), "mid slice {mid}");
    }

    #[test]
    fn zero_weight_shards_receive_nothing() {
        let jobs = batch();
        let p = partition_jobs(&jobs, &[1.0, 0.0, 1.0]).unwrap();
        assert!(p.per_shard[1].is_empty());
        assert_eq!(shard_kb(&p, 1), 0);
    }

    #[test]
    fn no_positive_weight_is_an_error() {
        assert!(partition_jobs(&batch(), &[0.0, 0.0]).is_err());
    }

    #[test]
    fn deterministic_across_calls() {
        let jobs = batch();
        let a = partition_jobs(&jobs, &[1.0, 3.0, 2.0]).unwrap();
        let b = partition_jobs(&jobs, &[1.0, 3.0, 2.0]).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn whole_assignment_balances_by_weight() {
        // 60 equal jobs over weights 1:3 → the heavy shard gets ~3x the KB.
        let jobs: Vec<JobSpec> = (0..60)
            .map(|j| {
                JobSpec::breakable(
                    JobId::from_index(j),
                    "primecount",
                    KiloBytes(30),
                    KiloBytes(100),
                )
            })
            .collect();
        let p = partition_jobs(&jobs, &[1.0, 3.0]).unwrap();
        let light = shard_kb(&p, 0) as f64;
        let heavy = shard_kb(&p, 1) as f64;
        let ratio = heavy / light;
        assert!((2.0..4.5).contains(&ratio), "imbalance ratio {ratio}");
    }
}
