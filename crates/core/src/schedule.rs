//! Schedule representation, statistics, and validation.

use crate::problem::SchedProblem;
use cwc_types::{CwcError, CwcResult, JobId, KiloBytes, PhoneId};
use std::collections::BTreeMap;

/// One input partition assigned to one phone.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Target phone.
    pub phone: PhoneId,
    /// Source job.
    pub job: JobId,
    /// Partition size in KB (`l_ij`; for atomic jobs this is `L_j`).
    pub input_kb: KiloBytes,
    /// Offset of this partition within the job's input, in KB. Assigned
    /// when the server finalizes the schedule (partitions are cut in
    /// job-input order).
    pub offset_kb: KiloBytes,
}

/// A complete scheduling decision.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Assignment queue per phone, in shipping/execution order. Indexed
    /// like the problem's phone vector.
    pub per_phone: Vec<Vec<Assignment>>,
    /// The scheduler's predicted makespan in ms (e.g. the final bin
    /// capacity found by the binary search).
    pub predicted_makespan_ms: f64,
}

impl Schedule {
    /// Total number of assignments.
    pub fn num_assignments(&self) -> usize {
        self.per_phone.iter().map(Vec::len).sum()
    }

    /// Number of partitions per job. A job assigned whole to one phone
    /// has count 1 — reported as "0 input partitions" in Fig. 12b's
    /// convention (0 = unpartitioned).
    pub fn partitions_per_job(&self) -> BTreeMap<JobId, usize> {
        let mut counts: BTreeMap<JobId, usize> = BTreeMap::new();
        for a in self.per_phone.iter().flatten() {
            *counts.entry(a.job).or_insert(0) += 1;
        }
        counts
    }

    /// Fig. 12b's metric: for each job, the number of *splits* (pieces
    /// minus one), sorted ascending for CDF plotting.
    pub fn split_counts_sorted(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .partitions_per_job()
            .values()
            .map(|&n| n.saturating_sub(1))
            .collect();
        v.sort_unstable();
        v
    }

    /// Predicted per-phone completion times under the problem's cost
    /// model (the bin heights).
    pub fn predicted_heights_ms(&self, problem: &SchedProblem) -> Vec<f64> {
        let ids = JobIds::of(problem);
        // `shipped_to[j] == i`: job `j`'s executable is on phone `i`
        // already. Each phone's queue is walked once, in phone order, so
        // one stamp per job serves every phone.
        let mut shipped_to = vec![usize::MAX; problem.num_jobs()];
        self.per_phone
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut h = 0.0;
                for a in q {
                    let j = ids.index(a.job).expect("every assignment names a job");
                    h += problem.cost_ms(i, j, a.input_kb, shipped_to[j] != i);
                    shipped_to[j] = i;
                }
                h
            })
            .collect()
    }

    /// Checks every SCH constraint against the source problem, once its
    /// cost matrix is checked to still be `phones × jobs`:
    ///
    /// 1. every job's input is fully covered (`Σ_i l_ij = L_j`) with
    ///    consistent, non-overlapping offsets;
    /// 2. atomic jobs sit whole on exactly one phone;
    /// 3. no partition exceeds its phone's RAM;
    /// 4. all partitions are non-empty.
    pub fn validate(&self, problem: &SchedProblem) -> CwcResult<()> {
        problem.check_dimensions()?;
        if self.per_phone.len() != problem.num_phones() {
            return Err(CwcError::Config(format!(
                "schedule has {} phone queues, problem has {} phones",
                self.per_phone.len(),
                problem.num_phones()
            )));
        }
        let ids = JobIds::of(problem);
        // Every piece as `(job index, offset, len)` in queue order, an
        // unknown job's index past the last job; `ends[j]` counts index
        // `j`'s pieces.
        let unknown = problem.num_jobs();
        let mut pieces: Vec<(usize, u64, u64)> = Vec::with_capacity(self.num_assignments());
        let mut ends = vec![0usize; unknown + 1];
        for (i, q) in self.per_phone.iter().enumerate() {
            for a in q {
                if a.phone != problem.phones[i].id {
                    return Err(CwcError::Config(format!(
                        "assignment for {} queued on {}",
                        a.phone, problem.phones[i].id
                    )));
                }
                if a.input_kb.is_zero() {
                    return Err(CwcError::Config(format!("empty partition of {}", a.job)));
                }
                if a.input_kb.0 > problem.phones[i].ram_kb {
                    return Err(CwcError::Config(format!(
                        "partition of {} exceeds RAM of {}",
                        a.job, a.phone
                    )));
                }
                let j = ids.index(a.job).unwrap_or(unknown);
                ends[j] += 1;
                pieces.push((j, a.offset_kb.0, a.input_kb.0));
            }
        }
        // A counting sort on job index: `ends[j]` becomes the start of
        // index `j`'s run, then its end as the run fills.
        let mut start = 0;
        for end in &mut ends {
            start += std::mem::replace(end, start);
        }
        let mut runs = vec![(0u64, 0u64); pieces.len()];
        for (j, off, len) in pieces {
            runs[ends[j]] = (off, len);
            ends[j] += 1;
        }
        let mut start = 0;
        for (j, job) in problem.jobs.iter().enumerate() {
            let own = &mut runs[start..ends[j]];
            start = ends[j];
            let invalid = |reason: String| CwcError::InvalidJob {
                job: job.id,
                reason,
            };
            if own.is_empty() {
                return Err(invalid("not scheduled".into()));
            }
            // A job's few pieces, by offset.
            own.sort_unstable();
            let mut cursor = 0u64;
            for &(off, len) in own.iter() {
                if off != cursor {
                    return Err(invalid(format!(
                        "gap/overlap at offset {off} (expected {cursor})"
                    )));
                }
                cursor += len;
            }
            if cursor != job.input_kb.0 {
                return Err(invalid(format!(
                    "covered {cursor} of {} KB",
                    job.input_kb.0
                )));
            }
            if job.kind.is_atomic() && own.len() != 1 {
                return Err(invalid(format!("atomic, split into {} pieces", own.len())));
            }
        }
        if ends[unknown] > start {
            return Err(CwcError::Config("schedule references unknown jobs".into()));
        }
        Ok(())
    }
}

/// Audits a requeue round: every failed chunk must be requeued **exactly
/// once**. Callers pass `(original job, offset_kb, len_kb)` for each
/// residual about to be rescheduled. Two residuals covering overlapping
/// ranges of the same original job mean a chunk was requeued twice; a
/// zero-length residual means a vanished chunk. (That every failed chunk is
/// requeued *at least* once is guaranteed by construction — residuals are
/// drained from the failed list — and the schedule built over them is then
/// checked for full coverage by [`Schedule::validate`].)
pub fn validate_requeue<I>(residuals: I) -> CwcResult<()>
where
    I: IntoIterator<Item = (JobId, u64, u64)>,
{
    // One list sorted by job, then offset: a job's spans are adjacent.
    let mut spans: Vec<(JobId, u64, u64)> = residuals.into_iter().collect();
    if let Some((job, offset_kb, _)) = spans.iter().find(|span| span.2 == 0) {
        return Err(CwcError::Config(format!(
            "empty residual of {job} at offset {offset_kb}"
        )));
    }
    spans.sort_unstable();
    for pair in spans.windows(2) {
        let ((job, offset_kb, len_kb), (next_job, next_offset_kb, _)) = (pair[0], pair[1]);
        let prev_end = offset_kb + len_kb;
        if job == next_job && next_offset_kb < prev_end {
            return Err(CwcError::Config(format!(
                "chunk of {job} at offset {next_offset_kb} requeued more than once \
                 (previous residual extends to {prev_end})"
            )));
        }
    }
    Ok(())
}

/// Where each job id sits in a problem's job list: the index of the
/// first job carrying it.
enum JobIds {
    /// The ids run `first, first + 1, …` in job order, as in every batch
    /// the coordinator builds (residual rounds number theirs from a high
    /// base), so an id's index is its offset from `first`.
    Dense { first: u64, len: usize },
    /// Any other order: each id with its first index, by id.
    Sorted(Vec<(JobId, usize)>),
}

impl JobIds {
    fn of(problem: &SchedProblem) -> Self {
        let jobs = &problem.jobs;
        let first = jobs.first().map_or(0, |j| u64::from(j.id.0));
        if (jobs.iter().zip(first..)).all(|(j, id)| u64::from(j.id.0) == id) {
            let len = jobs.len();
            return JobIds::Dense { first, len };
        }
        let mut ids: Vec<(JobId, usize)> = jobs.iter().map(|j| j.id).zip(0..).collect();
        ids.sort_unstable();
        ids.dedup_by_key(|&mut (id, _)| id);
        JobIds::Sorted(ids)
    }

    /// The index of the first job carrying `id`, if any does.
    fn index(&self, id: JobId) -> Option<usize> {
        match self {
            JobIds::Dense { first, len } => {
                let k = u64::from(id.0).checked_sub(*first)?;
                (k < *len as u64).then_some(k as usize)
            }
            JobIds::Sorted(ids) => {
                let at = ids.binary_search_by_key(&id, |&(id, _)| id).ok()?;
                Some(ids[at].1)
            }
        }
    }
}

/// Assigns partition offsets in place: pieces of each job receive
/// consecutive offsets in (phone, queue-position) order. Called by every
/// scheduler after deciding sizes.
pub(crate) fn assign_offsets(per_phone: &mut [Vec<Assignment>], problem: &SchedProblem) {
    let ids = JobIds::of(problem);
    let mut cursor = vec![0u64; problem.num_jobs()];
    for q in per_phone.iter_mut() {
        for a in q.iter_mut() {
            let j = ids.index(a.job).expect("every assignment names a job");
            a.offset_kb = KiloBytes(cursor[j]);
            cursor[j] += a.input_kb.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_support::instance;
    use cwc_types::JobId;

    fn toy_schedule(problem: &SchedProblem) -> Schedule {
        // Jobs assigned whole to phone 0 — trivially valid when RAM allows.
        let mut per_phone: Vec<Vec<Assignment>> = vec![Vec::new(); problem.num_phones()];
        for job in &problem.jobs {
            per_phone[0].push(Assignment {
                phone: problem.phones[0].id,
                job: job.id,
                input_kb: job.input_kb,
                offset_kb: KiloBytes::ZERO,
            });
        }
        assign_offsets(&mut per_phone, problem);
        Schedule {
            per_phone,
            predicted_makespan_ms: 0.0,
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let problem = instance(3, 4);
        let s = toy_schedule(&problem);
        s.validate(&problem).unwrap();
    }

    #[test]
    fn missing_job_fails() {
        let problem = instance(2, 3);
        let mut s = toy_schedule(&problem);
        s.per_phone[0].pop();
        assert!(s.validate(&problem).is_err());
    }

    #[test]
    fn split_atomic_fails() {
        let problem = instance(2, 3);
        let mut s = toy_schedule(&problem);
        // Job index 2 is atomic in the test fixture; split it.
        let atomic_pos = s.per_phone[0]
            .iter()
            .position(|a| problem.jobs[a.job.index()].kind.is_atomic())
            .unwrap();
        let original = s.per_phone[0][atomic_pos].clone();
        let half = KiloBytes(original.input_kb.0 / 2);
        s.per_phone[0][atomic_pos].input_kb = half;
        s.per_phone[1].push(Assignment {
            phone: problem.phones[1].id,
            job: original.job,
            input_kb: original.input_kb - half,
            offset_kb: half,
        });
        assert!(s.validate(&problem).is_err());
    }

    #[test]
    fn coverage_gap_fails() {
        let problem = instance(2, 2);
        let mut s = toy_schedule(&problem);
        s.per_phone[0][0].input_kb = KiloBytes(s.per_phone[0][0].input_kb.0 - 1);
        assert!(s.validate(&problem).is_err());
    }

    #[test]
    fn ram_violation_fails() {
        let mut problem = instance(2, 2);
        problem.phones[0].ram_kb = 10;
        let s = toy_schedule(&problem);
        assert!(s.validate(&problem).is_err());
    }

    /// `s`'s first validation error, as displayed.
    fn first_error(s: &Schedule, problem: &SchedProblem) -> String {
        s.validate(problem).unwrap_err().to_string()
    }

    /// `s`'s first validation error, which must be a per-job one: the job
    /// it names and its reason. The kernel renames exactly this variant's
    /// positional id to the batch id, so every per-job failure must be it.
    fn invalid_job(s: &Schedule, problem: &SchedProblem) -> (JobId, String) {
        match s.validate(problem) {
            Err(CwcError::InvalidJob { job, reason }) => (job, reason),
            other => panic!("expected InvalidJob, got {other:?}"),
        }
    }

    #[test]
    fn an_assignment_on_another_phones_queue_is_named() {
        let problem = instance(3, 4);
        let mut s = toy_schedule(&problem);
        s.per_phone[0][1].phone = problem.phones[2].id;
        let (p0, p2) = (problem.phones[0].id, problem.phones[2].id);
        assert_eq!(
            first_error(&s, &problem),
            format!("configuration error: assignment for {p2} queued on {p0}")
        );
    }

    #[test]
    fn an_empty_partition_is_named() {
        let problem = instance(3, 4);
        let mut s = toy_schedule(&problem);
        s.per_phone[0][3].input_kb = KiloBytes::ZERO;
        let job = problem.jobs[3].id;
        assert_eq!(
            first_error(&s, &problem),
            format!("configuration error: empty partition of {job}")
        );
    }

    #[test]
    fn a_partition_over_its_phones_ram_is_named() {
        let mut problem = instance(3, 4);
        // Jobs 0 and 1 hold 200 and 350 KB: the second is the first over.
        problem.phones[0].ram_kb = 300;
        let s = toy_schedule(&problem);
        let (job, phone) = (problem.jobs[1].id, problem.phones[0].id);
        assert_eq!(
            first_error(&s, &problem),
            format!("configuration error: partition of {job} exceeds RAM of {phone}")
        );
    }

    #[test]
    fn a_gap_or_overlap_names_the_offset_it_expected() {
        let problem = instance(3, 4);
        let mut s = toy_schedule(&problem);
        s.per_phone[0][1].offset_kb = KiloBytes(5);
        let job = problem.jobs[1].id;
        assert_eq!(
            invalid_job(&s, &problem),
            (job, "gap/overlap at offset 5 (expected 0)".into())
        );
    }

    #[test]
    fn a_short_cover_names_what_was_covered() {
        let problem = instance(3, 4);
        let mut s = toy_schedule(&problem);
        s.per_phone[0][0].input_kb = KiloBytes(199);
        let job = problem.jobs[0].id;
        assert_eq!(
            invalid_job(&s, &problem),
            (job, "covered 199 of 200 KB".into())
        );
    }

    #[test]
    fn a_split_atomic_job_names_its_pieces() {
        let problem = instance(3, 4);
        let mut s = toy_schedule(&problem);
        // Job 2 is atomic (500 KB); cut it in two on phone 0.
        let mut tail = s.per_phone[0][2].clone();
        s.per_phone[0][2].input_kb = KiloBytes(100);
        tail.input_kb = KiloBytes(400);
        tail.offset_kb = KiloBytes(100);
        s.per_phone[0].push(tail);
        let job = problem.jobs[2].id;
        assert_eq!(
            invalid_job(&s, &problem),
            (job, "atomic, split into 2 pieces".into())
        );
    }

    #[test]
    fn an_unscheduled_job_is_named() {
        let problem = instance(3, 4);
        let mut s = toy_schedule(&problem);
        s.per_phone[0].remove(1);
        let job = problem.jobs[1].id;
        assert_eq!(invalid_job(&s, &problem), (job, "not scheduled".into()));
    }

    #[test]
    fn an_assignment_of_an_unknown_job_is_refused() {
        let problem = instance(3, 4);
        let mut s = toy_schedule(&problem);
        let mut stray = s.per_phone[0][0].clone();
        stray.job = JobId(99);
        s.per_phone[1].push(Assignment {
            phone: problem.phones[1].id,
            ..stray
        });
        assert_eq!(
            first_error(&s, &problem),
            "configuration error: schedule references unknown jobs"
        );
    }

    #[test]
    fn the_first_error_is_per_assignment_then_per_job_in_problem_order() {
        let problem = instance(3, 4);
        // An unknown job on phone 0 and an empty partition on phone 1:
        // every assignment is checked before any job's cover.
        let mut s = toy_schedule(&problem);
        let mut stray = s.per_phone[0][0].clone();
        stray.job = JobId(99);
        s.per_phone[0].insert(0, stray);
        let mut empty = s.per_phone[0][4].clone();
        empty.phone = problem.phones[1].id;
        empty.input_kb = KiloBytes::ZERO;
        s.per_phone[1].push(empty);
        let job = problem.jobs[3].id;
        assert_eq!(
            first_error(&s, &problem),
            format!("configuration error: empty partition of {job}")
        );
        // Job 3's gap, job 1 unscheduled and an unknown job: jobs are
        // walked in problem order, unknown jobs last.
        let mut s = toy_schedule(&problem);
        s.per_phone[0][3].offset_kb = KiloBytes(1);
        s.per_phone[0].remove(1);
        let mut stray = s.per_phone[0][0].clone();
        stray.job = JobId(99);
        s.per_phone[2].push(Assignment {
            phone: problem.phones[2].id,
            ..stray
        });
        let job = problem.jobs[1].id;
        assert_eq!(invalid_job(&s, &problem), (job, "not scheduled".into()));
    }

    #[test]
    fn per_job_failures_name_the_jobs_id_not_its_position() {
        // Ids in reverse of position: a failure naming the index instead
        // of the id names another job.
        let mut problem = instance(3, 4);
        for (k, job) in problem.jobs.iter_mut().enumerate() {
            job.id = JobId(40 - 10 * k as u32);
        }
        let named = |s: &Schedule| invalid_job(s, &problem).0;
        let mut unscheduled = toy_schedule(&problem);
        unscheduled.per_phone[0].remove(1);
        assert_eq!(named(&unscheduled), JobId(30));
        let mut gap = toy_schedule(&problem);
        gap.per_phone[0][1].offset_kb = KiloBytes(5);
        assert_eq!(named(&gap), JobId(30));
        let mut short = toy_schedule(&problem);
        short.per_phone[0][0].input_kb = KiloBytes(199);
        assert_eq!(named(&short), JobId(40));
        let mut split = toy_schedule(&problem);
        let mut tail = split.per_phone[0][2].clone();
        split.per_phone[0][2].input_kb = KiloBytes(100);
        tail.input_kb = KiloBytes(400);
        tail.offset_kb = KiloBytes(100);
        split.per_phone[0].push(tail);
        assert_eq!(named(&split), JobId(20));
    }

    #[test]
    fn a_job_id_carried_twice_is_covered_by_its_first_job_only() {
        let mut problem = instance(3, 4);
        problem.jobs[3].id = problem.jobs[1].id;
        problem.jobs[3].input_kb = problem.jobs[1].input_kb;
        // Both jobs' pieces are one job's to the schedule, cut at
        // consecutive offsets: the first job's cover runs past its input.
        let s = toy_schedule(&problem);
        let job = problem.jobs[1].id;
        assert_eq!(
            invalid_job(&s, &problem),
            (job, "covered 700 of 350 KB".into())
        );
    }

    #[test]
    fn heights_match_cost_model_with_one_exe_per_pair() {
        let problem = instance(2, 1);
        // Two partitions of job 0 on phone 0: exe paid once.
        let job = &problem.jobs[0];
        let half = KiloBytes(job.input_kb.0 / 2);
        let mut per_phone = vec![
            vec![
                Assignment {
                    phone: problem.phones[0].id,
                    job: job.id,
                    input_kb: half,
                    offset_kb: KiloBytes::ZERO,
                },
                Assignment {
                    phone: problem.phones[0].id,
                    job: job.id,
                    input_kb: job.input_kb - half,
                    offset_kb: half,
                },
            ],
            vec![],
        ];
        assign_offsets(&mut per_phone, &problem);
        let s = Schedule {
            per_phone,
            predicted_makespan_ms: 0.0,
        };
        s.validate(&problem).unwrap();
        let h = s.predicted_heights_ms(&problem);
        let expect = problem.cost_ms(0, 0, job.input_kb, true);
        assert!((h[0] - expect).abs() < 1e-9, "{} vs {expect}", h[0]);
        assert_eq!(h[1], 0.0);
    }

    #[test]
    fn partition_statistics() {
        let problem = instance(3, 3);
        let s = toy_schedule(&problem);
        let counts = s.partitions_per_job();
        assert!(counts.values().all(|&n| n == 1));
        let splits = s.split_counts_sorted();
        assert_eq!(splits, vec![0, 0, 0]);
    }
}
