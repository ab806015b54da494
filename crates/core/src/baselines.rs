//! The "simple practical schedulers" of §6, implemented as faithful straw
//! men:
//!
//! * **equal-split**: every breakable job is cut into `|P|` equal pieces,
//!   one per phone, ignoring bandwidth and CPU differences; atomic jobs go
//!   round-robin. (Paper result: makespan 1720 s vs greedy's 1100 s, and
//!   an explosion of input partitions.)
//! * **round-robin**: every job — breakable or not — is assigned whole to
//!   phones in rotation. (Paper result: 1805 s; few partitions but badly
//!   unbalanced against slow links/CPUs.)

use crate::problem::SchedProblem;
use crate::schedule::{assign_offsets, Assignment, Schedule};
use cwc_types::{CwcError, CwcResult, KiloBytes};

/// Baseline 1: equal split of breakable jobs, round-robin atomics.
pub fn equal_split(problem: &SchedProblem) -> CwcResult<Schedule> {
    let p = problem.num_phones();
    let mut per_phone: Vec<Vec<Assignment>> = vec![Vec::new(); p];
    let mut rr = 0usize;
    for (j, job) in problem.jobs.iter().enumerate() {
        if job.kind.is_atomic() {
            let i = rr % p;
            rr += 1;
            push(problem, &mut per_phone, i, j, job.input_kb)?;
        } else {
            // |P| near-equal pieces; remainder spread over the first bins.
            let base = job.input_kb.0 / p as u64;
            let extra = (job.input_kb.0 % p as u64) as usize;
            for i in 0..p {
                let kb = base + u64::from(i < extra);
                if kb == 0 {
                    continue;
                }
                push(problem, &mut per_phone, i, j, KiloBytes(kb))?;
            }
        }
    }
    finish(problem, per_phone)
}

/// Baseline 2: whole jobs, round-robin.
pub fn round_robin(problem: &SchedProblem) -> CwcResult<Schedule> {
    let p = problem.num_phones();
    let mut per_phone: Vec<Vec<Assignment>> = vec![Vec::new(); p];
    for (j, job) in problem.jobs.iter().enumerate() {
        push(problem, &mut per_phone, j % p, j, job.input_kb)?;
    }
    finish(problem, per_phone)
}

fn push(
    problem: &SchedProblem,
    per_phone: &mut [Vec<Assignment>],
    i: usize,
    j: usize,
    kb: KiloBytes,
) -> CwcResult<()> {
    if kb.0 > problem.phones[i].ram_kb {
        return Err(CwcError::Infeasible(format!(
            "baseline would assign {} KB to {} (RAM {})",
            kb.0, problem.phones[i].id, problem.phones[i].ram_kb
        )));
    }
    per_phone[i].push(Assignment {
        phone: problem.phones[i].id,
        job: problem.jobs[j].id,
        input_kb: kb,
        offset_kb: KiloBytes::ZERO,
    });
    Ok(())
}

fn finish(problem: &SchedProblem, mut per_phone: Vec<Vec<Assignment>>) -> CwcResult<Schedule> {
    assign_offsets(&mut per_phone, problem);
    let schedule = Schedule {
        per_phone,
        predicted_makespan_ms: 0.0,
    };
    let predicted = schedule
        .predicted_heights_ms(problem)
        .into_iter()
        .fold(0.0f64, f64::max);
    Ok(Schedule {
        predicted_makespan_ms: predicted,
        ..schedule
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use crate::problem::test_support::instance;

    #[test]
    fn equal_split_is_valid_and_explodes_partitions() {
        let problem = instance(6, 12);
        let s = equal_split(&problem).unwrap();
        s.validate(&problem).unwrap();
        // Every breakable job has |P| pieces.
        let parts = s.partitions_per_job();
        for job in &problem.jobs {
            let expect = if job.kind.is_atomic() { 1 } else { 6 };
            assert_eq!(parts[&job.id], expect, "{}", job.id);
        }
    }

    #[test]
    fn round_robin_is_valid_and_never_splits() {
        let problem = instance(5, 13);
        let s = round_robin(&problem).unwrap();
        s.validate(&problem).unwrap();
        assert!(s.partitions_per_job().values().all(|&n| n == 1));
    }

    #[test]
    fn greedy_beats_both_baselines_on_heterogeneous_fleets() {
        // The fixture mixes 806/1400 MHz CPUs and 1–15 ms/KB links — the
        // regime the paper's §6 comparison runs in.
        let problem = instance(6, 24);
        let greedy = GreedyScheduler.schedule(&problem).unwrap();
        let eq = equal_split(&problem).unwrap();
        let rr = round_robin(&problem).unwrap();
        assert!(
            greedy.predicted_makespan_ms < eq.predicted_makespan_ms,
            "greedy {} vs equal-split {}",
            greedy.predicted_makespan_ms,
            eq.predicted_makespan_ms
        );
        assert!(
            greedy.predicted_makespan_ms < rr.predicted_makespan_ms,
            "greedy {} vs round-robin {}",
            greedy.predicted_makespan_ms,
            rr.predicted_makespan_ms
        );
    }

    #[test]
    fn baselines_error_when_ram_insufficient() {
        let mut problem = instance(2, 2);
        for p in &mut problem.phones {
            p.ram_kb = 10;
        }
        assert!(round_robin(&problem).is_err());
    }
}
