//! Shared builders for the scheduler benches (the Criterion `scheduler`
//! target and the `cwc-bench-shard` ladder): deterministic synthetic
//! fleets and batches, and the warm-vs-cold rescheduling scenario
//! (schedule, fail a fraction of the fleet, reschedule the failed phones'
//! residual work on the survivors).

use cwc_core::{SchedProblem, Schedule};
use cwc_types::{CpuSpec, JobId, JobSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech};
use std::collections::BTreeMap;

/// Deterministic synthetic fleet with heterogeneous clocks and bandwidths.
pub(crate) fn synth_phones(n: usize) -> Vec<PhoneInfo> {
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
pub(crate) fn synth_jobs(n: usize) -> Vec<JobSpec> {
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

/// The bench's cost model: 150 ms/KB on the 806 MHz reference, scaled by
/// clock.
pub(crate) fn clock_scaled_costs(phones: &[PhoneInfo], num_jobs: usize) -> Vec<Vec<f64>> {
    phones
        .iter()
        .map(|p| {
            (0..num_jobs)
                .map(|_| 150.0 * 806.0 / f64::from(p.cpu.clock_mhz))
                .collect()
        })
        .collect()
}

/// [`synth_phones`] × [`synth_jobs`] under [`clock_scaled_costs`] — the
/// instance family the Criterion scheduler bench packs.
pub fn synth_instance(num_phones: usize, num_jobs: usize) -> SchedProblem {
    let phones = synth_phones(num_phones);
    let c = clock_scaled_costs(&phones, num_jobs);
    SchedProblem::new(phones, synth_jobs(num_jobs), c).expect("synthetic instance is well-formed")
}

/// The live batch's shape: `num_jobs` one-KB breakable jobs on
/// [`synth_phones`] — every item is consumed whole, at the head of the
/// packer's item list.
pub fn chunk_instance(num_phones: usize, num_jobs: usize) -> SchedProblem {
    let phones = synth_phones(num_phones);
    let jobs = (0..num_jobs)
        .map(|j| {
            let id = JobId::from_index(j);
            JobSpec::breakable(id, "primecount", KiloBytes(30), KiloBytes(1))
        })
        .collect();
    let c = clock_scaled_costs(&phones, num_jobs);
    SchedProblem::new(phones, jobs, c).expect("synthetic instance is well-formed")
}

/// Builds the rescheduling instant that follows a fleet failure: every
/// `fail_every`-th phone of `problem` goes offline and its scheduled
/// assignments become residual jobs (atomic residuals stay atomic) to be
/// re-packed across the surviving phones. Mirrors the coordinator
/// kernel's residual-round construction, minus progress bookkeeping.
///
/// Returns `None` when the failed phones held no work (nothing to
/// reschedule).
pub fn residual_after_failures(
    problem: &SchedProblem,
    schedule: &Schedule,
    fail_every: usize,
) -> Option<SchedProblem> {
    assert!(fail_every >= 2, "must keep survivors");
    let failed = |idx: usize| idx.is_multiple_of(fail_every);
    let by_id: BTreeMap<JobId, &JobSpec> = problem.jobs.iter().map(|j| (j.id, j)).collect();

    let survivors: Vec<PhoneInfo> = problem
        .phones
        .iter()
        .enumerate()
        .filter(|(i, _)| !failed(*i))
        .map(|(_, p)| *p)
        .collect();
    let mut residuals = Vec::new();
    for (i, queue) in schedule.per_phone.iter().enumerate() {
        if !failed(i) {
            continue;
        }
        for a in queue {
            let spec = by_id
                .get(&a.job)
                .expect("scheduled job exists in the problem");
            let id = JobId::from_index(residuals.len());
            // A partially-transferred chunk must restart whole, so every
            // residual of an atomic job stays atomic.
            residuals.push(if spec.kind.is_atomic() {
                JobSpec::atomic(id, spec.program.as_str(), spec.exe_kb, a.input_kb)
            } else {
                JobSpec::breakable(id, spec.program.as_str(), spec.exe_kb, a.input_kb)
            });
        }
    }
    if residuals.is_empty() || survivors.is_empty() {
        return None;
    }
    let c = clock_scaled_costs(&survivors, residuals.len());
    Some(SchedProblem::new(survivors, residuals, c).expect("residual instance is well-formed"))
}
