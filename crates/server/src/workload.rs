//! Workload construction — the §6 evaluation mix and custom builders.
//!
//! The paper's prototype evaluation runs 150 tasks: 50 prime counts with
//! varying input sizes, 50 word counts with varying input sizes, and 50
//! variable-size photos to blur (atomic).

use cwc_sim::{Distributions, SplitMix64};
use cwc_types::{JobId, JobSpec, KiloBytes};

/// Deterministic workload builder.
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    rng: SplitMix64,
    next_id: u32,
    jobs: Vec<JobSpec>,
}

impl WorkloadBuilder {
    /// Creates an empty builder.
    pub fn new(seed: u64) -> Self {
        WorkloadBuilder {
            rng: SplitMix64::seed_from_u64(seed ^ 0x776f726b6c6f6164),
            next_id: 0,
            jobs: Vec::new(),
        }
    }

    fn next_id(&mut self) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Adds `n` breakable jobs of `program` with inputs uniform in
    /// `[min_kb, max_kb]`.
    pub fn breakable(
        mut self,
        n: usize,
        program: &str,
        exe_kb: u64,
        min_kb: u64,
        max_kb: u64,
    ) -> Self {
        assert!(min_kb >= 1 && max_kb >= min_kb);
        for _ in 0..n {
            let id = self.next_id();
            let size = self.rng.gen_range(min_kb..=max_kb);
            self.jobs.push(JobSpec::breakable(
                id,
                program,
                KiloBytes(exe_kb),
                KiloBytes(size),
            ));
        }
        self
    }

    /// Adds `n` atomic jobs of `program` with inputs uniform in
    /// `[min_kb, max_kb]`.
    pub fn atomic(
        mut self,
        n: usize,
        program: &str,
        exe_kb: u64,
        min_kb: u64,
        max_kb: u64,
    ) -> Self {
        assert!(min_kb >= 1 && max_kb >= min_kb);
        for _ in 0..n {
            let id = self.next_id();
            let size = self.rng.gen_range(min_kb..=max_kb);
            self.jobs.push(JobSpec::atomic(
                id,
                program,
                KiloBytes(exe_kb),
                KiloBytes(size),
            ));
        }
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Vec<JobSpec> {
        self.jobs
    }
}

/// The paper's 150-task evaluation workload: 50 prime counts, 50 word
/// counts (breakable, varying sizes), 50 photo blurs (atomic, variable
/// size).
pub fn paper_workload(seed: u64) -> Vec<JobSpec> {
    WorkloadBuilder::new(seed)
        .breakable(50, "primecount", 30, 200, 2_000)
        .breakable(50, "wordcount", 25, 200, 2_000)
        .atomic(50, "photoblur", 40, 100, 800)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_types::JobKind;

    #[test]
    fn paper_workload_is_150_tasks_with_right_mix() {
        let jobs = paper_workload(0);
        assert_eq!(jobs.len(), 150);
        let primes = jobs.iter().filter(|j| j.program == "primecount").count();
        let words = jobs.iter().filter(|j| j.program == "wordcount").count();
        let blurs = jobs.iter().filter(|j| j.program == "photoblur").count();
        assert_eq!((primes, words, blurs), (50, 50, 50));
        assert!(jobs
            .iter()
            .filter(|j| j.program == "photoblur")
            .all(|j| j.kind == JobKind::Atomic));
        assert!(jobs
            .iter()
            .filter(|j| j.program != "photoblur")
            .all(|j| j.kind == JobKind::Breakable));
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let jobs = paper_workload(5);
        let mut ids: Vec<u32> = jobs.iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 150);
        assert_eq!(ids[0], 0);
        assert_eq!(ids[149], 149);
    }

    #[test]
    fn sizes_vary_and_stay_in_range() {
        let jobs = paper_workload(9);
        let sizes: Vec<u64> = jobs
            .iter()
            .filter(|j| j.program == "primecount")
            .map(|j| j.input_kb.0)
            .collect();
        assert!(sizes.iter().all(|&s| (200..=2_000).contains(&s)));
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "sizes should vary");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(paper_workload(3), paper_workload(3));
        assert_ne!(paper_workload(3), paper_workload(4));
    }

    #[test]
    fn builder_composes() {
        let jobs = WorkloadBuilder::new(1)
            .breakable(3, "logscan", 20, 100, 200)
            .atomic(2, "render", 60, 10, 20)
            .build();
        assert_eq!(jobs.len(), 5);
        assert_eq!(jobs[3].program, "render");
        assert_eq!(jobs[4].id, JobId(4));
    }
}
