//! # cwc-core — the CWC makespan scheduler
//!
//! The paper's primary contribution (§5): schedule a mixed batch of
//! breakable and atomic jobs over a fleet of phones with heterogeneous CPU
//! clocks **and** heterogeneous wireless bandwidth, minimizing the
//! makespan. The exact problem (SCH) is a quadratic integer program
//! generalizing unrelated-machines minimum-makespan scheduling, hence
//! NP-hard; CWC solves it greedily via the *complementary bin packing*
//! (CBP) view: phones are bins, a bin's height is its completion time,
//! and the minimum feasible bin capacity — found by binary search — is
//! the minimized makespan.
//!
//! Crate layout:
//!
//! * [`problem`] — the scheduler's input: phones, jobs, and the `c_ij`
//!   cost matrix; Eq. 1 lives here.
//! * [`matrix`] — the cost matrix itself, stored once per distinct
//!   cost column (one per profiled program).
//! * [`predictor`] — execution-time prediction: CPU-clock scaling seeded
//!   from the slowest phone's profile (§4.1) plus the online update from
//!   reported runtimes.
//! * [`schedule`] — the output: per-phone assignment queues, predicted
//!   makespan, partition statistics (Fig. 12b), and validation.
//! * [`greedy`] — Algorithm 1 + the capacity binary search (cold and
//!   warm-started).
//! * `pack` (internal) — the zero-allocation packing arena the binary
//!   search probes with, over [`problem`]'s column-major cost tables.
//! * [`partition`] — fleet sharding (DESIGN.md §15): deterministically
//!   splits a job batch across N kernel shards by capacity weight.
//! * [`baselines`] — the two "simple practical schedulers" of §6
//!   (equal-split and round-robin) that CWC beats by ≈1.6×.
//! * [`relaxation`] — the LP relaxation lower bound of §6 (Fig. 13),
//!   solved with [`cwc_lp`].
//! * [`reliability`] — the failure-prediction extension §3.1 sketches:
//!   expected-rework cost inflation that steers work off flaky phones.
//! * [`slo`] — proactive-reliability policies (replication of risky
//!   atomic placements, speculative re-execution of stragglers) consumed
//!   by the coordinator kernel.
//! * [`economics`] — the §3.2 energy-cost arithmetic.

#![forbid(unsafe_code)]
// DESIGN.md §8: no wall-clock or socket type (the scheduler is a
// function of its inputs), no silently dropped `Result`, and no bare
// prints (narration goes through the `cwc-obs` bus).
#![deny(clippy::disallowed_types)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod baselines;
pub mod economics;
pub mod greedy;
pub mod matrix;
pub(crate) mod pack;
pub mod partition;
pub mod predictor;
pub mod problem;
pub mod relaxation;
pub mod reliability;
pub mod schedule;
pub mod slo;

pub use cwc_types::ProgramId;
pub use greedy::{GreedyScheduler, GreedyStats, WarmStart};
pub use matrix::CostMatrix;
pub use pack::PackWork;
pub use partition::{partition_jobs, JobPartition, ShardSlice};
pub use predictor::RuntimePredictor;
pub use problem::SchedProblem;
pub use relaxation::relaxed_lower_bound;
pub use reliability::derisk;
pub use schedule::{Assignment, Schedule};
pub use slo::{ReplicationPolicy, SpeculationPolicy};

use cwc_types::CwcResult;

/// Which scheduling algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// CWC's greedy CBP packing with capacity binary search (Algorithm 1).
    Greedy,
    /// Baseline 1: split every breakable job into `|P|` equal pieces
    /// (bandwidth/CPU-oblivious); atomic jobs round-robin.
    EqualSplit,
    /// Baseline 2: assign whole jobs round-robin.
    RoundRobin,
}

impl SchedulerKind {
    /// All kinds, for sweeps.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Greedy,
        SchedulerKind::EqualSplit,
        SchedulerKind::RoundRobin,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Greedy => "greedy",
            SchedulerKind::EqualSplit => "equal-split",
            SchedulerKind::RoundRobin => "round-robin",
        }
    }
}

/// Unified entry point over the three algorithms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scheduler;

impl Scheduler {
    /// Computes a schedule for `problem` with the chosen algorithm.
    pub fn run(kind: SchedulerKind, problem: &SchedProblem) -> CwcResult<Schedule> {
        match kind {
            SchedulerKind::Greedy => GreedyScheduler.schedule(problem),
            SchedulerKind::EqualSplit => baselines::equal_split(problem),
            SchedulerKind::RoundRobin => baselines::round_robin(problem),
        }
    }

    /// Like [`Scheduler::run`], recording per-algorithm metrics into `obs`
    /// — a `sched.<label>.runs` counter, a `sched.<label>.makespan_ms`
    /// histogram, and (for greedy) binary-search convergence counters —
    /// and threading a [`WarmStart`] hint through the greedy binary
    /// search. Returns the hint for the next scheduling instant (always
    /// `None` for the baselines, which have no search to warm).
    pub fn run_observed_warm(
        kind: SchedulerKind,
        problem: &SchedProblem,
        obs: &cwc_obs::Obs,
        warm: Option<WarmStart>,
    ) -> CwcResult<(Schedule, Option<WarmStart>)> {
        let (schedule, next) = match kind {
            SchedulerKind::Greedy => {
                let (s, w) = GreedyScheduler.schedule_observed_warm(problem, obs, warm)?;
                (s, Some(w))
            }
            SchedulerKind::EqualSplit => (baselines::equal_split(problem)?, None),
            SchedulerKind::RoundRobin => (baselines::round_robin(problem)?, None),
        };
        let (runs, makespan_ms) = match kind {
            SchedulerKind::Greedy => ("sched.greedy.runs", "sched.greedy.makespan_ms"),
            SchedulerKind::EqualSplit => {
                ("sched.equal-split.runs", "sched.equal-split.makespan_ms")
            }
            SchedulerKind::RoundRobin => {
                ("sched.round-robin.runs", "sched.round-robin.makespan_ms")
            }
        };
        obs.metrics.inc(runs);
        obs.metrics
            .observe(makespan_ms, schedule.predicted_makespan_ms);
        Ok((schedule, next))
    }
}
