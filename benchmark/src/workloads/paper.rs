//! `paper-testbed`: the paper's own instance — 18 phones × 150 tasks,
//! fault-free — over 20 seeded variations, small enough that the true LP
//! lower bound is computable. The quality anchor: every speed
//! optimisation predicts *no change* to `makespan_ratio` here, and any
//! change is a behaviour change, not noise.

use super::{sim, sub_seed, Instance, RunConfig};
use crate::report::RunResult;
use cwc_core::{relaxed_lower_bound, GreedyScheduler};
use cwc_server::{paper_workload, testbed_fleet, WorkloadBuilder};
use cwc_types::{CwcResult, Micros};

/// Seeded variations of the testbed a round runs. One engine run is
/// ≈ 2 ms.
const VARIATIONS: u64 = 20;

/// The paper's 18 phones × 150 tasks for `seed`. `--quick` keeps the
/// fleet and the 1:1:1 program mix but only 24 tasks, because the LP is
/// what makes an unoptimised test build slow.
pub fn build(seed: u64, quick: bool) -> Instance {
    let jobs = if quick {
        WorkloadBuilder::new(sub_seed(seed, 2))
            .breakable(8, "primecount", 30, 200, 2_000)
            .breakable(8, "wordcount", 25, 200, 2_000)
            .atomic(8, "photoblur", 40, 100, 800)
            .build()
    } else {
        paper_workload(sub_seed(seed, 2))
    };
    Instance {
        fleet: testbed_fleet(sub_seed(seed, 1)),
        jobs,
        injections: Vec::new(),
    }
}

/// Achieved makespan over the LP bound, which must itself lie under the
/// greedy schedule's prediction. The LP is the benchmark's own cost: it
/// runs once a variation, outside the timed rounds.
fn score(instance: &Instance, achieved: Micros, result: &mut RunResult) -> CwcResult<f64> {
    let problem = instance.problem()?;
    let schedule = GreedyScheduler::default().schedule(&problem)?;
    result.check(schedule.validate(&problem).is_ok(), || {
        "testbed schedule does not validate".into()
    });
    let bound_ms = relaxed_lower_bound(&problem)?;
    result.check(
        bound_ms > 0.0 && bound_ms <= schedule.predicted_makespan_ms,
        || {
            format!(
                "LP bound {bound_ms} ms above predicted makespan {} ms",
                schedule.predicted_makespan_ms
            )
        },
    );
    Ok(achieved.as_ms_f64() / bound_ms)
}

/// `paper-testbed`.
pub fn run(cfg: &RunConfig) -> CwcResult<RunResult> {
    let variations = if cfg.quick { 3 } else { VARIATIONS };
    sim::run_instances(cfg, "paper-testbed", variations, 100, build, score, true)
}
