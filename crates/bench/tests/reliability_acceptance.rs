//! Chaos acceptance gate for the proactive-reliability stack
//! (DESIGN.md §12, recorded under `proactive_reliability` in the committed
//! `FIGURES.json`).
//!
//! On the tracked 10/20/30%-silent-failure scenarios, the proactive arm
//! (risk-driven replication + speculative re-execution + SLO classes)
//! must beat the reactive baseline's makespan strictly, both arms must
//! finish the whole batch, and the (comfortably feasible) deadline-class
//! jobs must meet their deadlines.

use cwc_bench::reliability::{run_acceptance, ATOMIC_JOBS, BREAKABLE_JOBS, DEADLINE_JOBS, SEED};

#[test]
fn proactive_stack_strictly_beats_reactive_recovery() {
    let scenarios = run_acceptance(SEED);
    assert_eq!(scenarios.len(), 3, "10/20/30% ladder");

    let total_jobs = BREAKABLE_JOBS + ATOMIC_JOBS;
    let mut planned = 0u64;
    let mut launched = 0u64;
    for s in &scenarios {
        assert_eq!(
            s.baseline_completed,
            total_jobs,
            "baseline arm must finish the batch at {:.0}% failure",
            s.failure_fraction * 100.0
        );
        assert_eq!(
            s.proactive_completed,
            total_jobs,
            "proactive arm must finish the batch at {:.0}% failure",
            s.failure_fraction * 100.0
        );
        assert!(
            s.proactive_ms < s.baseline_ms,
            "proactive must strictly beat reactive at {:.0}% failure: {} vs {} ms",
            s.failure_fraction * 100.0,
            s.proactive_ms,
            s.baseline_ms
        );
        assert_eq!(
            s.deadline_met,
            DEADLINE_JOBS as u64,
            "feasible deadlines must be met at {:.0}% failure",
            s.failure_fraction * 100.0
        );
        assert_eq!(s.deadline_missed, 0);
        planned += s.replicas_planned;
        launched += s.speculation_launched;
    }
    // The win must come from the proactive mechanisms actually firing.
    assert!(planned > 0, "no replicas were ever planned");
    assert!(launched > 0, "no speculative copies were ever launched");
}
