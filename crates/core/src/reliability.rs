//! Failure-prediction-aware scheduling — the extension §3.1 sketches.
//!
//! *"Profiling an individual user's behavior can allow the prediction of
//! device specific failures. This can help since tasks can be migrated to
//! phones that are less likely to fail at the time of consideration."*
//!
//! The hook is a cost transformation. If phone *i* has probability `p_i`
//! of being unplugged during the scheduling horizon, work placed on it is
//! interrupted and re-executed elsewhere with probability ≈ `p_i`; in
//! expectation every unit of work costs `1/(1 − p_i)` units. Scaling both
//! `b_i` and `c_ij` by that factor makes the unchanged greedy packer
//! risk-aware: flaky phones look slower, so they receive less — and less
//! critical — work, without any change to Algorithm 1 itself.

// Panic-safety (DESIGN.md §8): derisking runs inside every scheduling
// instant and digests profiler-derived probabilities that may be malformed.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::problem::SchedProblem;
use cwc_types::{CwcError, CwcResult, MsPerKb};

/// Ceiling on the per-phone failure probability used for derisking;
/// beyond this a phone is effectively excluded (cost × 20) rather than
/// producing absurd scale factors.
pub const MAX_EFFECTIVE_FAIL_PROB: f64 = 0.95;

/// Scales a scheduling problem in place so each phone's costs reflect
/// its failure probability over the scheduling horizon.
///
/// `fail_prob[i]` corresponds to `problem.phones[i]`; values are clamped
/// to `[0, MAX_EFFECTIVE_FAIL_PROB]`. `aggressiveness` ∈ [0, 1] blends
/// between risk-neutral (0: no change) and full expected-rework pricing
/// (1). The scaled problem schedules with the ordinary greedy packer. On
/// `Err` from an input check the problem is unchanged; the scaled
/// problem is checked as [`SchedProblem::new`] would check it.
pub fn derisk(problem: &mut SchedProblem, fail_prob: &[f64], aggressiveness: f64) -> CwcResult<()> {
    if fail_prob.len() != problem.num_phones() {
        return Err(CwcError::Config(format!(
            "fail_prob has {} entries for {} phones",
            fail_prob.len(),
            problem.num_phones()
        )));
    }
    if !(0.0..=1.0).contains(&aggressiveness) {
        return Err(CwcError::Config(format!(
            "aggressiveness {aggressiveness} outside [0, 1]"
        )));
    }
    problem.check_dimensions()?;
    if let Some((phone, p)) =
        (problem.phones.iter().zip(fail_prob)).find(|(_, p)| !(0.0..=1.0).contains(*p))
    {
        return Err(CwcError::Config(format!(
            "failure probability {p} for {} outside [0, 1]",
            phone.id
        )));
    }
    let factors: Vec<f64> = (fail_prob.iter())
        .map(|&p| {
            let p = p.min(MAX_EFFECTIVE_FAIL_PROB);
            // Expected-rework factor, blended by aggressiveness.
            1.0 + aggressiveness * (1.0 / (1.0 - p) - 1.0)
        })
        .collect();
    for (phone, &factor) in problem.phones.iter_mut().zip(&factors) {
        phone.bandwidth = MsPerKb(phone.bandwidth.0 * factor);
    }
    problem.c.scale_phones(&problem.jobs, &factors);
    problem.check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use crate::problem::test_support::instance;

    /// A copy of `problem` derisked in place, `problem` left as it was.
    fn derisked(
        problem: &SchedProblem,
        fail_prob: &[f64],
        aggressiveness: f64,
    ) -> CwcResult<SchedProblem> {
        let mut derisked = problem.clone();
        derisk(&mut derisked, fail_prob, aggressiveness)?;
        Ok(derisked)
    }

    #[test]
    fn zero_risk_is_identity() {
        let problem = instance(4, 8);
        let derisked = derisked(&problem, &[0.0; 4], 1.0).unwrap();
        for i in 0..4 {
            assert_eq!(
                problem.phones[i].bandwidth.0,
                derisked.phones[i].bandwidth.0
            );
            assert_eq!(problem.c[i], derisked.c[i]);
        }
    }

    #[test]
    fn zero_aggressiveness_is_identity() {
        let problem = instance(4, 8);
        let derisked = derisked(&problem, &[0.9, 0.5, 0.1, 0.0], 0.0).unwrap();
        for i in 0..4 {
            assert_eq!(problem.c[i], derisked.c[i]);
        }
    }

    #[test]
    fn risky_phone_costs_inflate_by_expected_rework() {
        let problem = instance(2, 4);
        let derisked = derisked(&problem, &[0.5, 0.0], 1.0).unwrap();
        // p = 0.5 → factor 2.
        assert!((derisked.c[0][0] - problem.c[0][0] * 2.0).abs() < 1e-12);
        assert!(
            (derisked.phones[0].bandwidth.0 - problem.phones[0].bandwidth.0 * 2.0).abs() < 1e-12
        );
        assert_eq!(derisked.c[1], problem.c[1]);
    }

    #[test]
    fn certain_failure_is_clamped_not_infinite() {
        let problem = instance(2, 4);
        let derisked = derisked(&problem, &[1.0, 0.0], 1.0).unwrap();
        assert!(derisked.c[0][0].is_finite());
        assert!(derisked.c[0][0] > problem.c[0][0] * 10.0);
    }

    #[test]
    fn scheduler_shifts_work_away_from_risky_phones() {
        let problem = instance(4, 12);
        let neutral = GreedyScheduler.schedule(&problem).unwrap();
        // Phone 0 is 80% likely to vanish.
        let derisked = derisked(&problem, &[0.8, 0.0, 0.0, 0.0], 1.0).unwrap();
        let aware = GreedyScheduler.schedule(&derisked).unwrap();
        aware.validate(&derisked).unwrap();
        let load = |s: &crate::Schedule, i: usize| -> u64 {
            s.per_phone[i].iter().map(|a| a.input_kb.0).sum()
        };
        assert!(
            load(&aware, 0) < load(&neutral, 0),
            "risk-aware load {} should undercut neutral {}",
            load(&aware, 0),
            load(&neutral, 0)
        );
    }

    #[test]
    fn rejects_malformed_inputs() {
        let problem = instance(2, 2);
        assert!(derisked(&problem, &[0.1], 1.0).is_err());
        assert!(derisked(&problem, &[0.1, 1.5], 1.0).is_err());
        assert!(derisked(&problem, &[0.1, 0.1], 2.0).is_err());
    }

    #[test]
    fn rejects_non_finite_and_negative_probabilities() {
        let problem = instance(2, 2);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.01, 1.01] {
            let err = derisked(&problem, &[bad, 0.0], 1.0);
            assert!(
                matches!(err, Err(CwcError::Config(_))),
                "fail_prob {bad} must be a Config error, got {err:?}"
            );
        }
        // NaN aggressiveness fails the same range check.
        assert!(matches!(
            derisked(&problem, &[0.0, 0.0], f64::NAN),
            Err(CwcError::Config(_))
        ));
    }

    #[test]
    fn exclusion_edge_caps_inflation_at_twenty_fold() {
        // At and beyond MAX_EFFECTIVE_FAIL_PROB the factor saturates at
        // 1/(1 - 0.95) = 20: a doomed phone is effectively excluded, not
        // priced into infinity — and the edge is continuous (p just below
        // the cap prices just below ×20).
        let problem = instance(3, 4);
        let derisked = derisked(&problem, &[MAX_EFFECTIVE_FAIL_PROB, 1.0, 0.949], 1.0).unwrap();
        for i in [0usize, 1] {
            assert!(
                (derisked.c[i][0] - problem.c[i][0] * 20.0).abs() < 1e-9,
                "phone {i} factor should clamp to exactly 20"
            );
            assert!(
                (derisked.phones[i].bandwidth.0 - problem.phones[i].bandwidth.0 * 20.0).abs()
                    < 1e-9
            );
        }
        let near = derisked.c[2][0] / problem.c[2][0];
        assert!(near < 20.0 && near > 19.0, "near-cap factor {near}");
    }
}
