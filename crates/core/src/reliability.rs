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

use crate::matrix::CostMatrix;
use crate::problem::SchedProblem;
use cwc_types::{CwcError, CwcResult, MsPerKb};

/// Ceiling on the per-phone failure probability used for derisking;
/// beyond this a phone is effectively excluded (cost × 20) rather than
/// producing absurd scale factors.
pub const MAX_EFFECTIVE_FAIL_PROB: f64 = 0.95;

/// Transforms a scheduling problem so each phone's costs reflect its
/// failure probability over the scheduling horizon.
///
/// `fail_prob[i]` corresponds to `problem.phones[i]`; values are clamped
/// to `[0, MAX_EFFECTIVE_FAIL_PROB]`. `aggressiveness` ∈ [0, 1] blends
/// between risk-neutral (0: no change) and full expected-rework pricing
/// (1). The transformed problem schedules with the ordinary greedy
/// packer.
pub fn derisk(
    problem: &SchedProblem,
    fail_prob: &[f64],
    aggressiveness: f64,
) -> CwcResult<SchedProblem> {
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
    let mut phones = problem.phones.clone();
    let mut factors = Vec::with_capacity(phones.len());
    for (phone, &p) in phones.iter_mut().zip(fail_prob) {
        if !(0.0..=1.0).contains(&p) {
            return Err(CwcError::Config(format!(
                "failure probability {p} for {} outside [0, 1]",
                phone.id
            )));
        }
        let p = p.min(MAX_EFFECTIVE_FAIL_PROB);
        // Expected-rework factor, blended by aggressiveness.
        let factor = 1.0 + aggressiveness * (1.0 / (1.0 - p) - 1.0);
        phone.bandwidth = MsPerKb(phone.bandwidth.0 * factor);
        factors.push(factor);
    }
    // Every cell of a shared column is the same bits, so scaling the
    // column scales each of its cells exactly as scaling the cell would.
    let columns = problem.c.grouped(&problem.jobs);
    let mut values = columns.values.clone();
    for column in values.chunks_exact_mut(factors.len().max(1)) {
        for (cost, &factor) in column.iter_mut().zip(&factors) {
            *cost *= factor;
        }
    }
    let c = CostMatrix::from_columns(factors.len(), columns.column_of.clone(), values);
    SchedProblem::new(phones, problem.jobs.clone(), c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use crate::problem::test_support::instance;

    #[test]
    fn zero_risk_is_identity() {
        let problem = instance(4, 8);
        let derisked = derisk(&problem, &[0.0; 4], 1.0).unwrap();
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
        let derisked = derisk(&problem, &[0.9, 0.5, 0.1, 0.0], 0.0).unwrap();
        for i in 0..4 {
            assert_eq!(problem.c[i], derisked.c[i]);
        }
    }

    #[test]
    fn risky_phone_costs_inflate_by_expected_rework() {
        let problem = instance(2, 4);
        let derisked = derisk(&problem, &[0.5, 0.0], 1.0).unwrap();
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
        let derisked = derisk(&problem, &[1.0, 0.0], 1.0).unwrap();
        assert!(derisked.c[0][0].is_finite());
        assert!(derisked.c[0][0] > problem.c[0][0] * 10.0);
    }

    #[test]
    fn scheduler_shifts_work_away_from_risky_phones() {
        let problem = instance(4, 12);
        let neutral = GreedyScheduler.schedule(&problem).unwrap();
        // Phone 0 is 80% likely to vanish.
        let derisked = derisk(&problem, &[0.8, 0.0, 0.0, 0.0], 1.0).unwrap();
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
        assert!(derisk(&problem, &[0.1], 1.0).is_err());
        assert!(derisk(&problem, &[0.1, 1.5], 1.0).is_err());
        assert!(derisk(&problem, &[0.1, 0.1], 2.0).is_err());
    }

    #[test]
    fn rejects_non_finite_and_negative_probabilities() {
        let problem = instance(2, 2);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.01, 1.01] {
            let err = derisk(&problem, &[bad, 0.0], 1.0);
            assert!(
                matches!(err, Err(CwcError::Config(_))),
                "fail_prob {bad} must be a Config error, got {err:?}"
            );
        }
        // NaN aggressiveness fails the same range check.
        assert!(matches!(
            derisk(&problem, &[0.0, 0.0], f64::NAN),
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
        let derisked = derisk(&problem, &[MAX_EFFECTIVE_FAIL_PROB, 1.0, 0.949], 1.0).unwrap();
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
