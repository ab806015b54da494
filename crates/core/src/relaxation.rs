//! The LP relaxation lower bound (§6, Fig. 13).
//!
//! The paper benchmarks the greedy scheduler against a loose lower bound:
//! relax the integrality of `u_ij`, linearize the quadratic term
//! `u_ij · l_ij` with the constraint `l_ij ≤ L_j · u_ij`, and solve the
//! resulting LP. Then `T_relaxed ≤ T_optimal ≤ T_cwc`.
//!
//! Two builders exist:
//!
//! * [`relaxed_lower_bound`] — the *reduced* LP. In the relaxed program
//!   the optimal indicator is always `u_ij = l_ij / L_j` (it appears with
//!   a non-negative coefficient, so it sits at its lower bound), which
//!   substitutes away half the variables and all linking rows: per-phone
//!   load becomes `Σ_j l_ij · (E_j·b_i/L_j + b_i + c_ij) ≤ T`. This is
//!   what the 1000-configuration Fig. 13 sweep runs.
//! * the paper's formulation verbatim (variables `T`, `l_ij`, `u_ij`,
//!   linking constraints) lives in this module's tests, where a much
//!   bigger tableau confirms the reduction is exact.

use crate::problem::SchedProblem;
use cwc_lp::{LinearProgram, LpOutcome, Relation};
use cwc_types::{CwcError, CwcResult};

/// Solves the reduced relaxation and returns `T_relaxed` in ms.
pub fn relaxed_lower_bound(problem: &SchedProblem) -> CwcResult<f64> {
    let p = problem.num_phones();
    let jn = problem.num_jobs();
    // Variables: [0] = T, then l_ij at 1 + i·jn + j.
    let nvars = 1 + p * jn;
    let mut objective = vec![0.0; nvars];
    objective[0] = 1.0;
    let mut lp = LinearProgram::minimize(objective);
    let lvar = |i: usize, j: usize| 1 + i * jn + j;

    // Per-phone load ≤ T.
    for i in 0..p {
        let b = problem.phones[i].bandwidth.0;
        let mut terms = Vec::with_capacity(jn + 1);
        for j in 0..jn {
            let w = problem.jobs[j].exe_kb.as_f64() * b / problem.jobs[j].input_kb.as_f64()
                + problem.per_kb_ms(i, j);
            terms.push((lvar(i, j), w));
        }
        terms.push((0, -1.0));
        lp.constrain(terms, Relation::Le, 0.0);
    }
    // Coverage: Σ_i l_ij = L_j.
    for j in 0..jn {
        let terms: Vec<(usize, f64)> = (0..p).map(|i| (lvar(i, j), 1.0)).collect();
        lp.constrain(terms, Relation::Eq, problem.jobs[j].input_kb.as_f64());
    }

    solve_for_t(&lp)
}

fn solve_for_t(lp: &LinearProgram) -> CwcResult<f64> {
    match lp.solve().map_err(CwcError::Solver)? {
        LpOutcome::Optimal(sol) => Ok(sol.objective),
        LpOutcome::Infeasible => Err(CwcError::Solver(
            "relaxation infeasible (should never happen)".into(),
        )),
        LpOutcome::Unbounded => Err(CwcError::Solver(
            "relaxation unbounded (should never happen)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use crate::problem::test_support::instance;

    /// Solves the paper's full relaxed formulation — the oracle that
    /// confirms the reduction in [`relaxed_lower_bound`] is exact.
    fn relaxed_lower_bound_full(problem: &SchedProblem) -> CwcResult<f64> {
        let p = problem.num_phones();
        let jn = problem.num_jobs();
        // Variables: [0]=T, l_ij at 1+i·jn+j, u_ij at 1+p·jn+i·jn+j.
        let nvars = 1 + 2 * p * jn;
        let mut objective = vec![0.0; nvars];
        objective[0] = 1.0;
        let mut lp = LinearProgram::minimize(objective);
        let lvar = |i: usize, j: usize| 1 + i * jn + j;
        let uvar = |i: usize, j: usize| 1 + p * jn + i * jn + j;

        for i in 0..p {
            let b = problem.phones[i].bandwidth.0;
            let mut terms = Vec::with_capacity(2 * jn + 1);
            for j in 0..jn {
                terms.push((uvar(i, j), problem.jobs[j].exe_kb.as_f64() * b));
                terms.push((lvar(i, j), problem.per_kb_ms(i, j)));
            }
            terms.push((0, -1.0));
            lp.constrain(terms, Relation::Le, 0.0);
        }
        for j in 0..jn {
            let terms: Vec<(usize, f64)> = (0..p).map(|i| (lvar(i, j), 1.0)).collect();
            lp.constrain(terms, Relation::Eq, problem.jobs[j].input_kb.as_f64());
        }
        // Linking l_ij ≤ L_j · u_ij, and u_ij ≤ 1.
        for i in 0..p {
            for j in 0..jn {
                lp.constrain(
                    vec![
                        (lvar(i, j), 1.0),
                        (uvar(i, j), -problem.jobs[j].input_kb.as_f64()),
                    ],
                    Relation::Le,
                    0.0,
                );
                lp.constrain(vec![(uvar(i, j), 1.0)], Relation::Le, 1.0);
            }
        }
        // Atomic jobs: Σ_i u_ij = 1 (satisfiable at u = l/L, see module docs).
        for (j, job) in problem.jobs.iter().enumerate() {
            if job.kind.is_atomic() {
                let terms: Vec<(usize, f64)> = (0..p).map(|i| (uvar(i, j), 1.0)).collect();
                lp.constrain(terms, Relation::Eq, 1.0);
            }
        }

        solve_for_t(&lp)
    }

    #[test]
    fn bound_is_positive_and_below_greedy() {
        let problem = instance(4, 10);
        let lb = relaxed_lower_bound(&problem).unwrap();
        let greedy = GreedyScheduler.schedule(&problem).unwrap();
        assert!(lb > 0.0);
        assert!(
            lb <= greedy.predicted_makespan_ms + 1e-6,
            "T_relaxed {lb} must lower-bound T_cwc {}",
            greedy.predicted_makespan_ms
        );
    }

    #[test]
    fn reduced_equals_full_formulation() {
        for (p, j) in [(2usize, 3usize), (3, 4), (4, 6)] {
            let problem = instance(p, j);
            let reduced = relaxed_lower_bound(&problem).unwrap();
            let full = relaxed_lower_bound_full(&problem).unwrap();
            assert!(
                (reduced - full).abs() < 1e-4 * (1.0 + full.abs()),
                "{p}x{j}: reduced {reduced} vs full {full}"
            );
        }
    }

    #[test]
    fn single_phone_bound_is_exact_modulo_exe() {
        // With one phone the relaxation is the whole workload on it —
        // including every executable (u must be 1 for atomic jobs and
        // exe cost is linear in u ≥ l/L = 1).
        let problem = instance(1, 3);
        let lb = relaxed_lower_bound(&problem).unwrap();
        let total: f64 = (0..problem.num_jobs())
            .map(|j| problem.full_cost_ms(0, j))
            .sum();
        assert!(
            (lb - total).abs() < 1e-6 * total,
            "lb {lb} vs serial total {total}"
        );
    }

    #[test]
    fn bound_shrinks_with_more_phones() {
        let small = instance(2, 8);
        let big = instance(8, 8);
        let lb_small = relaxed_lower_bound(&small).unwrap();
        let lb_big = relaxed_lower_bound(&big).unwrap();
        assert!(
            lb_big < lb_small,
            "more phones must not raise the bound: {lb_big} vs {lb_small}"
        );
    }
}
