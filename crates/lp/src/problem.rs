//! Problem construction API.

use crate::simplex;

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Row value must be ≤ the bound.
    Le,
    /// Row value must equal the bound.
    Eq,
    /// Row value must be ≥ the bound.
    Ge,
}

/// One linear constraint, stored sparsely as `(variable, coefficient)`
/// pairs.
#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) relation: Relation,
    pub(crate) bound: f64,
}

/// A linear program `minimize c·x  s.t.  constraints, x ≥ 0`.
///
/// All variables are implicitly non-negative, which matches every use in
/// CWC (input-partition sizes, indicator relaxations, the makespan).
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value (of the minimization).
    pub objective: f64,
    /// Optimal variable assignment, indexed as in the objective vector.
    pub x: Vec<f64>,
    /// Simplex iterations spent (phase 1 + phase 2).
    pub iterations: usize,
}

/// Result of solving a linear program.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// An optimal vertex was found.
    Optimal(Solution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
}

impl LinearProgram {
    /// Starts a minimization of `objective · x`.
    pub fn minimize(objective: Vec<f64>) -> Self {
        LinearProgram {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds the constraint `Σ terms · x  (relation)  bound`.
    ///
    /// # Panics
    /// Panics if a term references a variable outside the objective vector,
    /// or if a coefficient or the bound is not finite.
    pub fn constrain(&mut self, terms: Vec<(usize, f64)>, relation: Relation, bound: f64) {
        assert!(bound.is_finite(), "constraint bound must be finite");
        for &(var, coeff) in &terms {
            assert!(
                var < self.num_vars(),
                "constraint references variable {var} but program has {} variables",
                self.num_vars()
            );
            assert!(coeff.is_finite(), "constraint coefficient must be finite");
        }
        self.constraints.push(Constraint {
            terms,
            relation,
            bound,
        });
    }

    /// Solves the program with the two-phase simplex method.
    ///
    /// Returns `Err` only on internal numerical failure (iteration limit);
    /// model-level outcomes (infeasible / unbounded) are in [`LpOutcome`].
    pub fn solve(&self) -> Result<LpOutcome, String> {
        simplex::solve(self)
    }

    /// Evaluates the objective at a point (for testing feasible candidates).
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether `x` satisfies every constraint (and non-negativity)
    /// within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * x[v]).sum();
            match c.relation {
                Relation::Le => lhs <= c.bound + tol,
                Relation::Eq => (lhs - c.bound).abs() <= tol,
                Relation::Ge => lhs >= c.bound - tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut lp = LinearProgram::minimize(vec![1.0, 2.0, 3.0]);
        assert_eq!(lp.num_vars(), 3);
        lp.constrain(vec![(0, 1.0)], Relation::Le, 5.0);
        assert_eq!(lp.constraints.len(), 1);
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn out_of_range_variable_panics() {
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![(1, 1.0)], Relation::Le, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_bound_panics() {
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![(0, 1.0)], Relation::Le, f64::NAN);
    }

    #[test]
    fn feasibility_checker() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        assert!(lp.is_feasible(&[0.5, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[0.2, 0.2], 1e-9));
        assert!(!lp.is_feasible(&[-0.5, 2.0], 1e-9));
        assert!(!lp.is_feasible(&[1.0], 1e-9));
    }

    #[test]
    fn objective_eval() {
        let lp = LinearProgram::minimize(vec![2.0, -1.0]);
        assert!((lp.objective_at(&[3.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
