//! # cwc-lp — a dense two-phase simplex solver
//!
//! The CWC paper benchmarks its greedy scheduler against a *lower bound*
//! obtained from an LP relaxation of the makespan scheduling program
//! (§6, Fig. 13). The allowed offline crate set contains no LP solver, so
//! this crate implements one from scratch: a textbook two-phase primal
//! simplex over a dense tableau.
//!
//! Scope and non-goals: the relaxed SCH instances are small (hundreds of
//! rows, a few thousand columns), so a dense tableau with Dantzig pricing
//! (plus Bland's rule as an anti-cycling fallback) is entirely adequate.
//! There is no presolve, no sparsity exploitation, and no revised simplex —
//! robustness and reviewability over raw speed.
//!
//! ## Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2` (expressed as
//! minimizing the negated objective):
//!
//! ```
//! use cwc_lp::{LinearProgram, Relation, LpOutcome};
//!
//! let mut lp = LinearProgram::minimize(vec![-3.0, -2.0]);
//! lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
//! lp.constrain(vec![(0, 1.0)], Relation::Le, 2.0);
//!
//! let LpOutcome::Optimal(sol) = lp.solve().unwrap() else { panic!() };
//! assert!((sol.objective - (-10.0)).abs() < 1e-9); // x=2, y=2
//! assert!((sol.x[0] - 2.0).abs() < 1e-9);
//! assert!((sol.x[1] - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
// Deterministic (DESIGN.md §8): output is a function of inputs and
// seed, so no wall-clock or socket type appears here.
#![deny(clippy::disallowed_types)]
#![warn(missing_docs)]

mod problem;
mod simplex;

pub use problem::{LinearProgram, LpOutcome, Relation, Solution};
