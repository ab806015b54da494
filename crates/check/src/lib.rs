//! `cwc-check` — a bounded model checker for the coordinator kernel.
//!
//! The sans-IO [`Kernel`] is a pure event-in/command-out state machine,
//! which makes it model-checkable without mocking a single socket or
//! clock: this crate enumerates **all admissible orderings** of the
//! events a conforming driver could deliver — worker probes, progress
//! reports, completions, online failures, silent unplugs, timer
//! firings, duplicate/late replica results — up to a configurable
//! depth, and checks a library of invariant oracles at every step:
//!
//! | oracle | invariant |
//! |---|---|
//! | `byte_conservation` | credited + held bytes always account for every input byte |
//! | `exactly_once_credit` | a report credits exactly what it vouched for, once |
//! | `cancel_safety` | a retired replica's late result never credits, never panics |
//! | `slo_latch_once` | completion/deadline verdicts latch exactly once |
//! | `timer_sanity` | no `Speculate` timer outlives its chunk |
//! | `group_sanity` | redundancy groups always match their live members |
//! | `termination` | a drained event set means finished (or fleet lost) |
//! | `no_panic` / `no_halt` | the kernel neither panics nor halts on feasible runs |
//!
//! On a violation the trace is shrunk (greedy event removal + prefix
//! truncation) and emitted as a replayable [`coord::script`] file, so
//! every counterexample reproduces byte-identically in `tests/` and CI
//! artifacts. See DESIGN.md §13 for the state digest, the independence
//! relation behind the partial-order reduction, and the abstractions
//! (logical clock, timer-order superset) the state space is built on.
//!
//! [`Kernel`]: cwc_server::coord::Kernel
//! [`coord::script`]: cwc_server::coord::script

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod cex;
pub mod explore;
pub mod harness;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use explore::{explore, Options, Report, Stats, Violation};
pub use scenario::{scenario_run, ScenarioRun, SCENARIOS};
pub use shrink::{replay_breach, replay_commands, shrink};
