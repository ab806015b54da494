//! Mutation self-test: with the double credit of
//! `tests/mutants/double_credit.patch` applied to the kernel, the
//! explorer must detect it, shrink the trace, and emit a counterexample
//! script that replays byte-identically. On the clean tree there is no
//! violation to find, so every test here is ignored; the patch's `Pass:`
//! line runs them with `--ignored`.
//!
//! The patch credits a grouped (replicated) chunk twice on success. In
//! release builds the `exactly_once_credit` / `byte_conservation`
//! oracles catch the doubled delta; in debug builds the kernel's own
//! `debug_assert` in `credit()` fires first and surfaces as a `no_panic`
//! violation. All three verdicts prove detection.

use cwc_check::{cex, explore, replay_breach, replay_commands, scenario_run, shrink, Options};

const CAUGHT_BY: [&str; 3] = ["exactly_once_credit", "byte_conservation", "no_panic"];

fn find_violation() -> (cwc_check::ScenarioRun, cwc_check::Violation) {
    let run = scenario_run("replicated-atomic", 1).expect("known scenario");
    let report = explore(&run, &Options::default());
    let v = report
        .violations
        .first()
        .expect("the patched double credit must be detected")
        .clone();
    (run, v)
}

#[test]
#[ignore = "run with tests/mutants/double_credit.patch applied"]
fn planted_double_credit_is_detected() {
    let (_, v) = find_violation();
    assert!(
        CAUGHT_BY.contains(&v.oracle),
        "unexpected oracle {} for the double-credit mutation: {}",
        v.oracle,
        v.detail
    );
}

#[test]
#[ignore = "run with tests/mutants/double_credit.patch applied"]
fn violation_shrinks_and_replays() {
    let (run, v) = find_violation();
    let (small, breach) = shrink(&run, &v.trace, v.oracle);
    assert!(
        small.len() <= v.trace.len(),
        "shrinking grew the trace ({} -> {})",
        v.trace.len(),
        small.len()
    );
    assert_eq!(
        breach.oracle, v.oracle,
        "shrinking changed the verdict: {} -> {} ({})",
        v.oracle, breach.oracle, breach.detail
    );
    // The shrunk trace still reproduces the breach from a fresh kernel.
    let (at, replayed) = replay_breach(&run, &small).expect("shrunk trace must still violate");
    assert_eq!(replayed.oracle, v.oracle);
    assert_eq!(at + 1, small.len(), "violating step must be the last event");
}

#[test]
#[ignore = "run with tests/mutants/double_credit.patch applied"]
fn counterexample_script_round_trips() {
    let (run, v) = find_violation();
    let (small, breach) = shrink(&run, &v.trace, v.oracle);
    let text = cex::to_script(&run, breach.oracle, &breach.detail, &small);
    let (meta, events) = cex::parse_script(&text).expect("own script must parse");
    assert_eq!(meta.scenario, run.name);
    assert_eq!(meta.seed, run.seed);
    assert_eq!(meta.oracle, breach.oracle);
    assert_eq!(events, small, "decode(encode(trace)) must be identity");
    // And the scenario the header names rebuilds the same state space.
    let rebuilt = cex::run_of(&meta).expect("header names a known scenario");
    let (at, b) = replay_breach(&rebuilt, &events).expect("replay from parsed script");
    assert_eq!(b.oracle, breach.oracle);
    assert_eq!(at + 1, events.len());
}

#[test]
#[ignore = "run with tests/mutants/double_credit.patch applied"]
fn replayed_command_stream_is_deterministic() {
    let (run, v) = find_violation();
    let (small, _) = shrink(&run, &v.trace, v.oracle);
    let first = replay_commands(&run, &small);
    let second = replay_commands(&run, &small);
    assert!(!first.is_empty(), "replay produced no commands at all");
    assert_eq!(first, second, "replay is not byte-identical across runs");
}
