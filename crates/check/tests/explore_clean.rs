//! The three scenario templates must explore clean: every admissible
//! event ordering up to the bounded depth satisfies every oracle.
//!
//! Depth here is modest because these run in debug builds on every
//! `cargo test`; CI additionally runs the release binary at depth 8+
//! (see the model-check workflow job).

use cwc_check::{explore, scenario_run, Options, SCENARIOS};

fn opts(depth: usize, por: bool) -> Options {
    Options {
        depth,
        por,
        ..Options::default()
    }
}

/// `(transitions, dedup_hits, por_skips, quiescent)`.
type Counts = (u64, u64, u64, u64);

/// The exploration [`Counts`] for seed 1 of each
/// template at depth 6 with POR. A refactor that claims "no decision
/// moved" must leave these exact; the dedup count also pins the state
/// digest, since two states merge only when their digests agree.
const PINNED_SEED_1: [(&str, Counts); 3] = [
    ("replicated-atomic", (446, 185, 10, 20)),
    ("speculative-straggler", (9095, 4766, 746, 192)),
    ("slo-deadline-mix", (456, 159, 0, 39)),
];

#[test]
fn all_scenarios_clean_at_depth_6() {
    for name in SCENARIOS {
        for seed in [1, 2] {
            let run = scenario_run(name, seed).expect("known scenario");
            let report = explore(&run, &opts(6, true));
            if seed == 1 {
                let s = &report.stats;
                let got = (s.transitions, s.dedup_hits, s.por_skips, s.quiescent);
                let want = PINNED_SEED_1
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, counts)| *counts);
                assert_eq!(
                    Some(got),
                    want,
                    "{name} seed=1: (transitions, dedup_hits, por_skips, \
                     quiescent) moved — the kernel, the state digest or \
                     the explorer changed what is reachable"
                );
            }
            assert!(
                report.clean(),
                "{name} seed={seed}: {:?}",
                report.violations
            );
            assert!(
                report.stats.transitions > 0,
                "{name} seed={seed}: explored nothing"
            );
            assert!(
                report.stats.quiescent > 0,
                "{name} seed={seed}: no quiescent state reached — the \
                 termination oracle never ran"
            );
        }
    }
}

/// Partial-order reduction must not change the verdict: with POR off the
/// explorer visits a superset of interleavings and must stay clean too.
#[test]
fn por_does_not_mask_violations() {
    for name in SCENARIOS {
        let run = scenario_run(name, 1).expect("known scenario");
        let with_por = explore(&run, &opts(5, true));
        let without = explore(&run, &opts(5, false));
        assert!(
            with_por.clean(),
            "{name} with POR: {:?}",
            with_por.violations
        );
        assert!(
            without.clean(),
            "{name} without POR: {:?}",
            without.violations
        );
        // Transition counts are NOT comparable across the two modes: the
        // sleep set is folded into the visited key when POR is on (for
        // soundness), which can split states that plain dedup merges.
        // The verdict equivalence above is the property that matters.
    }
}

/// Exploration is deterministic: same (scenario, seed, options) must
/// produce identical counters, or counterexample scripts would not be
/// reproducible.
#[test]
fn exploration_is_deterministic() {
    let run = scenario_run("speculative-straggler", 3).expect("known scenario");
    let a = explore(&run, &opts(6, true));
    let b = explore(&run, &opts(6, true));
    assert_eq!(a.stats.transitions, b.stats.transitions);
    assert_eq!(a.stats.dedup_hits, b.stats.dedup_hits);
    assert_eq!(a.stats.por_skips, b.stats.por_skips);
    assert_eq!(a.stats.quiescent, b.stats.quiescent);
}

#[test]
fn unknown_scenario_is_none() {
    assert!(scenario_run("no-such-template", 1).is_none());
}
