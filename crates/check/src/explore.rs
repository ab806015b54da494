//! The bounded state-space explorer.
//!
//! Depth-first search over `(Kernel, Harness)` pairs. The kernel is
//! `Clone`, so branching checkpoints the state directly instead of
//! replaying the prefix. Two reductions keep the
//! frontier tractable:
//!
//! - **visited-state deduplication** over a 64-bit digest of the
//!   behavior-relevant state (kernel digest ⊕ harness digest), keyed to
//!   the best remaining depth already explored from that state, and
//! - **sleep-set partial-order reduction**: after exploring action `a`
//!   from a node, sibling subtrees skip re-exploring `a` first whenever
//!   it commutes with the sibling's action (disjoint dependency
//!   footprints). When POR is on, the sleep set is folded into the
//!   visited key, which keeps the combination of the two reductions
//!   sound.
//!
//! Every transition runs the full oracle library; a breach stops that
//! path and records the exact event trace that produced it.

use crate::harness::{Action, Harness};
use crate::oracle::{self, Breach, StepCtx};
use crate::scenario::ScenarioRun;
use cwc_server::coord::{CoordEvent, Kernel};
use cwc_types::Micros;
use std::collections::HashMap;

/// Exploration limits and switches.
#[derive(Debug, Clone)]
pub struct Options {
    /// Events explored past the initialisation prefix, per path.
    pub depth: usize,
    /// Hard cap on explored transitions (safety valve; 0 = unlimited).
    pub max_states: u64,
    /// Partial-order reduction on/off (`--no-por` sets false).
    pub por: bool,
    /// Stop after this many violations (0 = collect all).
    pub max_violations: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            depth: 8,
            max_states: 5_000_000,
            por: true,
            max_violations: 1,
        }
    }
}

/// Exploration counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Transitions executed (kernel steps).
    pub transitions: u64,
    /// Branches skipped because the target state was already explored
    /// at least as deeply.
    pub dedup_hits: u64,
    /// Branches skipped by the sleep-set reduction.
    pub por_skips: u64,
    /// Quiescent states reached (termination oracle ran).
    pub quiescent: u64,
    /// Paths cut by the depth bound.
    pub depth_bound_hits: u64,
    /// Kernel panics caught (each is also a violation).
    pub panics: u64,
}

/// One invariant violation with its full reproducing event trace
/// (initialisation prefix included).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// Human-readable account.
    pub detail: String,
    /// The `(now, event)` trace that reproduces the breach; the last
    /// entry is the violating step.
    pub trace: Vec<(Micros, CoordEvent)>,
}

/// Result of one exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Counters.
    pub stats: Stats,
    /// Violations found (bounded by [`Options::max_violations`]).
    pub violations: Vec<Violation>,
}

impl Report {
    /// No breach anywhere in the explored space.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Restores the previous panic hook on drop. The explorer steps the
/// kernel under `catch_unwind` (a panic is a reportable violation, not a
/// crash), and a planted bug would otherwise spray thousands of panic
/// backtraces across the output while every violating path is explored.
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

/// The outcome of stepping one event: either the kernel's response (its
/// own buffer, which the search holds while it explores below this
/// step), or the panic payload it blew up with.
pub(crate) fn step_caught(
    kernel: &mut Kernel,
    now: Micros,
    ev: CoordEvent,
) -> Result<Vec<cwc_server::coord::CoordCommand>, String> {
    let mut cmds = Vec::new();
    let step = || kernel.step_into(now, ev, &mut cmds);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)).map(|()| cmds);
    result.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())
    })
}

struct Ctx<'a> {
    run: &'a ScenarioRun,
    opts: &'a Options,
    visited: HashMap<u64, usize>,
    stats: Stats,
    violations: Vec<Violation>,
    trace: Vec<(Micros, CoordEvent)>,
}

impl Ctx<'_> {
    fn done(&self) -> bool {
        (self.opts.max_violations > 0 && self.violations.len() >= self.opts.max_violations)
            || (self.opts.max_states > 0 && self.stats.transitions >= self.opts.max_states)
    }

    fn breach(&mut self, b: Breach) {
        self.violations.push(Violation {
            oracle: b.oracle,
            detail: b.detail,
            trace: self.trace.clone(),
        });
    }
}

fn sleep_digest(sleep: &[Action]) -> u64 {
    let mut h: u64 = 0x100_0193;
    for a in sleep {
        // Debug formatting of a small Copy enum: cheap and collision-free
        // enough for a secondary key.
        for b in format!("{a:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Explores a scenario instance exhaustively to the configured depth.
pub fn explore(run: &ScenarioRun, opts: &Options) -> Report {
    let _quiet = QuietPanics::install();
    let mut ctx = Ctx {
        run,
        opts,
        visited: HashMap::new(),
        stats: Stats::default(),
        violations: Vec::new(),
        trace: Vec::new(),
    };

    // Fixed initialisation prefix: probe every slot, then Start. Probe
    // replies before Start trivially commute (each writes only its own
    // slot), so branching over their order would explore nothing new.
    let mut kernel = match Kernel::new(run.cfg.clone()) {
        Ok(k) => k,
        Err(e) => {
            ctx.breach(Breach {
                oracle: "no_halt",
                detail: format!("kernel construction failed: {e}"),
            });
            return Report {
                stats: ctx.stats,
                violations: ctx.violations,
            };
        }
    };
    let mut harness = Harness::new(&run.faults);
    let mut prefix: Vec<CoordEvent> = (0..run.infos.len())
        .map(|slot| CoordEvent::Probe {
            slot,
            info: run.infos[slot],
        })
        .collect();
    prefix.push(CoordEvent::Start);
    for ev in prefix {
        let now = harness.next_now();
        harness.observe_event(&ev);
        let pre = kernel.check_view();
        match step_caught(&mut kernel, now, ev.clone()) {
            Ok(cmds) => {
                harness.apply_commands(&cmds);
                ctx.trace.push((now, ev.clone()));
                ctx.stats.transitions += 1;
                let post = kernel.check_view();
                let step = StepCtx {
                    event: &ev,
                    pre: &pre,
                    post: &post,
                    commands: &cmds,
                    ship: None,
                    finished_cmds: harness.finished_cmds,
                    started: harness.started,
                };
                if let Some(b) = oracle::check_step(&step) {
                    ctx.breach(b);
                    return Report {
                        stats: ctx.stats,
                        violations: ctx.violations,
                    };
                }
            }
            Err(msg) => {
                ctx.stats.panics += 1;
                ctx.trace.push((now, ev));
                ctx.breach(Breach {
                    oracle: "no_panic",
                    detail: format!("kernel panicked during initialisation: {msg}"),
                });
                return Report {
                    stats: ctx.stats,
                    violations: ctx.violations,
                };
            }
        }
    }

    dfs(&kernel, &harness, opts.depth, &[], &mut ctx);
    Report {
        stats: ctx.stats,
        violations: ctx.violations,
    }
}

fn dfs(kernel: &Kernel, harness: &Harness, depth_left: usize, sleep: &[Action], ctx: &mut Ctx<'_>) {
    if ctx.done() {
        return;
    }
    let view = kernel.check_view();
    let actions = harness.enabled(&view, ctx.run);
    if !actions.iter().any(Harness::mandatory) {
        ctx.stats.quiescent += 1;
        if let Some(b) = oracle::check_quiescent(&view, harness) {
            ctx.breach(b);
            return;
        }
        // Optional events (late reports, stale timers) are still
        // explored below: quiescence must be stable under them.
    }
    if actions.is_empty() {
        return;
    }
    if depth_left == 0 {
        ctx.stats.depth_bound_hits += 1;
        return;
    }

    let footprints: Vec<_> = actions
        .iter()
        .map(|a| harness.footprint(a, &view, ctx.run))
        .collect();
    let mut explored: Vec<usize> = Vec::new();
    for (i, action) in actions.iter().enumerate() {
        if ctx.done() {
            return;
        }
        if ctx.opts.por && sleep.contains(action) {
            ctx.stats.por_skips += 1;
            continue;
        }
        let mut child_kernel = kernel.clone();
        let mut child_harness = harness.clone();
        let ev = child_harness.to_event(action, ctx.run);
        let now = child_harness.next_now();
        let ship = harness
            .ships
            .get(&match *action {
                Action::Ok { slot, seq }
                | Action::LateOk { slot, seq }
                | Action::Fail { slot, seq, .. } => (slot, seq),
                _ => (usize::MAX, u64::MAX),
            })
            .cloned();
        child_harness.observe_event(&ev);
        ctx.stats.transitions += 1;
        ctx.trace.push((now, ev.clone()));
        match step_caught(&mut child_kernel, now, ev.clone()) {
            Ok(cmds) => {
                child_harness.apply_commands(&cmds);
                let post = child_kernel.check_view();
                let step = StepCtx {
                    event: &ev,
                    pre: &view,
                    post: &post,
                    commands: &cmds,
                    ship: ship.as_ref(),
                    finished_cmds: child_harness.finished_cmds,
                    started: child_harness.started,
                };
                if let Some(b) = oracle::check_step(&step) {
                    ctx.breach(b);
                } else {
                    // Sleep set for the child: everything this node
                    // already explored (plus inherited sleepers) that
                    // commutes with the action just taken.
                    let child_sleep: Vec<Action> = if ctx.opts.por {
                        sleep
                            .iter()
                            .copied()
                            .chain(explored.iter().map(|&j| actions[j]))
                            .filter(|s| {
                                // Keep a sleeper only when it provably
                                // commutes with the action just taken; a
                                // sleeper that is not enabled here has no
                                // footprint, so it is dropped (sound —
                                // shrinking a sleep set only costs
                                // pruning).
                                actions
                                    .iter()
                                    .position(|a| a == s)
                                    .map(|j| footprints[j].independent(&footprints[i]))
                                    .unwrap_or(false)
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let mut key = child_kernel.digest() ^ child_harness.digest();
                    if ctx.opts.por {
                        key ^= sleep_digest(&child_sleep);
                    }
                    let remaining = depth_left - 1;
                    let seen = ctx.visited.get(&key).copied();
                    if seen.is_some_and(|d| d >= remaining) {
                        ctx.stats.dedup_hits += 1;
                    } else {
                        ctx.visited.insert(key, remaining);
                        dfs(&child_kernel, &child_harness, remaining, &child_sleep, ctx);
                    }
                }
            }
            Err(msg) => {
                ctx.stats.panics += 1;
                ctx.breach(Breach {
                    oracle: "no_panic",
                    detail: format!("kernel panicked on {ev:?}: {msg}"),
                });
            }
        }
        ctx.trace.pop();
        explored.push(i);
    }
}
