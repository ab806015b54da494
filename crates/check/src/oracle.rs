//! Invariant oracles, run after every explored transition and at every
//! quiescent state.
//!
//! Oracles read only the kernel's [`CheckView`] snapshots and the
//! emitted command stream — never the shared obs metrics, which cloned
//! kernels from different branches would corrupt for each other.

use crate::harness::{Harness, Ship};
use cwc_server::coord::{CheckView, CoordCommand, CoordEvent, TimerKind};

/// One invariant violation: which oracle, and a human-readable account.
#[derive(Debug, Clone)]
pub struct Breach {
    /// Stable oracle name (recorded in counterexample scripts).
    pub oracle: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

fn breach(oracle: &'static str, detail: String) -> Option<Breach> {
    Some(Breach { oracle, detail })
}

/// Everything one transition exposes to the step oracles.
pub struct StepCtx<'a> {
    /// The delivered event.
    pub event: &'a CoordEvent,
    /// Kernel snapshot before the event.
    pub pre: &'a CheckView,
    /// Kernel snapshot after the event.
    pub post: &'a CheckView,
    /// Commands the kernel emitted for the event.
    pub commands: &'a [CoordCommand],
    /// Driver bookkeeping for the reported ship, if the event was a
    /// report (looked up *before* the harness dropped the entry).
    pub ship: Option<&'a Ship>,
    /// Total `Finished` commands seen on this path so far.
    pub finished_cmds: u32,
    /// `Start` has been delivered (byte conservation's lower bound only
    /// binds once the batch has been distributed).
    pub started: bool,
}

/// Runs every step oracle; the first breach wins.
pub fn check_step(ctx: &StepCtx<'_>) -> Option<Breach> {
    no_halt(ctx)
        .or_else(|| exactly_once_credit(ctx))
        .or_else(|| byte_conservation(ctx.post, ctx.started))
        .or_else(|| cancel_safety(ctx))
        .or_else(|| cancel_liveness(ctx))
        .or_else(|| slo_latch_once(ctx))
        .or_else(|| timer_sanity(ctx))
        .or_else(|| group_sanity(ctx.post))
}

/// A feasible scenario configuration must never produce a fatal
/// (`Halt`) kernel error mid-run.
fn no_halt(ctx: &StepCtx<'_>) -> Option<Breach> {
    if ctx.commands.iter().any(|c| matches!(c, CoordCommand::Halt)) {
        return breach(
            "no_halt",
            format!("kernel halted on {:?} under a feasible scenario", ctx.event),
        );
    }
    None
}

/// Each job's credited bytes may only grow by exactly what the delivered
/// report vouched for: the reported chunk's full length on success, its
/// claimed processed prefix on failure, and nothing on any other event.
/// A replica double-credit shows up here as `delta > allowed`.
fn exactly_once_credit(ctx: &StepCtx<'_>) -> Option<Breach> {
    let (target, allowed) = match ctx.event {
        CoordEvent::ReportOk { job, .. } => {
            let ok = ctx.ship.filter(|s| !s.cancelled);
            (Some(*job), ok.map(|s| s.len_kb).unwrap_or(0))
        }
        CoordEvent::ReportFailed {
            job, processed_kb, ..
        } => {
            let ok = ctx.ship.filter(|s| !s.cancelled);
            (
                Some(*job),
                ok.map(|s| (*processed_kb).min(s.len_kb)).unwrap_or(0),
            )
        }
        _ => (None, 0),
    };
    for (&job, &after) in &ctx.post.progress {
        let before = ctx.pre.progress.get(&job).copied().unwrap_or(0);
        if after < before {
            return breach(
                "exactly_once_credit",
                format!("{job}: credited bytes went backwards ({before} -> {after} KB)"),
            );
        }
        let delta = after - before;
        if delta == 0 {
            continue;
        }
        if Some(job) != target {
            return breach(
                "exactly_once_credit",
                format!(
                    "{job} gained {delta} KB on {:?}, which reported a different job",
                    ctx.event
                ),
            );
        }
        if delta != allowed {
            return breach(
                "exactly_once_credit",
                format!(
                    "{job} gained {delta} KB on {:?}, but the report vouched for {allowed} KB",
                    ctx.event
                ),
            );
        }
    }
    None
}

/// No job is ever credited past its input size, and — until the fleet is
/// lost — every uncredited byte is still held somewhere (queued or in
/// flight on a slot, dark or not, or on the failed list), with
/// redundancy groups counted once.
fn byte_conservation(view: &CheckView, started: bool) -> Option<Breach> {
    let outstanding = view.outstanding_kb();
    for (&job, &size) in &view.job_size {
        let done = view.progress.get(&job).copied().unwrap_or(0);
        if done > size {
            return breach(
                "byte_conservation",
                format!("{job}: {done} KB credited for a {size} KB input"),
            );
        }
        let held = outstanding.get(&job).copied().unwrap_or(0);
        if started && !view.fleet_lost && !view.fatal && done + held < size {
            return breach(
                "byte_conservation",
                format!(
                    "{job}: {done} KB credited + {held} KB outstanding < {size} KB input \
                     ({} bytes vanished without a fleet loss)",
                    (size - done - held) * 1024
                ),
            );
        }
    }
    None
}

/// A retired (cancelled) ship's late report must be absorbed without
/// effect: no result recorded, nothing credited (the credit side is
/// already covered by [`exactly_once_credit`] with `allowed = 0`).
fn cancel_safety(ctx: &StepCtx<'_>) -> Option<Breach> {
    let late =
        matches!(ctx.event, CoordEvent::ReportOk { .. }) && ctx.ship.is_some_and(|s| s.cancelled);
    if !late {
        return None;
    }
    if ctx
        .commands
        .iter()
        .any(|c| matches!(c, CoordCommand::RecordResult { .. }))
    {
        return breach(
            "cancel_safety",
            format!(
                "late report for a cancelled ship was accepted as a result: {:?}",
                ctx.event
            ),
        );
    }
    None
}

/// The report that wins a redundancy group cancels every other member in
/// flight on a live slot, so no phone keeps computing a slice that is
/// already credited. A dark slot is exempt: its phone hears nothing, and
/// its copy is dropped in place. A `ReportOk` resolves a group only by
/// winning it, so every group it retires is checked.
fn cancel_liveness(ctx: &StepCtx<'_>) -> Option<Breach> {
    let CoordEvent::ReportOk { slot, seq, .. } = *ctx.event else {
        return None;
    };
    let resolved = (ctx.pre.groups.keys()).filter(|g| !ctx.post.groups.contains_key(g));
    for &g in resolved {
        for (&i, s) in &ctx.pre.slots {
            let Some((q, c)) = &s.busy else { continue };
            let member = (i, *q);
            if c.group != Some(g) || !s.alive || member == (slot, seq) {
                continue;
            }
            let cancelled = ctx.commands.iter().any(|cmd| match *cmd {
                CoordCommand::CancelTask { slot, seq, .. } => (slot, seq) == member,
                _ => false,
            });
            if !cancelled {
                return breach(
                    "cancel_liveness",
                    format!(
                        "group {g} was won by slot {slot} (seq {seq}), but its member in \
                         flight on live slot {i} (seq {q}) got no CancelTask"
                    ),
                );
            }
        }
    }
    None
}

/// Completion latches exactly once: the completed set only grows, the
/// finished flag never clears, and `Finished` is emitted at most once
/// per run.
fn slo_latch_once(ctx: &StepCtx<'_>) -> Option<Breach> {
    for job in &ctx.pre.completed {
        if !ctx.post.completed.contains(job) {
            return breach(
                "slo_latch_once",
                format!("{job} un-completed on {:?}", ctx.event),
            );
        }
    }
    if ctx.pre.finished && !ctx.post.finished {
        return breach(
            "slo_latch_once",
            format!("finished flag cleared on {:?}", ctx.event),
        );
    }
    if ctx.finished_cmds > 1 {
        return breach(
            "slo_latch_once",
            format!("Finished emitted {} times", ctx.finished_cmds),
        );
    }
    None
}

/// A `Speculate` timer that outlived its chunk (the token no longer
/// names this slot's in-flight work, or the batch already finished) must
/// be ignored outright.
fn timer_sanity(ctx: &StepCtx<'_>) -> Option<Breach> {
    let CoordEvent::TimerFired {
        kind: TimerKind::Speculate,
        slot,
        token,
    } = ctx.event
    else {
        return None;
    };
    let live = !ctx.pre.finished
        && (ctx.pre.slots.get(slot))
            .is_some_and(|s| s.busy.as_ref().is_some_and(|(q, _)| q == token));
    if !live && !ctx.commands.is_empty() {
        return breach(
            "timer_sanity",
            format!(
                "stale Speculate timer (slot {slot}, token {token}) produced {} command(s): {:?}",
                ctx.commands.len(),
                ctx.commands
            ),
        );
    }
    None
}

/// Structural redundancy-group invariant: every live group has 1–2
/// members actually present in the state, matching its outstanding
/// count. A resolved group is removed from the map, so one left behind
/// has no member present and fails the count.
fn group_sanity(view: &CheckView) -> Option<Breach> {
    use std::collections::BTreeMap;
    let mut members: BTreeMap<u32, u32> = BTreeMap::new();
    let mut count = |group: Option<u32>| {
        if let Some(g) = group {
            *members.entry(g).or_insert(0) += 1;
        }
    };
    for slot in view.slots.values() {
        if let Some((_, c)) = &slot.busy {
            count(c.group);
        }
        for c in &slot.queue {
            count(c.group);
        }
    }
    for c in &view.failed {
        count(c.group);
    }
    for (&g, grp) in &view.groups {
        let present = members.get(&g).copied().unwrap_or(0);
        if present != grp.outstanding || !(1..=2).contains(&grp.outstanding) {
            return breach(
                "group_sanity",
                format!(
                    "group {g}: {present} member(s) present, {} outstanding",
                    grp.outstanding
                ),
            );
        }
    }
    for &g in members.keys() {
        if !view.groups.contains_key(&g) {
            return breach(
                "group_sanity",
                format!("chunk references resolved/unknown group {g}"),
            );
        }
    }
    None
}

/// Quiescence oracle: when no mandatory event remains (all live reports,
/// probe replies, and offline/reschedule timers drained), the batch must
/// have terminated — finished with every byte credited, or latched a
/// fleet loss.
pub fn check_quiescent(view: &CheckView, harness: &Harness) -> Option<Breach> {
    if view.fleet_lost {
        return None;
    }
    if !view.finished {
        return breach(
            "termination",
            format!(
                "quiescent but not finished: progress {:?}, {} armed timer(s), \
                 {} ship(s) held",
                view.progress,
                harness.timers.len(),
                harness.ships.len()
            ),
        );
    }
    for (&job, &size) in &view.job_size {
        let done = view.progress.get(&job).copied().unwrap_or(0);
        if done != size {
            return breach(
                "termination",
                format!("finished, but {job} credited {done} of {size} KB"),
            );
        }
    }
    None
}
