//! The model of a conforming driver.
//!
//! The kernel's contract is "execute every command, feed the resulting
//! events back in" — so the harness is pure bookkeeping over the command
//! stream: which ships are in flight (and which of those were cancelled
//! and may still report late), which probes await replies, which timers
//! are armed, which slots are dark (and may replug), and how much fault
//! budget the scenario has left. From that bookkeeping it derives the
//! set of events a real driver could deliver next; the explorer branches
//! over exactly that set.
//!
//! Time is logical: the n-th delivered event carries `now = (n+1) ms`.
//! Armed timers are treated as firable in any order — a superset of real
//! schedules, since event gaps are unconstrained (see DESIGN.md §13 for
//! the one refinement this skips).

use crate::scenario::{Faults, ScenarioRun};
use cwc_server::coord::{CheckView, CoordCommand, CoordEvent, TimerKind};
use cwc_sim::Fnv1a;
use cwc_types::{JobId, Micros, ProgramId};
use std::collections::{BTreeMap, BTreeSet};

/// One shipped partition the driver still holds a handle to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ship {
    /// Job the partition belongs to.
    pub job: JobId,
    /// Partition length, KB.
    pub len_kb: u64,
    /// Partition offset, KB.
    pub offset_kb: u64,
    /// Shipped as a redundant copy (`ShipInput { replica: true }`).
    pub replica: bool,
    /// A `CancelTask` retired this ship; the worker may still report it
    /// late exactly once.
    pub cancelled: bool,
}

/// One deliverable next event, in canonical order. The `Ord` derive is
/// the exploration order (and the sleep-set "earlier than" relation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// Probe reply for an outstanding `SendProbe`.
    Probe { slot: usize },
    /// Successful report for a live in-flight ship.
    Ok { slot: usize, seq: u64 },
    /// Late successful report for a cancelled ship.
    LateOk { slot: usize, seq: u64 },
    /// Injected online failure for a live in-flight ship.
    /// `mode` 0: nothing processed, no checkpoint; `mode` 1: half
    /// processed with a checkpoint (breakable, ungrouped chunks only).
    Fail { slot: usize, seq: u64, mode: u8 },
    /// Injected silent unplug.
    Dark { slot: usize },
    /// A dark slot plugs back in; each `Dark` enables one.
    Replug { slot: usize },
    /// An armed timer elapses.
    Timer { kind: u8, slot: usize, token: u64 },
}

/// Dependency footprint of one action: the state it can read or write.
/// Two non-global actions with disjoint key sets commute.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Touches solver/fleet-wide state: never commutes.
    pub global: bool,
    /// Fine-grained keys (slots, jobs, predictor programs, the ship-seq
    /// mint).
    pub keys: BTreeSet<Key>,
}

/// Footprint key space.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// Per-slot state (queue, busy, keep-alive counters).
    Slot(usize),
    /// Per-job byte accounting.
    Job(u32),
    /// The §4.1 predictor's per-program estimator.
    Prog(ProgramId),
    /// The global ship sequence mint (`next_seq`).
    Mint,
}

impl Footprint {
    fn global() -> Self {
        Footprint {
            global: true,
            keys: BTreeSet::new(),
        }
    }

    /// Whether `self` and `other` commute (disjoint, neither global).
    pub fn independent(&self, other: &Footprint) -> bool {
        !self.global && !other.global && self.keys.is_disjoint(&other.keys)
    }
}

const TIMER_KINDS: [TimerKind; 5] = [
    TimerKind::KeepAlive,
    TimerKind::Stall,
    TimerKind::OfflineDetect,
    TimerKind::Reschedule,
    TimerKind::Speculate,
];

fn timer_index(kind: TimerKind) -> u8 {
    match kind {
        TimerKind::KeepAlive => 0,
        TimerKind::Stall => 1,
        TimerKind::OfflineDetect => 2,
        TimerKind::Reschedule => 3,
        TimerKind::Speculate => 4,
    }
}

/// Driver-side bookkeeping, cloned alongside the kernel at every branch.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Events delivered so far (prefix included); the logical clock.
    pub steps: u64,
    /// In-flight ships by `(slot, seq)`, including cancelled ones whose
    /// late report has not been delivered yet.
    pub ships: BTreeMap<(usize, u64), Ship>,
    /// Slots with an outstanding `SendProbe`.
    pub probes: BTreeSet<usize>,
    /// Armed timers `(kind index, slot, token)`.
    pub timers: BTreeSet<(u8, usize, u64)>,
    /// Slots that went silently dark and have not replugged.
    pub dark: BTreeSet<usize>,
    /// Remaining silent-unplug budget.
    pub dark_budget: u32,
    /// Remaining online-failure budget.
    pub fail_budget: u32,
    /// `Finished` commands seen (the latch-once oracle reads this).
    pub finished_cmds: u32,
    /// A `Halt` command was seen.
    pub halted: bool,
    /// `Start` has been delivered: byte conservation only binds once the
    /// kernel has actually distributed the batch.
    pub started: bool,
}

impl Harness {
    /// Fresh harness for a scenario's fault envelope.
    pub fn new(faults: &Faults) -> Self {
        Harness {
            steps: 0,
            ships: BTreeMap::new(),
            probes: BTreeSet::new(),
            timers: BTreeSet::new(),
            dark: BTreeSet::new(),
            dark_budget: faults.dark_budget,
            fail_budget: faults.fail_budget,
            finished_cmds: 0,
            halted: false,
            started: false,
        }
    }

    /// The logical timestamp the next delivered event carries.
    pub fn next_now(&self) -> Micros {
        Micros((self.steps + 1) * 1_000)
    }

    /// Folds one delivered event into the bookkeeping (call before
    /// stepping the kernel).
    pub fn observe_event(&mut self, ev: &CoordEvent) {
        self.steps += 1;
        match ev {
            CoordEvent::Probe { slot, .. } => {
                self.probes.remove(slot);
            }
            CoordEvent::ReportOk { slot, seq, .. } => {
                self.ships.remove(&(*slot, *seq));
            }
            CoordEvent::ReportFailed { slot, seq, .. } => {
                self.ships.remove(&(*slot, *seq));
                self.fail_budget = self.fail_budget.saturating_sub(1);
            }
            CoordEvent::WentDark { slot } => {
                self.dark.insert(*slot);
                self.dark_budget = self.dark_budget.saturating_sub(1);
                // A silently-unplugged worker never reports again.
                self.ships.retain(|(s, _), _| s != slot);
            }
            CoordEvent::Replugged { slot } => {
                self.dark.remove(slot);
            }
            CoordEvent::TimerFired { kind, slot, token } => {
                self.timers.remove(&(timer_index(*kind), *slot, *token));
            }
            CoordEvent::Start => self.started = true,
            CoordEvent::KeepAliveSeen { .. }
            | CoordEvent::ConnectionLost { .. }
            | CoordEvent::Misbehaved { .. } => {}
        }
    }

    /// Folds the kernel's response into the bookkeeping (call after
    /// stepping the kernel).
    pub fn apply_commands(&mut self, cmds: &[CoordCommand]) {
        for cmd in cmds {
            match cmd {
                CoordCommand::ShipInput {
                    slot,
                    seq,
                    job,
                    offset_kb,
                    len_kb,
                    replica,
                    ..
                } => {
                    self.ships.insert(
                        (*slot, *seq),
                        Ship {
                            job: *job,
                            len_kb: *len_kb,
                            offset_kb: *offset_kb,
                            replica: *replica,
                            cancelled: false,
                        },
                    );
                }
                CoordCommand::CancelTask { slot, seq, .. } => {
                    if let Some(ship) = self.ships.get_mut(&(*slot, *seq)) {
                        ship.cancelled = true;
                    }
                }
                CoordCommand::SendProbe { slot } => {
                    self.probes.insert(*slot);
                }
                CoordCommand::StartTimer {
                    kind, slot, token, ..
                } => {
                    self.timers.insert((timer_index(*kind), *slot, *token));
                }
                CoordCommand::Finished => self.finished_cmds += 1,
                CoordCommand::Halt => self.halted = true,
                CoordCommand::RecordResult { .. } | CoordCommand::SendKeepAlive { .. } => {}
            }
        }
    }

    /// All events a conforming driver could deliver next, in canonical
    /// order.
    ///
    /// Silent unplugs are only injected while no probe of that slot is
    /// outstanding: a probed-then-dark slot would wedge the solver round
    /// forever (the kernel waits for every reply), which is a driver
    /// integration question, not a kernel-interleaving one. A dark slot
    /// may replug at any point, before or after its keep-alive timeout,
    /// and then go dark again while the budget lasts.
    pub fn enabled(&self, view: &CheckView, run: &ScenarioRun) -> Vec<Action> {
        let mut out = Vec::new();
        for &slot in &self.probes {
            out.push(Action::Probe { slot });
        }
        for (&(slot, seq), ship) in &self.ships {
            if ship.cancelled {
                out.push(Action::LateOk { slot, seq });
                continue;
            }
            out.push(Action::Ok { slot, seq });
            if self.fail_budget > 0 {
                out.push(Action::Fail { slot, seq, mode: 0 });
                let grouped = view
                    .slots
                    .get(&slot)
                    .and_then(|s| s.busy.as_ref())
                    .is_some_and(|(_, c)| c.group.is_some());
                if !grouped && run.breakable.contains(&ship.job) && ship.len_kb >= 2 {
                    out.push(Action::Fail { slot, seq, mode: 1 });
                }
            }
        }
        if self.dark_budget > 0 {
            for &slot in &run.faults.dark_slots {
                let alive = view.slots.get(&slot).is_none_or(|s| s.alive);
                if alive && !self.dark.contains(&slot) && !self.probes.contains(&slot) {
                    out.push(Action::Dark { slot });
                }
            }
        }
        for &slot in &self.dark {
            out.push(Action::Replug { slot });
        }
        for &(kind, slot, token) in &self.timers {
            out.push(Action::Timer { kind, slot, token });
        }
        out.sort();
        out
    }

    /// Whether a real driver is *guaranteed* to eventually deliver this
    /// event (live reports and probe replies always arrive; armed
    /// offline-detection and reschedule timers always elapse). A state
    /// with no mandatory events left is quiescent: the termination oracle
    /// runs there.
    pub fn mandatory(action: &Action) -> bool {
        match action {
            Action::Probe { .. } | Action::Ok { .. } => true,
            Action::Timer { kind, .. } => {
                *kind == timer_index(TimerKind::OfflineDetect)
                    || *kind == timer_index(TimerKind::Reschedule)
            }
            Action::LateOk { .. }
            | Action::Fail { .. }
            | Action::Dark { .. }
            | Action::Replug { .. } => false,
        }
    }

    /// Materialises an action as the event the driver would deliver.
    pub fn to_event(&self, action: &Action, run: &ScenarioRun) -> CoordEvent {
        match *action {
            Action::Probe { slot } => CoordEvent::Probe {
                slot,
                info: run.infos[slot],
            },
            Action::Ok { slot, seq } | Action::LateOk { slot, seq } => {
                let job = self
                    .ships
                    .get(&(slot, seq))
                    .map(|s| s.job)
                    .unwrap_or(JobId(0));
                CoordEvent::ReportOk {
                    slot,
                    seq,
                    job,
                    // Deterministic measured runtime: slot-dependent so
                    // predictor updates for the same program do not
                    // accidentally commute.
                    exec_ms: 8.0 + slot as f64,
                }
            }
            Action::Fail { slot, seq, mode } => {
                let ship = self.ships.get(&(slot, seq));
                let job = ship.map(|s| s.job).unwrap_or(JobId(0));
                let len = ship.map(|s| s.len_kb).unwrap_or(0);
                let (processed_kb, checkpoint) = if mode == 1 {
                    (len / 2, Some(vec![0xCD]))
                } else {
                    (0, None)
                };
                CoordEvent::ReportFailed {
                    slot,
                    seq,
                    job,
                    processed_kb,
                    checkpoint,
                }
            }
            Action::Dark { slot } => CoordEvent::WentDark { slot },
            Action::Replug { slot } => CoordEvent::Replugged { slot },
            Action::Timer { kind, slot, token } => CoordEvent::TimerFired {
                kind: TIMER_KINDS[kind as usize],
                slot,
                token,
            },
        }
    }

    /// Dependency footprint of an action at the current state. Used by
    /// the sleep-set partial-order reduction; conservatively global for
    /// anything that can reach solver or fleet-wide state.
    pub fn footprint(&self, action: &Action, view: &CheckView) -> Footprint {
        match *action {
            Action::Probe { slot } => {
                // The last awaited reply triggers a full solver round.
                if view.probing.len() <= 1 && view.probing.contains(&slot) {
                    Footprint::global()
                } else {
                    Footprint {
                        global: false,
                        keys: BTreeSet::from([Key::Slot(slot)]),
                    }
                }
            }
            Action::Ok { slot, seq } => {
                let Some(slot_view) = view.slots.get(&slot) else {
                    return Footprint::global();
                };
                let Some((_, chunk)) = slot_view.busy.as_ref().filter(|(s, _)| *s == seq) else {
                    // Not actually in flight kernel-side: stale no-op.
                    return Footprint {
                        global: false,
                        keys: BTreeSet::from([Key::Slot(slot)]),
                    };
                };
                if chunk.group.is_some() {
                    // Group resolution cancels the twin on another slot.
                    return Footprint::global();
                }
                let done = view.progress.get(&chunk.job).copied().unwrap_or(0);
                let size = view.job_size.get(&chunk.job).copied().unwrap_or(u64::MAX);
                if done + chunk.kb >= size {
                    // Completion latch reads every job's progress.
                    return Footprint::global();
                }
                let mut keys = BTreeSet::from([
                    Key::Slot(slot),
                    Key::Job(chunk.job.0),
                    Key::Prog(chunk.program),
                ]);
                if !slot_view.queue.is_empty() {
                    // The report frees the slot: the next ship mints a
                    // global sequence number.
                    keys.insert(Key::Mint);
                }
                Footprint {
                    global: false,
                    keys,
                }
            }
            Action::LateOk { slot, .. } => Footprint {
                global: false,
                keys: BTreeSet::from([Key::Slot(slot)]),
            },
            // A replug fails and routes whatever the slot held: a
            // reschedule timer or a migration onto every live slot.
            Action::Fail { .. } | Action::Dark { .. } | Action::Replug { .. } => {
                Footprint::global()
            }
            Action::Timer { kind, slot, token } => {
                if kind == timer_index(TimerKind::Speculate) {
                    let live = (view.slots.get(&slot))
                        .is_some_and(|s| s.busy.as_ref().is_some_and(|(q, _)| *q == token));
                    if live && !view.finished {
                        Footprint::global()
                    } else {
                        // Stale straggler check: a pure no-op.
                        Footprint::default()
                    }
                } else {
                    Footprint::global()
                }
            }
        }
    }

    /// FNV-1a digest of the driver-side state that can influence future
    /// transitions. Combined (XOR) with [`Kernel::digest`] for the
    /// explorer's visited set. Excludes `steps`: merging states that
    /// differ only in elapsed logical time is the point of the
    /// abstraction (DESIGN.md §13).
    ///
    /// [`Kernel::digest`]: cwc_server::coord::Kernel::digest
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        for (&(slot, seq), ship) in &self.ships {
            h.write_u64(slot as u64);
            h.write_u64(seq);
            h.write_u64(u64::from(ship.job.0));
            h.write_u64(ship.len_kb);
            h.write_u64(ship.offset_kb);
            h.write_u64(u64::from(u8::from(ship.replica)));
            h.write_u64(u64::from(u8::from(ship.cancelled)));
        }
        h.write_u64(0xF0);
        for &slot in &self.probes {
            h.write_u64(slot as u64);
        }
        h.write_u64(0xF1);
        for &(kind, slot, token) in &self.timers {
            h.write_u64(u64::from(kind));
            h.write_u64(slot as u64);
            h.write_u64(token);
        }
        h.write_u64(0xF2);
        for &slot in &self.dark {
            h.write_u64(slot as u64);
        }
        h.write_u64(u64::from(self.dark_budget));
        h.write_u64(u64::from(self.fail_budget));
        h.write_u64(u64::from(self.finished_cmds));
        h.write_u64(u64::from(u8::from(self.halted)));
        h.finish()
    }
}
