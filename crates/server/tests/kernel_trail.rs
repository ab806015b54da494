//! The coordinator kernel's step-by-step trail, pinned. One seeded
//! script walks every per-event path — `Start`, ok reports, an online
//! failure with a checkpoint, a silent unplug, a solver re-solve, a
//! replica group, a speculative copy (of the dark slot's in-flight
//! chunk) and a replug inside the unplug's keep-alive timeout, which
//! retires it — and [`Kernel::digest`] after every step plus every
//! emitted command's `Debug` form fold into one FNV-1a value.
//!
//! `tests/determinism.rs` pins whole-run outcomes; this pin moves as soon
//! as any intermediate state or command does (a slot visited out of
//! order, a command emitted in another order, a counter bumped on a
//! different step), even when the run ends the same.

use cwc_core::{ReplicationPolicy, SchedulerKind, SpeculationPolicy};
use cwc_server::coord::{
    CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy,
};
use cwc_sim::{Distributions, Fnv1a, SplitMix64};
use cwc_types::{
    CpuSpec, JobId, JobSpec, KiloBytes, Micros, MsPerKb, PhoneId, PhoneInfo, RadioTech,
};
use std::collections::BTreeMap;

const SLOTS: usize = 6;
/// Slot 1's second report is an online failure carrying a checkpoint.
const FAILS_ONLINE: usize = 1;
/// Slot 2 goes silently dark, and replugs before its keep-alive timeout
/// (`DARK_AT` + 3 × 30 s) elapses.
const GOES_DARK: usize = 2;
/// Slot 3 runs eight times slower than predicted: a straggler.
const STRAGGLER: usize = 3;
const DARK_AT: u64 = 45_000_000;
const REPLUG_AT: u64 = 120_000_000;

fn config(obs: &cwc_obs::Obs) -> KernelConfig {
    let mut jobs = Vec::new();
    for i in 0..6 {
        let kb = KiloBytes(600 + 250 * i);
        jobs.push(JobSpec::breakable(
            JobId(i as u32),
            "primecount",
            KiloBytes(30),
            kb,
        ));
    }
    for i in 6..10 {
        let kb = KiloBytes(80 + 40 * (i - 6));
        jobs.push(JobSpec::atomic(
            JobId(i as u32),
            "photoblur",
            KiloBytes(40),
            kb,
        ));
    }
    for i in 10..14 {
        let kb = KiloBytes(300 + 90 * (i - 10));
        jobs.push(JobSpec::breakable(
            JobId(i as u32),
            "wordcount",
            KiloBytes(20),
            kb,
        ));
    }
    KernelConfig {
        scheduler: SchedulerKind::Greedy,
        jobs,
        baselines: cwc_server::engine::paper_baselines(),
        keepalive_period: Micros::from_secs(30),
        tolerated_misses: 3,
        reschedule: ReschedulePolicy::Solver {
            delay: Micros::from_secs(60),
        },
        stall_timeout: None,
        breaker: None,
        // Slot 0 is flaky by prediction: its atomic placements are
        // replicated onto slot 4.
        reliability: Some((vec![0.9, 0.1, 0.2, 0.3, 0.0, 0.15], 0.5)),
        slo: BTreeMap::new(),
        replication: Some(ReplicationPolicy { threshold: 0.5 }),
        speculation: Some(SpeculationPolicy {
            slack: 2.0,
            budget: 2,
        }),
        bandwidth_blind: false,
        style: DriverStyle::Sim,
        obs: obs.clone(),
    }
}

fn phone(slot: usize, ms_per_kb: f64) -> PhoneInfo {
    let cpu = CpuSpec::new(1_500 - 120 * slot as u32, 2);
    PhoneInfo::new(
        PhoneId(slot as u32),
        cpu,
        RadioTech::Wifi80211g,
        MsPerKb(ms_per_kb),
    )
}

/// A closed-loop driver over simulated time: ships become reports after
/// a seeded duration, timers fire when due, probes are answered at once.
struct Trail {
    kernel: Kernel,
    rng: SplitMix64,
    trail: Fnv1a,
    now: u64,
    /// Pending events by `(due, arrival)`.
    pending: BTreeMap<(u64, u64), CoordEvent>,
    arrivals: u64,
    /// Ships answered so far, per slot.
    answered: [usize; SLOTS],
    steps: usize,
    online_failures: usize,
    probed_after_replug: usize,
}

impl Trail {
    fn push(&mut self, at: u64, ev: CoordEvent) {
        self.arrivals += 1;
        self.pending.insert((at, self.arrivals), ev);
    }

    fn link(&mut self, slot: usize) -> f64 {
        2.0 + slot as f64 + self.rng.gen_range(0.0..1.0)
    }

    /// Drops every report still owed by `slot` for ship `seq` (any seq
    /// when `None`).
    fn forget_reports(&mut self, slot: usize, seq: Option<u64>) {
        self.pending.retain(|_, ev| match *ev {
            CoordEvent::ReportOk {
                slot: s, seq: q, ..
            }
            | CoordEvent::ReportFailed {
                slot: s, seq: q, ..
            } => s != slot || seq.is_some_and(|seq| seq != q),
            _ => true,
        });
    }

    fn step(&mut self, ev: CoordEvent) {
        let cmds = self.kernel.step(Micros(self.now), ev);
        self.steps += 1;
        self.trail.write_u64(self.kernel.digest());
        for cmd in &cmds {
            let line = format!("{cmd:?}");
            self.trail.write_u64(line.len() as u64);
            self.trail.write(line.as_bytes());
        }
        for cmd in cmds {
            self.apply(cmd);
        }
    }

    fn apply(&mut self, cmd: CoordCommand) {
        match cmd {
            CoordCommand::ShipInput {
                slot,
                seq,
                job,
                exe_kb,
                len_kb,
                ..
            } => {
                let per_kb = 20.0 + self.rng.gen_range(0.0..20.0);
                let slow = if slot == STRAGGLER { 8.0 } else { 1.0 };
                let exec_ms = per_kb * slow * len_kb as f64;
                let transfer_ms = 3.0 * (exe_kb + len_kb) as f64;
                let took = Micros::from_ms_f64(transfer_ms + exec_ms).0;
                self.answered[slot] += 1;
                if slot == FAILS_ONLINE && self.answered[slot] == 2 {
                    let processed_kb = len_kb / 2;
                    let ev = CoordEvent::ReportFailed {
                        slot,
                        seq,
                        job,
                        processed_kb,
                        checkpoint: Some(vec![7, 1, processed_kb as u8]),
                    };
                    self.push(self.now + took / 2, ev);
                } else {
                    let ev = CoordEvent::ReportOk {
                        slot,
                        seq,
                        job,
                        exec_ms,
                    };
                    self.push(self.now + took, ev);
                }
            }
            CoordCommand::CancelTask { slot, seq, .. } => self.forget_reports(slot, Some(seq)),
            CoordCommand::StartTimer {
                kind,
                slot,
                token,
                after,
            } => self.push(
                self.now + after.0,
                CoordEvent::TimerFired { kind, slot, token },
            ),
            CoordCommand::SendProbe { slot } => {
                if slot == GOES_DARK && self.now >= REPLUG_AT {
                    self.probed_after_replug += 1;
                }
                let info = phone(slot, self.link(slot));
                self.push(self.now, CoordEvent::Probe { slot, info });
            }
            CoordCommand::SendKeepAlive { .. }
            | CoordCommand::RecordResult { .. }
            | CoordCommand::Finished
            | CoordCommand::Halt => {}
        }
    }

    fn run(seed: u64, obs: &cwc_obs::Obs) -> Trail {
        let mut t = Trail {
            kernel: Kernel::new(config(obs)).expect("kernel"),
            rng: SplitMix64::seed_from_u64(seed),
            trail: Fnv1a::default(),
            now: 0,
            pending: BTreeMap::new(),
            arrivals: 0,
            answered: [0; SLOTS],
            steps: 0,
            online_failures: 0,
            probed_after_replug: 0,
        };
        for slot in 0..SLOTS {
            let info = phone(slot, t.link(slot));
            t.step(CoordEvent::Probe { slot, info });
        }
        t.step(CoordEvent::Start);
        t.push(DARK_AT, CoordEvent::WentDark { slot: GOES_DARK });
        t.push(REPLUG_AT, CoordEvent::Replugged { slot: GOES_DARK });
        while let Some(((at, _), ev)) = t.pending.pop_first() {
            t.now = at;
            match ev {
                // A dark phone never answers what it was shipped.
                CoordEvent::WentDark { slot } => t.forget_reports(slot, None),
                CoordEvent::ReportFailed { .. } => t.online_failures += 1,
                _ => {}
            }
            t.step(ev);
            assert!(t.steps < 20_000, "the trail does not converge");
        }
        t
    }
}

#[test]
fn the_kernel_trail_is_pinned_step_by_step() {
    let obs = cwc_obs::Obs::new();
    let mut t = Trail::run(0x5eed_cafe, &obs);
    assert!(t.kernel.finished(), "the script drains the batch");
    assert!(t.kernel.take_fatal().is_none());
    // The script reaches every path it exists to cover.
    let counter = |name| obs.metrics.counter_value(name);
    assert_eq!(t.online_failures, 1);
    assert_eq!(
        counter("engine.keepalive_miss"),
        0,
        "the replug did not retire the keep-alive timeout"
    );
    assert!(
        counter("engine.reschedule_rounds") > 0,
        "no solver re-solve"
    );
    assert!(counter("sched.replica.planned") > 0, "no replica group");
    assert!(
        counter("sched.speculation.launched") > 0,
        "no speculative copy"
    );
    assert!(
        t.probed_after_replug > 0,
        "the re-solve did not probe the replugged slot"
    );
    assert_eq!(
        (t.steps, t.trail.finish()),
        (52, 0x06ea_fe10_38d0_d1a1),
        "the kernel's step-by-step trail moved"
    );
}
