//! Scenario templates: small, fully-specified kernel configurations
//! whose admissible event orderings the explorer enumerates exhaustively.
//!
//! Each template pins the fleet shape and the fault envelope (which slots
//! may go silently dark, how many online failures may be injected) and
//! varies sizes/bandwidths/deadlines deterministically from a seed, so a
//! `(scenario, seed)` pair names one exact state space — which is what
//! makes counterexample scripts replayable byte-for-byte.

use cwc_server::coord::{DriverStyle, KernelConfig, ReschedulePolicy};
use cwc_types::{
    CpuSpec, JobId, JobSpec, KiloBytes, Micros, MsPerKb, PhoneId, PhoneInfo, RadioTech, SloClass,
};
use std::collections::{BTreeMap, BTreeSet};

/// Fault envelope the harness may inject along a path.
#[derive(Debug, Clone)]
pub struct Faults {
    /// Slots allowed to go silently dark ([`WentDark`]).
    ///
    /// [`WentDark`]: cwc_server::coord::CoordEvent::WentDark
    pub dark_slots: Vec<usize>,
    /// Total silent unplugs allowed along one path.
    pub dark_budget: u32,
    /// Total online failures (`ReportFailed`) allowed along one path.
    pub fail_budget: u32,
}

/// One concrete, explorable instance: `(scenario template, seed)`.
pub struct ScenarioRun {
    /// Template name (stable — recorded in counterexample scripts).
    pub name: &'static str,
    /// Seed the sizes/bandwidths/deadlines were derived from.
    pub seed: u64,
    /// Kernel construction parameters. Cloned per kernel instantiation;
    /// clones share the obs bus, which the oracles never read.
    pub cfg: KernelConfig,
    /// Per-slot probe replies (slot index = vector index).
    pub infos: Vec<PhoneInfo>,
    /// Fault envelope.
    pub faults: Faults,
    /// Jobs that may checkpoint mid-partition (breakable kind).
    pub breakable: BTreeSet<JobId>,
    /// Input size per job, KB (for oracle messages).
    pub sizes: BTreeMap<JobId, u64>,
}

impl ScenarioRun {
    /// The fixed initialisation prefix: probe every slot, then `Start`.
    /// Probe orderings commute trivially, so the explorer does not branch
    /// over them; the prefix is part of every trace and every script.
    pub fn prefix_len(&self) -> usize {
        self.infos.len() + 1
    }
}

/// Tiny deterministic generator (xorshift64*) for seed-derived variation
/// of the scenario templates. Its stream fixes which scenarios `explore`
/// visits at a seed, so it stays apart from `cwc_sim`'s generator.
pub struct SplitRng(u64);

impl SplitRng {
    /// Seeds the stream (zero is remapped to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        SplitRng(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next raw draw.
    pub fn draw(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.draw() % (hi - lo + 1)
    }
}

/// All template names, in the order `list` prints them.
pub const SCENARIOS: [&str; 3] = [
    "replicated-atomic",
    "speculative-straggler",
    "slo-deadline-mix",
];

/// Builds the named scenario at a seed. `None` for unknown names.
pub fn scenario_run(name: &str, seed: u64) -> Option<ScenarioRun> {
    match name {
        "replicated-atomic" => Some(replicated_atomic(seed)),
        "speculative-straggler" => Some(speculative_straggler(seed)),
        "slo-deadline-mix" => Some(slo_deadline_mix(seed)),
        _ => None,
    }
}

fn phone(slot: usize, bw: f64) -> PhoneInfo {
    PhoneInfo::new(
        PhoneId(slot as u32 + 1),
        CpuSpec::new(800 + 200 * slot as u32, 2),
        RadioTech::ThreeG,
        MsPerKb(bw),
    )
    .with_ram_kb(262_144)
}

fn base_cfg(jobs: Vec<JobSpec>, program: &str) -> KernelConfig {
    KernelConfig {
        scheduler: cwc_core::SchedulerKind::Greedy,
        jobs,
        baselines: BTreeMap::from([(program.to_string(), 30.0)]),
        keepalive_period: Micros::from_millis(2),
        tolerated_misses: 2,
        reschedule: ReschedulePolicy::Solver {
            delay: Micros::from_millis(5),
        },
        stall_timeout: None,
        breaker: None,
        reliability: None,
        slo: BTreeMap::new(),
        replication: None,
        speculation: None,
        bandwidth_blind: false,
        style: DriverStyle::Sim,
        obs: cwc_obs::Obs::new(),
    }
}

/// Template 1 — **replicated-atomic**: two atomic jobs on a 3-slot fleet
/// where slot 0 is fast but flaky (p_fail 0.9), so risk-driven
/// replication pairs its atomic placements with copies on the most
/// reliable slot. Exercises first-result-wins resolution, loser
/// cancellation, late/duplicate replica reports, and solver reschedule
/// rounds — the regime where double-credit bugs live.
fn replicated_atomic(seed: u64) -> ScenarioRun {
    let mut rng = SplitRng::new(seed ^ 0xA1);
    // Slot 0 is the fastest link so the packer places work there.
    let bws = [
        3.0 + rng.range(0, 2) as f64,
        8.0 + rng.range(0, 4) as f64,
        9.0 + rng.range(0, 4) as f64,
    ];
    let size_a = 2 * rng.range(8, 20);
    let size_b = 2 * rng.range(8, 20);
    let jobs = vec![
        JobSpec::atomic(JobId(1), "primecount", KiloBytes(10), KiloBytes(size_a)),
        JobSpec::atomic(JobId(2), "primecount", KiloBytes(10), KiloBytes(size_b)),
    ];
    let mut cfg = base_cfg(jobs, "primecount");
    // Aggressiveness 0 keeps the packer risk-blind: the flaky-but-fast
    // slot 0 actually receives the atomic placements, so replication
    // (not avoidance) is the mitigation whose orderings get explored.
    cfg.reliability = Some((vec![0.9, 0.05, 0.05], 0.0));
    cfg.replication = Some(cwc_core::ReplicationPolicy { threshold: 0.5 });
    ScenarioRun {
        name: "replicated-atomic",
        seed,
        cfg,
        infos: (0..3).map(|i| phone(i, bws[i])).collect(),
        faults: Faults {
            dark_slots: vec![0],
            dark_budget: 1,
            fail_budget: 1,
        },
        breakable: BTreeSet::new(),
        sizes: BTreeMap::from([(JobId(1), size_a), (JobId(2), size_b)]),
    }
}

/// Template 2 — **speculative-straggler**: breakable work on a 3-slot
/// fleet with a one-launch speculation budget. Exercises the straggler
/// watchdog, speculation onto the least-loaded slot, the rescue of a
/// dark slot's in-flight chunk after a silent unplug, and stale
/// `Speculate` timers firing after their chunk already completed.
fn speculative_straggler(seed: u64) -> ScenarioRun {
    let mut rng = SplitRng::new(seed ^ 0xB2);
    let bws = [
        5.0 + rng.range(0, 3) as f64,
        7.0 + rng.range(0, 3) as f64,
        11.0 + rng.range(0, 4) as f64,
    ];
    let size_a = 2 * rng.range(12, 30);
    let size_b = 2 * rng.range(12, 30);
    let jobs = vec![
        JobSpec::breakable(JobId(1), "wordcount", KiloBytes(8), KiloBytes(size_a)),
        JobSpec::breakable(JobId(2), "wordcount", KiloBytes(8), KiloBytes(size_b)),
    ];
    let mut cfg = base_cfg(jobs, "wordcount");
    cfg.speculation = Some(cwc_core::SpeculationPolicy {
        slack: 1.5,
        budget: 1,
    });
    ScenarioRun {
        name: "speculative-straggler",
        seed,
        cfg,
        infos: (0..3).map(|i| phone(i, bws[i])).collect(),
        faults: Faults {
            dark_slots: vec![1],
            dark_budget: 1,
            fail_budget: 0,
        },
        breakable: BTreeSet::from([JobId(1), JobId(2)]),
        sizes: BTreeMap::from([(JobId(1), size_a), (JobId(2), size_b)]),
    }
}

/// Template 3 — **slo-deadline-mix**: a deadline-class atomic job next to
/// a best-effort breakable one on a 2-slot fleet with round-robin
/// migration. The logical clock (1 ms per event) makes both the met and
/// missed deadline verdicts reachable; the fault envelope is large
/// enough to kill every slot, so the graceful-degradation
/// (`fleet_lost`) latch is explored too, and to let slot 1 go dark,
/// replug and go dark again.
fn slo_deadline_mix(seed: u64) -> ScenarioRun {
    let mut rng = SplitRng::new(seed ^ 0xC3);
    let bws = [4.0 + rng.range(0, 3) as f64, 9.0 + rng.range(0, 4) as f64];
    let size_a = 2 * rng.range(6, 14);
    let size_b = 2 * rng.range(10, 24);
    let deadline_ms = rng.range(5, 9);
    let jobs = vec![
        JobSpec::atomic(JobId(1), "primecount", KiloBytes(6), KiloBytes(size_a)),
        JobSpec::breakable(JobId(2), "primecount", KiloBytes(6), KiloBytes(size_b)),
    ];
    let mut cfg = base_cfg(jobs, "primecount");
    cfg.reschedule = ReschedulePolicy::RoundRobin;
    cfg.slo = BTreeMap::from([
        (JobId(1), SloClass::Deadline(deadline_ms)),
        (JobId(2), SloClass::BestEffort),
    ]);
    ScenarioRun {
        name: "slo-deadline-mix",
        seed,
        cfg,
        infos: (0..2).map(|i| phone(i, bws[i])).collect(),
        faults: Faults {
            dark_slots: vec![1],
            dark_budget: 2,
            fail_budget: 1,
        },
        breakable: BTreeSet::from([JobId(2)]),
        sizes: BTreeMap::from([(JobId(1), size_a), (JobId(2), size_b)]),
    }
}
