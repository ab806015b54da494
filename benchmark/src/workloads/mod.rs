//! The five named workloads. Names are stable identifiers: sizes are
//! part of a name's contract, because per-item cost is not constant in
//! batch size (see `live.us_per_chunk` vs `live.us_per_chunk_quarter`).

pub mod live;
pub mod paper;
pub mod sched;
pub mod sim;

use crate::report::RunResult;
use cwc_core::{RuntimePredictor, SchedProblem};
use cwc_device::Phone;
use cwc_obs::Obs;
use cwc_server::coord::charging_cluster_keys;
use cwc_server::engine::{paper_baselines, FailureInjection};
use cwc_server::{Engine, EngineConfig, FleetBuilder, WorkloadBuilder};
use cwc_types::{CwcResult, JobSpec, Micros, PhoneInfo};
use std::path::PathBuf;
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seeds every generated input; the program sees only the inputs.
    pub seed: u64,
    /// How long to keep repeating the timed batch.
    pub seconds: f64,
    /// `true`: the traced run (per-layer metrics); `false`: end-to-end.
    pub trace: bool,
    /// Shrunken instances for `cargo test` (numbers are not comparable
    /// with full-size runs).
    pub quick: bool,
    /// Where trace dumps go (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Seconds given to each timed loop: the whole run end-to-end; a
    /// third each to the untraced baseline and the traced repetitions of
    /// a traced run, which leaves the rest for the layer sheet.
    pub fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 3.0
        } else {
            self.seconds
        }
    }
}

/// One named workload.
pub struct Workload {
    /// Stable identifier.
    pub name: &'static str,
    /// Why it is in the set (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Runs it and returns the metrics of the requested table.
    pub run: fn(&RunConfig) -> CwcResult<RunResult>,
}

/// The set, in the order the all-workloads mode runs it.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "live-chunks",
        why: "4000 x 1 KB jobs over loopback: per-frame cost dominates (codec, reactor, Kernel::step); bytes and packing are almost free",
        run: live::run_chunks,
    },
    Workload {
        name: "live-bulk",
        why: "64 x 1 MB jobs over the same path: the byte path dominates (CRC32, copies, flush backpressure); ~70 kernel steps are almost free",
        run: live::run_bulk,
    },
    Workload {
        name: "sched-fleet",
        why: "scheduler alone on 1000 phones x 1000 jobs, single kernel vs 4 shards: core greedy/pack and shard/pool do all the work, no kernel, no sockets",
        run: sched::run,
    },
    Workload {
        name: "sim-fleet",
        why: "Engine::run under the Solver policy with every 10th phone unplugging: Kernel::step, warm re-packs and the sim queue dominate; net is bypassed",
        run: sim::run,
    },
    Workload {
        name: "paper-testbed",
        why: "the paper's 18 phones x 150 tasks over 20 seeds against the LP bound: the quality anchor every speed optimisation must leave unchanged",
        run: paper::run,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Fewest timed rounds behind any reported timing.
pub const MIN_REPS: usize = 3;

/// One warm-up call, then timed calls until `seconds` have passed (and
/// at least [`MIN_REPS`]). Returns the timed calls' results.
pub fn timed_reps<T>(seconds: f64, mut rep: impl FnMut() -> CwcResult<T>) -> CwcResult<Vec<T>> {
    rep()?;
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        out.push(rep()?);
    }
    Ok(out)
}

/// Derives an independent sub-seed (splitmix64 step) so one `--seed`
/// feeds several builders without correlating them.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A simulated fleet, its batch and its failure schedule: what
/// `Engine::new` takes.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The phones, as the program's builders made them.
    pub fleet: Vec<Phone>,
    /// The batch.
    pub jobs: Vec<JobSpec>,
    /// Unplug events (empty on the fault-free testbed).
    pub injections: Vec<FailureInjection>,
}

impl Instance {
    /// A `FleetBuilder` fleet of `houses` × 10 phones with `jobs` jobs
    /// (four breakable `primecount` to one atomic `photoblur`). Every
    /// tenth phone unplugs, one a second from t = 30 s, alternating
    /// offline (vanishes; found by keep-alive timeout) and online (reports
    /// its checkpoint); none comes back.
    pub fn fleet_with_failures(seed: u64, houses: usize, jobs: usize) -> Instance {
        let fleet = FleetBuilder::new(sub_seed(seed, 1))
            .houses(houses)
            .phones_per_house(PHONES_PER_HOUSE)
            .build();
        let jobs = WorkloadBuilder::new(sub_seed(seed, 2))
            .breakable(jobs * 4 / 5, "primecount", 30, 200, 2_000)
            .atomic(jobs / 5, "photoblur", 40, 100, 800)
            .build();
        let injections = fleet
            .iter()
            .step_by(10)
            .enumerate()
            .map(|(k, phone)| FailureInjection {
                at: Micros::from_secs(30 + k as u64),
                phone: phone.id(),
                offline: k % 2 == 0,
                replug_at: None,
            })
            .collect();
        Instance {
            fleet,
            jobs,
            injections,
        }
    }

    /// The fault-free scheduling problem the engine's kernel solves at
    /// `Start`, rebuilt outside it: the same probes (`Phone::info` at
    /// t = 0 on a copy of the fleet) and the paper's profiled baselines.
    pub fn problem(&self) -> CwcResult<SchedProblem> {
        let infos = self.infos();
        let mut predictor = RuntimePredictor::new();
        for (program, ms_per_kb) in paper_baselines() {
            predictor.set_baseline(&program, ms_per_kb);
        }
        let programs: Vec<&str> = self.jobs.iter().map(|j| j.program.as_str()).collect();
        let c = predictor.cost_matrix(&infos, &programs);
        SchedProblem::new(infos, self.jobs.clone(), c)
    }

    /// What every phone reports to the bandwidth probe at t = 0.
    pub fn infos(&self) -> Vec<PhoneInfo> {
        self.fleet
            .clone()
            .iter_mut()
            .map(|p| p.info(Micros::ZERO))
            .collect()
    }

    /// Cluster keys for shard planning: one site a house, no unplug
    /// history.
    pub fn cluster_keys(&self) -> Vec<u64> {
        let sites: Vec<u64> = (0..self.fleet.len())
            .map(|i| (i / PHONES_PER_HOUSE) as u64)
            .collect();
        charging_cluster_keys(&sites, None)
    }

    /// Input of the whole batch, MB.
    pub fn input_mb(&self) -> f64 {
        self.jobs.iter().map(|j| j.input_kb.as_mb_f64()).sum()
    }

    /// The engine for this instance, recording to `obs`.
    pub fn engine(self, obs: &Obs) -> CwcResult<Engine> {
        Engine::new(
            self.fleet,
            self.jobs,
            self.injections,
            EngineConfig {
                obs: obs.clone(),
                ..EngineConfig::default()
            },
        )
    }
}

const PHONES_PER_HOUSE: usize = 10;

/// Inputs for the layers a workload bypasses. Every traced run fills the
/// whole layer sheet, so a workload without a live batch (or a simulated
/// fleet, or a testbed-sized LP) of its own measures those layers on
/// these, seeded like everything else.
pub mod reference {
    use super::{sub_seed, Instance};
    use crate::livegen;
    use cwc_server::LiveJob;

    /// 1 000 jobs of just under 1 KB: a quarter of `live-chunks`.
    pub fn live_jobs(seed: u64, quick: bool) -> Vec<LiveJob> {
        let jobs = if quick { 64 } else { 1_000 };
        livegen::make_jobs(sub_seed(seed, 900), jobs, 897, 1_024)
    }

    /// One `sim-fleet` variation: 200 phones × 1 000 jobs with the
    /// failure mix.
    pub fn fleet(seed: u64, quick: bool) -> Instance {
        super::sim::build(sub_seed(seed, 901), quick)
    }

    /// One `paper-testbed` variation, for the LP.
    pub fn testbed(seed: u64, quick: bool) -> Instance {
        super::paper::build(sub_seed(seed, 902), quick)
    }
}
