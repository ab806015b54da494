//! Data builders, one per figure/table of the paper.

use cwc_core::economics::EnergyComparison;
use cwc_core::{relaxed_lower_bound, GreedyScheduler, SchedProblem, SchedulerKind};
use cwc_device::throttle::{simulate_charge, ChargeOutcome, ChargePolicy, ThrottleConfig};
use cwc_device::{coremark, BatteryParams, CpuModel, Phone, PhoneSpec};
use cwc_net::link::{LinkConfig, LinkModel};
use cwc_net::measure::{measure_link, MeasurementReport};
use cwc_profiler::{
    generate_study, parse_intervals, study_population, unplug_likelihood_by_hour, StudyStats,
};
use cwc_server::engine::paper_baselines;
use cwc_server::feasibility::{fcfs_dispatch, percentile, turnaround_cdf_ms};
use cwc_server::{
    paper_workload, testbed_fleet, Engine, EngineConfig, EngineOutcome, FailureInjection,
    FleetBuilder,
};
use cwc_sim::{Distributions, RngStreams};
use cwc_types::{
    CpuSpec, JobSpec, KiloBytes, Micros, MsPerKb, PhoneId, PhoneInfo, RadioTech, UserId,
};

/// Default master seed for every recorded experiment.
pub const DEFAULT_SEED: u64 = 2012;

/// Days of simulated charging logs for the §3.1 study.
pub const STUDY_DAYS: u32 = 28;

// ---------------------------------------------------------------- Fig. 1

/// Fig. 1: CoreMark-style CPU comparison. `(name, score, is_reference)`.
pub fn fig1() -> Vec<(&'static str, f64, bool)> {
    coremark::scores()
}

// ------------------------------------------------------------- Figs. 2–3

/// The full §3.1 charging-behavior study statistics (Figs. 2a–c, 3a).
pub fn fig2_fig3(seed: u64, days: u32) -> StudyStats {
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("users");
    let profiles = study_population(&mut rng);
    let intervals = parse_intervals(&generate_study(&profiles, days, &streams));
    StudyStats::compute(&intervals, profiles.len(), days)
}

/// Fig. 3b/c: per-hour unplug likelihood for two representative users
/// (a regular one and an irregular one).
pub fn fig3bc(seed: u64, days: u32) -> [(u32, [f64; 24]); 2] {
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("users");
    let profiles = study_population(&mut rng);
    let intervals = parse_intervals(&generate_study(&profiles, days, &streams));
    [
        (3, unplug_likelihood_by_hour(&intervals, UserId(3), days)),
        (11, unplug_likelihood_by_hour(&intervals, UserId(11), days)),
    ]
}

// ---------------------------------------------------------------- Fig. 4

/// Fig. 4: 600-second iperf sessions at the three houses' WiFi APs.
pub fn fig4(seed: u64) -> Vec<(&'static str, MeasurementReport)> {
    let streams = RngStreams::new(seed);
    let locations = [
        ("house-1 (802.11g)", RadioTech::Wifi80211g),
        ("house-2 (802.11g)", RadioTech::Wifi80211g),
        ("house-3 (802.11a)", RadioTech::Wifi80211a),
    ];
    locations
        .iter()
        .enumerate()
        .map(|(i, &(name, tech))| {
            let mut link =
                LinkModel::new(LinkConfig::typical(tech), streams.indexed_stream("fig4", i));
            let report = measure_link(
                &mut link,
                Micros::ZERO,
                Micros::from_secs(600),
                Micros::from_secs(1),
            );
            (name, report)
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 5

/// Fig. 5 outcome: both turnaround CDFs and their 90th percentiles (ms).
pub struct Fig5 {
    /// Sorted turnarounds, all six phones.
    pub all6_ms: Vec<f64>,
    /// Sorted turnarounds, the four fast-linked phones.
    pub fast4_ms: Vec<f64>,
    /// 90th percentiles `(all6, fast4)`.
    pub p90: (f64, f64),
}

/// Six identical-CPU phones with heterogeneous links (§3.1's setup).
fn fig5_phones(seed: u64) -> Vec<Phone> {
    let radios = [
        RadioTech::Wifi80211a,
        RadioTech::Wifi80211g,
        RadioTech::FourG,
        RadioTech::ThreeG,
        RadioTech::ThreeG,
        RadioTech::Edge,
    ];
    let streams = RngStreams::new(seed);
    radios
        .iter()
        .enumerate()
        .map(|(i, &radio)| {
            let spec = PhoneSpec {
                id: PhoneId::from_index(i),
                model: "HTC Sensation".into(),
                cpu: CpuModel::ideal(CpuSpec::new(1200, 2)),
                radio,
                ram_kb: 1 << 20,
                battery: BatteryParams::htc_sensation(),
            };
            let link = LinkModel::new(
                LinkConfig::typical(radio),
                streams.indexed_stream("fig5", i),
            );
            Phone::new(spec, link, 50.0)
        })
        .collect()
}

/// Fig. 5: 600 largest-int files, all six phones vs the four fastest
/// links (drop EDGE and one 3G — "the two slowest connections").
pub fn fig5(seed: u64) -> Fig5 {
    let files: Vec<KiloBytes> = {
        let mut rng = RngStreams::new(seed).stream("fig5/files");
        (0..600)
            .map(|_| KiloBytes(rng.gen_range(40..150)))
            .collect()
    };
    let baseline = 2.0; // largest-int scan cost, ms/KB at 806 MHz

    let mut all6 = fig5_phones(seed);
    let all6_ms = turnaround_cdf_ms(&fcfs_dispatch(&mut all6, &files, baseline));

    let mut fast4 = fig5_phones(seed);
    fast4.remove(5); // EDGE
    fast4.remove(4); // one 3G
    let fast4_ms = turnaround_cdf_ms(&fcfs_dispatch(&mut fast4, &files, baseline));

    let p90 = (percentile(&all6_ms, 90.0), percentile(&fast4_ms, 90.0));
    Fig5 {
        all6_ms,
        fast4_ms,
        p90,
    }
}

// ---------------------------------------------------------------- Fig. 6

/// Fig. 6: predicted (clock-ratio) vs measured speedup per phone–task
/// pair, relative to the slowest (806 MHz) phone.
pub fn fig6(seed: u64) -> Vec<(f64, f64)> {
    let fleet = testbed_fleet(seed);
    let baselines = paper_baselines();
    let mut points = Vec::new();
    for task in ["primecount", "wordcount", "photoblur"] {
        let t_s = baselines[task];
        for phone in &fleet {
            let cpu = phone.spec().cpu;
            points.push((
                cpu.predicted_speedup(),
                cpu.measured_speedup(cwc_types::MsPerKb(t_s)),
            ));
        }
    }
    points
}

// --------------------------------------------------------------- Fig. 10

/// Fig. 10 outcome: the three charging curves on the HTC Sensation.
pub struct Fig10 {
    /// No tasks: the ideal profile.
    pub idle: ChargeOutcome,
    /// CPU pegged continuously.
    pub heavy: ChargeOutcome,
    /// The adaptive MIMD throttle.
    pub throttled: ChargeOutcome,
}

impl Fig10 {
    /// Charging-time stretch of the heavy run vs idle (paper: ≈35%).
    pub fn heavy_stretch(&self) -> f64 {
        self.heavy.full_at.0 as f64 / self.idle.full_at.0 as f64 - 1.0
    }

    /// Compute-time overhead of the throttle vs the heavy run
    /// (paper: ≈24.5%).
    pub fn throttle_compute_overhead(&self) -> f64 {
        self.throttled.compute_overhead_vs(&self.heavy)
    }
}

/// Fig. 10: full-charge simulations under the three policies.
pub fn fig10() -> Fig10 {
    let params = BatteryParams::htc_sensation();
    let sample = Micros::from_mins(2);
    Fig10 {
        idle: simulate_charge(params, ChargePolicy::Idle, 0.0, sample),
        heavy: simulate_charge(params, ChargePolicy::Heavy, 0.0, sample),
        throttled: simulate_charge(
            params,
            ChargePolicy::Throttled(ThrottleConfig::default()),
            0.0,
            sample,
        ),
    }
}

// ------------------------------------------------------- Fig. 12 & table

/// Fig. 12a: the 150-task greedy run on the 18-phone testbed.
pub fn fig12a(seed: u64) -> EngineOutcome {
    Engine::run_on_testbed(seed, paper_workload(seed), vec![], EngineConfig::default())
        .expect("testbed run")
}

/// Fig. 12b: split-count series for greedy vs equal-split.
pub struct Fig12b {
    /// Greedy split counts (pieces − 1), ascending.
    pub greedy: Vec<usize>,
    /// Equal-split split counts, ascending.
    pub equal_split: Vec<usize>,
}

/// Fig. 12b data.
pub fn fig12b(seed: u64) -> Fig12b {
    let greedy = fig12a(seed).split_counts_sorted();
    let eq = Engine::run_on_testbed(
        seed,
        paper_workload(seed),
        vec![],
        EngineConfig {
            scheduler: SchedulerKind::EqualSplit,
            ..Default::default()
        },
    )
    .expect("equal-split run")
    .split_counts_sorted();
    Fig12b {
        greedy,
        equal_split: eq,
    }
}

/// Fig. 12c: the failure-injection run — phones 1, 6 and 17 unplugged at
/// staggered instants mid-execution.
pub fn fig12c(seed: u64) -> EngineOutcome {
    let injections = vec![
        FailureInjection {
            at: Micros::from_secs(120),
            phone: PhoneId(1),
            offline: false,
            replug_at: None,
        },
        FailureInjection {
            at: Micros::from_secs(40),
            phone: PhoneId(6),
            offline: false,
            replug_at: None,
        },
        FailureInjection {
            at: Micros::from_secs(300),
            phone: PhoneId(17),
            offline: false,
            replug_at: None,
        },
    ];
    Engine::run_on_testbed(
        seed,
        paper_workload(seed),
        injections,
        EngineConfig::default(),
    )
    .expect("failure run")
}

/// The §6 makespan table: all three schedulers on the same fleet and
/// workload. `(label, makespan s, predicted s, completed)` per scheduler.
pub fn table_makespan(seed: u64) -> Vec<(&'static str, f64, f64, usize)> {
    SchedulerKind::ALL
        .iter()
        .map(|&kind| {
            let out = Engine::run_on_testbed(
                seed,
                paper_workload(seed),
                vec![],
                EngineConfig {
                    scheduler: kind,
                    ..Default::default()
                },
            )
            .expect("table run");
            (
                kind.label(),
                out.makespan.as_secs_f64(),
                out.predicted_makespan_ms / 1_000.0,
                out.completed_jobs,
            )
        })
        .collect()
}

// --------------------------------------------------------------- Fig. 13

/// One Fig. 13 configuration's result.
#[derive(Debug, Clone, Copy)]
pub struct Fig13Point {
    /// Greedy makespan, ms.
    pub greedy_ms: f64,
    /// LP-relaxation lower bound, ms.
    pub relaxed_ms: f64,
}

impl Fig13Point {
    /// Optimality-gap ratio `T_cwc / T_relaxed − 1`.
    pub fn gap(&self) -> f64 {
        self.greedy_ms / self.relaxed_ms - 1.0
    }
}

/// Fig. 13: random configurations with `b_i` uniform in the measured
/// 1–70 ms/KB range, the same 150-task set, clock-scaled `c_ij` from the
/// testbed phones. Returns one point per configuration.
pub fn fig13(seed: u64, configs: usize) -> Vec<Fig13Point> {
    let jobs: Vec<JobSpec> = paper_workload(seed);
    let fleet = FleetBuilder::new(seed).build();
    let baselines = paper_baselines();
    let streams = RngStreams::new(seed);
    let mut points = Vec::with_capacity(configs);
    for k in 0..configs {
        let mut rng = streams.indexed_stream("fig13", k);
        let phones: Vec<PhoneInfo> = fleet
            .iter()
            .map(|p| {
                PhoneInfo::new(
                    p.id(),
                    p.spec().cpu.spec,
                    p.spec().radio,
                    MsPerKb(rng.gen_range(1.0..70.0)),
                )
            })
            .collect();
        let c: Vec<Vec<f64>> = phones
            .iter()
            .map(|ph| {
                jobs.iter()
                    .map(|j| baselines[&j.program] * 806.0 / f64::from(ph.cpu.clock_mhz))
                    .collect()
            })
            .collect();
        let problem =
            SchedProblem::new(phones, jobs.clone(), c.into()).expect("valid fig13 instance");
        let greedy = GreedyScheduler
            .schedule(&problem)
            .expect("greedy schedules");
        let relaxed = relaxed_lower_bound(&problem).expect("LP solves");
        points.push(Fig13Point {
            greedy_ms: greedy.predicted_makespan_ms,
            relaxed_ms: relaxed,
        });
    }
    points
}

/// Median gap of a Fig. 13 sweep (paper: ≈18%).
pub fn fig13_median_gap(points: &[Fig13Point]) -> f64 {
    let mut gaps: Vec<f64> = points.iter().map(Fig13Point::gap).collect();
    gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    gaps[gaps.len() / 2]
}

// ---------------------------------------------------------------- §3.2

/// §3.2 energy-cost comparison.
pub fn energy() -> EnergyComparison {
    EnergyComparison::paper()
}

// ------------------------------------------------------------- ablations

/// Ablation: greedy scheduling with bandwidth information erased (all
/// `b_i` set to the fleet mean) vs full bandwidth awareness — quantifies
/// the paper's central design argument (§3.1, Fig. 5's moral).
pub fn ablation_bandwidth_blind(seed: u64) -> (f64, f64) {
    let aware = fig12a(seed).makespan.as_secs_f64();

    // Build a fleet whose *scheduler-visible* bandwidth is homogenized by
    // using a blind scheduler pass: schedule against mean b_i, then
    // execute on the real links.
    let fleet = testbed_fleet(seed);
    let jobs = paper_workload(seed);
    let out = Engine::new(
        fleet,
        jobs,
        vec![],
        EngineConfig {
            scheduler: SchedulerKind::Greedy,
            ..Default::default()
        },
    )
    .and_then(|e| e.run_bandwidth_blind())
    .expect("blind run");
    (aware, out.makespan.as_secs_f64())
}

/// Extension study: behavior-driven overnight runs, neutral vs
/// failure-prediction-aware scheduling. Returns per-night
/// `(night, neutral_makespan_s, neutral_migrated, aware_makespan_s,
/// aware_migrated)`.
pub fn extension_reliability(
    seed: u64,
    nights: u32,
    start_hour: u64,
) -> Vec<(u32, f64, usize, f64, usize)> {
    use cwc_server::overnight::{plan_window, run_overnight};
    // Sized so the batch spans a couple of hours — long enough that the
    // behavioral model's early-morning unplugs actually intersect it.
    let jobs = cwc_server::workload::WorkloadBuilder::new(seed)
        .breakable(60, "primecount", 30, 2_000, 6_000)
        .atomic(20, "photoblur", 40, 400, 1_200)
        .build();
    let mut rows = Vec::new();
    for night in 1..=nights {
        let plan = plan_window(18, seed, night, Micros::from_hours(8), 28, start_hour);
        let neutral = run_overnight(
            testbed_fleet(seed),
            jobs.clone(),
            &plan,
            None,
            EngineConfig::default(),
        );
        let aware = run_overnight(
            testbed_fleet(seed),
            jobs.clone(),
            &plan,
            Some(1.0),
            EngineConfig::default(),
        );
        if let (Ok(n), Ok(a)) = (neutral, aware) {
            rows.push((
                night,
                n.makespan.as_secs_f64(),
                n.rescheduled_items,
                a.makespan.as_secs_f64(),
                a.rescheduled_items,
            ));
        }
    }
    rows
}

/// Extension study: fleet scaling. Runs the 150-task paper workload on
/// growing fleets and reports `(phones, greedy_makespan_s,
/// round_robin_makespan_s)` — where does adding phones stop paying?
pub fn extension_scaling(seed: u64) -> Vec<(usize, f64, f64)> {
    let jobs = paper_workload(seed);
    [6usize, 12, 18, 30, 48, 72]
        .into_iter()
        .map(|n| {
            let fleet = || {
                FleetBuilder::new(seed)
                    .houses(n / 6)
                    .phones_per_house(6)
                    .build()
            };
            let greedy = Engine::new(fleet(), jobs.clone(), vec![], EngineConfig::default())
                .and_then(|e| e.run())
                .expect("greedy scaling run");
            let rr = Engine::new(
                fleet(),
                jobs.clone(),
                vec![],
                EngineConfig {
                    scheduler: SchedulerKind::RoundRobin,
                    ..Default::default()
                },
            )
            .and_then(|e| e.run())
            .expect("rr scaling run");
            (n, greedy.makespan.as_secs_f64(), rr.makespan.as_secs_f64())
        })
        .collect()
}

/// Ablation: MIMD multiplier sweep for the throttle — `(increase,
/// decrease, full-charge minutes, compute overhead vs heavy)`.
pub fn ablation_throttle_factors() -> Vec<(f64, f64, f64, f64)> {
    let params = BatteryParams::htc_sensation();
    let sample = Micros::from_mins(5);
    let heavy = simulate_charge(params, ChargePolicy::Heavy, 0.0, sample);
    [(2.0, 0.75), (1.5, 0.9), (4.0, 0.5), (2.0, 0.95)]
        .into_iter()
        .map(|(inc, dec)| {
            let out = simulate_charge(
                params,
                ChargePolicy::Throttled(ThrottleConfig {
                    sleep_increase: inc,
                    sleep_decrease: dec,
                }),
                0.0,
                sample,
            );
            (
                inc,
                dec,
                out.full_at.as_hours_f64() * 60.0,
                out.compute_overhead_vs(&heavy),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape() {
        let scores = fig1();
        assert_eq!(scores.len(), 6);
        let core2 = scores
            .iter()
            .find(|(n, _, _)| n.contains("Core 2"))
            .unwrap()
            .1;
        let tegra3 = scores
            .iter()
            .find(|(n, _, _)| n.contains("Tegra 3"))
            .unwrap()
            .1;
        assert!(tegra3 > core2);
    }

    #[test]
    fn fig5_shape() {
        let f = fig5(DEFAULT_SEED);
        assert_eq!(f.all6_ms.len(), 600);
        assert!(
            f.p90.1 < f.p90.0,
            "fast4 p90 {} vs all6 p90 {}",
            f.p90.1,
            f.p90.0
        );
    }

    #[test]
    fn fig6_points_cluster_near_diagonal_with_fast_outliers() {
        let pts = fig6(DEFAULT_SEED);
        assert_eq!(pts.len(), 18 * 3);
        let on_diag = pts.iter().filter(|(p, m)| (m - p).abs() / p < 0.10).count();
        assert!(
            on_diag * 3 >= pts.len() * 2,
            "{on_diag}/{} near y=x",
            pts.len()
        );
        assert!(
            pts.iter().any(|(p, m)| m > &(p * 1.1)),
            "expected some faster-than-predicted outliers"
        );
    }

    #[test]
    fn fig13_small_sweep_matches_paper_band() {
        let pts = fig13(DEFAULT_SEED, 12);
        let median = fig13_median_gap(&pts);
        assert!(
            (0.02..0.60).contains(&median),
            "median optimality gap {median}"
        );
        for p in &pts {
            assert!(p.greedy_ms >= p.relaxed_ms - 1e-6, "bound violated");
        }
    }

    #[test]
    fn ablation_factors_cover_paper_default() {
        let rows = ablation_throttle_factors();
        assert!(rows.iter().any(|&(i, d, _, _)| i == 2.0 && d == 0.75));
    }
}
