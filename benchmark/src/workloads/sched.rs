//! `sched-fleet`: the scheduler alone at fleet scale — cold scheduling
//! instants on eight seeded variations of a 1 000 phones × 1 000 jobs
//! instance. The traced run adds the warm residual re-schedule and the
//! same instance 4-way sharded, so the quality cost of sharding sits next
//! to its speed-up.

use super::{sub_seed, timed_reps, RunConfig};
use crate::layers;
use crate::report::{median, peak_rss_mb, Repeated, RunResult};
use crate::sheet::{self, Own};
use crate::spans::Tracer;
use cwc_core::{RuntimePredictor, SchedProblem};
use cwc_server::coord::charging_cluster_keys;
use cwc_types::{
    CpuSpec, CwcResult, JobId, JobSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech,
};
use std::time::Instant;

/// Fleet and batch size (part of the workload's contract). One cold
/// instant is ≈ 80 ms, short enough that some repetition of every
/// variation falls between two bursts of interference.
const PHONES: usize = 1_000;
const JOBS: usize = 1_000;

/// Seeded variations of the instance a round schedules: one instance's
/// cost moves ±10 % with its seed's pattern rotation.
const VARIATIONS: u64 = 8;

/// The `cwc-bench-sched` instance family, re-implemented here so nothing
/// depends on `crates/bench`, with the seed rotating each arithmetic
/// pattern: heterogeneous clocks (806–1 505 MHz) and links (1–70 ms/KB),
/// job inputs of 200–1 999 KB, every third job atomic, 150 ms/KB on the
/// 806 MHz reference scaled by clock. Returns the problem and the
/// phones' cluster keys (four phones a site, unplug risk cycling).
pub fn synth_instance(
    seed: u64,
    phones: usize,
    jobs: usize,
) -> CwcResult<(SchedProblem, Vec<u64>)> {
    let (clock_rot, link_rot, size_rot) = (
        sub_seed(seed, 1) % 700,
        (sub_seed(seed, 2) % 690) as f64 / 10.0,
        sub_seed(seed, 3) % 1_800,
    );
    let infos: Vec<PhoneInfo> = (0..phones)
        .map(|i| {
            PhoneInfo::new(
                PhoneId::from_index(i),
                CpuSpec::new(806 + ((i as u64 * 97 + clock_rot) % 700) as u32, 2),
                RadioTech::Wifi80211g,
                MsPerKb(1.0 + (i as f64 * 7.3 + link_rot) % 69.0),
            )
        })
        .collect();
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|j| {
            let id = JobId::from_index(j);
            let size = KiloBytes(200 + (j as u64 * 131 + size_rot) % 1_800);
            if j % 3 == 2 {
                JobSpec::atomic(id, "photoblur", KiloBytes(40), size)
            } else {
                JobSpec::breakable(id, "primecount", KiloBytes(30), size)
            }
        })
        .collect();
    let mut predictor = RuntimePredictor::new();
    predictor.set_baseline("primecount", 150.0);
    predictor.set_baseline("photoblur", 150.0);
    let programs: Vec<&str> = specs.iter().map(|s| s.program.as_str()).collect();
    let c = predictor.cost_matrix(&infos, &programs);
    let sites: Vec<u64> = (0..phones as u64).map(|i| i / 4).collect();
    let unplug: Vec<f64> = (0..phones).map(|i| (i % 20) as f64 / 20.0).collect();
    let keys = charging_cluster_keys(&sites, Some(&unplug));
    Ok((SchedProblem::new(infos, specs, c)?, keys))
}

/// One round: every variation built and scheduled cold.
struct Round {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    assignments: usize,
    input_mb: f64,
    makespan_ratios: Vec<f64>,
}

fn one_round(
    seeds: &[u64],
    phones: usize,
    jobs: usize,
    tracer: &Tracer,
    result: &mut RunResult,
) -> CwcResult<Round> {
    let mut round = Round {
        setup_s: Vec::with_capacity(seeds.len()),
        wall_s: Vec::with_capacity(seeds.len()),
        assignments: 0,
        input_mb: 0.0,
        makespan_ratios: Vec::with_capacity(seeds.len()),
    };
    for &seed in seeds {
        let started = Instant::now();
        let (problem, _) = tracer.scope("core.problem.build", None, || {
            synth_instance(seed, phones, jobs)
        })?;
        round.setup_s.push(started.elapsed().as_secs_f64());
        let (schedule, stats, _, wall_s) = layers::cold_schedule(&problem, tracer)?;
        round.wall_s.push(wall_s);
        result.check(schedule.validate(&problem).is_ok(), || {
            "cold schedule does not validate".into()
        });
        result.check(stats.lb_ms <= schedule.predicted_makespan_ms, || {
            format!(
                "lower bound {} ms above predicted makespan {} ms",
                stats.lb_ms, schedule.predicted_makespan_ms
            )
        });
        round.assignments += schedule.num_assignments();
        round.input_mb += problem
            .jobs
            .iter()
            .map(|j| j.input_kb.as_mb_f64())
            .sum::<f64>();
        round
            .makespan_ratios
            .push(schedule.predicted_makespan_ms / stats.lb_ms);
    }
    Ok(round)
}

/// `sched-fleet`.
pub fn run(cfg: &RunConfig) -> CwcResult<RunResult> {
    let (phones, jobs, variations) = if cfg.quick {
        (100, 100, 2)
    } else {
        (PHONES, JOBS, VARIATIONS)
    };
    let seeds: Vec<u64> = (0..variations)
        .map(|k| sub_seed(cfg.seed, 300 + k))
        .collect();
    let mut result = RunResult::default();
    let off = Tracer::off();

    let rounds = timed_reps(cfg.loop_seconds(), || {
        one_round(&seeds, phones, jobs, &off, &mut result)
    })?;
    result.reps = rounds.len();
    let batch_wall: Repeated = rounds.iter().map(|r| r.wall_s.clone()).collect();

    if !cfg.trace {
        result.set_timing(
            "setup_s",
            &rounds.iter().map(|r| r.setup_s.clone()).collect(),
        );
        result.set_timing("batch_wall_s", &batch_wall);
        let batch_wall_s = batch_wall.fastest();
        result.set("chunks_per_s", rounds[0].assignments as f64 / batch_wall_s);
        result.set("payload_mb_per_s", rounds[0].input_mb / batch_wall_s);
        result.set("makespan_ratio", median(&rounds[0].makespan_ratios));
        result.set("peak_rss_mb", peak_rss_mb());
        return Ok(result);
    }

    // Traced rounds; the scheduler alone publishes no bus events.
    let tracer = Tracer::on("sched-fleet");
    let traced_wall: Repeated = timed_reps(cfg.loop_seconds(), || {
        one_round(&seeds, phones, jobs, &tracer, &mut result)
    })?
    .into_iter()
    .map(|r| r.wall_s)
    .collect();
    result.set(
        "obs.trace_overhead_frac",
        traced_wall.fastest() / batch_wall.fastest() - 1.0,
    );
    result.set("obs.events_recorded", 0.0);

    let (problem, keys) = synth_instance(seeds[0], phones, jobs)?;
    sheet::fill(
        &mut result,
        cfg,
        "sched-fleet",
        &tracer,
        Own {
            problem: Some((&problem, &keys)),
            ..Own::default()
        },
    )?;
    Ok(result)
}
