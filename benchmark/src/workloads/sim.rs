//! `sim-fleet`: the paper's loop end to end in simulation —
//! `Engine::run` under `ReschedulePolicy::Solver` on fleets where every
//! tenth phone unplugs mid-run, so the timed batch always carries
//! failure handling and warm-started re-packs. `net` is bypassed.
//!
//! One engine run's wall time moves ±20 % with its inputs, so a round
//! runs sixteen seeded variations: steady across seeds without pinning
//! the inputs. [`run_instances`] is shared with `paper-testbed`, which
//! differs only in its instances and in what it scores them against.

use super::{sub_seed, timed_reps, Instance, RunConfig};
use crate::layers;
use crate::report::{median, peak_rss_mb, Repeated, RunResult};
use crate::sheet::{self, Own};
use crate::spans::Tracer;
use cwc_obs::{MemorySink, Obs};
use cwc_server::SegmentKind;
use cwc_types::{CwcResult, Micros};
use std::sync::Arc;
use std::time::Instant;

/// Sixteen fleets of 200 phones (20 houses × 10), 1 000 jobs each. One
/// engine run is ≈ 45 ms.
const VARIATIONS: u64 = 16;

/// One variation (4 houses × 100 jobs under `--quick`).
pub fn build(seed: u64, quick: bool) -> Instance {
    let (houses, jobs) = if quick { (4, 100) } else { (20, 1_000) };
    Instance::fleet_with_failures(seed, houses, jobs)
}

/// Achieved makespan (failures included) over `GreedyStats.lb_ms` of the
/// fault-free problem rebuilt outside the engine.
fn score(instance: &Instance, achieved: Micros, result: &mut RunResult) -> CwcResult<f64> {
    let problem = instance.problem()?;
    let (schedule, stats, _, _) = layers::cold_schedule(&problem, &Tracer::off())?;
    result.check(schedule.validate(&problem).is_ok(), || {
        "fault-free schedule does not validate".into()
    });
    Ok(achieved.as_ms_f64() / stats.lb_ms)
}

/// `sim-fleet`.
pub fn run(cfg: &RunConfig) -> CwcResult<RunResult> {
    let variations = if cfg.quick { 2 } else { VARIATIONS };
    run_instances(cfg, "sim-fleet", variations, 200, build, score, false)
}

/// One round: every variation built, run and checked.
struct Round {
    /// Per variation: instance + `Engine::new`, s.
    setup_s: Vec<f64>,
    /// Per variation: `Engine::run`, s.
    wall_s: Vec<f64>,
    /// Per variation: achieved makespan (deterministic per seed).
    makespans: Vec<Micros>,
    /// Execute segments over all variations.
    segments: usize,
}

fn one_round(
    seeds: &[u64],
    build: impl Fn(u64) -> Instance,
    obs: &Obs,
    tracer: &Tracer,
    result: &mut RunResult,
) -> CwcResult<Round> {
    let mut round = Round {
        setup_s: Vec::with_capacity(seeds.len()),
        wall_s: Vec::with_capacity(seeds.len()),
        makespans: Vec::with_capacity(seeds.len()),
        segments: 0,
    };
    for &seed in seeds {
        let started = Instant::now();
        let engine = build(seed).engine(obs)?;
        round.setup_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let out = tracer.scope("engine.run", None, || engine.run())?;
        round.wall_s.push(started.elapsed().as_secs_f64());
        result.check(out.completed_jobs == out.total_jobs, || {
            format!(
                "engine completed {} of {} jobs",
                out.completed_jobs, out.total_jobs
            )
        });
        round.makespans.push(out.makespan);
        round.segments += out
            .segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Execute)
            .count();
    }
    Ok(round)
}

/// Runs `variations` seeded instances of `build` through `Engine::run`,
/// round after round. `score` turns one instance and its achieved
/// makespan into that variation's `makespan_ratio`. The traced run
/// brings the first variation to the layer sheet as its fleet, and as
/// its LP instance too when `lp_sized`.
pub(super) fn run_instances(
    cfg: &RunConfig,
    name: &'static str,
    variations: u64,
    seed_stream: u64,
    build: fn(u64, bool) -> Instance,
    score: fn(&Instance, Micros, &mut RunResult) -> CwcResult<f64>,
    lp_sized: bool,
) -> CwcResult<RunResult> {
    let seeds: Vec<u64> = (0..variations)
        .map(|k| sub_seed(cfg.seed, seed_stream + k))
        .collect();
    let build = |seed| build(seed, cfg.quick);
    let mut result = RunResult::default();
    let off = Tracer::off();
    let silent = Obs::new();

    let rounds = timed_reps(cfg.loop_seconds(), || {
        one_round(&seeds, build, &silent, &off, &mut result)
    })?;
    result.reps = rounds.len();
    let makespans = &rounds[0].makespans;
    result.check(rounds.iter().all(|r| &r.makespans == makespans), || {
        "two rounds of one seed disagree on makespans".into()
    });
    let batch_wall: Repeated = rounds.iter().map(|r| r.wall_s.clone()).collect();

    if !cfg.trace {
        let mut ratios = Vec::with_capacity(seeds.len());
        let mut input_mb = 0.0;
        for (&seed, &achieved) in seeds.iter().zip(makespans) {
            let instance = build(seed);
            input_mb += instance.input_mb();
            ratios.push(score(&instance, achieved, &mut result)?);
        }
        result.set_timing(
            "setup_s",
            &rounds.iter().map(|r| r.setup_s.clone()).collect(),
        );
        result.set_timing("batch_wall_s", &batch_wall);
        let batch_wall_s = batch_wall.fastest();
        result.set("chunks_per_s", rounds[0].segments as f64 / batch_wall_s);
        result.set("payload_mb_per_s", input_mb / batch_wall_s);
        result.set("makespan_ratio", median(&ratios));
        result.set("peak_rss_mb", peak_rss_mb());
        return Ok(result);
    }

    // Traced rounds: a `MemorySink` on every engine's `Obs`.
    let tracer = Tracer::on(name);
    let obs = Obs::new();
    let sink = Arc::new(MemorySink::new());
    obs.bus.attach(sink.clone());
    let traced = timed_reps(cfg.loop_seconds(), || {
        sink.take();
        one_round(&seeds, build, &obs, &tracer, &mut result)
    })?;
    result.check(traced.iter().all(|r| &r.makespans == makespans), || {
        "traced and untraced runs disagree on makespans".into()
    });
    let traced_wall: Repeated = traced.into_iter().map(|r| r.wall_s).collect();
    result.set(
        "obs.trace_overhead_frac",
        traced_wall.fastest() / batch_wall.fastest() - 1.0,
    );
    result.set("obs.events_recorded", sink.len() as f64);

    let first = build(seeds[0]);
    let lp = if lp_sized {
        Some(first.problem()?)
    } else {
        None
    };
    sheet::fill(
        &mut result,
        cfg,
        name,
        &tracer,
        Own {
            fleet: Some(&first),
            lp: lp.as_ref(),
            ..Own::default()
        },
    )?;
    Ok(result)
}
