//! The layer sheet: every per-layer metric, filled the same way on every
//! traced run.
//!
//! A workload hands over the inputs it has ([`Own`]: its live batch,
//! fleet instance, scheduling problem) and [`reference`] supplies the
//! rest, so a layer the workload bypasses is still measured (on the
//! reference input) and no row of a report is ever empty. Which inputs
//! are each workload's own is the README's table; which end-to-end
//! metric each row should move is the table below it.

use crate::layers;
use crate::livegen::{self, LiveRep, LiveStats};
use crate::report::{fastest, percentile, tail, RunResult};
use crate::spans::Tracer;
use crate::workloads::{reference, Instance, RunConfig};
use cwc_core::{
    relaxed_lower_bound, GreedyScheduler, RuntimePredictor, SchedProblem, SchedulerKind,
};
use cwc_obs::Obs;
use cwc_server::coord::script;
use cwc_server::engine::paper_baselines;
use cwc_server::{live_kernel_config, FleetEngine, LiveJob, SegmentKind, ShardConfig};
use cwc_types::{CwcError, CwcResult};
use std::time::Instant;

const MB: f64 = 1024.0 * 1024.0;

/// Times a probe is repeated when its fastest run is what is reported.
const PROBE_REPS: usize = 3;

/// Runs `probe` [`PROBE_REPS`] times: the fastest time it returned, and
/// the last value.
fn fastest_of<T>(mut probe: impl FnMut() -> CwcResult<(f64, T)>) -> CwcResult<(f64, T)> {
    let (mut best, mut value) = probe()?;
    for _ in 1..PROBE_REPS {
        let (time, again) = probe()?;
        best = best.min(time);
        value = again;
    }
    Ok((best, value))
}

/// A live batch and what running it produced.
#[derive(Debug, Clone, Copy)]
pub struct LiveSample<'a> {
    /// The batch.
    pub jobs: &'a [LiveJob],
    /// Untraced repetitions: the batch's wall time and the turnaround
    /// samples.
    pub reps: &'a [LiveStats],
    /// One repetition with a `MemorySink` on its `Obs`: the kernel script
    /// and the driver's own registry.
    pub traced: &'a LiveRep,
}

/// The inputs a workload brings itself; `None` takes the reference one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Own<'a> {
    /// `live.*`, `coord.kernel.*` and the `net` shares.
    pub live: Option<LiveSample<'a>>,
    /// `engine.*`, `sim.*`, `shard.fleet_*`, `coord.kernel.drain_ms`.
    pub fleet: Option<&'a Instance>,
    /// `core.*` and the sharded scheduler's `shard.*`, with the cluster
    /// keys of its phones. Without one it is the fleet's fault-free
    /// scheduling instant.
    pub problem: Option<(&'a SchedProblem, &'a [u64])>,
    /// `core.relaxation.lp_ms`: testbed-sized, or the LP never returns.
    pub lp: Option<&'a SchedProblem>,
}

/// Ends a traced run: fills every per-layer metric except
/// `obs.trace_overhead_frac` and `obs.events_recorded` (which are about
/// the workload's own traced repetitions) and writes `tracer`'s spans to
/// `trace-<workload>.jsonl`.
pub fn fill(
    result: &mut RunResult,
    cfg: &RunConfig,
    workload: &str,
    tracer: &Tracer,
    own: Own<'_>,
) -> CwcResult<()> {
    let net = net(result, cfg.quick, tracer)?;
    match own.live {
        Some(sample) => live(result, &sample, &net, tracer)?,
        None => {
            let jobs = reference::live_jobs(cfg.seed, cfg.quick);
            let mut reps = Vec::with_capacity(PROBE_REPS);
            for _ in 0..PROBE_REPS {
                reps.push(livegen::run_checked(&jobs, &Tracer::off(), false, result)?.stats);
            }
            let traced = livegen::run_checked(&jobs, tracer, true, result)?;
            let sample = LiveSample {
                jobs: &jobs,
                reps: &reps,
                traced: &traced,
            };
            live(result, &sample, &net, tracer)?;
        }
    }

    let reference_fleet;
    let fleet = match own.fleet {
        Some(fleet) => fleet,
        None => {
            reference_fleet = reference::fleet(cfg.seed, cfg.quick);
            &reference_fleet
        }
    };
    match own.problem {
        Some((problem, keys)) => core(result, problem, keys, tracer)?,
        None => core(result, &fleet.problem()?, &fleet.cluster_keys(), tracer)?,
    }
    engine(result, fleet, cfg.seed, tracer)?;

    let reference_lp;
    let lp = match own.lp {
        Some(lp) => lp,
        None => {
            reference_lp = reference::testbed(cfg.seed, cfg.quick).problem()?;
            &reference_lp
        }
    };
    let started = Instant::now();
    let bound_ms = tracer.scope("core.relaxation.lp", None, || relaxed_lower_bound(lp))?;
    result.set(
        "core.relaxation.lp_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    let predicted_ms = GreedyScheduler::default()
        .schedule(lp)?
        .predicted_makespan_ms;
    result.check(bound_ms > 0.0 && bound_ms <= predicted_ms, || {
        format!("LP bound {bound_ms} ms above predicted makespan {predicted_ms} ms")
    });

    result.set("obs.spans_recorded", tracer.len() as f64);
    tracer
        .dump(&cfg.out_dir.join(format!("trace-{workload}.jsonl")))
        .map_err(|e| CwcError::Config(format!("trace dump: {e}")))
}

/// `net` unit costs the live shares are estimated from.
struct NetCosts {
    /// Encoding one `ShipInput`: ns a frame, plus ns a payload byte.
    encode_frame_ns: f64,
    encode_byte_ns: f64,
    /// Decoding one `TaskComplete`, ns.
    decode_complete_ns: f64,
    /// One small-frame hop through the reactor, µs.
    hop_us: f64,
    /// Sending one MB through the reactor's byte path, s.
    send_mb_s: f64,
}

/// `net.codec.*` and `net.reactor.*`: probes in isolation, on the exact
/// frames of `live-chunks` (1 KB `ShipInput` + `TaskComplete`) and of
/// `live-bulk` (1 MB `ShipInput`).
fn net(result: &mut RunResult, quick: bool, tracer: &Tracer) -> CwcResult<NetCosts> {
    let small = layers::codec_small(quick, tracer)?;
    result.set(
        "net.codec.encode_ns_per_frame",
        (small.encode_ship_ns + small.encode_complete_ns) / 2.0,
    );
    result.set(
        "net.codec.decode_ns_per_frame",
        (small.decode_ship_ns + small.decode_complete_ns) / 2.0,
    );
    let (encode_mb_per_s, decode_mb_per_s) = layers::codec_bulk(quick, tracer)?;
    result.set("net.codec.encode_mb_per_s", encode_mb_per_s);
    result.set("net.codec.decode_mb_per_s", decode_mb_per_s);
    let (p50, p99) = layers::reactor_pingpong(quick, tracer)?;
    result.set("net.reactor.pingpong_us_p50", p50);
    result.set("net.reactor.pingpong_us_p99", p99);
    let (bulk_mb_per_s, blocked) = layers::reactor_bulk(quick, tracer)?;
    result.set("net.reactor.bulk_mb_per_s", bulk_mb_per_s);
    result.set("net.reactor.blocked_flushes", blocked as f64);
    result.set(
        "net.reactor.timer_ns_per_op",
        layers::timer_wheel(quick, tracer),
    );
    // A 1 KB and a 1 MB encode split the cost into a per-frame and a
    // per-byte part.
    let encode_mb_ns = 1e9 / encode_mb_per_s;
    let encode_byte_ns = ((encode_mb_ns - small.encode_ship_ns) / (MB - 1024.0)).max(0.0);
    Ok(NetCosts {
        encode_frame_ns: (small.encode_ship_ns - 1024.0 * encode_byte_ns).max(0.0),
        encode_byte_ns,
        decode_complete_ns: small.decode_complete_ns,
        hop_us: p50 / 2.0,
        // The bulk probe sends, receives and decodes every MB on one
        // thread; the coordinator pays the sending half of what is left
        // once the decode is taken out.
        send_mb_s: (1.0 / bulk_mb_per_s - 1.0 / decode_mb_per_s).max(0.0) / 2.0,
    })
}

/// `live.*`, `coord.kernel.*` (but the drain) and the `net` shares.
fn live(
    result: &mut RunResult,
    sample: &LiveSample<'_>,
    net: &NetCosts,
    tracer: &Tracer,
) -> CwcResult<()> {
    let LiveSample { jobs, reps, traced } = *sample;
    let batch_wall_s = fastest(reps.iter().map(|r| r.batch_wall_s));

    // The driver's own registry and outcome.
    let loop_iter = traced.obs.metrics.histogram("live.loop_iter_us").summary();
    result.set("live.loop_iter_us_p50", loop_iter.p50);
    result.set("live.loop_iter_us_p99", loop_iter.p99);
    result.set("live.loop_iters", loop_iter.count as f64);
    result.set(
        "live.setup_ms",
        traced
            .obs
            .metrics
            .gauge_value("live.setup_ms")
            .unwrap_or(0.0),
    );
    result.set("live.retries", traced.outcome.retries as f64);
    result.set("live.migrated", traced.outcome.migrated as f64);
    result.set(
        "live.keepalives_acked",
        traced.outcome.keepalives_acked as f64,
    );

    // Turnaround at the worker, pooled over the untraced repetitions.
    let turnaround: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.turnaround_us.iter().copied())
        .collect();
    let (tail_p, tail_us) = tail(&turnaround);
    result.set("live.turnaround_p50_us", percentile(&turnaround, 0.5));
    result.set("live.turnaround_tail_us", tail_us);
    result.set("live.turnaround_tail_pct", tail_p * 100.0);
    result.set("live.turnaround_samples", turnaround.len() as f64);
    result
        .samples
        .push(("live.turnaround_tail_us", turnaround.len()));

    // Batch-size dependence: the same path at a quarter of the batch.
    let chunks = traced.stats.chunks as f64;
    result.set("live.us_per_chunk", batch_wall_s * 1e6 / chunks);
    let quarter = &jobs[..(jobs.len() / 4).max(1)];
    let (quarter_us, ()) = fastest_of(|| {
        let rep = livegen::run_checked(quarter, &Tracer::off(), false, result)?.stats;
        Ok((rep.batch_wall_s * 1e6 / rep.chunks as f64, ()))
    })?;
    result.set("live.us_per_chunk_quarter", quarter_us);

    // The traced repetition's script, stepped through a fresh kernel.
    let steps = script::harvest(&traced.events)?;
    let replay = layers::kernel_replay(
        &steps,
        live_kernel_config(
            jobs,
            &cwc_tasks::standard_registry(),
            SchedulerKind::Greedy,
            &livegen::policy(),
            Obs::new(),
        )?,
        tracer,
    )?;
    result.set("coord.kernel.steps", replay.steps as f64);
    result.set("coord.kernel.commands", replay.commands as f64);
    result.set("coord.kernel.step_us_p50", percentile(&replay.step_us, 0.5));
    let (step_tail_p, step_tail_us) = tail(&replay.step_us);
    result.set("coord.kernel.step_us_tail", step_tail_us);
    result.set("coord.kernel.step_tail_pct", step_tail_p * 100.0);
    result
        .samples
        .push(("coord.kernel.step_us_tail", replay.step_us.len()));
    result.set("coord.kernel.replay_s", replay.total_s);
    result.set("coord.kernel.start_ms", replay.start_ms);

    // Where the coordinator thread's time goes, estimated from costs
    // measured in isolation. The `Start` step is set-up, not batch. Per
    // chunk the coordinator encodes one `ShipInput`, decodes one
    // `TaskComplete` and pays one of a round trip's two hops; per byte it
    // pays the encode and the sending half of the byte path. Estimates
    // from isolated probes need not add up to 1: on 1 MB frames the
    // coordinator's encode alone fills the batch and the residual goes
    // negative, which reads "the byte path is everything".
    let bytes = traced.stats.payload_bytes as f64;
    let kernel_share = (replay.total_s - replay.start_ms / 1e3) / batch_wall_s;
    let codec_s = (chunks * (net.encode_frame_ns + net.decode_complete_ns)
        + bytes * net.encode_byte_ns)
        / 1e9;
    let reactor_s = chunks * net.hop_us / 1e6 + bytes / MB * net.send_mb_s;
    result.set("coord.kernel.share", kernel_share);
    result.set("net.codec.share", codec_s / batch_wall_s);
    result.set("net.reactor.share", reactor_s / batch_wall_s);
    result.set(
        "live.residual_share",
        1.0 - kernel_share - (codec_s + reactor_s) / batch_wall_s,
    );
    Ok(())
}

/// `core.*` and the sharded scheduler's `shard.*` on one scheduling
/// instant.
fn core(
    result: &mut RunResult,
    problem: &SchedProblem,
    keys: &[u64],
    tracer: &Tracer,
) -> CwcResult<()> {
    // What the kernel pays to set an instant of this shape up.
    let programs: Vec<&str> = problem.jobs.iter().map(|j| j.program.as_str()).collect();
    let (build_s, ()) = fastest_of(|| {
        let started = Instant::now();
        tracer.scope("core.problem.build", None, || -> CwcResult<()> {
            let mut predictor = RuntimePredictor::new();
            for program in &programs {
                predictor.set_baseline(program, 150.0);
            }
            let c = predictor.cost_matrix(&problem.phones, &programs);
            std::hint::black_box(SchedProblem::new(
                problem.phones.clone(),
                problem.jobs.clone(),
                c,
            )?);
            Ok(())
        })?;
        Ok((started.elapsed().as_secs_f64(), ()))
    })?;
    result.set("core.problem.build_ms", build_s * 1e3);

    let (sched_s, (schedule, stats, warm)) = fastest_of(|| {
        let (schedule, stats, warm, wall_s) = layers::cold_schedule(problem, tracer)?;
        Ok((wall_s, (schedule, stats, warm)))
    })?;
    result.check(schedule.validate(problem).is_ok(), || {
        "cold schedule does not validate".into()
    });
    result.set("core.greedy.sched_wall_s", sched_s);
    result.set("core.greedy.pack_calls", stats.pack_calls as f64);
    result.set("core.greedy.binsearch_iters", stats.binsearch_iters as f64);
    result.set(
        "core.greedy.ms_per_pack",
        sched_s * 1e3 / stats.pack_calls.max(1) as f64,
    );

    let resched = layers::resched(problem, &schedule, warm, tracer)?;
    result.set("core.resched.cold_ms", resched.cold_ms);
    result.set("core.resched.warm_ms", resched.warm_ms);
    result.set(
        "core.resched.warm_pack_calls",
        resched.warm_pack_calls as f64,
    );

    let sharded = layers::sharded_schedule(problem, keys, tracer)?;
    result.check(sharded.merged.validate(problem).is_ok(), || {
        format!(
            "merged sharded schedule does not validate: {:?}",
            sharded.merged.validate(problem).err()
        )
    });
    result.set("shard.sched_wall_s", sharded.wall_s());
    result.set("shard.makespan_ratio", sharded.makespan_ms / stats.lb_ms);
    result.set("shard.plan_ms", sharded.plan_ms);
    result.set("core.partition.split_ms", sharded.split_ms);
    result.set("shard.pack_ms", sharded.pack_ms);
    result.set("shard.merge_ms", sharded.merge_ms);
    result.set("shard.max_shard_cells", sharded.max_shard_cells as f64);
    result.set("shard.assignments", sharded.assignments as f64);
    result.set("shard.pool_steals", sharded.pool_steals as f64);
    Ok(())
}

/// `engine.*`, `sim.*`, `shard.fleet_*` and `coord.kernel.drain_ms` on
/// one simulated fleet.
fn engine(
    result: &mut RunResult,
    instance: &Instance,
    seed: u64,
    tracer: &Tracer,
) -> CwcResult<()> {
    let (drain_ms, _) =
        layers::kernel_drain(&instance.infos(), &instance.jobs, paper_baselines(), tracer)?;
    result.set("coord.kernel.drain_ms", drain_ms);

    let (run_s, (out, obs)) = fastest_of(|| {
        let obs = Obs::new();
        let engine = instance.clone().engine(&obs)?;
        let started = Instant::now();
        let out = tracer.scope("engine.run", None, || engine.run())?;
        Ok((started.elapsed().as_secs_f64(), (out, obs)))
    })?;
    result.check(out.completed_jobs == out.total_jobs, || {
        format!(
            "engine completed {} of {} jobs",
            out.completed_jobs, out.total_jobs
        )
    });
    let segments = out
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Execute)
        .count();
    result.set("engine.sim_makespan_s", out.makespan.as_secs_f64());
    result.set("engine.segments", segments as f64);
    result.set("engine.rescheduled_items", out.rescheduled_items as f64);
    result.set(
        "engine.us_per_segment",
        run_s * 1e6 / segments.max(1) as f64,
    );
    result.set(
        "engine.sched_pack_calls",
        obs.metrics.counter_value("sched.greedy.pack_calls") as f64,
    );
    // Each segment is one completion event on the queue.
    result.set(
        "sim.queue_ns_per_event",
        layers::sim_queue(out.segments.len() as u64, tracer),
    );

    // The same instance through the sharded driver.
    let fleet_engine = FleetEngine::new(
        instance.fleet.clone(),
        instance.jobs.clone(),
        instance.injections.clone(),
        ShardConfig {
            shards: layers::SHARDS,
            threads: layers::POOL_THREADS,
            seed,
            ..ShardConfig::default()
        },
    )?
    .with_keys(instance.cluster_keys())?;
    let started = Instant::now();
    let fleet_out = tracer.scope("shard.fleet_engine.run", None, || fleet_engine.run())?;
    result.set("shard.fleet_run_s", started.elapsed().as_secs_f64());
    result.check(fleet_out.completed_jobs == fleet_out.total_jobs, || {
        format!(
            "sharded engine completed {} of {} jobs",
            fleet_out.completed_jobs, fleet_out.total_jobs
        )
    });
    result.set("shard.fleet_makespan_s", fleet_out.makespan.as_secs_f64());
    result.set("shard.stolen_chunks", fleet_out.stolen_chunks as f64);
    result.set("shard.steal_rounds", f64::from(fleet_out.steal_rounds));
    Ok(())
}
