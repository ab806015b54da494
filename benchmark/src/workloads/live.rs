//! `live-chunks` and `live-bulk`: the real coordinator
//! (`run_live_server_with`) over loopback against two instant-reply
//! workers. Same layers, opposite stress: thousands of tiny frames vs
//! dozens of megabyte frames.

use super::{timed_reps, RunConfig};
use crate::livegen::{self, check_rep, make_jobs, WORKERS};
use crate::report::{fastest, peak_rss_mb, Repeated, RunResult};
use crate::sheet::{self, LiveSample, Own};
use crate::spans::Tracer;
use cwc_core::{GreedyScheduler, RuntimePredictor, SchedProblem};
use cwc_server::LiveJob;
use cwc_types::{CpuSpec, CwcResult, MsPerKb, PhoneId, PhoneInfo, RadioTech};

const MB: f64 = 1024.0 * 1024.0;

/// A live batch shape: job count and input length range in bytes.
#[derive(Debug, Clone, Copy)]
struct Shape {
    name: &'static str,
    jobs: usize,
    min_bytes: usize,
    max_bytes: usize,
}

/// 4 000 jobs of just under 1 KB each (every one a single 1 KB chunk).
/// The batch is a quarter of a second, so a run holds dozens of them,
/// and still large enough that per-step cost has begun to grow with the
/// batch (`live.us_per_chunk` vs `live.us_per_chunk_quarter`).
const CHUNKS: Shape = Shape {
    name: "live-chunks",
    jobs: 4_000,
    min_bytes: 897,
    max_bytes: 1_024,
};

/// 64 jobs of just under 1 MB each.
const BULK: Shape = Shape {
    name: "live-bulk",
    jobs: 64,
    min_bytes: 1_000 * 1_024,
    max_bytes: 1_024 * 1_024,
};

impl Shape {
    fn sized(self, quick: bool) -> Shape {
        if quick {
            Shape {
                jobs: self.jobs / 16,
                ..self
            }
        } else {
            self
        }
    }
}

/// `live-chunks`.
pub fn run_chunks(cfg: &RunConfig) -> CwcResult<RunResult> {
    run(CHUNKS.sized(cfg.quick), cfg)
}

/// `live-bulk`.
pub fn run_bulk(cfg: &RunConfig) -> CwcResult<RunResult> {
    run(BULK.sized(cfg.quick), cfg)
}

/// The scheduling instant the coordinator's kernel solves at `Start`,
/// rebuilt from the same inputs through the public scheduler: two equal
/// phones, the batch's job specs, costs from each program's own baseline
/// (what `live_kernel_config` seeds the predictor with).
fn live_problem(jobs: &[LiveJob]) -> CwcResult<SchedProblem> {
    let registry = cwc_tasks::standard_registry();
    let mut predictor = RuntimePredictor::new();
    let phones: Vec<PhoneInfo> = (0..WORKERS)
        .map(|i| {
            PhoneInfo::new(
                PhoneId(i as u32),
                CpuSpec::new(livegen::CLOCK_MHZ, 2),
                RadioTech::Wifi80211g,
                MsPerKb::from_kb_per_sec(livegen::REPORTED_KB_PER_SEC),
            )
            .with_ram_kb(1 << 20)
        })
        .collect();
    let specs: Vec<_> = jobs.iter().map(|j| j.spec.clone()).collect();
    for spec in &specs {
        if !predictor.has_baseline(&spec.program) {
            let baseline = registry.load(&spec.program)?.baseline_ms_per_kb();
            predictor.set_baseline(&spec.program, baseline);
        }
    }
    let programs: Vec<&str> = specs.iter().map(|s| s.program.as_str()).collect();
    let c = predictor.cost_matrix(&phones, &programs);
    SchedProblem::new(phones, specs, c)
}

fn run(shape: Shape, cfg: &RunConfig) -> CwcResult<RunResult> {
    let jobs = make_jobs(cfg.seed, shape.jobs, shape.min_bytes, shape.max_bytes);
    let mut result = RunResult::default();

    // Untraced repetitions: the end-to-end numbers always come from here.
    let off = Tracer::off();
    let reps = timed_reps(cfg.loop_seconds(), || {
        Ok(livegen::run_checked(&jobs, &off, false, &mut result)?.stats)
    })?;
    result.reps = reps.len();
    let batch_wall: Repeated = reps.iter().map(|r| vec![r.batch_wall_s]).collect();

    if !cfg.trace {
        let problem = live_problem(&jobs)?;
        let (schedule, stats) = GreedyScheduler::default().schedule_with_stats(&problem)?;
        result.check(schedule.validate(&problem).is_ok(), || {
            "initial live schedule does not validate".into()
        });
        result.set_timing("setup_s", &reps.iter().map(|r| vec![r.setup_s]).collect());
        result.set_timing("batch_wall_s", &batch_wall);
        let batch_wall_s = batch_wall.fastest();
        result.set("chunks_per_s", reps[0].chunks as f64 / batch_wall_s);
        result.set(
            "payload_mb_per_s",
            reps[0].payload_bytes as f64 / MB / batch_wall_s,
        );
        result.set(
            "makespan_ratio",
            schedule.predicted_makespan_ms / stats.lb_ms,
        );
        result.set("peak_rss_mb", peak_rss_mb());
        return Ok(result);
    }

    // Traced repetitions: a `MemorySink` on the run's `Obs` and spans
    // around every call the generator makes into `net`. Each records to a
    // tracer of its own; the last one's spans are the ones written out.
    let mut last = None;
    let traced_walls = timed_reps(cfg.loop_seconds(), || {
        let tracer = Tracer::on(shape.name);
        let rep = livegen::run_checked(&jobs, &tracer, true, &mut result)?;
        let wall_s = rep.stats.batch_wall_s;
        last = Some((rep, tracer));
        Ok(wall_s)
    })?;
    let (traced, tracer) = last.expect("timed_reps calls the closure at least once");
    result.set(
        "obs.trace_overhead_frac",
        fastest(traced_walls) / batch_wall.fastest() - 1.0,
    );
    result.set("obs.events_recorded", traced.events.len() as f64);

    sheet::fill(
        &mut result,
        cfg,
        shape.name,
        &tracer,
        Own {
            live: Some(LiveSample {
                jobs: &jobs,
                reps: &reps,
                traced: &traced,
            }),
            ..Own::default()
        },
    )?;
    Ok(result)
}

/// The oracle self-test: a worker that under-reports one chunk by one
/// byte must fail exactly one job's check. Returns the checked result.
pub fn sabotaged_run(seed: u64) -> CwcResult<RunResult> {
    let jobs = make_jobs(seed, 64, 897, 1_024);
    let rep = livegen::run_rep(&jobs, &Tracer::off(), false, Some(17))?;
    let mut result = RunResult::default();
    check_rep(&jobs, &rep, &mut result);
    Ok(result)
}
