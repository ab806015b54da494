//! `cwc-serverd` — the CWC central server as a standalone process.
//!
//! Listens for worker registrations, probes bandwidth, schedules a demo
//! batch with the greedy CBP algorithm, ships real input bytes, handles
//! migration, aggregates results, and prints a report.
//!
//! ```text
//! cwc-serverd [--listen ADDR] [--workers N] [--scheduler greedy|equal-split|round-robin]
//!             [--jobs N] [--seed S] [--deadline SECS]
//!             [--input-dir DIR --program NAME [--atomic]]
//!             [--slo MS | --slo JOB=MS]... [--speculation [SLACK:]BUDGET]
//!             [--replicate THRESHOLD] [--fail-prob P]
//!             [--chaos-profile PROFILE] [--chaos-seed S]
//!             [--log-json PATH] [--verbose]
//! ```
//!
//! `--chaos-profile` arms deterministic fault injection on the server's
//! send paths (`none`, `all`, or a single fault kind such as `drop`,
//! `corrupt`, `partial-write`, `reset`, `delay`, `duplicate`);
//! `--chaos-seed` picks the reproducible fault stream (default 0).
//!
//! Proactive reliability (DESIGN.md §12):
//!
//! - `--slo MS` admits every job under a deadline of `MS` milliseconds
//!   from run start; `--slo JOB=MS` (repeatable) sets one job's deadline.
//!   Deadline jobs are shipped earliest-deadline-first ahead of
//!   best-effort work, and each one's verdict lands on the
//!   `slo.deadline.met` / `slo.deadline.missed` counters.
//! - `--speculation BUDGET` (or `SLACK:BUDGET`, default slack 2.0) arms
//!   the straggler watchdog: a chunk in flight longer than `SLACK ×` its
//!   predicted duration gets one speculative copy on the least-loaded
//!   worker, at most `BUDGET` copies per run. First result wins; the
//!   loser runs out on its worker and its report is dropped by sequence
//!   number.
//! - `--replicate THRESHOLD` replicates every atomic placement on a
//!   worker whose predicted unplug probability (see `--fail-prob`)
//!   exceeds `THRESHOLD` onto the most reliable independent worker.
//! - `--fail-prob P` predicts a uniform unplug probability `P` for every
//!   worker — the signal `--replicate` keys on.
//!
//! With `--input-dir`, every regular file in `DIR` becomes one job whose
//! input is the file's bytes, processed by `NAME` (one of the registry
//! programs: `primecount`, `wordcount`, `largestint`, `logscan`, ...).
//! Without it, a synthetic demo batch is generated.
//!
//! All output flows through the `cwc-obs` event bus: human-readable lines
//! on stdout (Debug-level too with `--verbose`), and — with `--log-json` —
//! the full structured event stream as JSONL for offline analysis. The
//! process ends with a metrics report (spans, per-phone shipped volume,
//! keep-alive and migration counters).
//!
//! Pair with `cwc-worker` processes:
//!
//! ```sh
//! cwc-serverd --listen 127.0.0.1:7272 --workers 3 &
//! cwc-worker --connect 127.0.0.1:7272 --phone 0 --clock 1500 --kbps 900 &
//! cwc-worker --connect 127.0.0.1:7272 --phone 1 --clock 1200 --kbps 500 &
//! cwc-worker --connect 127.0.0.1:7272 --phone 2 --clock 806  --kbps 15 &
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use cwc_chaos::{FaultPlan, FaultProfile};
use cwc_core::{ReplicationPolicy, SchedulerKind, SpeculationPolicy};
use cwc_obs::{Obs, Severity, TextSink};
use cwc_server::live::{run_live_server_with, LiveJob, LivePolicy};
use cwc_tasks::{inputs, standard_registry};
use cwc_types::{JobId, JobKind, SloClass};
use std::io::Write;
use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    workers: usize,
    scheduler: SchedulerKind,
    jobs: usize,
    seed: u64,
    deadline: Duration,
    input_dir: Option<String>,
    program: String,
    atomic: bool,
    chaos_profile: Option<FaultProfile>,
    chaos_seed: u64,
    log_json: Option<String>,
    verbose: bool,
    /// `(None, ms)` = batch-wide deadline; `(Some(job), ms)` = one job's.
    slo: Vec<(Option<u32>, u64)>,
    speculation: Option<SpeculationPolicy>,
    replicate: Option<f64>,
    fail_prob: Option<f64>,
}

fn usage() -> ! {
    let _ = std::io::stderr().write_all(
        b"usage: cwc-serverd [--listen ADDR] [--workers N] \
          [--scheduler greedy|equal-split|round-robin] [--jobs N] [--seed S] \
          [--deadline SECS] [--input-dir DIR --program NAME [--atomic]] \
          [--slo MS | --slo JOB=MS]... [--speculation [SLACK:]BUDGET] \
          [--replicate THRESHOLD] [--fail-prob P] \
          [--chaos-profile PROFILE] [--chaos-seed S] \
          [--log-json PATH] [--verbose]\n",
    );
    exit(2);
}

fn parse() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7272".into(),
        workers: 3,
        scheduler: SchedulerKind::Greedy,
        jobs: 9,
        seed: 1,
        deadline: Duration::from_secs(300),
        input_dir: None,
        program: "logscan".into(),
        atomic: false,
        chaos_profile: None,
        chaos_seed: 0,
        log_json: None,
        verbose: false,
        slo: Vec::new(),
        speculation: None,
        replicate: None,
        fail_prob: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--listen" => args.listen = value(),
            "--workers" => args.workers = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => args.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--deadline" => {
                args.deadline = Duration::from_secs(value().parse().unwrap_or_else(|_| usage()))
            }
            "--scheduler" => {
                args.scheduler = match value().as_str() {
                    "greedy" => SchedulerKind::Greedy,
                    "equal-split" => SchedulerKind::EqualSplit,
                    "round-robin" => SchedulerKind::RoundRobin,
                    _ => usage(),
                }
            }
            "--input-dir" => args.input_dir = Some(value()),
            "--program" => args.program = value(),
            "--atomic" => args.atomic = true,
            "--slo" => {
                let v = value();
                args.slo.push(match v.split_once('=') {
                    Some((job, ms)) => (
                        Some(job.parse().unwrap_or_else(|_| usage())),
                        ms.parse().unwrap_or_else(|_| usage()),
                    ),
                    None => (None, v.parse().unwrap_or_else(|_| usage())),
                });
            }
            "--speculation" => {
                let v = value();
                let (slack, budget) = match v.split_once(':') {
                    Some((s, b)) => (
                        s.parse().unwrap_or_else(|_| usage()),
                        b.parse().unwrap_or_else(|_| usage()),
                    ),
                    None => (2.0, v.parse().unwrap_or_else(|_| usage())),
                };
                args.speculation =
                    Some(SpeculationPolicy::new(slack, budget).unwrap_or_else(|_| usage()));
            }
            "--replicate" => {
                args.replicate = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--fail-prob" => {
                args.fail_prob = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--chaos-profile" => {
                args.chaos_profile = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--chaos-seed" => args.chaos_seed = value().parse().unwrap_or_else(|_| usage()),
            "--log-json" => args.log_json = Some(value()),
            "--verbose" => args.verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// Logs one Info line on the daemon's own scope.
fn info(obs: &Obs, msg: String) {
    obs.emit_with(|| obs.wall_event("serverd", "log").field("msg", msg));
}

/// Logs an Error line, flushes every sink, and exits nonzero.
fn fatal(obs: &Obs, msg: String) -> ! {
    obs.emit_with(|| {
        obs.wall_event("serverd", "error")
            .severity(Severity::Error)
            .field("msg", msg)
    });
    obs.flush();
    exit(1);
}

fn demo_jobs(n: usize, seed: u64) -> Vec<LiveJob> {
    (0..n)
        .map(|k| {
            let id = JobId(k as u32);
            match k % 3 {
                0 => LiveJob::new(
                    id,
                    JobKind::Breakable,
                    "primecount",
                    30,
                    inputs::number_file(96, seed + k as u64),
                ),
                1 => LiveJob::new(
                    id,
                    JobKind::Breakable,
                    "wordcount",
                    25,
                    inputs::text_file(96, seed + k as u64, "lowes"),
                ),
                _ => LiveJob::new(
                    id,
                    JobKind::Atomic,
                    "photoblur",
                    40,
                    inputs::image_file(192, 128, seed + k as u64),
                ),
            }
        })
        .collect()
}

/// Builds one job per regular file in `dir`.
fn jobs_from_dir(obs: &Obs, dir: &str, program: &str, atomic: bool) -> Vec<LiveJob> {
    let kind = if atomic {
        JobKind::Atomic
    } else {
        JobKind::Breakable
    };
    let mut paths: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect(),
        Err(e) => fatal(obs, format!("cannot read {dir}: {e}")),
    };
    paths.sort();
    if paths.is_empty() {
        fatal(obs, format!("no files in {dir}"));
    }
    paths
        .into_iter()
        .enumerate()
        .map(|(k, path)| {
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| fatal(obs, format!("cannot read {}: {e}", path.display())));
            info(
                obs,
                format!("job-{k} <- {} ({} KB)", path.display(), bytes.len() / 1024),
            );
            LiveJob::new(JobId(k as u32), kind, program, 25, bytes)
        })
        .collect()
}

fn main() {
    let args = parse();
    let obs = Obs::new();
    let min = if args.verbose {
        Severity::Debug
    } else {
        Severity::Info
    };
    obs.bus
        .attach(Arc::new(TextSink::stdout().with_min_severity(min)));
    if let Some(path) = &args.log_json {
        if let Err(e) = obs.attach_jsonl(path) {
            fatal(&obs, format!("cannot open {path}: {e}"));
        }
        info(&obs, format!("structured event log -> {path}"));
    }

    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => fatal(&obs, format!("cannot listen on {}: {e}", args.listen)),
    };
    info(
        &obs,
        format!(
            "listening on {}, waiting for {} worker(s)...",
            args.listen, args.workers
        ),
    );
    let jobs = match &args.input_dir {
        Some(dir) => jobs_from_dir(&obs, dir, &args.program, args.atomic),
        None => demo_jobs(args.jobs, args.seed),
    };
    info(
        &obs,
        format!(
            "batch of {} jobs ({} scheduler)",
            jobs.len(),
            args.scheduler.label()
        ),
    );
    let mut policy = LivePolicy::default();
    for (job, ms) in &args.slo {
        match job {
            Some(j) => {
                policy.slo.insert(JobId(*j), SloClass::Deadline(*ms));
            }
            None => {
                for j in &jobs {
                    policy
                        .slo
                        .entry(j.spec.id)
                        .or_insert(SloClass::Deadline(*ms));
                }
            }
        }
    }
    if !policy.slo.is_empty() {
        info(
            &obs,
            format!("SLO: {} deadline-class job(s)", policy.slo.len()),
        );
    }
    policy.speculation = args.speculation;
    if let Some(sp) = &policy.speculation {
        info(
            &obs,
            format!(
                "speculation armed: slack {} x predicted, budget {}",
                sp.slack, sp.budget
            ),
        );
    }
    if let Some(threshold) = args.replicate {
        let rp = ReplicationPolicy::new(threshold)
            .unwrap_or_else(|e| fatal(&obs, format!("bad --replicate: {e}")));
        let p = args.fail_prob.unwrap_or(0.0);
        if !(0.0..=1.0).contains(&p) {
            fatal(&obs, format!("bad --fail-prob {p}: outside [0, 1]"));
        }
        policy.replication = Some(rp);
        // The uniform prediction feeds the replication decision only:
        // aggressiveness 0 leaves cost repricing (and placement) alone.
        policy.reliability = Some((vec![p; args.workers], 0.0));
        info(
            &obs,
            format!("replication armed: threshold {threshold}, predicted unplug prob {p}"),
        );
    }
    if let Some(profile) = args.chaos_profile {
        info(
            &obs,
            format!("chaos armed: seed {} over {profile:?}", args.chaos_seed),
        );
        policy.chaos = Some(FaultPlan::observed(args.chaos_seed, profile, obs.clone()));
    }
    match run_live_server_with(
        listener,
        args.workers,
        jobs,
        standard_registry(),
        args.scheduler,
        args.deadline,
        policy,
        &obs,
    ) {
        Ok(out) => {
            info(
                &obs,
                format!(
                    "batch complete in {:?}; {} migration(s); {} keep-alive ack(s); \
                     {} quarantined",
                    out.wall, out.migrated, out.keepalives_acked, out.quarantined
                ),
            );
            if let Some(f) = &out.failure {
                obs.emit_with(|| {
                    obs.wall_event("serverd", "degraded")
                        .severity(Severity::Warn)
                        .field("msg", format!("partial results: {}", f.detail))
                });
            }
            let mut ids: Vec<&JobId> = out.results.keys().collect();
            ids.sort();
            for id in ids {
                let r = &out.results[id];
                if let Ok(bytes) = <[u8; 8]>::try_from(r.as_slice()) {
                    info(&obs, format!("{id}: {}", u64::from_be_bytes(bytes)));
                } else {
                    info(&obs, format!("{id}: {} result bytes", r.len()));
                }
            }
            // Raw report artifact, not a log line: straight to stdout.
            let report = obs.metrics.report();
            let _ = std::io::stdout().write_all(report.render_text().as_bytes());
            obs.flush();
        }
        Err(e) => fatal(&obs, format!("run failed: {e}")),
    }
}
