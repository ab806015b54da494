//! `cwc-worker` — a CWC phone worker as a standalone process.
//!
//! Connects to a `cwc-serverd`, registers with the given hardware
//! descriptor, answers bandwidth probes and keep-alives, executes the
//! task programs shipped to it over real input bytes, and — if told to
//! simulate an unplug — interrupts at a chunk boundary and reports its
//! migration checkpoint.
//!
//! ```text
//! cwc-worker --connect ADDR [--phone N] [--clock MHZ] [--cores N]
//!            [--kbps RATE] [--unplug-after SECS]
//!            [--chaos-profile PROFILE] [--chaos-seed S] [--log-json PATH]
//! ```
//!
//! `--chaos-profile` arms deterministic fault injection on this worker's
//! send path and execution loop (dropped/corrupted/duplicated frames,
//! crash-at-chunk-boundary, slow-loris pacing); `--chaos-seed` picks the
//! reproducible fault stream (default 0).
//!
//! Output flows through the `cwc-obs` event bus: human-readable lines on
//! stdout, plus a JSONL event stream with `--log-json`. On a clean
//! shutdown the worker prints its own metrics report (tasks completed,
//! measured runtimes, keep-alives answered).
//!
//! When the server runs with `--speculation` or `--replicate`
//! (DESIGN.md §12), this worker needs no flags of its own: redundant
//! copies arrive as ordinary `ShipInput` frames (marked `replica` for
//! accounting), and a losing copy runs to completion: the server drops
//! its report by sequence number — the first-result-wins race is decided
//! entirely server-side.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use cwc_chaos::{FaultPlan, FaultProfile};
use cwc_obs::{Obs, Severity};
use cwc_server::live::{run_worker_chaos, WorkerConfig};
use cwc_tasks::standard_registry;
use cwc_types::PhoneId;
use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

struct Args {
    connect: String,
    phone: u32,
    clock: u32,
    cores: u32,
    kbps: f64,
    unplug_after: Option<Duration>,
    chaos_profile: Option<FaultProfile>,
    chaos_seed: u64,
    log_json: Option<String>,
}

fn usage() -> ! {
    let _ = std::io::stderr().write_all(
        b"usage: cwc-worker --connect ADDR [--phone N] [--clock MHZ] [--cores N] \
          [--kbps RATE] [--unplug-after SECS] \
          [--chaos-profile PROFILE] [--chaos-seed S] [--log-json PATH]\n",
    );
    exit(2);
}

fn parse() -> Args {
    let mut args = Args {
        connect: String::new(),
        phone: 0,
        clock: 1200,
        cores: 2,
        kbps: 500.0,
        unplug_after: None,
        chaos_profile: None,
        chaos_seed: 0,
        log_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--connect" => args.connect = value(),
            "--phone" => args.phone = value().parse().unwrap_or_else(|_| usage()),
            "--clock" => args.clock = value().parse().unwrap_or_else(|_| usage()),
            "--cores" => args.cores = value().parse().unwrap_or_else(|_| usage()),
            "--kbps" => args.kbps = value().parse().unwrap_or_else(|_| usage()),
            "--unplug-after" => {
                args.unplug_after = Some(Duration::from_secs(
                    value().parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--chaos-profile" => {
                args.chaos_profile = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--chaos-seed" => args.chaos_seed = value().parse().unwrap_or_else(|_| usage()),
            "--log-json" => args.log_json = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.connect.is_empty() {
        usage();
    }
    args
}

/// Logs one Info line on the worker's own scope.
fn info(obs: &Obs, msg: String) {
    obs.emit_with(|| obs.wall_event("worker", "log").field("msg", msg));
}

/// Logs an Error line, flushes every sink, and exits nonzero.
fn fatal(obs: &Obs, msg: String) -> ! {
    obs.emit_with(|| {
        obs.wall_event("worker", "error")
            .severity(Severity::Error)
            .field("msg", msg)
    });
    obs.flush();
    exit(1);
}

fn main() {
    let args = parse();
    let obs = Obs::to_stdout();
    if let Some(path) = &args.log_json {
        if let Err(e) = obs.attach_jsonl(path) {
            fatal(&obs, format!("cannot open {path}: {e}"));
        }
        info(&obs, format!("structured event log -> {path}"));
    }
    let addr: SocketAddr = match args.connect.to_socket_addrs().map(|mut a| a.next()) {
        Ok(Some(a)) => a,
        _ => fatal(&obs, format!("cannot resolve {}", args.connect)),
    };
    let mut cfg = WorkerConfig::new(PhoneId(args.phone), args.clock, args.kbps);
    cfg.cores = args.cores;

    let unplug = Arc::new(AtomicBool::new(false));
    if let Some(after) = args.unplug_after {
        let flag = unplug.clone();
        let obs2 = obs.clone();
        // The simulated unplug is a timer thread beside the worker loop.
        #[allow(clippy::disallowed_methods)]
        thread::spawn(move || {
            thread::sleep(after);
            obs2.emit_with(|| {
                obs2.wall_event("worker", "unplug.simulated")
                    .severity(Severity::Warn)
                    .field("after_s", after.as_secs())
                    .field("msg", "simulating unplug".to_string())
            });
            flag.store(true, Ordering::Relaxed);
        });
    }

    info(
        &obs,
        format!(
            "phone-{} ({} MHz x{}, {} KB/s) connecting to {addr}...",
            args.phone, args.clock, args.cores, args.kbps
        ),
    );
    let chaos = args.chaos_profile.map(|profile| {
        info(
            &obs,
            format!("chaos armed: seed {} over {profile:?}", args.chaos_seed),
        );
        FaultPlan::observed(args.chaos_seed, profile, obs.clone())
    });
    match run_worker_chaos(addr, cfg, standard_registry(), unplug, &obs, chaos.as_ref()) {
        Ok(()) => {
            info(&obs, "server said goodbye; exiting".to_string());
            let report = obs.metrics.report();
            let _ = std::io::stdout().write_all(report.render_text().as_bytes());
            obs.flush();
        }
        Err(e) => fatal(&obs, format!("{e}")),
    }
}
