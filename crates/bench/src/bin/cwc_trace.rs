//! `cwc-trace` — record, replay, and analyze CWC run traces.
//!
//! Three modes:
//!
//! - `record --out DIR [--seed N] [--workers N] [--drop P]` — run the
//!   reference live batch in-process (loopback TCP workers), writing
//!   `DIR/trace.jsonl` (every bus event), anomaly-triggered flight-recorder
//!   dumps (`DIR/flight-*.jsonl`), and `DIR/critical-path.txt`.
//! - `analyze FILE` — print the forensic report for a recorded JSONL trace.
//! - `replay FILE [--seed N]` — re-run the coordinator script embedded in
//!   the trace through a fresh kernel and print the report computed from
//!   the *replayed* events. Byte-identical to `analyze` of the original
//!   capture (the replay gate relies on this).

#![forbid(unsafe_code)]

use cwc_bench::trace::{analyze, record_demo_run, replay_capture};
use cwc_obs::{Event, EventSink, FlightRecorder, FlightRecorderConfig, JsonlSink};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cwc-trace record --out DIR [--seed N] [--workers N] [--drop P]\n  \
         cwc-trace analyze FILE\n  cwc-trace replay FILE [--seed N]"
    );
    ExitCode::FAILURE
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn read_events(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let events: Vec<Event> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Event::from_json(l).ok())
        .collect();
    if events.is_empty() {
        return Err(format!("{path}: no parseable events"));
    }
    Ok(events)
}

fn record(args: &[String]) -> Result<(), String> {
    let out: PathBuf = parse_flag::<String>(args, "--out")
        .ok_or("record requires --out DIR")?
        .into();
    let seed: u64 = parse_flag(args, "--seed").unwrap_or(0xC0FFEE);
    let workers: u32 = parse_flag(args, "--workers").unwrap_or(4);
    let drop_rate: Option<f64> = parse_flag(args, "--drop");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    let jsonl = JsonlSink::create(out.join("trace.jsonl"))
        .map_err(|e| format!("create trace.jsonl: {e}"))?;
    let cfg = FlightRecorderConfig {
        dump_dir: Some(out.clone()),
        ..FlightRecorderConfig::default()
    };
    let mut recorder: Option<Arc<FlightRecorder>> = None;
    let (outcome, events) = record_demo_run(seed, workers, drop_rate, |obs| {
        let rec = Arc::new(FlightRecorder::new(cfg, obs.metrics.clone()));
        recorder = Some(rec.clone());
        vec![Arc::new(jsonl) as Arc<dyn EventSink>, rec]
    })
    .map_err(|e| e.to_string())?;
    let recorder = recorder.ok_or("flight recorder was not attached")?;
    // Always leave one dump behind, even on a fault-free run: the CI
    // artifact is the run's black box.
    if let Err(e) = recorder.dump_now("end of run") {
        eprintln!("cwc-trace: end-of-run dump failed: {e}");
    }

    let report = analyze(&events);
    std::fs::write(out.join("critical-path.txt"), &report)
        .map_err(|e| format!("write critical-path.txt: {e}"))?;
    println!("{report}");
    println!(
        "recorded seed={seed} workers={workers} drop={:?}: {} events, {} job(s) done, \
         {} migrated, {} dump(s) in {}",
        drop_rate,
        events.len(),
        outcome.results.len(),
        outcome.migrated,
        recorder.dumps().len(),
        out.display()
    );
    match outcome.failure {
        None => Ok(()),
        Some(f) => Err(format!("run degraded: {}", f.detail)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("analyze") => match args.get(1) {
            Some(path) => read_events(path).map(|events| println!("{}", analyze(&events))),
            None => return usage(),
        },
        Some("replay") => match args.get(1) {
            Some(path) => {
                let seed: u64 = parse_flag(&args[2..], "--seed").unwrap_or(0xC0FFEE);
                read_events(path).and_then(|events| {
                    replay_capture(&events, seed)
                        .map(|replayed| println!("{}", analyze(&replayed)))
                        .map_err(|e| e.to_string())
                })
            }
            None => return usage(),
        },
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cwc-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
