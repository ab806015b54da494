//! `cwc-bench-live` — event-loop scale artifact (DESIGN.md §14).
//!
//! Measures the single-threaded live path against simulated fleets of
//! 100 / 1k / 10k workers (a child process plays the fleet; see
//! `cwc_bench::live_scale`) plus a 10k-worker chaos-soak smoke point,
//! and writes `BENCH_live.json`. Modes:
//!
//! ```text
//! cargo run --release -p cwc-bench --bin cwc-bench-live [-- OUT.json]
//! cwc-bench-live --compare BASELINE.json FRESH.json [TOLERANCE]
//! cwc-bench-live fleet ADDR WORKERS DIE        # internal child mode
//! ```
//!
//! `--compare` exits nonzero if ship throughput at any scale point
//! regressed by more than TOLERANCE (default 0.2) — the CI gate.
//! Accept throughput is reported but never gates: it is dominated by
//! the host kernel's per-connect latency, not by the event loop.

#![forbid(unsafe_code)]

use cwc_bench::live_scale::{fleet_main, run_point, run_soak, PointConfig, SCALE_LADDER};
use cwc_bench::report::{self, JsonValue};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fleet") => fleet_mode(&args),
        // CI gate: diff a fresh report against the committed baseline.
        Some("--compare") => std::process::exit(report::compare_cli(
            "cwc-bench-live",
            &args[1..],
            "workers",
            "ships_per_sec",
        )),
        _ => generate(args.first().cloned()),
    }
}

/// Child mode: play the simulated fleet, print one JSON summary line.
fn fleet_mode(args: &[String]) {
    let usage = "usage: cwc-bench-live fleet ADDR WORKERS DIE";
    let addr = args
        .get(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| die(usage));
    let workers = args
        .get(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| die(usage));
    let dead = args
        .get(3)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| die(usage));
    match fleet_main(addr, workers, dead) {
        Ok(summary) => println!("{}", JsonValue::from(summary)),
        Err(e) => die(&format!("fleet failed: {e}")),
    }
}

/// Default mode: run the ladder + soak and write the artifact.
fn generate(out_path: Option<String>) {
    let out_path = out_path.unwrap_or_else(|| "BENCH_live.json".to_string());
    let mut points = Vec::new();
    for &workers in &SCALE_LADDER {
        let cfg = PointConfig::throughput(workers);
        let p = run_point(&cfg).unwrap_or_else(|e| die(&format!("scale point {workers}: {e}")));
        eprintln!(
            "{:>6} workers: setup {:>7.0} ms ({:>6.0} accepts/s), ships {:>7.0}/s, \
             keepalive acks {:>6}, loop p50 {:>6.0} us p99 {:>7.0} us max {:>8.0} us",
            p.workers,
            p.setup_ms,
            p.accepts_per_sec,
            p.ships_per_sec,
            p.keepalives_acked,
            p.loop_p50_us,
            p.loop_p99_us,
            p.loop_max_us,
        );
        points.push(p);
    }
    let soak = run_soak().unwrap_or_else(|e| die(&format!("chaos soak: {e}")));
    eprintln!(
        "  soak {:>5} workers (seed {}, {} died, drop chaos): {:.0} ms, {} migrated, \
         {} retries, {} lost, completed={}",
        soak.workers,
        soak.seed,
        soak.died,
        soak.wall_ms,
        soak.migrated,
        soak.retries,
        soak.workers_lost,
        soak.completed,
    );
    if !soak.completed {
        die("chaos soak failed to complete the batch");
    }
    let report = cwc_bench::obj! {
        "bench": "live_scale",
        "description": "single-threaded event-loop live path vs simulated fleet size; \
                        fleet child connects in parallel batches (4 connector threads)",
        "points": points,
        "soak": soak,
    };
    report::write(&out_path, &report).unwrap_or_else(|e| die(&e.to_string()));
    eprintln!("wrote {out_path}");
}

fn die(msg: &str) -> ! {
    eprintln!("cwc-bench-live: {msg}");
    std::process::exit(2);
}
