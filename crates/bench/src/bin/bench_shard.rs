//! `cwc-bench-shard` — sharded-coordination scale artifact (DESIGN.md
//! §15).
//!
//! Packs one deterministic 100k-phone, 400-job instance through 1/2/4/8
//! kernel shards on the work-stealing pool, runs the mass-unplug
//! stealing scenario, and writes `BENCH_shard.json`. Modes:
//!
//! ```text
//! cargo run --release -p cwc-bench --bin cwc-bench-shard [-- OUT.json]
//! cwc-bench-shard --compare BASELINE.json FRESH.json [TOLERANCE]
//! ```
//!
//! `--compare` exits nonzero if aggregate scheduling throughput at any
//! shard count regressed by more than TOLERANCE (default 0.2) — the CI
//! gate.

#![forbid(unsafe_code)]

use cwc_bench::report;
use cwc_bench::shard_scale::{run_ladder, run_mass_unplug, LADDER_JOBS, LADDER_PHONES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // CI gate: diff a fresh report against the committed baseline.
        Some("--compare") => std::process::exit(report::compare_cli(
            "cwc-bench-shard",
            &args[1..],
            "shards",
            "jobs_per_sec",
        )),
        _ => generate(args.first().cloned()),
    }
}

/// Default mode: run the ladder + steal scenario and write the artifact.
fn generate(out_path: Option<String>) {
    let out_path = out_path.unwrap_or_else(|| "BENCH_shard.json".to_string());
    let points =
        run_ladder(LADDER_PHONES, LADDER_JOBS).unwrap_or_else(|e| die(&format!("ladder: {e}")));
    let base = points[0].jobs_per_sec;
    for p in &points {
        eprintln!(
            "{} shard(s): plan {:>6.0} ms, pack {:>7.0} ms, {:>6.0} jobs/s \
             ({:>4.1}x), max shard {:>10} cells, {} pool steals",
            p.shards,
            p.plan_ms,
            p.pack_ms,
            p.jobs_per_sec,
            p.jobs_per_sec / base.max(1e-9),
            p.max_shard_cells,
            p.pool_steals,
        );
    }
    let steal = run_mass_unplug().unwrap_or_else(|e| die(&format!("mass unplug: {e}")));
    eprintln!(
        "  mass unplug: {} of {} phones die; {} chunk(s) stolen over {} round(s), \
         {}/{} jobs recovered, makespan {:.0} s",
        steal.killed,
        steal.phones,
        steal.stolen_chunks,
        steal.steal_rounds,
        steal.completed_jobs,
        steal.total_jobs,
        steal.makespan_us as f64 / 1e6,
    );
    let report = cwc_bench::obj! {
        "bench": "shard_scale",
        "description": "sharded multi-kernel scheduling throughput vs shard count",
        "points": points,
        "mass_unplug": steal,
    };
    report::write(&out_path, &report).unwrap_or_else(|e| die(&e.to_string()));
    eprintln!("wrote {out_path}");
}

fn die(msg: &str) -> ! {
    eprintln!("cwc-bench-shard: {msg}");
    std::process::exit(2);
}
