//! `cwc-bench-reliability` — speculation/replication acceptance artifact.
//!
//! Runs the proactive-reliability acceptance ladder (10/20/30% of the
//! fleet unplugging silently mid-run; see `cwc_bench::reliability`) and
//! writes the makespan comparison to `BENCH_reliability.json` so the
//! reliability trajectory is recorded alongside the code. Run with:
//!
//! ```text
//! cargo run --release -p cwc-bench --bin cwc-bench-reliability [-- OUT.json]
//! ```

use cwc_bench::obj;
use cwc_bench::reliability::{
    run_acceptance, ATOMIC_JOBS, BREAKABLE_JOBS, DEADLINE_JOBS, DEADLINE_MS, FLEET,
};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_reliability.json".to_string());
    let seed = 41;
    let scenarios: Vec<cwc_bench::report::JsonValue> = run_acceptance(seed)
        .into_iter()
        .map(|s| {
            let speedup = s.baseline_ms / s.proactive_ms;
            eprintln!(
                "failure {:>4.0}% ({} phones): baseline {:>9.0} ms, proactive {:>9.0} ms \
                 ({speedup:.2}x; {} replicas planned, {} speculations, SLO {}/{} met)",
                s.failure_fraction * 100.0,
                s.phones_failed,
                s.baseline_ms,
                s.proactive_ms,
                s.replicas_planned,
                s.speculation_launched,
                s.deadline_met,
                s.deadline_met + s.deadline_missed,
            );
            obj! {
                "failure_fraction": s.failure_fraction,
                "phones_failed": s.phones_failed,
                "baseline_makespan_ms": s.baseline_ms,
                "proactive_makespan_ms": s.proactive_ms,
                "speedup": speedup,
                "baseline_completed": s.baseline_completed,
                "proactive_completed": s.proactive_completed,
                "replicas_planned": s.replicas_planned,
                "speculation_launched": s.speculation_launched,
                "deadline_met": s.deadline_met,
                "deadline_missed": s.deadline_missed,
            }
        })
        .collect();

    let report = obj! {
        "schema": 1u64,
        "bench": "reliability",
        "fleet_phones": FLEET,
        "workload": obj! {
            "breakable_jobs": BREAKABLE_JOBS,
            "atomic_jobs": ATOMIC_JOBS,
            "deadline_jobs": DEADLINE_JOBS,
            "deadline_ms": DEADLINE_MS,
        },
        "seed": seed,
        "scenarios": scenarios,
    };
    cwc_bench::report::write(&out_path, &report).expect("report path is writable");
    eprintln!("wrote {out_path}");
}
