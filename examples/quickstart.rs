//! Quickstart: schedule and simulate the paper's 150-task evaluation on
//! the 18-phone testbed.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cwc::prelude::*;

fn main() {
    // Everything the engine does is observable: share one Obs across the
    // runs, stream the structured event log to JSONL, and print the
    // metrics report at the end.
    let obs = Obs::new();
    let log_path = std::env::temp_dir().join("cwc-quickstart-events.jsonl");
    obs.attach_jsonl(&log_path).expect("writable temp dir");

    // The paper's fleet: 18 phones across three houses, WiFi + cellular,
    // 806 MHz – 1.5 GHz. Deterministic per seed.
    let fleet = testbed_fleet(42);
    println!("fleet:");
    for phone in &fleet {
        println!(
            "  {} {:<18} {:>4} MHz  {}",
            phone.id(),
            phone.spec().model,
            phone.spec().cpu.spec.clock_mhz,
            phone.spec().radio
        );
    }

    // The paper's workload: 50 prime counts + 50 word counts (breakable)
    // + 50 photo blurs (atomic).
    let jobs = paper_workload(42);
    println!("\nworkload: {} jobs", jobs.len());

    // Run all three schedulers over identical initial conditions: each
    // run gets its own copy of the fleet and the batch.
    println!(
        "\n{:<12} {:>10} {:>12} {:>10}",
        "scheduler", "makespan", "predicted", "done"
    );
    for kind in [
        SchedulerKind::Greedy,
        SchedulerKind::EqualSplit,
        SchedulerKind::RoundRobin,
    ] {
        let config = EngineConfig {
            scheduler: kind,
            obs: obs.clone(),
            ..EngineConfig::default()
        };
        let engine = Engine::new(fleet.clone(), jobs.clone(), vec![], config).expect("profiled");
        let out = engine.run().expect("schedulable");
        println!(
            "{:<12} {:>9.0}s {:>11.0}s {:>7}/{}",
            kind.label(),
            out.makespan.as_secs_f64(),
            out.predicted_makespan_ms / 1e3,
            out.completed_jobs,
            out.total_jobs,
        );
    }
    println!("\nGreedy CBP packing wins because it weighs wireless bandwidth (b_i)");
    println!("alongside CPU clock — the paper's core scheduling argument.");

    // The same runs, seen through the observability layer.
    obs.flush();
    println!("\nmetrics across all three runs:");
    print!("{}", obs.metrics.report().render_text());
    println!("\nstructured event log (JSONL): {}", log_path.display());
}
