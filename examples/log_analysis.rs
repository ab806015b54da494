//! Enterprise-IT scenario (§3.2): nightly failure-log analysis, end to
//! end with **real log bytes** on the live loopback cluster, including a
//! worker unplugging mid-scan and its partition migrating with state.
//!
//! ```sh
//! cargo run --release --example log_analysis
//! ```

use cwc::server::live::{run_live_server, run_worker, LiveJob, WorkerConfig};
use cwc::tasks::{inputs, standard_registry};
use cwc::types::{JobId, JobKind, PhoneId};
use cwc_core::SchedulerKind;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

// The phones are worker threads on loopback.
#[allow(clippy::disallowed_methods)]
fn main() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let configs = vec![
        WorkerConfig::new(PhoneId(0), 1500, 900.0),
        WorkerConfig::new(PhoneId(1), 1200, 500.0),
        WorkerConfig::new(PhoneId(2), 1000, 310.0),
    ];
    let n = configs.len();
    let mut flags = Vec::new();
    let mut workers = Vec::new();
    for cfg in configs {
        let registry = standard_registry();
        let flag = Arc::new(AtomicBool::new(false));
        flags.push(flag.clone());
        workers.push(thread::spawn(move || run_worker(addr, cfg, registry, flag)));
    }

    // One day of logs from four services, ~1 MB each.
    let logs: Vec<LiveJob> = (0..4u32)
        .map(|svc| {
            let bytes = inputs::log_file(1024, u64::from(svc) + 100);
            LiveJob::new(JobId(svc), JobKind::Breakable, "logscan", 20, bytes)
        })
        .collect();
    let reference: Vec<u64> = logs.iter().map(|j| count_failures(&j.input)).collect();

    // Simulate an employee unplugging phone-1 shortly into the run; its
    // in-flight partition checkpoints and migrates.
    let unplug = flags[1].clone();
    let killer = thread::spawn(move || {
        thread::sleep(Duration::from_millis(15));
        unplug.store(true, Ordering::Relaxed);
    });

    println!("scanning {} log files on {n} workers...", logs.len());
    let out = run_live_server(
        listener,
        n,
        logs,
        standard_registry(),
        SchedulerKind::Greedy,
        Duration::from_secs(60),
    )
    .expect("live log scan");

    println!(
        "done in {:?} ({} partition(s) migrated after the unplug)",
        out.wall, out.migrated
    );
    for (svc, expect) in reference.iter().enumerate() {
        let got = u64::from_be_bytes(
            out.results[&JobId(svc as u32)]
                .as_slice()
                .try_into()
                .unwrap(),
        );
        println!(
            "  service-{svc}: {got} failure lines (reference {expect}) {}",
            if got == *expect { "OK" } else { "MISMATCH" }
        );
        assert_eq!(
            got, *expect,
            "migration must not lose or double-count lines"
        );
    }

    killer.join().unwrap();
    drop(workers); // failed worker threads exit when their sockets close
}

/// Reference count computed directly (severity is the second field).
fn count_failures(log: &[u8]) -> u64 {
    log.split(|&b| b == b'\n')
        .filter(|line| {
            let mut fields = line.split(|&b| b == b' ').filter(|f| !f.is_empty());
            let _ts = fields.next();
            matches!(fields.next(), Some(b"ERROR") | Some(b"FATAL"))
        })
        .count() as u64
}
