//! Movie-studio scenario (§3.2): render every scene of a "movie" in
//! parallel on a live loopback cluster of phone workers.
//!
//! Each scene is an atomic task — one scene, one phone — but a batch of
//! scenes fans out across the fleet. The workers run the real rasterizer
//! over real scene bytes shipped through the CWC wire protocol.
//!
//! ```sh
//! cargo run --release --example movie_render
//! ```

use cwc::server::live::{run_live_server, run_worker, LiveJob, WorkerConfig};
use cwc::tasks::{inputs, standard_registry};
use cwc::types::{JobId, JobKind, PhoneId};
use cwc_core::SchedulerKind;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

// The phones are worker threads on loopback.
#[allow(clippy::disallowed_methods)]
fn main() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // Four render nodes with different advertised CPUs and links.
    let configs = vec![
        WorkerConfig::new(PhoneId(0), 1500, 900.0),
        WorkerConfig::new(PhoneId(1), 1200, 500.0),
        WorkerConfig::new(PhoneId(2), 1200, 300.0),
        WorkerConfig::new(PhoneId(3), 1000, 95.0),
    ];
    let n = configs.len();
    let mut workers = Vec::new();
    for cfg in configs {
        let registry = standard_registry();
        let flag = Arc::new(AtomicBool::new(false));
        workers.push(thread::spawn(move || run_worker(addr, cfg, registry, flag)));
    }

    // Twelve scenes of varying complexity.
    let scenes: Vec<LiveJob> = (0..12u32)
        .map(|k| {
            let bytes = inputs::scene_file(320, 200, 8 + (k as usize % 9), u64::from(k));
            LiveJob::new(JobId(k), JobKind::Atomic, "render", 60, bytes)
        })
        .collect();
    println!("rendering {} scenes on {n} phone workers...", scenes.len());

    let out = run_live_server(
        listener,
        n,
        scenes,
        standard_registry(),
        SchedulerKind::Greedy,
        Duration::from_secs(120),
    )
    .expect("live render run");

    println!("done in {:?}; {} frames:", out.wall, out.results.len());
    let mut ids: Vec<&JobId> = out.results.keys().collect();
    ids.sort();
    for id in ids {
        let frame = &out.results[id];
        // Frame = image container: 8-byte header + pixels.
        let (w, h, px) = cwc::tasks::programs::blur::decode_image(frame).expect("frame");
        let mean: f64 = px.iter().map(|&p| f64::from(p)).sum::<f64>() / px.len() as f64;
        println!("  scene {id}: {w}x{h}, mean luminance {mean:.1}");
    }

    for w in workers {
        w.join().expect("join").expect("worker ok");
    }
}
