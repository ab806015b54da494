//! Criterion benches for the simulated central server: full experiment
//! runs (the `200x1000-failures` one is `benchmark/`'s `sim-fleet` shape),
//! the link sampling under every simulated phone, and the FCFS
//! feasibility dispatcher.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use cwc_net::link::{LinkConfig, LinkModel};
use cwc_server::feasibility::fcfs_dispatch;
use cwc_server::workload::WorkloadBuilder;
use cwc_server::{testbed_fleet, Engine, EngineConfig, FailureInjection, FleetBuilder};
use cwc_sim::RngStreams;
use cwc_types::{KiloBytes, Micros, PhoneId, RadioTech};
use std::hint::black_box;

fn bench_engine_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-run");
    group.sample_size(10);
    for jobs in [30usize, 150] {
        let workload = WorkloadBuilder::new(1)
            .breakable(jobs * 2 / 3, "primecount", 30, 200, 2_000)
            .atomic(jobs / 3, "photoblur", 40, 100, 800)
            .build();
        group.bench_with_input(
            BenchmarkId::from_parameter(jobs),
            &workload,
            |b, workload| {
                b.iter(|| {
                    let out = Engine::new(
                        testbed_fleet(1),
                        workload.clone(),
                        vec![],
                        EngineConfig::default(),
                    )
                    .unwrap()
                    .run()
                    .unwrap();
                    black_box(out.makespan);
                });
            },
        );
    }
    group.finish();
}

fn bench_engine_with_failures(c: &mut Criterion) {
    let workload = WorkloadBuilder::new(2)
        .breakable(60, "primecount", 30, 300, 1_500)
        .build();
    let injections: Vec<FailureInjection> = (0..3u32)
        .map(|i| FailureInjection {
            at: Micros::from_secs(30 + u64::from(i) * 40),
            phone: PhoneId(i * 5),
            offline: i == 1,
            replug_at: None,
        })
        .collect();
    c.bench_function("engine-run-with-failures", |b| {
        b.iter(|| {
            let out = Engine::new(
                testbed_fleet(2),
                workload.clone(),
                injections.clone(),
                EngineConfig::default(),
            )
            .unwrap()
            .run()
            .unwrap();
            black_box(out.rescheduled_items);
        });
    });
}

/// 20 houses × 10 phones, 800 breakable + 200 atomic jobs, every tenth
/// phone unplugging one a second from t = 30 s, alternately offline and
/// online: what a `sim-fleet` round runs sixteen of.
fn bench_engine_fleet_with_failures(c: &mut Criterion) {
    let fleet = FleetBuilder::new(7).houses(20).phones_per_house(10).build();
    let workload = WorkloadBuilder::new(7)
        .breakable(800, "primecount", 30, 200, 2_000)
        .atomic(200, "photoblur", 40, 100, 800)
        .build();
    let injections: Vec<FailureInjection> = fleet
        .iter()
        .step_by(10)
        .enumerate()
        .map(|(k, phone)| FailureInjection {
            at: Micros::from_secs(30 + k as u64),
            phone: phone.id(),
            offline: k % 2 == 0,
            replug_at: None,
        })
        .collect();
    let mut group = c.benchmark_group("engine-run");
    group.sample_size(10);
    group.bench_function("200x1000-failures", |b| {
        b.iter_batched(
            || {
                Engine::new(
                    fleet.clone(),
                    workload.clone(),
                    injections.clone(),
                    EngineConfig::default(),
                )
                .unwrap()
            },
            |engine| {
                let out = engine.run().unwrap();
                assert_eq!(out.completed_jobs, out.total_jobs);
                black_box(out.rescheduled_items)
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// `LinkModel::rate_at` a thousand samples apart by a fixed gap — one
/// period (one AR(1) step), 64 (the longest iterated gap), 65 (the
/// shortest resampled one) and 10 000 — and the `Phone::info` probe a
/// simulated phone answers twice per chunk (ten samples after a long gap).
fn bench_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("link");
    for periods in [1u64, 64, 65, 10_000] {
        let mut link = LinkModel::new(
            LinkConfig::typical(RadioTech::Wifi80211g),
            RngStreams::new(7).stream("bench-link"),
        );
        let mut now = Micros::ZERO;
        group.bench_function(BenchmarkId::new("rate_at-x1000/gap", periods), |b| {
            b.iter(|| {
                let mut sum = 0.0;
                for _ in 0..1_000 {
                    now += Micros::from_secs(periods);
                    sum += link.rate_at(now);
                }
                black_box(sum)
            });
        });
    }
    let mut phone = testbed_fleet(7).swap_remove(0);
    let mut now = Micros::ZERO;
    group.bench_function("phone-info-x1000/gap/100", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for _ in 0..1_000 {
                now += Micros::from_secs(100);
                sum += phone.info(now).bandwidth.0;
            }
            black_box(sum)
        });
    });
    group.finish();
}

fn bench_fcfs(c: &mut Criterion) {
    let files: Vec<KiloBytes> = (0..600).map(|k| KiloBytes(40 + (k % 11) * 10)).collect();
    c.bench_function("fcfs-600-files", |b| {
        b.iter(|| {
            let mut phones = testbed_fleet(3);
            phones.truncate(6);
            black_box(fcfs_dispatch(&mut phones, &files, 2.0));
        });
    });
}

criterion_group!(
    benches,
    bench_engine_run,
    bench_engine_with_failures,
    bench_engine_fleet_with_failures,
    bench_link,
    bench_fcfs
);
criterion_main!(benches);
