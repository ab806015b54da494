//! Criterion benches for the scheduling algorithms — the cost the paper's
//! "lightweight central server" claim rests on (§3.2: a small EC2
//! instance must schedule the fleet comfortably).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cwc_bench::sched_perf::{chunk_instance, residual_after_failures, synth_instance as instance};
use cwc_core::{GreedyScheduler, Scheduler, SchedulerKind};
use std::hint::black_box;

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule");
    // The 100x1000 greedy instance runs in the tens of milliseconds;
    // a small sample keeps the full suite pleasant.
    group.sample_size(20);
    // The paper's shape (18 phones, 150 jobs) plus larger fleets.
    for &(p, j) in &[(18usize, 150usize), (50, 500), (100, 1_000)] {
        let problem = instance(p, j);
        for kind in SchedulerKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.label(), format!("{p}x{j}")),
                &problem,
                |b, problem| {
                    b.iter(|| Scheduler::run(kind, black_box(problem)).unwrap());
                },
            );
        }
    }
    group.finish();
}

fn bench_fleet_scale(c: &mut Criterion) {
    // The fleet-scale target: 500 phones × 5 000 jobs, greedy only (the
    // baselines are linear and uninteresting at this size).
    let mut group = c.benchmark_group("schedule-large");
    group.sample_size(10);
    let problem = instance(500, 5_000);
    group.bench_with_input(
        BenchmarkId::new("greedy", "500x5000"),
        &problem,
        |b, problem| {
            b.iter(|| Scheduler::run(SchedulerKind::Greedy, black_box(problem)).unwrap());
        },
    );
    group.finish();
}

fn bench_wide_tall_and_chunk_shapes(c: &mut Criterion) {
    // The three shapes the ladder above misses (all are `benchmark/`
    // workloads, so a change to either loop should have a microbench):
    // as many phones as jobs, where nearly every placement opens a bin
    // and Step 2's "which unopened bin minimises Eq. 1" scan dominates
    // (`sched-fleet`); five jobs a phone on a fleet large enough that
    // hundreds of bins open, where Step 1 — filling each bin from a
    // thousand live items — carries the most (`sim-fleet`'s cold
    // instant); and thousands of one-chunk items on two phones, where
    // removing a consumed item from the list dominates (`live-chunks`'
    // initial pack).
    for (group, label, problem) in [
        ("schedule-wide", "1000x1000", instance(1_000, 1_000)),
        ("schedule-tall", "200x1000", instance(200, 1_000)),
        ("schedule-chunks", "2x4000", chunk_instance(2, 4_000)),
    ] {
        let mut group = c.benchmark_group(group);
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("greedy", label), &problem, |b, problem| {
            b.iter(|| Scheduler::run(SchedulerKind::Greedy, black_box(problem)).unwrap());
        });
        group.finish();
    }
}

fn bench_warm_vs_cold_reschedule(c: &mut Criterion) {
    // The failure-recovery path: schedule 100×1000, fail 10% of phones,
    // reschedule their residual work over the survivors — cold (fresh
    // worst-bin bound) versus warm-started from the initial instant's
    // converged window.
    let sched = GreedyScheduler::default();
    let problem = instance(100, 1_000);
    let (schedule, _, warm) = sched
        .schedule_warm_with_stats(&problem, None)
        .expect("initial schedule");
    let residual =
        residual_after_failures(&problem, &schedule, 10).expect("failed phones held work");

    let mut group = c.benchmark_group("reschedule");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("cold", "100x1000"), &residual, |b, r| {
        b.iter(|| sched.schedule_warm_with_stats(black_box(r), None).unwrap());
    });
    group.bench_with_input(BenchmarkId::new("warm", "100x1000"), &residual, |b, r| {
        b.iter(|| {
            sched
                .schedule_warm_with_stats(black_box(r), Some(warm))
                .unwrap()
        });
    });
    group.finish();
}

fn bench_binary_search_tolerance(c: &mut Criterion) {
    // Ablation: how much the capacity search costs at tighter tolerances.
    let problem = instance(18, 150);
    let mut group = c.benchmark_group("greedy-tolerance");
    group.sample_size(20);
    for tol in [100.0, 10.0, 1.0, 0.1] {
        group.bench_with_input(BenchmarkId::from_parameter(tol), &tol, |b, &tol| {
            let sched = GreedyScheduler { tolerance_ms: tol };
            b.iter(|| sched.schedule(black_box(&problem)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_fleet_scale,
    bench_wide_tall_and_chunk_shapes,
    bench_warm_vs_cold_reschedule,
    bench_binary_search_tolerance
);
criterion_main!(benches);
