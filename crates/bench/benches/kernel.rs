//! Criterion benches for the sans-IO coordinator kernel: closed-loop
//! drains of a whole batch through [`Kernel::step`] with no I/O, clocks,
//! or threads in the loop — this is the pure control-plane cost both the
//! sim engine and the live TCP driver pay per batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cwc_core::SchedulerKind;
use cwc_server::coord::{
    CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy,
};
use cwc_server::engine::paper_baselines;
use cwc_server::workload::WorkloadBuilder;
use cwc_types::{CpuSpec, JobSpec, Micros, MsPerKb, PhoneId, PhoneInfo, RadioTech};
use std::collections::VecDeque;
use std::hint::black_box;

const SLOTS: usize = 18;

fn config(jobs: Vec<JobSpec>) -> KernelConfig {
    KernelConfig {
        scheduler: SchedulerKind::Greedy,
        jobs,
        baselines: paper_baselines().into_iter().collect(),
        keepalive_period: Micros::from_secs(5),
        tolerated_misses: 3,
        reschedule: ReschedulePolicy::RoundRobin,
        stall_timeout: None,
        breaker: None,
        reliability: None,
        slo: Default::default(),
        replication: None,
        speculation: None,
        bandwidth_blind: false,
        style: DriverStyle::Live,
        obs: Default::default(),
    }
}

fn probe_info(slot: usize) -> PhoneInfo {
    PhoneInfo::new(
        PhoneId(slot as u32),
        CpuSpec::new(600 + 100 * (slot as u32 % 7), 2),
        RadioTech::ThreeG,
        MsPerKb(6.0 + slot as f64 * 0.5),
    )
    .with_ram_kb(262_144)
}

/// Drives one kernel until the batch drains: every `ShipInput` is
/// answered with a `ReportOk` (the first `fail` of them with a transient
/// `ReportFailed`, exercising the migration path). Returns the number of
/// commands emitted so the optimizer can't discard the run.
fn drain(jobs: &[JobSpec], slots: usize, fail: usize) -> usize {
    let mut kernel = Kernel::new(config(jobs.to_vec())).expect("kernel");
    let mut queue: VecDeque<(Micros, CoordEvent)> = (0..slots)
        .map(|slot| {
            (
                Micros::ZERO,
                CoordEvent::Probe {
                    slot,
                    info: probe_info(slot),
                },
            )
        })
        .collect();
    queue.push_back((Micros::ZERO, CoordEvent::Start));
    let mut clock = 0u64;
    let mut fails_left = fail;
    let mut commands = 0usize;
    while let Some((now, ev)) = queue.pop_front() {
        for cmd in kernel.step(now, ev) {
            commands += 1;
            if let CoordCommand::ShipInput {
                slot,
                seq,
                job,
                len_kb,
                ..
            } = cmd
            {
                clock += 1_000_000;
                let at = Micros(clock);
                if fails_left > 0 {
                    fails_left -= 1;
                    queue.push_back((
                        at,
                        CoordEvent::ReportFailed {
                            slot,
                            seq,
                            job,
                            processed_kb: 0,
                            checkpoint: None,
                        },
                    ));
                } else {
                    queue.push_back((
                        at,
                        CoordEvent::ReportOk {
                            slot,
                            seq,
                            job,
                            exec_ms: len_kb as f64 * 1.2,
                        },
                    ));
                }
            }
        }
    }
    assert!(kernel.finished(), "bench batch did not drain");
    commands
}

fn bench_kernel_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel-drain");
    for jobs in [30usize, 150] {
        let workload = WorkloadBuilder::new(1)
            .breakable(jobs * 2 / 3, "primecount", 30, 200, 2_000)
            .atomic(jobs / 3, "photoblur", 40, 100, 800)
            .build();
        group.bench_with_input(
            BenchmarkId::from_parameter(jobs),
            &workload,
            |b, workload| {
                b.iter(|| black_box(drain(workload, SLOTS, 0)));
            },
        );
    }
    group.finish();
}

fn bench_kernel_drain_with_failures(c: &mut Criterion) {
    let workload = WorkloadBuilder::new(2)
        .breakable(60, "primecount", 30, 300, 1_500)
        .build();
    c.bench_function("kernel-drain-with-failures", |b| {
        b.iter(|| black_box(drain(&workload, SLOTS, 10)));
    });
}

/// The `live-chunks` shape: thousands of single-chunk jobs over two
/// slots, one report per job — where a per-report cost that grows with
/// the catalogue shows as a quadratic drain. Of the ≈ 7 ms a drain takes,
/// ≈ 2.5 ms is `Start`'s pack of the 4 000 items (`schedule-chunks` in
/// the `scheduler` target times it alone); until the packer's item list
/// got a head cursor that pack was 25 of 30 ms.
fn bench_kernel_drain_many_small_jobs(c: &mut Criterion) {
    let workload = WorkloadBuilder::new(3)
        .atomic(4_000, "photoblur", 40, 1, 1)
        .build();
    c.bench_function("kernel-drain-4000x1kb-2slots", |b| {
        b.iter(|| black_box(drain(&workload, 2, 0)));
    });
}

criterion_group!(
    benches,
    bench_kernel_drain,
    bench_kernel_drain_with_failures,
    bench_kernel_drain_many_small_jobs
);
criterion_main!(benches);
