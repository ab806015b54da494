//! Per-layer probes: each calls one layer of the program through its
//! public functions, in isolation, and reports that layer's cost in the
//! shape the workloads use it. `sheet.rs` runs them all on every traced
//! run; the README's prediction table says which end-to-end metric each
//! is expected to move.

use crate::report::percentile;
use crate::spans::Tracer;
use bytes::{Bytes, BytesMut};
use cwc_core::{
    partition_jobs, Assignment, GreedyScheduler, GreedyStats, SchedProblem, Schedule, WarmStart,
};
use cwc_net::{Conn, FlushStatus, Frame, FrameCodec, Interest, PollEvent, Poller, TimerWheel};
use cwc_server::coord::{
    plan_shards, CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy,
    TimerKind,
};
use cwc_server::WorkerPool;
use cwc_types::{CwcError, CwcResult, JobId, JobSpec, KiloBytes, Micros, PhoneInfo};
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Iterations of a fixed-iteration probe: `full` for measured runs, a
/// twentieth for `--quick` (whose numbers are never compared).
fn iters(quick: bool, full: usize) -> usize {
    if quick {
        (full / 20).max(2)
    } else {
        full
    }
}

/// Shards and pool width of every sharded phase (the host has 2 cores).
pub const SHARDS: usize = 4;
/// Threads the sharded phases may use.
pub const POOL_THREADS: usize = 2;

fn ship_input(len: usize) -> Frame {
    Frame::ShipInput {
        job: JobId(7),
        seq: 41,
        offset_kb: 0,
        len_kb: (len as u64).div_ceil(1024),
        resume_from: None,
        trace_id: 7,
        span_id: 19,
        parent_span: 0,
        replica: false,
        data: Bytes::from(vec![0x37u8; len]),
    }
}

fn task_complete() -> Frame {
    Frame::TaskComplete {
        job: JobId(7),
        seq: 41,
        exec_ms: 1,
        result: Bytes::copy_from_slice(&1024u64.to_be_bytes()),
    }
}

fn encoded(frame: &Frame) -> Vec<u8> {
    let mut buf = BytesMut::new();
    frame.encode(&mut buf);
    buf.to_vec()
}

/// Mean ns to encode `frame` once, over `iters` encodes.
fn encode_ns(frame: &Frame, iters: usize) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        let mut buf = BytesMut::new();
        black_box(frame).encode(&mut buf);
        black_box(&buf);
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// Mean ns to push one encoded frame through a `FrameCodec` and decode
/// it (CRC check included), over `iters` frames.
fn decode_ns(frame: &Frame, iters: usize) -> CwcResult<f64> {
    let wire = encoded(frame);
    let mut codec = FrameCodec::new();
    let started = Instant::now();
    for _ in 0..iters {
        codec.extend(black_box(&wire));
        if black_box(codec.next_frame()?).is_none() {
            return Err(CwcError::Protocol(
                "codec probe: frame did not decode".into(),
            ));
        }
    }
    Ok(started.elapsed().as_nanos() as f64 / iters as f64)
}

/// Codec cost on the exact frames of `live-chunks`.
#[derive(Debug, Clone, Copy)]
pub struct SmallFrameCost {
    /// Encode a 1 KB `ShipInput`, ns.
    pub encode_ship_ns: f64,
    /// Encode a `TaskComplete`, ns.
    pub encode_complete_ns: f64,
    /// Decode a 1 KB `ShipInput`, ns.
    pub decode_ship_ns: f64,
    /// Decode a `TaskComplete`, ns.
    pub decode_complete_ns: f64,
}

/// Times the codec on a 1 KB `ShipInput` and a `TaskComplete`.
pub fn codec_small(quick: bool, tracer: &Tracer) -> CwcResult<SmallFrameCost> {
    let iters = iters(quick, 20_000);
    tracer.scope("probe.net.codec.small", None, || {
        let ship = ship_input(1024);
        let done = task_complete();
        Ok(SmallFrameCost {
            encode_ship_ns: encode_ns(&ship, iters),
            encode_complete_ns: encode_ns(&done, iters),
            decode_ship_ns: decode_ns(&ship, iters)?,
            decode_complete_ns: decode_ns(&done, iters)?,
        })
    })
}

/// Codec throughput on a 1 MB `ShipInput`: `(encode, decode)` in MB/s.
pub fn codec_bulk(quick: bool, tracer: &Tracer) -> CwcResult<(f64, f64)> {
    let iters = iters(quick, 24);
    tracer.scope("probe.net.codec.bulk", None, || {
        let ship = ship_input(1 << 20);
        let mb_per_s = |ns: f64| 1e9 / ns;
        Ok((
            mb_per_s(encode_ns(&ship, iters)),
            mb_per_s(decode_ns(&ship, iters)?),
        ))
    })
}

/// Two connected non-blocking `Conn`s on loopback, both on one poller
/// (tokens 0 and 1).
fn conn_pair() -> CwcResult<(Poller, Conn, Conn)> {
    let io = |what: &str, e: std::io::Error| CwcError::Transport(format!("{what}: {e}"));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
    let addr = listener.local_addr().map_err(|e| io("local_addr", e))?;
    let a = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
    let (b, _) = listener.accept().map_err(|e| io("accept", e))?;
    let (a, b) = (Conn::from_stream(a)?, Conn::from_stream(b)?);
    let poller = Poller::new()?;
    poller.register(a.fd(), 0, Interest::READ)?;
    poller.register(b.fd(), 1, Interest::READ)?;
    Ok((poller, a, b))
}

/// Sends `wire` from `from` and waits until `to` decodes one frame.
fn one_hop(
    poller: &mut Poller,
    events: &mut Vec<PollEvent>,
    from: &mut Conn,
    to: &mut Conn,
    wire: &[u8],
) -> CwcResult<()> {
    from.queue_bytes(wire.to_vec());
    from.flush()?;
    loop {
        if to.next_frame()?.is_some() {
            return Ok(());
        }
        events.clear();
        poller.wait(events, Some(Duration::from_secs(5)))?;
        if events.is_empty() {
            return Err(CwcError::Transport(
                "reactor probe: peer went silent".into(),
            ));
        }
        to.fill()?;
    }
}

/// Small-frame round trips through `queue_bytes → flush → Poller::wait →
/// fill → next_frame`, both directions: `(p50, p99)` in µs.
pub fn reactor_pingpong(quick: bool, tracer: &Tracer) -> CwcResult<(f64, f64)> {
    let rounds_timed = iters(quick, 4_000);
    let warm_up = iters(quick, 200);
    tracer.scope("probe.net.reactor.pingpong", None, || {
        let (mut poller, mut a, mut b) = conn_pair()?;
        let ping = encoded(&ship_input(1024));
        let pong = encoded(&task_complete());
        let mut events = Vec::new();
        let mut rounds = Vec::with_capacity(rounds_timed);
        for i in 0..rounds_timed + warm_up {
            let started = Instant::now();
            one_hop(&mut poller, &mut events, &mut a, &mut b, &ping)?;
            one_hop(&mut poller, &mut events, &mut b, &mut a, &pong)?;
            if i >= warm_up {
                rounds.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok((percentile(&rounds, 0.5), percentile(&rounds, 0.99)))
    })
}

/// 1 MB frames one way through the `Blocked`/write-interest path:
/// `(MB/s, flushes that returned Blocked)`.
pub fn reactor_bulk(quick: bool, tracer: &Tracer) -> CwcResult<(f64, u64)> {
    let frames = iters(quick, 48);
    tracer.scope("probe.net.reactor.bulk", None, || {
        let (mut poller, mut a, mut b) = conn_pair()?;
        let wire = encoded(&ship_input(1 << 20));
        let mut events = Vec::new();
        let mut blocked = 0u64;
        let mut write_interest = false;
        let started = Instant::now();
        for _ in 0..frames {
            a.queue_bytes(wire.clone());
            loop {
                let want = match a.flush()? {
                    FlushStatus::Blocked => {
                        blocked += 1;
                        true
                    }
                    _ => false,
                };
                if want != write_interest {
                    write_interest = want;
                    let interest = if want {
                        Interest::READ_WRITE
                    } else {
                        Interest::READ
                    };
                    poller.reregister(a.fd(), 0, interest)?;
                }
                if b.next_frame()?.is_some() {
                    break;
                }
                events.clear();
                poller.wait(&mut events, Some(Duration::from_secs(5)))?;
                if events.is_empty() {
                    return Err(CwcError::Transport("bulk probe: peer went silent".into()));
                }
                b.fill()?;
            }
        }
        let mb = frames as f64;
        Ok((mb / started.elapsed().as_secs_f64(), blocked))
    })
}

/// `TimerWheel` arm + cancel, the pair the live driver pays per ship
/// (stall watchdog), with a few resident timers: ns per pair.
pub fn timer_wheel(quick: bool, tracer: &Tracer) -> f64 {
    let ops = iters(quick, 200_000) as u64;
    tracer.scope("probe.net.reactor.timer", None, || {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        for i in 0..4 {
            wheel.arm(Micros(u64::MAX - i), i);
        }
        let started = Instant::now();
        for i in 0..ops {
            let key = wheel.arm(Micros(5_000_000 + i), i);
            black_box(wheel.cancel(key));
        }
        started.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// What stepping a recorded script through a fresh kernel cost.
#[derive(Debug, Clone, Default)]
pub struct KernelReplay {
    /// `Kernel::step` calls.
    pub steps: u64,
    /// Commands the kernel emitted.
    pub commands: u64,
    /// Per-step durations, µs.
    pub step_us: Vec<f64>,
    /// Sum of all steps, s.
    pub total_s: f64,
    /// The `Start` step (the initial schedule inside the kernel), ms.
    pub start_ms: f64,
}

/// Steps `script` through a fresh kernel, timing each `Kernel::step`.
pub fn kernel_replay(
    script: &[(Micros, CoordEvent)],
    cfg: KernelConfig,
    tracer: &Tracer,
) -> CwcResult<KernelReplay> {
    tracer.scope("probe.coord.kernel.replay", None, || {
        let mut kernel = Kernel::new(cfg)?;
        let mut out = KernelReplay::default();
        for (now, ev) in script {
            let is_start = matches!(ev, CoordEvent::Start);
            let started = Instant::now();
            let cmds = kernel.step(*now, ev.clone());
            let took = started.elapsed().as_secs_f64();
            out.steps += 1;
            out.commands += cmds.len() as u64;
            out.step_us.push(took * 1e6);
            out.total_s += took;
            if is_start {
                out.start_ms = took * 1e3;
            }
            black_box(cmds);
        }
        Ok(out)
    })
}

/// Closed-loop drain of a batch through a Solver-policy kernel with no
/// I/O: every `ShipInput` is answered with a `ReportOk`, except that the
/// first ship to every tenth slot is an online failure, whose residual
/// waits for the `Reschedule` timer and is re-packed (warm-started) over
/// the survivors. Returns `(ms, steps)`.
pub fn kernel_drain(
    phones: &[PhoneInfo],
    jobs: &[JobSpec],
    baselines: BTreeMap<String, f64>,
    tracer: &Tracer,
) -> CwcResult<(f64, u64)> {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Due(std::cmp::Reverse<(u64, u64)>);
    tracer.scope("probe.coord.kernel.drain", None, || {
        let mut kernel = Kernel::new(KernelConfig {
            scheduler: cwc_core::SchedulerKind::Greedy,
            jobs: jobs.to_vec(),
            baselines,
            keepalive_period: Micros::from_secs(30),
            tolerated_misses: 3,
            reschedule: ReschedulePolicy::Solver {
                delay: Micros::from_secs(60),
            },
            stall_timeout: None,
            breaker: None,
            reliability: None,
            slo: BTreeMap::new(),
            replication: None,
            speculation: None,
            bandwidth_blind: false,
            style: DriverStyle::Sim,
            obs: cwc_obs::Obs::new(),
        })?;
        // Time-ordered pending events; the sequence number keeps equal
        // timestamps in arrival order.
        let mut pending: BinaryHeap<Due> = BinaryHeap::new();
        let mut payloads: BTreeMap<u64, CoordEvent> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut push = |pending: &mut BinaryHeap<Due>,
                        payloads: &mut BTreeMap<u64, CoordEvent>,
                        at: u64,
                        ev: CoordEvent| {
            pending.push(Due(std::cmp::Reverse((at, next_seq))));
            payloads.insert(next_seq, ev);
            next_seq += 1;
        };
        for (slot, info) in phones.iter().enumerate() {
            push(
                &mut pending,
                &mut payloads,
                0,
                CoordEvent::Probe { slot, info: *info },
            );
        }
        push(&mut pending, &mut payloads, 0, CoordEvent::Start);
        let mut failed_once = vec![false; phones.len()];
        let mut steps = 0u64;
        let started = Instant::now();
        while let Some(Due(std::cmp::Reverse((at, seq)))) = pending.pop() {
            let Some(ev) = payloads.remove(&seq) else {
                continue;
            };
            let mut cmds: std::collections::VecDeque<CoordCommand> =
                kernel.step(Micros(at), ev).into();
            steps += 1;
            while let Some(cmd) = cmds.pop_front() {
                match cmd {
                    CoordCommand::SendProbe { slot } => {
                        let info = phones[slot];
                        cmds.extend(kernel.step(Micros(at), CoordEvent::Probe { slot, info }));
                        steps += 1;
                    }
                    CoordCommand::ShipInput {
                        slot,
                        seq,
                        job,
                        len_kb,
                        ..
                    } => {
                        let done = at + 1_000_000;
                        let ev = if slot.is_multiple_of(10) && !failed_once[slot] {
                            failed_once[slot] = true;
                            CoordEvent::ReportFailed {
                                slot,
                                seq,
                                job,
                                processed_kb: 0,
                                checkpoint: None,
                            }
                        } else {
                            CoordEvent::ReportOk {
                                slot,
                                seq,
                                job,
                                exec_ms: len_kb as f64 * 1.2,
                            }
                        };
                        push(&mut pending, &mut payloads, done, ev);
                    }
                    CoordCommand::StartTimer {
                        kind: TimerKind::Reschedule,
                        slot,
                        token,
                        after,
                    } => push(
                        &mut pending,
                        &mut payloads,
                        at + after.0,
                        CoordEvent::TimerFired {
                            kind: TimerKind::Reschedule,
                            slot,
                            token,
                        },
                    ),
                    _ => {}
                }
            }
        }
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if let Some(e) = kernel.take_fatal() {
            return Err(e);
        }
        if !kernel.finished() {
            return Err(CwcError::Config("kernel drain probe did not finish".into()));
        }
        Ok((ms, steps))
    })
}

/// `cwc_sim::Simulation` schedule + pop at `events` events: ns per event.
pub fn sim_queue(events: u64, tracer: &Tracer) -> f64 {
    let events = events.max(1);
    tracer.scope("probe.sim.queue", None, || {
        let mut sim: cwc_sim::Simulation<u64> = cwc_sim::Simulation::new();
        let started = Instant::now();
        // Keep ~1 000 events pending, as a fleet-scale run does, and
        // scatter deadlines so the heap actually reorders.
        for i in 0..events {
            sim.schedule_at(Micros(i * 1_000 + (i * 7_919) % 997), i);
            if i >= 1_000 {
                black_box(sim.pop());
            }
        }
        while let Some(ev) = sim.pop() {
            black_box(ev);
        }
        started.elapsed().as_nanos() as f64 / events as f64
    })
}

/// One cold greedy scheduling instant, timed: `(schedule, stats, next
/// warm-start hint, seconds)`.
pub fn cold_schedule(
    problem: &SchedProblem,
    tracer: &Tracer,
) -> CwcResult<(Schedule, GreedyStats, WarmStart, f64)> {
    tracer.scope("core.greedy.schedule", None, || {
        let started = Instant::now();
        let (schedule, stats, warm) =
            GreedyScheduler::default().schedule_warm_with_stats(black_box(problem), None)?;
        Ok((schedule, stats, warm, started.elapsed().as_secs_f64()))
    })
}

/// The scheduling instant that follows a fleet failure: every tenth
/// phone of `problem` is lost and its queued assignments become residual
/// jobs (atomic residuals stay atomic) re-packed over the survivors —
/// the kernel's residual round, minus progress bookkeeping.
fn residual_after_failures(problem: &SchedProblem, schedule: &Schedule) -> CwcResult<SchedProblem> {
    let lost = |i: usize| i.is_multiple_of(10);
    let by_id: BTreeMap<JobId, usize> = problem
        .jobs
        .iter()
        .enumerate()
        .map(|(j, spec)| (spec.id, j))
        .collect();
    let survivors: Vec<usize> = (0..problem.num_phones()).filter(|&i| !lost(i)).collect();
    let mut residuals = Vec::new();
    let mut origin = Vec::new();
    for (i, queue) in schedule.per_phone.iter().enumerate() {
        if !lost(i) {
            continue;
        }
        for a in queue {
            let j = by_id[&a.job];
            let spec = &problem.jobs[j];
            let id = JobId::from_index(residuals.len());
            residuals.push(if spec.kind.is_atomic() {
                JobSpec::atomic(id, spec.program.as_str(), spec.exe_kb, a.input_kb)
            } else {
                JobSpec::breakable(id, spec.program.as_str(), spec.exe_kb, a.input_kb)
            });
            origin.push(j);
        }
    }
    let c = survivors
        .iter()
        .map(|&i| origin.iter().map(|&j| problem.c[i][j]).collect())
        .collect();
    let phones = survivors.iter().map(|&i| problem.phones[i]).collect();
    SchedProblem::new(phones, residuals, c)
}

/// Cold vs warm-started re-pack after 10 % phone loss.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resched {
    /// Cold search on the residual instance, ms.
    pub cold_ms: f64,
    /// The same instance warm-started from the original instant, ms.
    pub warm_ms: f64,
    /// Pack calls of the warm search.
    pub warm_pack_calls: u64,
}

/// Measures the residual re-schedule both ways; both schedules must
/// validate against the residual instance.
pub fn resched(
    problem: &SchedProblem,
    schedule: &Schedule,
    warm: WarmStart,
    tracer: &Tracer,
) -> CwcResult<Resched> {
    let residual = residual_after_failures(problem, schedule)?;
    let scheduler = GreedyScheduler::default();
    let (cold, cold_ms) = tracer.scope("core.resched.cold", None, || {
        let started = Instant::now();
        let out = scheduler.schedule_with_stats(&residual);
        (out, started.elapsed().as_secs_f64() * 1e3)
    });
    let (warmed, warm_ms) = tracer.scope("core.resched.warm", None, || {
        let started = Instant::now();
        let out = scheduler.schedule_warm_with_stats(&residual, Some(warm));
        (out, started.elapsed().as_secs_f64() * 1e3)
    });
    cold?.0.validate(&residual)?;
    let (warm_schedule, warm_stats, _) = warmed?;
    warm_schedule.validate(&residual)?;
    Ok(Resched {
        cold_ms,
        warm_ms,
        warm_pack_calls: warm_stats.pack_calls,
    })
}

/// What the sharded scheduling path cost and produced.
#[derive(Debug, Clone)]
pub struct Sharded {
    /// `plan_shards` + capacity weights, ms.
    pub plan_ms: f64,
    /// `partition_jobs`, ms.
    pub split_ms: f64,
    /// Per-shard subproblem build + greedy pack on the pool, ms.
    pub pack_ms: f64,
    /// Folding shard schedules into one fleet-wide schedule, ms.
    pub merge_ms: f64,
    /// Largest single-shard pack input, phones × jobs.
    pub max_shard_cells: u64,
    /// Assignments across all shards.
    pub assignments: u64,
    /// Tasks the pool's workers stole from each other.
    pub pool_steals: u64,
    /// Slowest shard's predicted makespan, ms.
    pub makespan_ms: f64,
    /// The merged fleet-wide schedule (offsets rebased per job).
    pub merged: Schedule,
}

impl Sharded {
    /// Plan + split + pack + merge, s.
    pub fn wall_s(&self) -> f64 {
        (self.plan_ms + self.split_ms + self.pack_ms + self.merge_ms) / 1e3
    }
}

/// Schedules `problem` 4-way sharded on a 2-thread pool: `plan_shards` →
/// `partition_jobs` → per-shard greedy on `WorkerPool` → merge.
pub fn sharded_schedule(
    problem: &SchedProblem,
    keys: &[u64],
    tracer: &Tracer,
) -> CwcResult<Sharded> {
    tracer.scope_id("shard.schedule", None, |root| {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (plan, weights) = tracer.scope("shard.plan_shards", root, || {
            let plan = plan_shards(keys, SHARDS);
            let weights: Vec<f64> = plan
                .members
                .iter()
                .map(|m| {
                    m.iter()
                        .map(|&i| {
                            let cpu = problem.phones[i].cpu;
                            f64::from(cpu.clock_mhz) * f64::from(cpu.cores)
                        })
                        .sum()
                })
                .collect();
            (plan, weights)
        });
        let plan_ms = ms(t);

        let t = Instant::now();
        let split = tracer.scope("core.partition.partition_jobs", root, || {
            partition_jobs(&problem.jobs, &weights)
        })?;
        let split_ms = ms(t);

        let job_index: BTreeMap<JobId, usize> = problem
            .jobs
            .iter()
            .enumerate()
            .map(|(j, spec)| (spec.id, j))
            .collect();
        let tasks: Vec<_> = (0..SHARDS)
            .map(|s| {
                let members = &plan.members[s];
                let shard_jobs = &split.per_shard[s];
                let job_index = &job_index;
                move || -> CwcResult<Option<Schedule>> {
                    if members.is_empty() || shard_jobs.is_empty() {
                        return Ok(None);
                    }
                    let phones = members.iter().map(|&i| problem.phones[i]).collect();
                    let c = members
                        .iter()
                        .map(|&i| {
                            shard_jobs
                                .iter()
                                .map(|spec| problem.c[i][job_index[&spec.id]])
                                .collect()
                        })
                        .collect();
                    let sub = SchedProblem::new(phones, shard_jobs.clone(), c)?;
                    let schedule = GreedyScheduler::default().schedule(&sub)?;
                    schedule.validate(&sub)?;
                    Ok(Some(schedule))
                }
            })
            .collect();
        let t = Instant::now();
        let (results, stats) = tracer.scope("shard.pool.run", root, || {
            WorkerPool::new(POOL_THREADS).run(tasks)
        });
        let pack_ms = ms(t);

        let t = Instant::now();
        let merged = tracer.scope("shard.merge", root, || -> CwcResult<(Schedule, u64)> {
            // A job divided across shards restarts its offsets at 0 in
            // every slice; rebase each slice by the KB earlier shards hold.
            let mut base: BTreeMap<(JobId, usize), u64> = BTreeMap::new();
            for (job, slices) in &split.slices {
                let mut cursor = 0u64;
                for slice in slices {
                    base.insert((*job, slice.shard), cursor);
                    cursor += slice.kb;
                }
            }
            let mut per_phone: Vec<Vec<Assignment>> = vec![Vec::new(); problem.num_phones()];
            let mut makespan_ms = 0.0f64;
            let mut assignments = 0u64;
            for (s, result) in results.into_iter().enumerate() {
                let Some(schedule) = result? else {
                    continue;
                };
                makespan_ms = makespan_ms.max(schedule.predicted_makespan_ms);
                for (local, queue) in schedule.per_phone.into_iter().enumerate() {
                    assignments += queue.len() as u64;
                    per_phone[plan.members[s][local]] = queue
                        .into_iter()
                        .map(|mut a| {
                            let shift = base.get(&(a.job, s)).copied().unwrap_or(0);
                            a.offset_kb = KiloBytes(a.offset_kb.0 + shift);
                            a
                        })
                        .collect();
                }
            }
            Ok((
                Schedule {
                    per_phone,
                    predicted_makespan_ms: makespan_ms,
                },
                assignments,
            ))
        })?;
        let merge_ms = ms(t);

        Ok(Sharded {
            plan_ms,
            split_ms,
            pack_ms,
            merge_ms,
            max_shard_cells: plan
                .members
                .iter()
                .zip(&split.per_shard)
                .map(|(m, j)| m.len() as u64 * j.len() as u64)
                .max()
                .unwrap_or(0),
            assignments: merged.1,
            pool_steals: stats.steals,
            makespan_ms: merged.0.predicted_makespan_ms,
            merged: merged.0,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_probes_run_and_report_positive_costs() {
        let t = Tracer::off();
        let small = codec_small(true, &t).unwrap();
        assert!(small.encode_ship_ns > 0.0 && small.decode_complete_ns > 0.0);
        let (p50, p99) = reactor_pingpong(true, &t).unwrap();
        assert!(p50 > 0.0 && p99 >= p50);
        let (mb_per_s, _) = reactor_bulk(true, &t).unwrap();
        assert!(mb_per_s > 0.0);
        assert!(timer_wheel(true, &t) > 0.0);
        assert!(sim_queue(10_000, &t) > 0.0);
    }
}
