//! Live deployment: the CWC protocol over real TCP sockets.
//!
//! The prototype's server is a Java NIO process on EC2 talking to phones
//! over persistent TCP connections. This module is the Rust analogue for
//! a loopback cluster: worker threads play the phones — they register
//! with real hardware descriptors, answer bandwidth probes, execute
//! **real task programs** over shipped input bytes, report measured
//! runtimes, answer keep-alives, and, when "unplugged", interrupt at a
//! chunk boundary and ship their migration checkpoint back.
//!
//! The coordinator itself is the sans-IO kernel ([`crate::coord`]); the
//! server side of this module is a **single-threaded readiness-based
//! event loop** (DESIGN.md §14) built on [`cwc_net::reactor`]: one
//! [`cwc_net::Poller`] multiplexes accepts, frame decode, and write
//! readiness for the whole fleet; [`Kernel::step_into`] turns each decoded
//! frame into commands; command fan-out goes through per-connection
//! write queues with explicit backpressure accounting; and every
//! wall-clock wait — kernel keep-alive/stall/speculation timers, injected
//! wire pacing — lives in one deadline-ordered [`cwc_net::TimerWheel`].
//! The loop is the only way the server does I/O: accepting the fleet,
//! answering each `Register` with its ack and bandwidth probe, collecting
//! the reports, running the batch and draining the final `Shutdown` are
//! all iterations of it, queued by the same one-pass send and flushed by
//! the same write-queue code. Nothing on the server side ever blocks or
//! sleeps, which is what lets one thread serve tens of thousands of
//! workers (`cwc-bench-live` measures exactly that).
//! All control-loop decisions — scheduling, sequencing, stall/keep-alive
//! policy, breaker quarantine, round-robin migration, graceful
//! fleet-loss degradation — live in the kernel, shared verbatim with the
//! simulator's engine, including the scheduler warm start
//! ([`cwc_core::WarmStart`], DESIGN.md §10).
//!
//! The transport layer stays **chaos-hardened** (see `DESIGN.md` §7): a
//! send is one pass — queue the frames, flush once — and a connection
//! that is dead or reset by then is lost at once, which the kernel
//! handles as the paper's phone failure (§5–§6). Fault
//! injection rides [`cwc_chaos::FaultPlan`] through [`LivePolicy::chaos`]
//! and [`run_worker_chaos`], applied at enqueue time on the reactor's
//! write queues. Every event fed to the kernel is also recorded on the
//! bus via [`crate::coord::script`], so a live run can be replayed
//! offline against the kernel alone.
//!
//! On loopback every transfer is near-instant, so workers *report* a
//! configured bandwidth (as if measured); scheduling decisions then
//! exercise the same heterogeneity as the testbed while the data path
//! stays real.

// Panic-safety (DESIGN.md §8): the coordinator must survive whatever a
// peer sends.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::coord::{
    script, CoordCommand, CoordEvent, DriverStyle, FleetLoss, Kernel, KernelConfig,
    ReschedulePolicy, TimerKind,
};
use crate::resilience::BreakerConfig;
use bytes::BytesMut;
use cwc_core::{ReplicationPolicy, SchedulerKind, SpeculationPolicy};
use cwc_device::{ExecutionOutcome, Executor, TaskRegistry};
use cwc_net::{
    accept_burst, Conn, FlushStatus, Frame, FramedTcp, Interest, PollEvent, Poller, ReadStatus,
    TimerKey, TimerWheel, WireFault, WireOp,
};
use cwc_types::{
    CwcError, CwcResult, JobId, JobKind, JobSpec, KiloBytes, Micros, MsPerKb, PhoneId, PhoneInfo,
    RadioTech, SloClass,
};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a live worker presents itself.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Identity to register under.
    pub phone: PhoneId,
    /// Advertised CPU clock (drives the server's prediction).
    pub clock_mhz: u32,
    /// Advertised core count.
    pub cores: u32,
    /// Advertised radio.
    pub radio: RadioTech,
    /// Advertised RAM in KB.
    pub ram_kb: u64,
    /// Bandwidth the worker reports to probes, KB/s (loopback is
    /// effectively infinite, so this models the wireless link).
    pub reported_kb_per_sec: f64,
}

impl WorkerConfig {
    /// A sensible default worker.
    pub fn new(phone: PhoneId, clock_mhz: u32, reported_kb_per_sec: f64) -> Self {
        WorkerConfig {
            phone,
            clock_mhz,
            cores: 2,
            radio: RadioTech::Wifi80211g,
            ram_kb: 1 << 20,
            reported_kb_per_sec,
        }
    }
}

/// Runs a worker until the server says `Shutdown`. Blocking; callers
/// spawn it on a thread. Setting `unplug` interrupts the current task at
/// the next chunk boundary and reports an online failure with the
/// checkpoint.
pub fn run_worker(
    addr: SocketAddr,
    cfg: WorkerConfig,
    registry: TaskRegistry,
    unplug: Arc<AtomicBool>,
) -> CwcResult<()> {
    run_worker_chaos(addr, cfg, registry, unplug, &cwc_obs::Obs::new(), None)
}

/// An input partition that arrived before its executable (frame
/// reordering) — held until the `ShipExecutable` lands.
struct PendingInput {
    seq: u64,
    resume_from: Option<bytes::Bytes>,
    trace: cwc_obs::TraceCtx,
    data: bytes::Bytes,
}

/// What the worker loop should do after handling one input.
enum WorkerStep {
    /// Keep serving.
    Continue,
    /// The fault plan scheduled a crash at a chunk boundary: vanish
    /// without a report (an offline failure, §6).
    Crash,
}

/// Like [`run_worker`], recording through `obs` — per-task
/// `worker.tasks_completed` / `worker.tasks_interrupted` counters, a
/// `worker.exec_ms` histogram of measured runtimes, `worker.keepalive_acks`
/// for answered liveness probes — and optionally driven by a
/// [`cwc_chaos::FaultPlan`]: the plan's wire script is installed on the
/// worker's send path, and its worker chaos decides crash-at-chunk and
/// slow-loris behavior per task.
///
/// The worker loop itself is hardened: an input arriving before its
/// executable is buffered (recovers frame reordering locally), and
/// unexpected frames are skipped with a warning rather than killing the
/// worker — protocol evolution must not strand old workers. Frames that
/// arrive while a slow-loris task is pacing between chunks are served
/// inline (keep-alives) or deferred to the main loop (everything else),
/// so a slow worker never goes deaf.
pub fn run_worker_chaos(
    addr: SocketAddr,
    cfg: WorkerConfig,
    registry: TaskRegistry,
    unplug: Arc<AtomicBool>,
    obs: &cwc_obs::Obs,
    chaos: Option<&cwc_chaos::FaultPlan>,
) -> CwcResult<()> {
    let mut conn = FramedTcp::connect(addr)?;
    if let Some(plan) = chaos {
        conn.set_fault(Some(Box::new(
            plan.script(&format!("worker/{}", cfg.phone)),
        )));
    }
    let mut exec_chaos = chaos.map(|p| p.worker_chaos(&format!("worker/{}", cfg.phone)));

    conn.send(&Frame::Register {
        phone: cfg.phone,
        clock_mhz: cfg.clock_mhz,
        cores: cfg.cores,
        radio: cfg.radio,
        ram_kb: cfg.ram_kb,
    })?;
    match conn.recv()? {
        Frame::RegisterAck { .. } => {}
        other => {
            return Err(CwcError::Protocol(format!(
                "expected RegisterAck, got {other:?}"
            )))
        }
    }
    // Program shipped per job (the reflection-loaded "jar").
    let mut job_program: BTreeMap<JobId, String> = BTreeMap::new();
    let mut pending_input: BTreeMap<JobId, PendingInput> = BTreeMap::new();
    // Frames that arrived mid-task (during slow-loris pacing) and belong
    // to the main loop.
    let mut deferred: VecDeque<Frame> = VecDeque::new();
    loop {
        let next = match deferred.pop_front() {
            Some(frame) => frame,
            None => conn.recv()?,
        };
        match next {
            Frame::BandwidthProbe { probe_id, .. } => {
                conn.send(&Frame::BandwidthReport {
                    probe_id,
                    kb_per_sec: cfg.reported_kb_per_sec,
                })?;
            }
            Frame::ShipExecutable { job, program, .. } => {
                job_program.insert(job, program.clone());
                // A reordered input for this job may already be waiting.
                if let Some(p) = pending_input.remove(&job) {
                    let step = execute_task(
                        &mut conn,
                        &cfg,
                        &registry,
                        &unplug,
                        obs,
                        exec_chaos.as_mut(),
                        &program,
                        job,
                        p.seq,
                        p.resume_from,
                        p.trace,
                        p.data,
                        &mut deferred,
                    )?;
                    if matches!(step, WorkerStep::Crash) {
                        return Ok(());
                    }
                }
            }
            Frame::ShipInput {
                job,
                seq,
                resume_from,
                trace_id,
                span_id,
                parent_span,
                data,
                ..
            } => {
                let trace = cwc_obs::TraceCtx::from_wire(trace_id, span_id, parent_span);
                if let Some(program) = job_program.get(&job).cloned() {
                    let step = execute_task(
                        &mut conn,
                        &cfg,
                        &registry,
                        &unplug,
                        obs,
                        exec_chaos.as_mut(),
                        &program,
                        job,
                        seq,
                        resume_from,
                        trace,
                        data,
                        &mut deferred,
                    )?;
                    if matches!(step, WorkerStep::Crash) {
                        return Ok(());
                    }
                } else {
                    // Input before its executable: the pair was reordered
                    // in flight. Hold it; the executable is (probably) a
                    // frame away. If it never arrives, the server's stall
                    // watchdog requeues the task elsewhere.
                    obs.metrics.inc("worker.inputs_buffered");
                    obs.emit_with(|| {
                        obs.wall_event("worker", "input.buffered")
                            .severity(cwc_obs::Severity::Warn)
                            .field("job", job.0)
                            .field("seq", seq)
                            .field(
                                "msg",
                                format!(
                                    "{}: input for {job} before its executable; buffering",
                                    cfg.phone
                                ),
                            )
                    });
                    pending_input.insert(
                        job,
                        PendingInput {
                            seq,
                            resume_from,
                            trace,
                            data,
                        },
                    );
                }
            }
            Frame::KeepAlive { seq } => {
                obs.metrics.inc("worker.keepalive_acks");
                conn.send(&Frame::KeepAliveAck { seq })?;
            }
            Frame::CancelTask { job, seq } => {
                // The worker runs tasks synchronously, so a cancel can only
                // catch work still buffered behind its executable; anything
                // already executed was reported, and the server's stale
                // dedup absorbs the duplicate.
                if pending_input.get(&job).is_some_and(|p| p.seq == seq) {
                    pending_input.remove(&job);
                    obs.metrics.inc("worker.tasks_cancelled");
                    obs.emit_with(|| {
                        obs.wall_event("worker", "task.cancelled")
                            .severity(cwc_obs::Severity::Debug)
                            .field("job", job.0)
                            .field("seq", seq)
                            .field(
                                "msg",
                                format!("{}: cancelled buffered input for {job}", cfg.phone),
                            )
                    });
                }
            }
            Frame::Shutdown => {
                // Echoing the farewell is a courtesy; the peer may already
                // have torn the socket down.
                #[allow(clippy::unused_result_ok)]
                conn.send(&Frame::Shutdown).ok();
                return Ok(());
            }
            other => {
                // Skip-and-warn: an unknown-but-well-formed frame is not a
                // reason to strand a healthy worker.
                obs.metrics.inc("worker.frames_skipped");
                obs.emit_with(|| {
                    obs.wall_event("worker", "frame.skipped")
                        .severity(cwc_obs::Severity::Warn)
                        .field(
                            "msg",
                            format!("{}: skipping unexpected frame {other:?}", cfg.phone),
                        )
                });
            }
        }
    }
}

/// Serves the connection while a slow-loris task paces between chunks:
/// keep-alives are answered inline (the fix for the old
/// `thread::sleep(stall)` that left a paced worker deaf and got it
/// falsely declared dead); every other frame is deferred to the main
/// loop, preserving arrival order.
fn serve_until(
    conn: &mut FramedTcp,
    obs: &cwc_obs::Obs,
    deferred: &mut VecDeque<Frame>,
    until: Instant,
) -> CwcResult<()> {
    loop {
        let now = Instant::now();
        let Some(left) = until.checked_duration_since(now).filter(|d| !d.is_zero()) else {
            return Ok(());
        };
        match conn.recv_timeout(left)? {
            None => return Ok(()),
            Some(Frame::KeepAlive { seq }) => {
                obs.metrics.inc("worker.keepalive_acks");
                conn.send(&Frame::KeepAliveAck { seq })?;
            }
            Some(other) => deferred.push_back(other),
        }
    }
}

/// Runs one shipped input through the executor and reports the outcome.
///
/// One guarded executor call covers every plan. Before each chunk the
/// guard runs, in order: the slow-loris stall (spent *serving the
/// connection* — keep-alives answered inline, other frames deferred — so
/// pacing never blinds the worker to the server), then the crash check,
/// then the unplug flag.
#[allow(clippy::too_many_arguments)]
fn execute_task(
    conn: &mut FramedTcp,
    cfg: &WorkerConfig,
    registry: &TaskRegistry,
    unplug: &Arc<AtomicBool>,
    obs: &cwc_obs::Obs,
    chaos: Option<&mut cwc_chaos::WorkerChaos>,
    program_name: &str,
    job: JobId,
    seq: u64,
    resume_from: Option<bytes::Bytes>,
    trace: cwc_obs::TraceCtx,
    data: bytes::Bytes,
    deferred: &mut VecDeque<Frame>,
) -> CwcResult<WorkerStep> {
    let program = registry.load(program_name)?;
    let total_chunks = (data.len() as u64).div_ceil(1024);
    let (crash_at, stall) = match chaos {
        Some(c) => (c.crash_point(total_chunks), c.slow_task()),
        None => (None, None),
    };
    let started = Instant::now();
    let mut crashed = false;
    let mut served = Ok(());
    let outcome =
        Executor.run_guarded(program.as_ref(), &data, resume_from.as_deref(), |done| {
            if let Some(stall) = stall {
                served = serve_until(conn, obs, deferred, Instant::now() + stall);
                if served.is_err() {
                    return true;
                }
            }
            if crash_at.is_some_and(|c| done.0 >= c) {
                crashed = true;
                return true;
            }
            unplug.load(Ordering::Relaxed)
        })?;
    served?;
    if crashed {
        // Offline failure: die at the chunk boundary with no report.
        // The server finds out from the closed connection (or a missed
        // keep-alive) and restarts the partition elsewhere.
        obs.metrics.inc("worker.chaos_crashes");
        return Ok(WorkerStep::Crash);
    }
    match outcome {
        ExecutionOutcome::Completed { result, .. } => {
            let exec_ms = started.elapsed().as_millis() as u64;
            obs.metrics.inc("worker.tasks_completed");
            obs.metrics.observe("worker.exec_ms", exec_ms as f64);
            conn.send(&Frame::TaskComplete {
                job,
                seq,
                exec_ms,
                result: result.into(),
            })?;
        }
        ExecutionOutcome::Interrupted {
            checkpoint,
            processed,
        } => {
            obs.metrics.inc("worker.tasks_interrupted");
            obs.emit_with(|| {
                trace
                    .stamp(obs.wall_event("worker", "task.interrupted"))
                    .severity(cwc_obs::Severity::Warn)
                    .field("job", job.0)
                    .field("processed_kb", processed.0)
                    .field(
                        "msg",
                        format!("{} interrupted {job} at {} KB", cfg.phone, processed.0),
                    )
            });
            conn.send(&Frame::TaskFailed {
                job,
                seq,
                processed_kb: processed.0,
                checkpoint: checkpoint.into(),
            })?;
            conn.send(&Frame::Unplugged)?;
        }
    }
    Ok(WorkerStep::Continue)
}

/// One job with its real input bytes.
#[derive(Debug, Clone)]
pub struct LiveJob {
    /// Scheduling descriptor (sizes must match `input`).
    pub spec: JobSpec,
    /// The actual input, held once: clones of the job and the partitions
    /// shipped from it are windows onto the same allocation.
    pub input: bytes::Bytes,
}

impl LiveJob {
    /// Builds the spec from real bytes (input size rounded up to KB).
    pub fn new(id: JobId, kind: JobKind, program: &str, exe_kb: u64, input: Vec<u8>) -> Self {
        let kb = (input.len() as u64).div_ceil(1024).max(1);
        LiveJob {
            spec: JobSpec {
                id,
                kind,
                program: program.to_owned(),
                exe_kb: KiloBytes(exe_kb),
                input_kb: KiloBytes(kb),
            },
            input: input.into(),
        }
    }
}

/// Result of a live run.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Aggregated result per job. In a degraded run
    /// ([`LiveOutcome::failure`] is `Some`) these are *partial*: built
    /// from whatever partitions completed.
    pub results: BTreeMap<JobId, Vec<u8>>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Partitions that failed and were migrated to another worker.
    pub migrated: usize,
    /// Keep-alive acknowledgements received (liveness probes answered).
    pub keepalives_acked: usize,
    /// Always 0: a send is one pass, and a connection that cannot take it
    /// is lost, never retried. Kept for the benchmark sheet that reads it.
    pub retries: u64,
    /// Workers quarantined by the per-phone circuit breaker.
    pub quarantined: usize,
    /// `Some` iff the batch could not be fully processed (every worker
    /// lost mid-run): the explicit graceful-degradation summary.
    pub failure: Option<FleetLoss>,
}

/// Keep-alive period used in live mode. The prototype's 30 s is right
/// for battery-powered phones on WANs; loopback demo runs are short, so
/// probes go out every second to actually exercise the mechanism.
pub const LIVE_KEEPALIVE_PERIOD: Duration = Duration::from_secs(1);

/// Robustness knobs of the live coordinator.
#[derive(Debug, Clone)]
pub struct LivePolicy {
    /// Per-phone circuit breaker: this many transient failures inside the
    /// window quarantine the phone for the rest of the run.
    pub breaker: BreakerConfig,
    /// How long a shipped task may sit unanswered before the watchdog
    /// requeues it (recovers lost `ShipInput` / `TaskComplete` frames).
    pub stall_timeout: Duration,
    /// Application-layer keep-alive period.
    pub keepalive_period: Duration,
    /// Server-side fault injection: installed on every connection's send
    /// path. `None` in production.
    pub chaos: Option<cwc_chaos::FaultPlan>,
    /// Optional failure-prediction profile (per worker slot: unplug
    /// probability, plus the pricing aggressiveness), as in
    /// [`crate::engine::EngineConfig::reliability`]. Feeds both §3.1 cost
    /// inflation and the replication policy's risk decisions.
    pub reliability: Option<(Vec<f64>, f64)>,
    /// Per-job service classes (DESIGN.md §12): deadline-first shipping.
    pub slo: BTreeMap<JobId, SloClass>,
    /// Risk-driven replication of atomic placements (DESIGN.md §12).
    pub replication: Option<ReplicationPolicy>,
    /// Speculative re-execution of stragglers (DESIGN.md §12).
    pub speculation: Option<SpeculationPolicy>,
}

impl Default for LivePolicy {
    fn default() -> Self {
        LivePolicy {
            breaker: BreakerConfig::default(),
            stall_timeout: Duration::from_secs(5),
            keepalive_period: LIVE_KEEPALIVE_PERIOD,
            chaos: None,
            reliability: None,
            slo: BTreeMap::new(),
            replication: None,
            speculation: None,
        }
    }
}

const fn micros_of(d: Duration) -> Micros {
    Micros(d.as_micros() as u64)
}

/// Builds the kernel configuration the live coordinator drives — also
/// used by the replay harness to re-run a recorded event stream through
/// an identically-configured kernel offline.
///
/// Live workers run native code, so predictions seed from each program's
/// own profiled baseline rather than the Dalvik-era defaults the
/// simulator uses. The batch is borrowed, so each spec is copied; the
/// kernel built from the configuration refuses a batch that carries an id
/// twice ([`Kernel::new`]).
pub fn live_kernel_config(
    jobs: &[LiveJob],
    registry: &TaskRegistry,
    kind: SchedulerKind,
    policy: &LivePolicy,
    obs: cwc_obs::Obs,
) -> CwcResult<KernelConfig> {
    let specs = jobs.iter().map(|j| j.spec.clone()).collect();
    batch_kernel_config(specs, registry, kind, policy, obs)
}

/// [`live_kernel_config`] over specs the caller hands over.
fn batch_kernel_config(
    specs: Vec<JobSpec>,
    registry: &TaskRegistry,
    kind: SchedulerKind,
    policy: &LivePolicy,
    obs: cwc_obs::Obs,
) -> CwcResult<KernelConfig> {
    let mut baselines: BTreeMap<String, f64> = BTreeMap::new();
    for spec in &specs {
        if !baselines.contains_key(&spec.program) {
            let baseline = registry
                .load(&spec.program)?
                .baseline_ms_per_kb()
                .max(f64::MIN_POSITIVE);
            baselines.insert(spec.program.clone(), baseline);
        }
    }
    Ok(KernelConfig {
        scheduler: kind,
        jobs: specs,
        baselines,
        keepalive_period: micros_of(policy.keepalive_period),
        tolerated_misses: cwc_net::KEEPALIVE_TOLERATED_MISSES,
        reschedule: ReschedulePolicy::RoundRobin,
        stall_timeout: Some(micros_of(policy.stall_timeout)),
        breaker: Some((policy.breaker.threshold, micros_of(policy.breaker.window))),
        reliability: policy.reliability.clone(),
        slo: policy.slo.clone(),
        replication: policy.replication,
        speculation: policy.speculation,
        bandwidth_blind: false,
        style: DriverStyle::Live,
        obs,
    })
}

/// A batch split for the coordinator: the specs for the kernel, and the
/// input bytes for the driver as a table in id order. The batch is sorted
/// only if it does not arrive in id order, and nothing is copied per job.
fn split_batch(mut jobs: Vec<LiveJob>) -> (Vec<JobSpec>, Vec<(JobId, bytes::Bytes)>) {
    if !jobs.is_sorted_by_key(|j| j.spec.id) {
        jobs.sort_by_key(|j| j.spec.id);
    }
    let split = |LiveJob { spec, input }| {
        let id = spec.id;
        (spec, (id, input))
    };
    jobs.into_iter().map(split).unzip()
}

/// Runs the coordinator over `expected` workers and a job batch; returns
/// once every job's input is fully processed and aggregated — or, if the
/// whole fleet is lost, with the partial results gathered so far.
///
/// The coordinator is a single-threaded readiness event loop (the
/// epoll-based evolution of §6's Java NIO server): one [`Poller`] wakes
/// it for accepts, decodable frames, and drainable write queues across
/// the whole fleet, and one [`TimerWheel`] holds every pending deadline.
///
/// `deadline` bounds the whole run — a safety net so a wedged worker
/// fails tests loudly instead of hanging them.
pub fn run_live_server(
    listener: TcpListener,
    expected: usize,
    jobs: Vec<LiveJob>,
    registry: TaskRegistry,
    kind: SchedulerKind,
    deadline: Duration,
) -> CwcResult<LiveOutcome> {
    run_live_server_with(
        listener,
        expected,
        jobs,
        registry,
        kind,
        deadline,
        LivePolicy::default(),
        &cwc_obs::Obs::new(),
    )
}

/// Declare a connection lost once this many unflushed bytes have piled
/// up *behind* the frame at the head of its write queue: the peer has
/// stopped reading and every queued byte is memory held hostage. The
/// frame in flight is exempt — a partition of any legal size gets to
/// drain at whatever rate the link manages (a 5 MB atomic input on a
/// 600 KB/s link is a healthy worker, not a wedged one), and the
/// kernel's stall timer stays the judge of a peer that stopped reading
/// mid-frame.
const WRITE_BACKLOG_CAP: usize = 4 * 1024 * 1024;

/// Largest input an atomic job may carry: it ships whole, so it must fit
/// one frame with room left for `ShipInput`'s fixed fields and a
/// migration checkpoint.
const MAX_ATOMIC_INPUT: usize = cwc_net::MAX_FRAME_LEN - 64 * 1024;

/// How long the end-of-run `Shutdown` may take to drain, whole fleet
/// together; a worker that will not take nine bytes by then is left to its
/// socket teardown.
const FAREWELL_BOUND: Duration = Duration::from_secs(10);

/// The listener's poller token. Connection tokens are dense slot indices;
/// this sits far above any plausible fleet size.
const LISTENER_TOKEN: u64 = u64::MAX;

/// A deadline owned by the event loop's timer wheel.
enum WheelEntry {
    /// A kernel-requested timer: fires back as `CoordEvent::TimerFired`.
    Kernel {
        kind: TimerKind,
        slot: usize,
        token: u64,
    },
    /// A write queue paused by injected wire delay; resume and keep
    /// flushing.
    Paced { slot: usize },
}

/// Per-connection server state: the non-blocking framed connection, its
/// fault-injection hook, what the worker behind it registered as, and the
/// bookkeeping the loop needs to manage poller interest. A connection's
/// index in the driver's table is its kernel slot.
struct ConnState {
    conn: Conn,
    fault: Option<Box<dyn WireFault>>,
    /// Set by `Register`; `bandwidth` is a placeholder until `measured`.
    info: Option<PhoneInfo>,
    /// Whether a `BandwidthReport` has filled in `info.bandwidth`.
    measured: bool,
    /// Transport-dead: socket torn down or declared lost; sends fail fast
    /// and readiness events are ignored.
    dead: bool,
    /// Whether the poller registration currently includes write interest.
    write_interest: bool,
    /// Whether a `Paced` wheel entry is armed for this connection.
    pace_armed: bool,
    /// The slot's newest `Stall` deadline. A slot has one chunk in flight,
    /// so arming the next ship's watchdog retires this one: its token can
    /// never again equal the kernel's `busy.seq`.
    stall: Option<TimerKey>,
    /// `net.kb_shipped.{phone}`, resolved at the first ship to this
    /// worker: one it never ships to publishes no name.
    kb_shipped: Option<cwc_obs::Counter>,
}

/// Applies the fault hook to one encoded frame and queues the resulting
/// wire ops. An `Err` means the connection cannot take the frame — it is
/// dead, or closing — and the caller declares it lost; socket-level
/// flushing is separate. An injected reset leaves a truncated prefix and
/// a close marker queued for the caller's flush, and nothing is ever
/// queued behind that marker.
fn queue_frame(state: &mut ConnState, frame: &Frame) -> CwcResult<()> {
    if state.dead || state.conn.is_closed() {
        return Err(CwcError::Transport("connection closed".into()));
    }
    let mut buf = BytesMut::new();
    frame.encode(&mut buf);
    let Some(fault) = state.fault.as_mut() else {
        // No hook: the encoded buffer itself goes onto the write queue.
        state.conn.queue_bytes(buf.into());
        return Ok(());
    };
    for op in fault.on_send(&buf) {
        match op {
            WireOp::Write(bytes) => state.conn.queue_bytes(bytes),
            WireOp::Sleep(d) => state.conn.queue_pause(d),
            WireOp::Reset => {
                state.conn.queue_close();
                return Err(CwcError::Transport("injected connection reset".into()));
            }
        }
    }
    Ok(())
}

/// The reactor driver around the kernel: owns the poller, the listener,
/// every connection, the timer wheel, and the collected result bytes. One
/// thread; nothing here blocks; setup, batch and farewell are all
/// [`LiveDriver::turn`]s of one loop.
struct LiveDriver<'a> {
    kernel: Kernel,
    /// Each job's input bytes, in id order (the kernel holds the specs).
    inputs: &'a [(JobId, bytes::Bytes)],
    listener: &'a TcpListener,
    /// Closed-world fleet size: the listener leaves the poller once this
    /// many connections are accepted.
    expected: usize,
    /// Slots still to report a bandwidth. While positive the run is in
    /// setup; the report that takes it to zero starts the kernel.
    unmeasured: usize,
    conns: Vec<ConnState>,
    poller: Poller,
    wheel: TimerWheel<WheelEntry>,
    policy: &'a LivePolicy,
    obs: &'a cwc_obs::Obs,
    start: Instant,
    partials: BTreeMap<JobId, Vec<(u64, Vec<u8>)>>,
    /// Result bytes of the `TaskComplete` currently being fed; filed
    /// under their offset iff the kernel accepts the report
    /// (`RecordResult`).
    pending_result: Option<Vec<u8>>,
    /// What ends the run with an `Err`: a setup failure (every expected
    /// worker must join) or the kernel's own `Halt`. First one wins.
    fatal: Option<CwcError>,
    /// The command buffer a feed steps the kernel into. A feed takes it
    /// for the length of its drain, so a nested feed (a send that loses
    /// its connection) drains a buffer of its own.
    cmds: Vec<CoordCommand>,
}

impl<'a> LiveDriver<'a> {
    /// An idle driver: the listener is in the poller, nobody has connected.
    fn new(
        kernel: Kernel,
        inputs: &'a [(JobId, bytes::Bytes)],
        listener: &'a TcpListener,
        expected: usize,
        policy: &'a LivePolicy,
        obs: &'a cwc_obs::Obs,
        start: Instant,
    ) -> CwcResult<Self> {
        listener
            .set_nonblocking(true)
            .map_err(|e| CwcError::Transport(format!("listener: {e}")))?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        Ok(LiveDriver {
            kernel,
            inputs,
            listener,
            expected,
            unmeasured: expected,
            conns: Vec::with_capacity(expected),
            poller,
            wheel: TimerWheel::new(),
            policy,
            obs,
            start,
            partials: BTreeMap::new(),
            pending_result: None,
            fatal: None,
            cmds: Vec::new(),
        })
    }

    fn now(&self) -> Micros {
        Micros(self.start.elapsed().as_micros() as u64)
    }

    fn phone(&self, slot: usize) -> Option<PhoneId> {
        self.conns.get(slot)?.info.map(|info| info.id)
    }

    fn fail(&mut self, e: CwcError) {
        self.fatal.get_or_insert(e);
    }

    /// Feeds one event to the kernel (recording it for replay) and
    /// executes every command it emits. Lost connections feed further
    /// `ConnectionLost` events, so this recurses — bounded by the fleet
    /// size, since each lost worker is only ever lost once. Once the run
    /// is over the kernel hears nothing more (the farewell's turns must not
    /// lengthen the recorded script).
    fn feed(&mut self, ev: CoordEvent) {
        if self.done() {
            return;
        }
        let now = self.now();
        script::record(self.obs, now, &ev);
        let mut cmds = std::mem::take(&mut self.cmds);
        self.kernel.step_into(now, ev, &mut cmds);
        for cmd in cmds.drain(..) {
            self.apply(now, cmd);
        }
        self.cmds = cmds;
    }

    /// Sends `frames` to the worker in `slot` in one pass: queue them all,
    /// then flush once (one worker wake-up, not one per frame). A
    /// connection that cannot take them — dead, or reset by the fault hook
    /// — is declared lost at once. Returns whether every frame was queued.
    fn send(&mut self, slot: usize, frames: &[Frame]) -> bool {
        let queued = match self.conns.get_mut(slot) {
            Some(state) => frames.iter().try_for_each(|f| queue_frame(state, f)),
            None => return false,
        };
        self.flush_conn(slot);
        if let Err(e) = &queued {
            self.declare_lost(slot, format!("send failed: {e}"));
        }
        queued.is_ok()
    }

    fn apply(&mut self, now: Micros, cmd: CoordCommand) {
        match cmd {
            CoordCommand::ShipInput {
                slot,
                seq,
                job,
                program,
                exe_kb,
                offset_kb,
                len_kb,
                resume,
                rescheduled: _,
                trace,
                replica,
            } => self.ship(
                slot, seq, job, &program, exe_kb, offset_kb, len_kb, resume, trace, replica,
            ),
            CoordCommand::CancelTask { slot, job, seq } => {
                self.send(slot, &[Frame::CancelTask { job, seq }]);
            }
            CoordCommand::SendKeepAlive { slot, seq } => {
                self.send(slot, &[Frame::KeepAlive { seq }]);
            }
            CoordCommand::StartTimer {
                kind,
                slot,
                token,
                after,
            } => {
                let key = self.wheel.arm(
                    Micros(now.0.saturating_add(after.0)),
                    WheelEntry::Kernel { kind, slot, token },
                );
                if kind == TimerKind::Stall {
                    let state = self.conns.get_mut(slot);
                    if let Some(superseded) = state.and_then(|s| s.stall.replace(key)) {
                        self.wheel.cancel(superseded);
                    }
                }
            }
            CoordCommand::RecordResult {
                slot: _,
                job,
                offset_kb,
            } => {
                if let Some(bytes) = self.pending_result.take() {
                    self.partials
                        .entry(job)
                        .or_default()
                        .push((offset_kb, bytes));
                }
            }
            CoordCommand::Halt => {
                if let Some(e) = self.kernel.take_fatal() {
                    self.fail(e);
                }
            }
            // Initial probing is driver-side (it rides the registration
            // reply); completion and fleet loss are read off the kernel.
            CoordCommand::SendProbe { .. } | CoordCommand::Finished => {}
        }
    }

    /// Ships one partition: executable notice first (payload-bearing only
    /// the first time per worker–program pair, as the kernel's `exe_kb`
    /// says), then the input slice — one send. Shipped volume lands on the
    /// per-phone `net.kb_shipped.{phone}` counter.
    #[allow(clippy::too_many_arguments)]
    fn ship(
        &mut self,
        slot: usize,
        seq: u64,
        job: JobId,
        program: &str,
        exe_kb: u64,
        offset_kb: u64,
        len_kb: u64,
        resume: Option<Vec<u8>>,
        trace: cwc_obs::TraceCtx,
        replica: bool,
    ) {
        let at = self.inputs.binary_search_by_key(&job, |&(id, _)| id);
        let Some((_, input)) = at.ok().and_then(|at| self.inputs.get(at)) else {
            // Impossible by construction (the kernel's catalog is built
            // from the same batch), but not worth a panic on the live path.
            return;
        };
        let from = (offset_kb as usize * 1024).min(input.len());
        let to = ((offset_kb + len_kb) as usize * 1024).min(input.len());
        let frames = [
            Frame::ShipExecutable {
                job,
                program: program.to_owned(),
                exe_kb,
            },
            Frame::ShipInput {
                job,
                seq,
                offset_kb,
                len_kb,
                resume_from: resume.map(Into::into),
                trace_id: trace.trace_id,
                span_id: trace.span_id,
                parent_span: trace.parent_or_zero(),
                replica,
                // A window onto the job's one allocation, not a copy.
                // from <= to <= input.len() by the clamps above, which is
                // exactly what `slice` requires.
                data: input.slice(from..to),
            },
        ];
        if !self.send(slot, &frames) {
            return;
        }
        let metrics = &self.obs.metrics;
        if let Some(state) = self.conns.get_mut(slot) {
            if let Some(wid) = state.info.map(|info| info.id) {
                state
                    .kb_shipped
                    .get_or_insert_with(|| metrics.counter(&format!("net.kb_shipped.{wid}")))
                    .add(exe_kb + len_kb);
            }
        }
    }

    /// Drains a connection's write queue as far as the socket allows and
    /// reconciles poller interest / pacing timers / backpressure with the
    /// result.
    fn flush_conn(&mut self, slot: usize) {
        let status = {
            let Some(state) = self.conns.get_mut(slot) else {
                return;
            };
            if state.dead {
                return;
            }
            state.conn.flush()
        };
        // The backlog cap guards every status that leaves bytes queued —
        // including Paused/Held, where an injected wire delay would
        // otherwise let a wedged peer accumulate unbounded memory until
        // the pace timer fires.
        if matches!(
            status,
            Ok(FlushStatus::Blocked | FlushStatus::Paused(_) | FlushStatus::Held)
        ) {
            let backlog = self
                .conns
                .get(slot)
                .map(|s| s.conn.queued_behind_head())
                .unwrap_or(0);
            if backlog > WRITE_BACKLOG_CAP {
                self.declare_lost(
                    slot,
                    format!("write backlog exceeded {WRITE_BACKLOG_CAP} bytes"),
                );
                return;
            }
        }
        match status {
            Ok(FlushStatus::Clean) => self.set_write_interest(slot, false),
            Ok(FlushStatus::Blocked) => self.set_write_interest(slot, true),
            Ok(FlushStatus::Paused(d)) => {
                self.set_write_interest(slot, false);
                let arm = self
                    .conns
                    .get_mut(slot)
                    .is_some_and(|s| !std::mem::replace(&mut s.pace_armed, true));
                if arm {
                    let at = Micros(self.now().0.saturating_add(d.as_micros() as u64));
                    self.wheel.arm(at, WheelEntry::Paced { slot });
                }
            }
            Ok(FlushStatus::Held) => {} // pacing timer already armed
            // A queued close marker (injected reset) was reached. The send
            // that queued it declares the loss too; the second call is a
            // no-op.
            Ok(FlushStatus::Closed) => self.declare_lost(slot, "connection reset".to_owned()),
            Err(e) => self.declare_lost(slot, format!("write failed: {e}")),
        }
    }

    /// Reconciles the poller's interest set for one connection.
    fn set_write_interest(&mut self, slot: usize, want: bool) {
        let Some(state) = self.conns.get_mut(slot) else {
            return;
        };
        if state.dead || state.write_interest == want {
            return;
        }
        state.write_interest = want;
        let fd = state.conn.fd();
        let interest = if want {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if self.poller.reregister(fd, slot as u64, interest).is_err() {
            // The fd is gone under us (peer reset raced the flush); the
            // read path will surface the loss on its next event.
            if let Some(state) = self.conns.get_mut(slot) {
                state.write_interest = !want;
            }
        }
    }

    /// Takes a connection out of the poller once it is transport-dead.
    fn drop_registration(&mut self, slot: usize) {
        let Some(state) = self.conns.get(slot) else {
            return;
        };
        // Deregistering a closed fd is a no-op; failures are not
        // actionable here.
        #[allow(clippy::unused_result_ok)]
        self.poller.deregister(state.conn.fd()).ok();
    }

    /// Marks a connection transport-dead and tells the kernel — or, during
    /// setup, fails the run (closed world: `expected` is now unreachable).
    /// Safe to hit twice: the kernel tolerates duplicate `ConnectionLost`.
    fn declare_lost(&mut self, slot: usize, why: String) {
        let already = {
            let Some(state) = self.conns.get_mut(slot) else {
                return;
            };
            std::mem::replace(&mut state.dead, true)
        };
        if already {
            return;
        }
        self.drop_registration(slot);
        if self.unmeasured > 0 {
            return self.fail(CwcError::Transport(format!(
                "worker {slot} vanished during setup: {why}"
            )));
        }
        let Some(wid) = self.phone(slot) else {
            return;
        };
        self.feed(CoordEvent::ConnectionLost {
            slot,
            why: format!("{wid} lost ({why})"),
        });
    }

    /// Takes what the listener has queued, up to the closed-world fleet
    /// size; a connection's place in the table is its kernel slot. A full
    /// table takes the listener out of the poller.
    fn accept(&mut self) -> CwcResult<()> {
        let room = self.expected.saturating_sub(self.conns.len());
        let mut accepted = Vec::new();
        accept_burst(self.listener, room, &mut accepted)?;
        for stream in accepted {
            let slot = self.conns.len();
            let conn = Conn::from_stream(stream)?;
            self.poller
                .register(conn.fd(), slot as u64, Interest::READ)?;
            let label = format!("server/conn-{slot}");
            let chaos = self.policy.chaos.as_ref();
            self.conns.push(ConnState {
                conn,
                fault: chaos.map(|plan| Box::new(plan.script(&label)) as _),
                info: None,
                measured: false,
                dead: false,
                write_interest: false,
                pace_armed: false,
                stall: None,
                kb_shipped: None,
            });
        }
        if self.conns.len() >= self.expected {
            self.poller.deregister(self.listener.as_raw_fd())?;
        }
        Ok(())
    }

    /// Setup-phase frames. `Register` is answered with `RegisterAck` and
    /// `BandwidthProbe` as one send job (one worker wake-up);
    /// `BandwidthReport` completes the slot's [`PhoneInfo`], and the last
    /// slot's report starts the kernel. Anything else, either of the two
    /// out of turn, or an unusable descriptor fails the run.
    fn handle_setup_frame(&mut self, slot: usize, frame: Frame) {
        let registered = self.conns.get(slot).and_then(|s| s.info);
        match (frame, registered) {
            (
                Frame::Register {
                    phone,
                    clock_mhz,
                    cores,
                    radio,
                    ram_kb,
                },
                None,
            ) => {
                if clock_mhz == 0 || cores == 0 {
                    return self.fail(CwcError::InvalidPhone {
                        phone,
                        reason: "zero clock or core count in registration".into(),
                    });
                }
                if let Some(state) = self.conns.get_mut(slot) {
                    state.info = Some(PhoneInfo {
                        id: phone,
                        cpu: cwc_types::CpuSpec::new(clock_mhz, cores),
                        radio,
                        bandwidth: MsPerKb(1.0), // replaced by the report
                        ram_kb,
                    });
                }
                self.obs.emit_with(|| {
                    self.obs
                        .wall_event("live", "worker.registered")
                        .severity(cwc_obs::Severity::Debug)
                        .field("phone", phone.0)
                        .field("clock_mhz", clock_mhz)
                        .field("cores", cores)
                });
                let greeting = [
                    Frame::RegisterAck {
                        server_time_us: self.now().0,
                    },
                    // The iperf analogue; the report is the worker's `b_i`.
                    Frame::BandwidthProbe {
                        probe_id: slot as u32,
                        payload_kb: 256,
                    },
                ];
                self.send(slot, &greeting);
            }
            (Frame::BandwidthReport { kb_per_sec, .. }, Some(info)) => {
                // Raw f64 bits off the wire; only a finite positive
                // throughput has an ms/KB a schedule can be priced with.
                if !(kb_per_sec.is_finite() && kb_per_sec > 0.0) {
                    return self.fail(CwcError::InvalidPhone {
                        phone: info.id,
                        reason: format!("reported bandwidth of {kb_per_sec} KB/s"),
                    });
                }
                let Some(state) = self.conns.get_mut(slot) else {
                    return;
                };
                state.info = Some(PhoneInfo {
                    bandwidth: MsPerKb::from_kb_per_sec(kb_per_sec),
                    ..info
                });
                // Slots count, not frames: a worker reporting twice must
                // not stand in for one that has yet to answer.
                if !std::mem::replace(&mut state.measured, true) {
                    self.unmeasured -= 1;
                    if self.unmeasured == 0 {
                        self.start_kernel();
                    }
                }
            }
            (other, _) => self.fail(CwcError::Protocol(format!(
                "worker {slot}: unexpected {other:?} during setup"
            ))),
        }
    }

    /// Every expected slot has reported: hands the measured fleet to the
    /// kernel (`Probe` per slot, in slot order) and dispatches the initial
    /// schedule.
    fn start_kernel(&mut self) {
        self.obs
            .metrics
            .set_gauge("live.setup_ms", self.start.elapsed().as_secs_f64() * 1e3);
        for slot in 0..self.conns.len() {
            if let Some(info) = self.conns.get(slot).and_then(|s| s.info) {
                self.feed(CoordEvent::Probe { slot, info });
            }
        }
        self.feed(CoordEvent::Start);
    }

    /// Translates one inbound frame into its kernel event.
    fn handle_frame(&mut self, slot: usize, frame: Frame) {
        if self.unmeasured > 0 {
            return self.handle_setup_frame(slot, frame);
        }
        match frame {
            Frame::TaskComplete {
                job,
                seq,
                exec_ms,
                result,
            } => {
                self.pending_result = Some(result.to_vec());
                self.feed(CoordEvent::ReportOk {
                    slot,
                    seq,
                    job,
                    exec_ms: exec_ms as f64,
                });
                self.pending_result = None;
            }
            Frame::TaskFailed {
                job,
                seq,
                processed_kb,
                checkpoint,
            } => {
                self.feed(CoordEvent::ReportFailed {
                    slot,
                    seq,
                    job,
                    processed_kb,
                    checkpoint: Some(checkpoint.to_vec()),
                });
            }
            Frame::Unplugged => {
                // Follows a TaskFailed; the kernel already marked the
                // worker dead by then.
            }
            Frame::KeepAliveAck { .. } => {
                self.feed(CoordEvent::KeepAliveSeen { slot });
            }
            other => {
                let Some(wid) = self.phone(slot) else {
                    return;
                };
                self.feed(CoordEvent::Misbehaved {
                    slot,
                    why: format!("{wid}: unexpected frame {other:?}"),
                });
            }
        }
    }

    /// Read-readiness handler: drains the connection, then publishes the
    /// frames its codec rejected meanwhile on `net.crc_rejected`.
    fn handle_readable(&mut self, slot: usize) {
        let rejected = |d: &Self| d.conns.get(slot).map_or(0, |s| s.conn.crc_rejections());
        let before = rejected(self);
        self.drain_readable(slot);
        // Frames the codec skipped on CRC during this drain: the sender's
        // message was lost (recovered by the stall watchdog), so the
        // operator-facing count is the only trace it leaves.
        let fresh = rejected(self).saturating_sub(before);
        if fresh > 0 {
            self.obs.metrics.add("net.crc_rejected", fresh);
        }
    }

    /// Pulls bytes into the codec (bounded per tick), feeds every decoded
    /// frame, and surfaces EOF/transport errors as `ConnectionLost`.
    fn drain_readable(&mut self, slot: usize) {
        let filled = {
            let Some(state) = self.conns.get_mut(slot) else {
                return;
            };
            if state.dead {
                return;
            }
            state.conn.fill()
        };
        let eof = match filled {
            Ok(ReadStatus::Open) => false,
            Ok(ReadStatus::Eof) => true,
            Err(e) => {
                self.declare_lost(slot, format!("{e}"));
                return;
            }
        };
        loop {
            let decoded = {
                let Some(state) = self.conns.get_mut(slot) else {
                    return;
                };
                if state.dead {
                    return;
                }
                state.conn.next_frame()
            };
            match decoded {
                Ok(Some(frame)) => self.handle_frame(slot, frame),
                Ok(None) => break,
                Err(e) => {
                    self.declare_lost(slot, format!("{e}"));
                    return;
                }
            }
        }
        if eof {
            self.declare_lost(slot, "connection closed by peer".to_owned());
        }
    }

    /// Delivers every elapsed wheel entry, earliest deadline (then arming
    /// order) first. Stale kernel tokens are the kernel's problem — it
    /// ignores them. Returns how many entries fired.
    fn fire_due_timers(&mut self) -> usize {
        let mut fired = 0usize;
        loop {
            let now = self.now();
            let Some(entry) = self.wheel.pop_due(now) else {
                return fired;
            };
            fired += 1;
            match entry {
                WheelEntry::Kernel { kind, slot, token } => {
                    self.feed(CoordEvent::TimerFired { kind, slot, token });
                }
                WheelEntry::Paced { slot } => {
                    if let Some(state) = self.conns.get_mut(slot) {
                        state.pace_armed = false;
                        state.conn.resume();
                    }
                    self.flush_conn(slot);
                }
            }
        }
    }

    /// How long the poller may sleep: until the next wheel deadline, but
    /// never more than 50 ms (the deadline-check heartbeat).
    fn poll_timeout(&self) -> Duration {
        let heartbeat = Duration::from_millis(50);
        match self.wheel.next_deadline() {
            Some(at) => {
                let now = self.now();
                Duration::from_micros(at.0.saturating_sub(now.0)).min(heartbeat)
            }
            None => heartbeat,
        }
    }

    /// One iteration of the event loop: sleep in the poller until
    /// something is ready or due, fire elapsed timers, serve every ready fd.
    fn turn(&mut self, events: &mut Vec<PollEvent>) -> CwcResult<()> {
        events.clear();
        self.poller.wait(events, Some(self.poll_timeout()))?;
        let in_setup = self.unmeasured > 0;
        let iter_started = Instant::now();
        let fired = self.fire_due_timers();
        for ev in events.iter() {
            if ev.token == LISTENER_TOKEN {
                self.accept()?;
                continue;
            }
            let slot = ev.token as usize;
            if ev.readable || ev.hangup {
                self.handle_readable(slot);
            }
            if ev.writable {
                self.flush_conn(slot);
            }
        }
        // The histogram is of the batch's iterations: setup turns (and the
        // one that packs the initial schedule) would swamp its quantiles.
        if !in_setup && (fired > 0 || !events.is_empty()) {
            self.obs.metrics.observe(
                "live.loop_iter_us",
                iter_started.elapsed().as_micros() as f64,
            );
        }
        Ok(())
    }

    /// Queues `Shutdown` on every live connection and keeps turning the
    /// loop until the write queues are empty or [`FAREWELL_BOUND`] is up.
    /// Dead workers' threads may still be parked on recv; a `Shutdown` on
    /// a torn connection is a no-op, on a live one it lets the thread exit.
    fn farewell(&mut self, events: &mut Vec<PollEvent>) -> CwcResult<()> {
        for slot in 0..self.conns.len() {
            if let Some(state) = self.conns.get_mut(slot) {
                // Best-effort.
                #[allow(clippy::unused_result_ok)]
                queue_frame(state, &Frame::Shutdown).ok();
            }
            self.flush_conn(slot);
        }
        let give_up = Instant::now() + FAREWELL_BOUND;
        let draining = |d: &Self| d.conns.iter().any(|s| !s.dead && s.conn.queued_bytes() > 0);
        while draining(self) && Instant::now() < give_up {
            self.turn(events)?;
        }
        Ok(())
    }

    /// Whether the run is over: batch covered, fleet lost, or failed.
    fn done(&self) -> bool {
        self.fatal.is_some() || self.kernel.finished() || self.kernel.fleet_lost()
    }
}

/// Like [`run_live_server`], with explicit robustness knobs.
///
/// Observability: registration and failure events, per-phone
/// `net.kb_shipped.*` counters, `live.keepalive_sent` /
/// `live.keepalive_ack` / `live.migrated` /
/// `live.stalled` / `live.dup_reports` / `live.quarantined` /
/// `live.protocol_violations` counters, a `span.schedule_us` histogram
/// around the scheduling pass, a `live.loop_iter_us` histogram of
/// event-loop iteration work time once the batch is running (poll wait
/// excluded), a
/// `live.setup_ms` gauge over accept+register+probe, end-of-run
/// `live.makespan_ms` / `live.workers_lost` gauges, and one
/// `coord.event` record per kernel stimulus (the replayable event
/// script).
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn run_live_server_with(
    listener: TcpListener,
    expected: usize,
    jobs: Vec<LiveJob>,
    registry: TaskRegistry,
    kind: SchedulerKind,
    deadline: Duration,
    policy: LivePolicy,
    obs: &cwc_obs::Obs,
) -> CwcResult<LiveOutcome> {
    if expected == 0 {
        return Err(CwcError::Config("need at least one worker".into()));
    }
    // An atomic job ships whole; one the receiving codec would refuse as
    // lost framing would kill every worker it is offered to in turn.
    if let Some(big) = jobs
        .iter()
        .find(|j| j.spec.kind.is_atomic() && j.input.len() > MAX_ATOMIC_INPUT)
    {
        return Err(CwcError::Config(format!(
            "{}: atomic input of {} bytes cannot ship in one frame (limit {MAX_ATOMIC_INPUT} bytes)",
            big.spec.id,
            big.input.len()
        )));
    }
    let start = Instant::now();
    obs.emit_with(|| {
        obs.wall_event("live", "run.start")
            .field("workers", expected)
            .field("jobs", jobs.len())
            .field(
                "msg",
                format!("live run: {} jobs over {expected} workers", jobs.len()),
            )
    });
    let (specs, inputs) = split_batch(jobs);
    let config = batch_kernel_config(specs, &registry, kind, &policy, obs.clone())?;
    let kernel = Kernel::new(config)?;

    // --- The event loop: one thread, the whole fleet, from the first
    // accept to the last result. ---
    let mut driver = LiveDriver::new(kernel, &inputs, &listener, expected, &policy, obs, start)?;
    let mut events: Vec<PollEvent> = Vec::new();
    while !driver.done() {
        if start.elapsed() > deadline {
            return Err(CwcError::Transport(match driver.unmeasured {
                0 => format!("live run exceeded deadline ({deadline:?})"),
                n => format!(
                    "setup exceeded deadline ({deadline:?}): {n} of {expected} workers never reported a bandwidth"
                ),
            }));
        }
        driver.turn(&mut events)?;
    }
    if let Some(e) = driver.fatal.take() {
        return Err(e);
    }
    let failure = driver.kernel.take_fleet_loss();

    // --- Aggregate. ---
    let mut results = BTreeMap::new();
    for spec in driver.kernel.specs() {
        let id = spec.id;
        let mut pieces = driver.partials.remove(&id).unwrap_or_default();
        pieces.sort_by_key(|(off, _)| *off);
        let ordered: Vec<Vec<u8>> = pieces.into_iter().map(|(_, r)| r).collect();
        let program = registry.load(&spec.program)?;
        match program.aggregate(&ordered) {
            Ok(r) => {
                results.insert(id, r);
            }
            Err(e) if failure.is_some() => {
                // Degraded run: a job whose pieces cannot aggregate (e.g.
                // an atomic job with nothing completed) is simply absent
                // from the partial results.
                obs.emit_with(|| {
                    obs.wall_event("live", "aggregate.partial")
                        .severity(cwc_obs::Severity::Warn)
                        .field("job", id.0)
                        .field("msg", format!("{id}: partial aggregation failed: {e}"))
                });
            }
            Err(e) => return Err(e),
        }
    }

    driver.farewell(&mut events)?;

    let wall = start.elapsed();
    let lost = driver.kernel.workers_lost();
    let migrated = driver.kernel.migrated();
    obs.metrics
        .set_gauge("live.makespan_ms", wall.as_secs_f64() * 1e3);
    obs.metrics.set_gauge("live.workers_lost", lost as f64);
    obs.emit_with(|| {
        obs.wall_event("live", "run.complete")
            .field("wall_ms", wall.as_millis() as u64)
            .field("migrated", migrated)
            .field("workers_lost", lost)
            .field(
                "msg",
                format!(
                    "live run complete in {} ms ({migrated} migrated, {lost} workers lost)",
                    wall.as_millis()
                ),
            )
    });

    Ok(LiveOutcome {
        results,
        wall,
        migrated,
        keepalives_acked: driver.kernel.keepalives_acked(),
        retries: 0,
        quarantined: driver.kernel.quarantined(),
        failure,
    })
}

#[cfg(test)]
// Workers are threads, and several tests pace them with sleeps.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use cwc_tasks::{inputs, standard_registry};
    use std::thread;

    fn spawn_workers(
        addr: SocketAddr,
        configs: Vec<WorkerConfig>,
    ) -> (Vec<Arc<AtomicBool>>, Vec<thread::JoinHandle<CwcResult<()>>>) {
        let mut flags = Vec::new();
        let mut handles = Vec::new();
        for cfg in configs {
            let flag = Arc::new(AtomicBool::new(false));
            flags.push(flag.clone());
            let registry = standard_registry();
            handles.push(thread::spawn(move || run_worker(addr, cfg, registry, flag)));
        }
        (flags, handles)
    }

    fn register(phone: u32) -> Frame {
        Frame::Register {
            phone: PhoneId(phone),
            clock_mhz: 1200,
            cores: 2,
            radio: RadioTech::Wifi80211g,
            ram_kb: 1 << 20,
        }
    }

    /// Connects a hand-driven worker on a blocking [`FramedTcp`] and sends
    /// its `Register`.
    fn raw_connect(addr: SocketAddr, phone: u32) -> CwcResult<FramedTcp> {
        let mut conn = FramedTcp::connect(addr)?;
        conn.send(&register(phone))?;
        Ok(conn)
    }

    /// The server's reply to `Register`: `RegisterAck`, then the probe
    /// (whose id is returned) — in that order on the wire.
    fn expect_greeting(conn: &mut FramedTcp) -> u32 {
        assert!(matches!(conn.recv().unwrap(), Frame::RegisterAck { .. }));
        match conn.recv().unwrap() {
            Frame::BandwidthProbe { probe_id, .. } => probe_id,
            other => panic!("expected BandwidthProbe, got {other:?}"),
        }
    }

    /// The rest of a hand-driven worker's life: answers the probe with
    /// `kbps` and keep-alives with acks, and replies to every `ShipInput`
    /// with the byte length it was shipped (`primecount` aggregates
    /// partials by summing, so a job's result must equal its input
    /// length). It dawdles `after_exe` after each `ShipExecutable` — a
    /// slow link, as the server sees it — and hands every frame it
    /// receives to `on_frame` first.
    fn raw_serve(
        conn: &mut FramedTcp,
        kbps: f64,
        after_exe: Duration,
        mut on_frame: impl FnMut(&Frame),
    ) -> CwcResult<()> {
        loop {
            let frame = conn.recv()?;
            on_frame(&frame);
            match frame {
                Frame::BandwidthProbe { probe_id, .. } => conn.send(&Frame::BandwidthReport {
                    probe_id,
                    kb_per_sec: kbps,
                })?,
                Frame::ShipExecutable { .. } => thread::sleep(after_exe),
                Frame::ShipInput { job, seq, data, .. } => conn.send(&Frame::TaskComplete {
                    job,
                    seq,
                    exec_ms: 1,
                    result: (data.len() as u64).to_be_bytes().to_vec().into(),
                })?,
                Frame::KeepAlive { seq } => conn.send(&Frame::KeepAliveAck { seq })?,
                Frame::Shutdown => return Ok(()),
                _ => {}
            }
        }
    }

    /// A whole hand-driven worker (phone 0, 600 KB/s) on its own thread,
    /// sending through `fault` once registered.
    fn spawn_raw_worker(
        addr: SocketAddr,
        after_exe: Duration,
        fault: Option<Box<dyn WireFault>>,
    ) -> thread::JoinHandle<CwcResult<()>> {
        thread::spawn(move || {
            let mut conn = raw_connect(addr, 0)?;
            conn.set_fault(fault);
            raw_serve(&mut conn, 600.0, after_exe, |_| {})
        })
    }

    /// One 10 KB breakable `primecount` job.
    fn small_batch() -> Vec<LiveJob> {
        vec![LiveJob::new(
            JobId(0),
            JobKind::Breakable,
            "primecount",
            30,
            vec![b'7'; 10 * 1024],
        )]
    }

    /// Runs the coordinator for `expected` workers under `deadline` while
    /// `peer` plays the other side; returns the outcome and the events the
    /// coordinator recorded.
    fn serve_against(
        expected: usize,
        deadline: Duration,
        peer: impl FnOnce(SocketAddr) + Send + 'static,
    ) -> (CwcResult<LiveOutcome>, Vec<cwc_obs::Event>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || peer(addr));
        let obs = cwc_obs::Obs::new();
        let sink = Arc::new(cwc_obs::MemorySink::new());
        obs.bus.attach(sink.clone());
        let out = run_live_server_with(
            listener,
            expected,
            small_batch(),
            standard_registry(),
            SchedulerKind::Greedy,
            deadline,
            LivePolicy::default(),
            &obs,
        );
        peer.join().unwrap();
        (out, sink.snapshot())
    }

    /// The error a setup that `peer` spoils ends in — which must come
    /// promptly, long before the 30 s `deadline` would have cut it short.
    fn setup_error(peer: impl FnOnce(SocketAddr) + Send + 'static) -> CwcError {
        let started = Instant::now();
        let (out, _) = serve_against(1, Duration::from_secs(30), peer);
        assert!(started.elapsed() < Duration::from_secs(10));
        out.unwrap_err()
    }

    #[test]
    fn setup_failures_end_the_run_with_an_error_not_a_hang() {
        // Closes before it ever registers.
        let err = setup_error(|addr| drop(std::net::TcpStream::connect(addr).unwrap()));
        assert!(err.to_string().contains("vanished during setup"), "{err}");

        // Registers, is greeted, closes without reporting a bandwidth.
        let err = setup_error(|addr| {
            expect_greeting(&mut raw_connect(addr, 0).unwrap());
        });
        assert!(err.to_string().contains("vanished during setup"), "{err}");

        // Opens with something other than `Register`, then holds the
        // socket until the server has made up its mind.
        let err = setup_error(|addr| {
            let mut conn = FramedTcp::connect(addr).unwrap();
            conn.send(&Frame::KeepAliveAck { seq: 1 }).unwrap();
            assert!(conn.recv().is_err());
        });
        assert!(matches!(err, CwcError::Protocol(_)), "{err:?}");

        // Registers twice.
        let err = setup_error(|addr| {
            let mut conn = raw_connect(addr, 0).unwrap();
            expect_greeting(&mut conn);
            conn.send(&register(0)).unwrap();
            assert!(conn.recv().is_err());
        });
        assert!(matches!(err, CwcError::Protocol(_)), "{err:?}");

        // `expected` is never reached: one of two workers shows up, does
        // everything right, and waits. The run's own deadline ends it.
        let (out, _) = serve_against(2, Duration::from_millis(300), |addr| {
            let mut conn = raw_connect(addr, 0).unwrap();
            assert!(raw_serve(&mut conn, 600.0, Duration::ZERO, |_| {}).is_err());
        });
        let err = out.unwrap_err().to_string();
        assert!(
            err.contains("setup exceeded deadline") && err.contains("1 of 2"),
            "{err}"
        );
    }

    #[test]
    fn unusable_bandwidth_reports_are_refused_not_panicked_on() {
        // Raw f64 bits off the wire, straight from an untrusted worker.
        for bad in [0.0, -600.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = setup_error(move |addr| {
                let mut conn = raw_connect(addr, 7).unwrap();
                let probe_id = expect_greeting(&mut conn);
                let kb_per_sec = bad;
                conn.send(&Frame::BandwidthReport {
                    probe_id,
                    kb_per_sec,
                })
                .unwrap();
                assert!(conn.recv().is_err());
            });
            assert!(
                matches!(err, CwcError::InvalidPhone { phone, .. } if phone == PhoneId(7)),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn setup_waits_for_every_slot_not_for_that_many_reports() {
        // Worker A answers its probe twice before worker B answers at all.
        // Two reports are not two measured workers: B's link must still be
        // the one B advertises when the initial schedule is packed.
        let (out, events) = serve_against(2, Duration::from_secs(60), |addr| {
            let (mut a, mut b) = (raw_connect(addr, 0).unwrap(), raw_connect(addr, 1).unwrap());
            let (probe_a, probe_b) = (expect_greeting(&mut a), expect_greeting(&mut b));
            let report = |probe_id, kb_per_sec| Frame::BandwidthReport {
                probe_id,
                kb_per_sec,
            };
            a.send(&report(probe_a, 600.0)).unwrap();
            a.send(&report(probe_a, 600.0)).unwrap();
            // Let the server read A's pair before B's report is on the wire.
            thread::sleep(Duration::from_millis(100));
            b.send(&report(probe_b, 250.0)).unwrap();
            let a = thread::spawn(move || raw_serve(&mut a, 600.0, Duration::ZERO, |_| {}));
            raw_serve(&mut b, 250.0, Duration::ZERO, |_| {}).unwrap();
            a.join().unwrap().unwrap();
        });
        let out = out.unwrap();
        assert!(out.failure.is_none(), "degraded: {:?}", out.failure);
        let probed: BTreeMap<PhoneId, MsPerKb> = script::harvest(&events)
            .unwrap()
            .into_iter()
            .filter_map(|(_, ev)| match ev {
                CoordEvent::Probe { info, .. } => Some((info.id, info.bandwidth)),
                _ => None,
            })
            .collect();
        assert_eq!(probed[&PhoneId(0)], MsPerKb::from_kb_per_sec(600.0));
        assert_eq!(probed[&PhoneId(1)], MsPerKb::from_kb_per_sec(250.0));
    }

    /// An encoded frame's protocol tag.
    fn tag(encoded: &[u8]) -> Option<u8> {
        encoded.get(cwc_net::FRAME_HEADER_LEN).copied()
    }

    /// A fault hook that passes handshake frames and resets the connection
    /// halfway through the first other frame; later frames pass clean.
    fn reset_first_data_frame() -> impl FnMut(&[u8]) -> Vec<WireOp> + Send {
        let mut reset = false;
        move |encoded: &[u8]| {
            let handshake = tag(encoded).is_some_and(cwc_net::is_handshake_tag);
            if handshake || std::mem::replace(&mut reset, true) {
                return vec![WireOp::Write(encoded.to_vec())];
            }
            vec![
                WireOp::Write(encoded[..encoded.len() / 2].to_vec()),
                WireOp::Reset,
            ]
        }
    }

    #[test]
    fn a_reset_send_loses_the_worker_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let worker = spawn_raw_worker(listener.local_addr().unwrap(), Duration::ZERO, None);
        let policy = LivePolicy::default();
        let obs = cwc_obs::Obs::new();
        let sink = Arc::new(cwc_obs::MemorySink::new());
        obs.bus.attach(sink.clone());
        let jobs = small_batch();
        let cfg = live_kernel_config(
            &jobs,
            &standard_registry(),
            SchedulerKind::Greedy,
            &policy,
            obs.clone(),
        )
        .unwrap();
        let (_, inputs) = split_batch(jobs);
        let mut driver = LiveDriver::new(
            Kernel::new(cfg).unwrap(),
            &inputs,
            &listener,
            1,
            &policy,
            &obs,
            Instant::now(),
        )
        .unwrap();
        let mut events = Vec::new();
        while driver.conns.is_empty() {
            driver.turn(&mut events).unwrap();
        }
        driver.conns[0].fault = Some(Box::new(reset_first_data_frame()));
        let started = Instant::now();
        while !driver.done() {
            assert!(started.elapsed() < Duration::from_secs(30), "wedged");
            driver.turn(&mut events).unwrap();
        }
        assert!(driver.fatal.is_none(), "{:?}", driver.fatal);
        assert!(driver.kernel.fleet_lost());
        assert_eq!(driver.kernel.workers_lost(), 1);
        // The queued close marker and the failed send both report the loss;
        // the kernel hears it once.
        let lost = script::harvest(&sink.snapshot())
            .unwrap()
            .into_iter()
            .filter(|(_, ev)| matches!(ev, CoordEvent::ConnectionLost { slot: 0, .. }))
            .count();
        assert_eq!(lost, 1);
        // The worker reads half a frame, then EOF.
        drop(driver);
        drop(listener);
        assert!(worker.join().unwrap().is_err());
    }

    #[test]
    fn nothing_is_queued_behind_an_injected_reset() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut state = ConnState {
            conn: Conn::from_stream(stream).unwrap(),
            fault: Some(Box::new(reset_first_data_frame())),
            info: None,
            measured: false,
            dead: false,
            write_interest: false,
            pace_armed: false,
            stall: None,
            kb_shipped: None,
        };
        let err = queue_frame(&mut state, &Frame::KeepAlive { seq: 1 }).unwrap_err();
        assert!(
            err.to_string().contains("injected connection reset"),
            "{err}"
        );
        let queued = state.conn.queued_bytes();
        // Unflushed: the close marker is still queued, and it refuses every
        // later frame — the ones the hook would pass clean included.
        for frame in [Frame::KeepAlive { seq: 2 }, Frame::Shutdown] {
            assert!(queue_frame(&mut state, &frame).is_err());
            assert_eq!(state.conn.queued_bytes(), queued);
        }
        drop(peer);
    }

    /// A replica reaches its worker as a `ShipInput` frame flagged
    /// `replica`; its primary, on the other worker, is unflagged.
    #[test]
    fn a_replica_reaches_its_worker_flagged_on_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shipped = Arc::new(std::sync::Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..2)
            .map(|phone| {
                let shipped = shipped.clone();
                thread::spawn(move || {
                    let mut conn = raw_connect(addr, phone)?;
                    raw_serve(&mut conn, 600.0, Duration::ZERO, |frame| {
                        if let Frame::ShipInput {
                            job,
                            offset_kb,
                            len_kb,
                            replica,
                            ..
                        } = *frame
                        {
                            let ship = (phone, job, offset_kb, len_kb, replica);
                            shipped.lock().unwrap().push(ship);
                        }
                    })
                })
            })
            .collect();
        // Both slots are flaky, so the one atomic job is replicated onto
        // whichever slot it was not packed on.
        let policy = LivePolicy {
            reliability: Some((vec![0.9, 0.9], 0.0)),
            replication: Some(ReplicationPolicy { threshold: 0.5 }),
            ..LivePolicy::default()
        };
        let job = LiveJob::new(
            JobId(0),
            JobKind::Atomic,
            "primecount",
            30,
            vec![b'7'; 10 * 1024],
        );
        let out = run_live_server_with(
            listener,
            2,
            vec![job],
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(30),
            policy,
            &cwc_obs::Obs::new(),
        )
        .unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        assert_eq!(out.results.len(), 1);
        let mut shipped = shipped.lock().unwrap().clone();
        shipped.sort_by_key(|&(.., replica)| replica);
        let [(primary, job, offset, len, false), (copy, job2, offset2, len2, true)] = shipped[..]
        else {
            panic!("expected one primary and one replica ship, got {shipped:?}");
        };
        assert_ne!(primary, copy, "the replica runs on the other worker");
        assert_eq!((job, offset, len), (job2, offset2, len2));
    }

    #[test]
    fn a_slot_keeps_one_stall_deadline_however_many_chunks_it_is_shipped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let workers: Vec<_> = (0..2)
            .map(|phone| {
                thread::spawn(move || {
                    raw_serve(
                        &mut raw_connect(addr, phone)?,
                        600.0,
                        Duration::ZERO,
                        |_| {},
                    )
                })
            })
            .collect();
        let policy = LivePolicy::default();
        let obs = cwc_obs::Obs::new();
        let sink = Arc::new(cwc_obs::MemorySink::new());
        obs.bus.attach(sink.clone());
        let one_kb = |i| {
            LiveJob::new(
                JobId(i),
                JobKind::Breakable,
                "primecount",
                30,
                vec![b'7'; 1024],
            )
        };
        let jobs: Vec<LiveJob> = (0..300).map(one_kb).collect();
        let kernel_config = |obs| {
            live_kernel_config(
                &jobs,
                &standard_registry(),
                SchedulerKind::Greedy,
                &policy,
                obs,
            )
        };
        let (_, inputs) = split_batch(jobs.clone());
        let mut driver = LiveDriver::new(
            Kernel::new(kernel_config(obs.clone()).unwrap()).unwrap(),
            &inputs,
            &listener,
            2,
            &policy,
            &obs,
            Instant::now(),
        )
        .unwrap();
        let mut events = Vec::new();
        let mut most_armed = 0;
        while !driver.done() {
            driver.turn(&mut events).unwrap();
            most_armed = most_armed.max(driver.wheel.len());
        }
        assert!(driver.fatal.is_none(), "{:?}", driver.fatal);
        // Fault-free: the wheel holds each slot's keep-alive and its newest
        // stall watchdog, never one entry per chunk shipped.
        assert!(most_armed <= 4, "{most_armed} timers armed at once");
        driver.farewell(&mut events).unwrap();
        for worker in workers {
            worker.join().unwrap().unwrap();
        }

        // Cancelling superseded watchdogs changes nothing the kernel can
        // see: the recorded script replays to the same terminal state.
        let mut replayed = Kernel::new(kernel_config(cwc_obs::Obs::new()).unwrap()).unwrap();
        let mut cmds = Vec::new();
        for (now, ev) in script::harvest(&sink.snapshot()).unwrap() {
            replayed.step_into(now, ev, &mut cmds);
        }
        assert!(replayed.finished());
        assert_eq!(replayed.completed_at(), driver.kernel.completed_at());
        assert_eq!(
            replayed.partitions_per_job(),
            driver.kernel.partitions_per_job()
        );
        assert_eq!(
            replayed.keepalives_acked(),
            driver.kernel.keepalives_acked()
        );
    }

    #[test]
    fn slow_link_worker_is_not_condemned_by_its_own_big_chunk() {
        // One atomic 32 MB partition to a worker that reads nothing for a
        // while: the first flush fills the socket buffer and leaves far
        // more than the backlog cap unwritten, but it is all ONE frame in
        // flight, not a backlog — the worker is healthy and must get to
        // finish.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = spawn_raw_worker(addr, Duration::from_millis(300), None);
        let input = vec![b'7'; 32 << 20];
        let jobs = vec![LiveJob::new(
            JobId(0),
            JobKind::Atomic,
            "primecount",
            30,
            input.clone(),
        )];
        let out = run_live_server(
            listener,
            1,
            jobs,
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(60),
        )
        .unwrap();
        assert!(out.failure.is_none(), "degraded: {:?}", out.failure);
        assert_eq!(
            out.results[&JobId(0)],
            (input.len() as u64).to_be_bytes().to_vec()
        );
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn crc_rejected_frames_are_counted_on_the_run_obs() {
        // The worker's first TaskComplete goes out twice: once with a body
        // bit flipped, then clean. The server must skip the first, count
        // it on `net.crc_rejected`, and finish on the second.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut corrupted = false;
        let fault = move |encoded: &[u8]| {
            let is_report = tag(encoded) == Some(7);
            if !is_report || std::mem::replace(&mut corrupted, true) {
                return vec![WireOp::Write(encoded.to_vec())];
            }
            let mut bad = encoded.to_vec();
            *bad.last_mut().unwrap() ^= 0x40;
            vec![WireOp::Write(bad), WireOp::Write(encoded.to_vec())]
        };
        let worker = spawn_raw_worker(addr, Duration::ZERO, Some(Box::new(fault)));
        let obs = cwc_obs::Obs::new();
        let out = run_live_server_with(
            listener,
            1,
            small_batch(),
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(60),
            LivePolicy::default(),
            &obs,
        )
        .unwrap();
        assert!(out.failure.is_none(), "degraded: {:?}", out.failure);
        assert_eq!(
            out.results[&JobId(0)],
            (10 * 1024u64).to_be_bytes().to_vec()
        );
        assert_eq!(obs.metrics.counter_value("net.crc_rejected"), 1);
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn atomic_job_too_big_for_one_frame_is_refused_at_submit() {
        // 65 MB > MAX_FRAME_LEN: every worker offered this partition would
        // drop the connection on "bad frame length". Refused before a
        // single worker is accepted (nobody ever connects here).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let jobs = vec![
            LiveJob::new(
                JobId(0),
                JobKind::Breakable,
                "primecount",
                30,
                vec![0; 2048],
            ),
            LiveJob::new(
                JobId(4),
                JobKind::Atomic,
                "photoblur",
                40,
                vec![0; 65 << 20],
            ),
        ];
        let err = run_live_server(
            listener,
            1,
            jobs,
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(5),
        )
        .unwrap_err();
        assert!(matches!(err, CwcError::Config(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains(&JobId(4).to_string()), "{msg}");
        assert!(msg.contains(&MAX_ATOMIC_INPUT.to_string()), "{msg}");
    }

    #[test]
    fn a_repeated_job_id_is_refused_before_any_worker_connects() {
        // Two inputs under one id: the run could ship either, and the
        // partials of both would file under one job. Refused at
        // admission, so the coordinator never waits for a worker (nobody
        // connects here; a run that waited would hit the deadline).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let job = |id, len| {
            LiveJob::new(
                JobId(id),
                JobKind::Breakable,
                "primecount",
                30,
                vec![b'7'; len],
            )
        };
        let jobs = vec![job(3, 2048), job(1, 1024), job(3, 4096)];
        let started = Instant::now();
        let err = run_live_server_with(
            listener,
            1,
            jobs,
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(30),
            LivePolicy::default(),
            &cwc_obs::Obs::new(),
        )
        .unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(10));
        match err {
            CwcError::Config(msg) => assert_eq!(msg, "job id job-3 submitted twice"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn live_cluster_computes_real_results() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let configs = vec![
            WorkerConfig::new(PhoneId(0), 1500, 900.0),
            WorkerConfig::new(PhoneId(1), 1200, 500.0),
            WorkerConfig::new(PhoneId(2), 806, 15.0),
        ];
        let (_flags, handles) = spawn_workers(addr, configs);

        // Two breakable jobs + one atomic blur, with real inputs.
        let numbers = inputs::number_file(64, 5);
        let text = inputs::text_file(64, 6, "lowes");
        let image = inputs::image_file(128, 96, 7);
        let jobs = vec![
            LiveJob::new(
                JobId(0),
                JobKind::Breakable,
                "primecount",
                30,
                numbers.clone(),
            ),
            LiveJob::new(JobId(1), JobKind::Breakable, "wordcount", 25, text.clone()),
            LiveJob::new(JobId(2), JobKind::Atomic, "photoblur", 40, image.clone()),
        ];
        let out = run_live_server(
            listener,
            3,
            jobs,
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(60),
        )
        .unwrap();

        // Reference results computed directly.
        let reg = standard_registry();
        let straight = |name: &str, data: &[u8]| -> Vec<u8> {
            let p = reg.load(name).unwrap();
            match Executor.run(p.as_ref(), data, None).unwrap() {
                ExecutionOutcome::Completed { result, .. } => result,
                other => panic!("unexpected {other:?}"),
            }
        };
        // Prime count must match exactly (sums are order-independent and
        // partition boundaries fall on KB lines either way).
        assert_eq!(out.results[&JobId(0)], straight("primecount", &numbers));
        // The atomic blur is bit-identical.
        assert_eq!(out.results[&JobId(2)], straight("photoblur", &image));
        // Word count: splitting can lose words straddling partition cuts;
        // allow a tiny deficit, never an excess.
        let counted = u64::from_be_bytes(out.results[&JobId(1)].as_slice().try_into().unwrap());
        let exact = u64::from_be_bytes(straight("wordcount", &text).as_slice().try_into().unwrap());
        assert!(
            counted <= exact && counted + 8 >= exact,
            "{counted} vs {exact}"
        );
        assert_eq!(out.migrated, 0);
        assert!(out.failure.is_none());
        assert_eq!(out.quarantined, 0);

        for h in handles {
            h.join().unwrap().unwrap();
        }
    }

    #[test]
    fn eight_worker_cluster_with_two_failures() {
        // A heavier fleet through the event loop: 8 workers, a mixed
        // batch, two staggered unplugs — results must still be exact.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let configs: Vec<WorkerConfig> = (0..8u32)
            .map(|i| WorkerConfig::new(PhoneId(i), 806 + i * 90, 50.0 + f64::from(i) * 110.0))
            .collect();
        let (flags, _handles) = spawn_workers(addr, configs);

        let f1 = flags[2].clone();
        let f2 = flags[5].clone();
        let killer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(8));
            f1.store(true, Ordering::Relaxed);
            thread::sleep(Duration::from_millis(15));
            f2.store(true, Ordering::Relaxed);
        });

        let numbers = inputs::number_file(384, 17);
        let text = inputs::text_file(256, 18, "lowes");
        let jobs = vec![
            LiveJob::new(
                JobId(0),
                JobKind::Breakable,
                "primecount",
                30,
                numbers.clone(),
            ),
            LiveJob::new(JobId(1), JobKind::Breakable, "wordcount", 25, text.clone()),
        ];
        let out = run_live_server(
            listener,
            8,
            jobs,
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(90),
        )
        .unwrap();

        let reg = standard_registry();
        let straight = |name: &str, data: &[u8]| -> u64 {
            let p = reg.load(name).unwrap();
            match Executor.run(p.as_ref(), data, None).unwrap() {
                ExecutionOutcome::Completed { result, .. } => {
                    u64::from_be_bytes(result.as_slice().try_into().unwrap())
                }
                other => panic!("unexpected {other:?}"),
            }
        };
        // Partition cuts fall at KB offsets, mid-line: a number straddling
        // a cut parses differently in the split run than in the straight
        // run (the paper's partitioning has the same semantics). Each cut
        // shifts the count by at most a couple.
        let primes = u64::from_be_bytes(out.results[&JobId(0)].as_slice().try_into().unwrap());
        let exact_primes = straight("primecount", &numbers);
        assert!(
            primes.abs_diff(exact_primes) <= 16,
            "{primes} vs {exact_primes}"
        );
        let words = u64::from_be_bytes(out.results[&JobId(1)].as_slice().try_into().unwrap());
        let exact = straight("wordcount", &text);
        assert!(words <= exact && words + 16 >= exact, "{words} vs {exact}");
        assert!(out.failure.is_none());

        killer.join().unwrap();
    }

    #[test]
    fn live_migration_preserves_results() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let configs = vec![
            WorkerConfig::new(PhoneId(0), 1200, 600.0),
            WorkerConfig::new(PhoneId(1), 1200, 600.0),
        ];
        let (flags, handles) = spawn_workers(addr, configs);

        // Unplug worker 0 almost immediately: any task it holds fails
        // mid-partition and must migrate with its checkpoint.
        let unplug = flags[0].clone();
        let killer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            unplug.store(true, Ordering::Relaxed);
        });

        let numbers = inputs::number_file(256, 9);
        let jobs = vec![LiveJob::new(
            JobId(0),
            JobKind::Breakable,
            "primecount",
            30,
            numbers.clone(),
        )];
        let out = run_live_server(
            listener,
            2,
            jobs,
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(60),
        )
        .unwrap();

        let reg = standard_registry();
        let p = reg.load("primecount").unwrap();
        let expected = match Executor.run(p.as_ref(), &numbers, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => result,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            out.results[&JobId(0)],
            expected,
            "migrated computation must be lossless"
        );

        killer.join().unwrap();
        // Worker 0 was failed by the server but its thread exits when the
        // connection closes or on its own; don't assert on its result.
        drop(handles);
    }
}
