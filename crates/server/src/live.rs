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
//! readiness for the whole fleet; [`Kernel::step`] turns each decoded
//! frame into commands; command fan-out goes through per-connection
//! write queues with explicit backpressure accounting; and every
//! wall-clock wait — kernel keep-alive/stall/speculation timers, send
//! retries, injected wire pacing — lives in one deadline-ordered
//! [`cwc_net::TimerWheel`]. Nothing on the server side ever blocks or
//! sleeps inside the loop, which is what lets one thread serve tens of
//! thousands of workers (`cwc-bench-live` measures exactly that).
//! All control-loop decisions — scheduling, sequencing, stall/keep-alive
//! policy, breaker quarantine, round-robin migration, graceful
//! fleet-loss degradation — live in the kernel, shared verbatim with the
//! simulator's engine, including the scheduler warm start
//! ([`cwc_core::WarmStart`], DESIGN.md §10).
//!
//! The transport layer stays **chaos-hardened** (see `DESIGN.md` §7):
//! ship and keep-alive sends retry with exponential backoff and
//! deterministic jitter ([`crate::resilience::RetryPolicy`] supplies the
//! schedule; the waits themselves are wheel timers, not sleeps); fault
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

use crate::coord::{
    script, CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy,
    TimerKind,
};
use crate::resilience::{BreakerConfig, RetryPolicy};
use bytes::BytesMut;
use cwc_core::{ReplicationPolicy, SchedulerKind, SpeculationPolicy};
use cwc_device::{ExecutionOutcome, Executor, TaskRegistry};
use cwc_net::{
    accept_burst, Conn, FlushStatus, Frame, FramedTcp, Interest, PollEvent, Poller, ReadStatus,
    SendVerdict, TimerWheel, WireFault, WireOp,
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
    run_worker_observed(addr, cfg, registry, unplug, &cwc_obs::Obs::new())
}

/// Like [`run_worker`], recording through `obs`: per-task
/// `worker.tasks_completed` / `worker.tasks_interrupted` counters, a
/// `worker.exec_ms` histogram of measured runtimes, and
/// `worker.keepalive_acks` for answered liveness probes.
pub fn run_worker_observed(
    addr: SocketAddr,
    cfg: WorkerConfig,
    registry: TaskRegistry,
    unplug: Arc<AtomicBool>,
    obs: &cwc_obs::Obs,
) -> CwcResult<()> {
    run_worker_chaos(addr, cfg, registry, unplug, obs, None)
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

/// Like [`run_worker_observed`], optionally driven by a
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
                    obs.emit(
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
                            ),
                    );
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
                    obs.emit(
                        obs.wall_event("worker", "task.cancelled")
                            .severity(cwc_obs::Severity::Debug)
                            .field("job", job.0)
                            .field("seq", seq)
                            .field(
                                "msg",
                                format!("{}: cancelled buffered input for {job}", cfg.phone),
                            ),
                    );
                }
            }
            Frame::Shutdown => {
                // Echoing the farewell is a courtesy; the peer may already
                // have torn the socket down. cwc-lint: allow(error_swallowing)
                conn.send(&Frame::Shutdown).ok();
                return Ok(());
            }
            other => {
                // Skip-and-warn: an unknown-but-well-formed frame is not a
                // reason to strand a healthy worker.
                obs.metrics.inc("worker.frames_skipped");
                obs.emit(
                    obs.wall_event("worker", "frame.skipped")
                        .severity(cwc_obs::Severity::Warn)
                        .field(
                            "msg",
                            format!("{}: skipping unexpected frame {other:?}", cfg.phone),
                        ),
                );
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

/// Reports a finished execution back to the server (the tail of the old
/// monolithic execute path, shared by the fast and paced variants).
#[allow(clippy::too_many_arguments)]
fn report_outcome(
    conn: &mut FramedTcp,
    cfg: &WorkerConfig,
    obs: &cwc_obs::Obs,
    trace: &cwc_obs::TraceCtx,
    job: JobId,
    seq: u64,
    started: Instant,
    outcome: ExecutionOutcome,
) -> CwcResult<WorkerStep> {
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
            obs.emit(
                trace
                    .stamp(obs.wall_event("worker", "task.interrupted"))
                    .severity(cwc_obs::Severity::Warn)
                    .field("job", job.0)
                    .field("processed_kb", processed.0)
                    .field(
                        "msg",
                        format!("{} interrupted {job} at {} KB", cfg.phone, processed.0),
                    ),
            );
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

/// Runs one shipped input through the executor and reports the outcome.
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

    let Some(stall) = stall else {
        // Fast path: run the whole partition in one guarded call.
        let mut crashed = false;
        let outcome =
            Executor.run_guarded(program.as_ref(), &data, resume_from.as_deref(), |done| {
                if crash_at.is_some_and(|c| done.0 >= c) {
                    crashed = true;
                    return true;
                }
                unplug.load(Ordering::Relaxed)
            })?;
        if crashed {
            // Offline failure: die at the chunk boundary with no report.
            // The server finds out from the closed connection (or a missed
            // keep-alive) and restarts the partition elsewhere.
            obs.metrics.inc("worker.chaos_crashes");
            return Ok(WorkerStep::Crash);
        }
        return report_outcome(conn, cfg, obs, &trace, job, seq, started, outcome);
    };

    // Paced (slow-loris) path: one chunk per stall window. The stall is
    // spent *serving the connection* rather than asleep — keep-alives are
    // answered inline and other frames deferred — so pacing no longer
    // blinds the worker to the server. Check order per chunk matches the
    // fast path's predicate: stall, then crash, then unplug.
    let mut checkpoint: Option<Vec<u8>> = resume_from.map(|b| b.to_vec());
    let mut processed = KiloBytes::ZERO;
    loop {
        if processed.0 >= total_chunks {
            // Nothing (left) to process: finish for the partial result.
            // Only the empty-input edge reaches here; non-empty inputs
            // complete inside the per-chunk executor call below.
            let outcome = match checkpoint.take() {
                Some(ck) => Executor.resume(program.as_ref(), &data, &ck, processed, None)?,
                None => Executor.run(program.as_ref(), &data, None)?,
            };
            return report_outcome(conn, cfg, obs, &trace, job, seq, started, outcome);
        }
        serve_until(conn, obs, deferred, Instant::now() + stall)?;
        if crash_at.is_some_and(|c| processed.0 >= c) {
            obs.metrics.inc("worker.chaos_crashes");
            return Ok(WorkerStep::Crash);
        }
        if unplug.load(Ordering::Relaxed) {
            let ck = match checkpoint.take() {
                Some(ck) => ck,
                None => program.new_state().checkpoint(),
            };
            return report_outcome(
                conn,
                cfg,
                obs,
                &trace,
                job,
                seq,
                started,
                ExecutionOutcome::Interrupted {
                    checkpoint: ck,
                    processed,
                },
            );
        }
        let outcome = match checkpoint.take() {
            Some(ck) => Executor.resume(
                program.as_ref(),
                &data,
                &ck,
                processed,
                Some(KiloBytes(processed.0 + 1)),
            )?,
            None => Executor.run(program.as_ref(), &data, Some(KiloBytes(1)))?,
        };
        match outcome {
            ExecutionOutcome::Interrupted {
                checkpoint: ck,
                processed: p,
            } => {
                checkpoint = Some(ck);
                processed = p;
            }
            done @ ExecutionOutcome::Completed { .. } => {
                return report_outcome(conn, cfg, obs, &trace, job, seq, started, done);
            }
        }
    }
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

/// Why a live run finished without full coverage.
#[derive(Debug, Clone)]
pub struct FailureSummary {
    /// Workers lost over the run (unplugged, vanished, or quarantined).
    pub workers_lost: usize,
    /// Of those, how many the circuit breaker quarantined.
    pub quarantined: usize,
    /// Input KB that was never processed, per job (only jobs with a
    /// shortfall appear).
    pub unprocessed_kb: BTreeMap<JobId, u64>,
    /// Human-readable account of what went wrong.
    pub detail: String,
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
    /// Send retries performed by the backoff policy.
    pub retries: u64,
    /// Workers quarantined by the per-phone circuit breaker.
    pub quarantined: usize,
    /// `Some` iff the batch could not be fully processed (every worker
    /// lost mid-run): the explicit graceful-degradation summary.
    pub failure: Option<FailureSummary>,
}

/// Keep-alive period used in live mode. The prototype's 30 s is right
/// for battery-powered phones on WANs; loopback demo runs are short, so
/// probes go out every second to actually exercise the mechanism.
pub const LIVE_KEEPALIVE_PERIOD: Duration = Duration::from_secs(1);

/// Robustness knobs of the live coordinator.
#[derive(Debug, Clone)]
pub struct LivePolicy {
    /// Backoff for ship/probe/keep-alive sends.
    pub retry: RetryPolicy,
    /// Per-phone circuit breaker: this many transient failures inside the
    /// window quarantine the phone for the rest of the run.
    pub breaker: BreakerConfig,
    /// How long a shipped task may sit unanswered before the watchdog
    /// requeues it (recovers lost `ShipInput` / `TaskComplete` frames).
    pub stall_timeout: Duration,
    /// Application-layer keep-alive period.
    pub keepalive_period: Duration,
    /// Unanswered keep-alives tolerated while a worker is idle before it
    /// is declared an offline failure (3 in the prototype).
    pub tolerated_misses: u32,
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
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            stall_timeout: Duration::from_secs(5),
            keepalive_period: LIVE_KEEPALIVE_PERIOD,
            tolerated_misses: cwc_net::KEEPALIVE_TOLERATED_MISSES,
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
/// simulator uses.
pub fn live_kernel_config(
    jobs: &[LiveJob],
    registry: &TaskRegistry,
    kind: SchedulerKind,
    policy: &LivePolicy,
    obs: cwc_obs::Obs,
) -> CwcResult<KernelConfig> {
    let mut specs: Vec<JobSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
    specs.sort_by_key(|s| s.id);
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
        tolerated_misses: policy.tolerated_misses,
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

/// Like [`run_live_server`], recording the run through `obs` (see
/// [`run_live_server_with`] for the full counter list).
pub fn run_live_server_observed(
    listener: TcpListener,
    expected: usize,
    jobs: Vec<LiveJob>,
    registry: TaskRegistry,
    kind: SchedulerKind,
    deadline: Duration,
    obs: &cwc_obs::Obs,
) -> CwcResult<LiveOutcome> {
    run_live_server_with(
        listener,
        expected,
        jobs,
        registry,
        kind,
        deadline,
        LivePolicy::default(),
        obs,
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

/// What a send was for — decides what happens when its retries exhaust.
enum SendKind {
    /// An executable+input (or replica) ship; `stage` keeps the old
    /// driver's "initial ship" vs "ship" failure wording.
    Ship {
        exe_kb: u64,
        len_kb: u64,
        stage: &'static str,
    },
    /// A liveness probe: failure to deliver means the worker is lost.
    KeepAlive,
    /// Best-effort: an undeliverable cancel only costs the loser's wasted
    /// execution — its late report is dropped by the kernel's stale dedup.
    Cancel,
}

/// One logical send (possibly several frames) moving through the
/// retry/backoff schedule. Attempts and the per-frame deadline reset as
/// each frame lands, mirroring the old per-frame `RetryPolicy::run`
/// calls — except the backoff waits are wheel timers now, not sleeps.
struct SendJob {
    label: String,
    slot: usize,
    frames: VecDeque<Frame>,
    attempt: u32,
    frame_started: Instant,
    kind: SendKind,
}

/// A deadline owned by the event loop's timer wheel.
enum WheelEntry {
    /// A kernel-requested timer: fires back as `CoordEvent::TimerFired`.
    Kernel {
        kind: TimerKind,
        slot: usize,
        token: u64,
    },
    /// A send waiting out its retry backoff.
    Retry(SendJob),
    /// A write queue paused by injected wire delay; resume and keep
    /// flushing.
    Paced { slot: usize },
}

/// Per-connection server state: the non-blocking framed connection, its
/// fault-injection hook, and the bookkeeping the loop needs to manage
/// poller interest.
struct ConnState {
    conn: Conn,
    fault: Option<Box<dyn WireFault>>,
    /// Transport-dead: socket torn down or declared lost; sends fail fast
    /// and readiness events are ignored.
    dead: bool,
    /// Whether the poller registration currently includes write interest.
    write_interest: bool,
    /// Whether a `Paced` wheel entry is armed for this connection.
    pace_armed: bool,
}

impl ConnState {
    fn new(conn: Conn, fault: Option<Box<dyn WireFault>>) -> Self {
        ConnState {
            conn,
            fault,
            dead: false,
            write_interest: false,
            pace_armed: false,
        }
    }
}

/// How a [`queue_frame`] call failed. A typed signal rather than an error
/// string so callers (notably [`setup_send`]) can branch on the injected
/// reset without matching message text.
enum QueueError {
    /// Injected connection reset: a truncated prefix and a close marker
    /// are already queued; the caller should push them onto the wire and
    /// treat the connection as dead.
    InjectedReset,
    /// Any other logical send failure (injected Fail, dead connection).
    Other(CwcError),
}

impl From<QueueError> for CwcError {
    fn from(e: QueueError) -> Self {
        match e {
            QueueError::InjectedReset => CwcError::Transport("injected connection reset".into()),
            QueueError::Other(e) => e,
        }
    }
}

/// Applies the fault hook to one encoded frame and queues the resulting
/// wire ops. An `Err` is a *logical* send failure (injected Fail/Reset or
/// a dead connection) — the caller owns retry/lost-worker handling;
/// socket-level flushing is separate.
fn queue_frame(state: &mut ConnState, frame: &Frame) -> Result<(), QueueError> {
    if state.dead || state.conn.is_closed() {
        return Err(QueueError::Other(CwcError::Transport(
            "connection closed".into(),
        )));
    }
    let mut buf = BytesMut::new();
    frame.encode(&mut buf);
    let Some(fault) = state.fault.as_mut() else {
        // No hook: the encoded buffer itself goes onto the write queue.
        state.conn.queue_bytes(buf.into());
        return Ok(());
    };
    match fault.on_send(&buf) {
        SendVerdict::Deliver(ops) => {
            for op in ops {
                match op {
                    WireOp::Write(bytes) => state.conn.queue_bytes(bytes),
                    WireOp::Sleep(d) => state.conn.queue_pause(d),
                }
            }
            Ok(())
        }
        SendVerdict::Fail(why) => Err(QueueError::Other(CwcError::Transport(format!(
            "injected send failure: {why}"
        )))),
        SendVerdict::ResetAfter(prefix) => {
            state.conn.queue_bytes(prefix);
            state.conn.queue_close();
            Err(QueueError::InjectedReset)
        }
    }
}

/// Drives one frame through [`queue_frame`] and then *blocks* until the
/// queue drains — setup-phase only (registration acks, bandwidth
/// probes), where the old driver blocked too and the event loop is not
/// yet running. Injected pauses are slept through; a full socket buffer
/// is retried briefly.
fn setup_send(state: &mut ConnState, frame: &Frame) -> CwcResult<()> {
    let queued = queue_frame(state, frame);
    if matches!(queued, Err(QueueError::InjectedReset)) {
        // Push the truncated prefix out before reporting the reset.
        // cwc-lint: allow(error_swallowing)
        drain_blocking(state).ok();
        state.dead = true;
    }
    queued?;
    drain_blocking(state)
}

/// Flushes a setup-phase connection to empty, sleeping through injected
/// pauses (the event loop, which would turn them into timers, is not
/// running yet).
fn drain_blocking(state: &mut ConnState) -> CwcResult<()> {
    let gave_up = Instant::now() + Duration::from_secs(10);
    loop {
        match state.conn.flush()? {
            FlushStatus::Clean => return Ok(()),
            FlushStatus::Blocked => {
                if Instant::now() > gave_up {
                    return Err(CwcError::Transport("setup send stalled".into()));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            FlushStatus::Paused(d) => {
                std::thread::sleep(d);
                state.conn.resume();
            }
            FlushStatus::Held => state.conn.resume(),
            FlushStatus::Closed => {
                state.dead = true;
                return Err(CwcError::Transport("connection closed".into()));
            }
        }
    }
}

/// The reactor driver around the kernel: owns the poller, every
/// connection, the timer wheel, and the collected result bytes. One
/// thread; nothing here blocks.
struct LiveDriver<'a> {
    kernel: Kernel,
    catalog: &'a BTreeMap<JobId, LiveJob>,
    ids: Vec<PhoneId>,
    conns: Vec<ConnState>,
    poller: Poller,
    wheel: TimerWheel<WheelEntry>,
    policy: &'a LivePolicy,
    obs: &'a cwc_obs::Obs,
    start: Instant,
    retries: u64,
    partials: BTreeMap<JobId, Vec<(u64, Vec<u8>)>>,
    /// Result bytes of the `TaskComplete` currently being fed; filed
    /// under their offset iff the kernel accepts the report
    /// (`RecordResult`).
    pending_result: Option<Vec<u8>>,
    /// Distinguishes initial-schedule ship failures in failure messages.
    initial_ship: bool,
}

impl LiveDriver<'_> {
    fn now(&self) -> Micros {
        Micros(self.start.elapsed().as_micros() as u64)
    }

    /// Feeds one event to the kernel (recording it for replay) and
    /// executes every command it emits. Send failures feed further
    /// `ConnectionLost` events, so this recurses — bounded by the fleet
    /// size, since each lost worker is only ever lost once.
    fn feed(&mut self, ev: CoordEvent) {
        let now = self.now();
        script::record(self.obs, now, &ev);
        let cmds = self.kernel.step(now, ev);
        for cmd in cmds {
            self.apply(now, cmd);
        }
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
            } => self.ship(
                slot, seq, job, &program, exe_kb, offset_kb, len_kb, resume, trace, false,
            ),
            CoordCommand::ShipReplica {
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
            } => self.ship(
                slot, seq, job, &program, exe_kb, offset_kb, len_kb, resume, trace, true,
            ),
            CoordCommand::CancelTask { slot, job, seq } => {
                let Some(&wid) = self.ids.get(slot) else {
                    return;
                };
                self.run_send_job(SendJob {
                    label: format!("cancel/{wid}"),
                    slot,
                    frames: VecDeque::from(vec![Frame::CancelTask { job, seq }]),
                    attempt: 0,
                    frame_started: Instant::now(),
                    kind: SendKind::Cancel,
                });
            }
            CoordCommand::SendKeepAlive { slot, seq } => {
                let Some(&wid) = self.ids.get(slot) else {
                    return;
                };
                self.run_send_job(SendJob {
                    label: format!("keepalive/{wid}"),
                    slot,
                    frames: VecDeque::from(vec![Frame::KeepAlive { seq }]),
                    attempt: 0,
                    frame_started: Instant::now(),
                    kind: SendKind::KeepAlive,
                });
            }
            CoordCommand::StartTimer {
                kind,
                slot,
                token,
                after,
            } => {
                self.wheel.arm(
                    Micros(now.0.saturating_add(after.0)),
                    WheelEntry::Kernel { kind, slot, token },
                );
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
            // Initial probing is driver-side (the registration phase);
            // completion and fleet loss are read off the kernel state.
            CoordCommand::SendProbe { .. } | CoordCommand::Finished | CoordCommand::Halt => {}
        }
    }

    /// Ships one partition: executable notice first (payload-bearing only
    /// the first time per worker–program pair, as the kernel's `exe_kb`
    /// says), then the input slice — both through the retry schedule.
    /// Shipped volume lands on the per-phone `net.kb_shipped.{phone}`
    /// counter.
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
        let Some(&wid) = self.ids.get(slot) else {
            return;
        };
        let Some(entry) = self.catalog.get(&job) else {
            // Impossible by construction (the kernel's catalog is built
            // from the same batch), but not worth a panic on the live path.
            return;
        };
        let from = (offset_kb as usize * 1024).min(entry.input.len());
        let to = ((offset_kb + len_kb) as usize * 1024).min(entry.input.len());
        let frames = VecDeque::from(vec![
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
                // from <= to <= entry.input.len() by the clamps above, which
                // is exactly what `slice` requires.
                data: entry.input.slice(from..to),
            },
        ]);
        let stage = if self.initial_ship {
            "initial ship"
        } else {
            "ship"
        };
        self.run_send_job(SendJob {
            label: format!("ship/{wid}"),
            slot,
            frames,
            attempt: 0,
            frame_started: Instant::now(),
            kind: SendKind::Ship {
                exe_kb,
                len_kb,
                stage,
            },
        });
    }

    /// Advances a send job: queue frames until the job completes or a
    /// frame fails. A failed frame either re-arms on the wheel after its
    /// backoff (the non-blocking analogue of `RetryPolicy::run`'s sleep)
    /// or, once attempts/deadline are exhausted, resolves per the job's
    /// [`SendKind`].
    fn run_send_job(&mut self, mut job: SendJob) {
        loop {
            let Some(frame) = job.frames.front() else {
                // One flush per job: `ShipExecutable` leaves with its input,
                // not a whole encode ahead of it (one worker wake-up, not two).
                self.flush_conn(job.slot);
                if let SendKind::Ship { exe_kb, len_kb, .. } = job.kind {
                    if let Some(&wid) = self.ids.get(job.slot) {
                        self.obs
                            .metrics
                            .add(&format!("net.kb_shipped.{wid}"), exe_kb + len_kb);
                    }
                }
                return;
            };
            let queued = match self.conns.get_mut(job.slot) {
                Some(state) => queue_frame(state, frame).map_err(CwcError::from),
                None => Err(CwcError::Transport("unknown connection".into())),
            };
            match queued {
                Ok(()) => {
                    job.frames.pop_front();
                    job.attempt = 0;
                    job.frame_started = Instant::now();
                }
                Err(e) => {
                    // A reset injection queued a truncated prefix + close
                    // marker; push them onto the wire before resolving.
                    self.flush_conn(job.slot);
                    job.attempt += 1;
                    if job.attempt >= self.policy.retry.max_attempts.max(1)
                        || job.frame_started.elapsed() >= self.policy.retry.deadline
                    {
                        self.send_job_failed(&job, &e);
                        return;
                    }
                    self.retries += 1;
                    self.obs.metrics.inc("live.retries");
                    self.obs.emit(
                        self.obs
                            .wall_event("live", "send.retry")
                            .severity(cwc_obs::Severity::Warn)
                            .field("target", job.label.clone())
                            .field("attempt", job.attempt)
                            .field(
                                "msg",
                                format!("retrying {} (attempt {}): {e}", job.label, job.attempt),
                            ),
                    );
                    let backoff = self.policy.retry.backoff(&job.label, job.attempt);
                    let at = Micros(self.now().0.saturating_add(backoff.as_micros() as u64));
                    self.wheel.arm(at, WheelEntry::Retry(job));
                    return;
                }
            }
        }
    }

    /// Resolves a send whose retries are exhausted.
    fn send_job_failed(&mut self, job: &SendJob, e: &CwcError) {
        let Some(&wid) = self.ids.get(job.slot) else {
            return;
        };
        match job.kind {
            SendKind::Ship { stage, .. } => self.feed(CoordEvent::ConnectionLost {
                slot: job.slot,
                why: format!("{wid} lost ({stage} failed: {e})"),
            }),
            SendKind::KeepAlive => self.feed(CoordEvent::ConnectionLost {
                slot: job.slot,
                why: format!("{wid} lost (keep-alive send failed: {e})"),
            }),
            SendKind::Cancel => {}
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
            Ok(FlushStatus::Closed) => {
                // A queued close marker (injected reset) completed; the
                // send that queued it already reported the failure.
                if let Some(state) = self.conns.get_mut(slot) {
                    state.dead = true;
                }
                self.drop_registration(slot);
            }
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
        // actionable here. cwc-lint: allow(error_swallowing)
        self.poller.deregister(state.conn.fd()).ok();
    }

    /// Marks a connection transport-dead and tells the kernel. Safe to
    /// hit twice: the kernel tolerates duplicate `ConnectionLost`.
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
        let Some(&wid) = self.ids.get(slot) else {
            return;
        };
        self.feed(CoordEvent::ConnectionLost {
            slot,
            why: format!("{wid} lost ({why})"),
        });
    }

    /// Translates one inbound frame into its kernel event — the same
    /// mapping the blocking driver used.
    fn handle_frame(&mut self, slot: usize, frame: Frame) {
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
                let Some(&wid) = self.ids.get(slot) else {
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
                WheelEntry::Retry(job) => self.run_send_job(job),
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

    fn done(&self) -> bool {
        self.kernel.finished() || self.kernel.fleet_lost()
    }
}

/// Like [`run_live_server`], with explicit robustness knobs.
///
/// Observability: registration and failure events, per-phone
/// `net.kb_shipped.*` counters, `live.keepalive_sent` /
/// `live.keepalive_ack` / `live.migrated` / `live.retries` /
/// `live.stalled` / `live.dup_reports` / `live.quarantined` /
/// `live.protocol_violations` counters, a `span.schedule_us` histogram
/// around the scheduling pass, a `live.loop_iter_us` histogram of
/// event-loop iteration work time (poll wait excluded), a
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
    obs.emit(
        obs.wall_event("live", "run.start")
            .field("workers", expected)
            .field("jobs", jobs.len())
            .field(
                "msg",
                format!("live run: {} jobs over {expected} workers", jobs.len()),
            ),
    );
    let kernel = Kernel::new(live_kernel_config(
        &jobs,
        &registry,
        kind,
        &policy,
        obs.clone(),
    )?)?;
    let catalog: BTreeMap<JobId, LiveJob> = jobs.into_iter().map(|j| (j.spec.id, j)).collect();

    // --- Accept + register the fleet in one phase (non-blocking,
    // burst-drained). Reading each `Register` as soon as its connection
    // is accepted keeps connections quiet under level-triggered polling
    // and keeps the accept path hot — an unread frame would otherwise
    // re-report on every wait and crowd the listener out of the event
    // batch while the TCP backlog overflows behind it.
    listener
        .set_nonblocking(true)
        .map_err(|e| CwcError::Transport(format!("listener: {e}")))?;
    let mut poller = Poller::new()?;
    // Connection tokens are dense slot indices; the listener sits far
    // above any plausible fleet size.
    const LISTENER_TOKEN: u64 = u64::MAX;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    let mut conns: Vec<ConnState> = Vec::with_capacity(expected);
    let mut events: Vec<PollEvent> = Vec::new();
    let mut accepted: Vec<std::net::TcpStream> = Vec::new();
    let mut registered: Vec<Option<PhoneInfo>> = Vec::with_capacity(expected);
    let mut missing = expected;
    while missing > 0 {
        if start.elapsed() > deadline {
            return Err(CwcError::Transport("registration deadline exceeded".into()));
        }
        events.clear();
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                if conns.len() >= expected {
                    continue;
                }
                accept_burst(&listener, expected - conns.len(), &mut accepted)?;
                for stream in accepted.drain(..) {
                    let idx = conns.len();
                    let conn = Conn::from_stream(stream)?;
                    poller.register(conn.fd(), idx as u64, Interest::READ)?;
                    let fault: Option<Box<dyn WireFault>> = policy
                        .chaos
                        .as_ref()
                        .map(|plan| Box::new(plan.script(&format!("server/conn-{idx}"))) as _);
                    conns.push(ConnState::new(conn, fault));
                    registered.push(None);
                }
                if conns.len() >= expected {
                    poller.deregister(listener.as_raw_fd())?;
                }
                continue;
            }
            let idx = ev.token as usize;
            let Some(state) = conns.get_mut(idx) else {
                continue;
            };
            let status = state.conn.fill().map_err(|e| {
                CwcError::Transport(format!("worker {idx} vanished during registration: {e}"))
            })?;
            while let Some(frame) = state.conn.next_frame()? {
                match frame {
                    Frame::Register {
                        phone,
                        clock_mhz,
                        cores,
                        radio,
                        ram_kb,
                    } => {
                        if clock_mhz == 0 || cores == 0 {
                            return Err(CwcError::InvalidPhone {
                                phone,
                                reason: "zero clock or core count in registration".into(),
                            });
                        }
                        let Some(slot) = registered.get_mut(idx) else {
                            return Err(CwcError::Protocol(format!(
                                "registration from unknown connection {idx}"
                            )));
                        };
                        if slot.is_none() {
                            missing -= 1;
                        }
                        *slot = Some(PhoneInfo {
                            id: phone,
                            cpu: cwc_types::CpuSpec::new(clock_mhz, cores),
                            radio,
                            bandwidth: MsPerKb(1.0), // replaced by the probe below
                            ram_kb,
                        });
                        obs.emit(
                            obs.wall_event("live", "worker.registered")
                                .severity(cwc_obs::Severity::Debug)
                                .field("phone", phone.0)
                                .field("clock_mhz", clock_mhz)
                                .field("cores", cores),
                        );
                        setup_send(
                            state,
                            &Frame::RegisterAck {
                                server_time_us: start.elapsed().as_micros() as u64,
                            },
                        )?;
                    }
                    other => {
                        return Err(CwcError::Protocol(format!(
                            "expected Register, got {other:?}"
                        )))
                    }
                }
            }
            if matches!(status, ReadStatus::Eof) {
                return Err(CwcError::Transport(format!(
                    "worker {idx} vanished during registration: connection closed by peer"
                )));
            }
        }
    }
    let mut infos: Vec<PhoneInfo> = registered.into_iter().flatten().collect();
    if infos.len() != expected {
        // Unreachable: the loop above exits only when every slot is Some.
        return Err(CwcError::Transport("registration incomplete".into()));
    }

    // --- Bandwidth measurement (iperf analogue). ---
    let mut retries = 0u64;
    for (i, info) in infos.iter().enumerate() {
        let Some(state) = conns.get_mut(i) else {
            continue;
        };
        let label = format!("probe/{}", info.id);
        policy.retry.run(&label, obs, &mut retries, || {
            setup_send(
                state,
                &Frame::BandwidthProbe {
                    probe_id: i as u32,
                    payload_kb: 256,
                },
            )
        })?;
    }
    let mut reports = 0usize;
    while reports < expected {
        if start.elapsed() > deadline {
            return Err(CwcError::Transport(
                "bandwidth-probe deadline exceeded".into(),
            ));
        }
        events.clear();
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;
        for ev in &events {
            let idx = ev.token as usize;
            let Some(state) = conns.get_mut(idx) else {
                continue;
            };
            let status = state.conn.fill().map_err(|e| {
                CwcError::Transport(format!("worker {idx} vanished during measurement: {e}"))
            })?;
            while let Some(frame) = state.conn.next_frame()? {
                match frame {
                    Frame::BandwidthReport { kb_per_sec, .. } => {
                        let Some(info) = infos.get_mut(idx) else {
                            continue; // unknown connection: nothing to attribute
                        };
                        info.bandwidth = MsPerKb::from_kb_per_sec(kb_per_sec);
                        reports += 1;
                    }
                    other => {
                        return Err(CwcError::Protocol(format!(
                            "expected BandwidthReport, got {other:?}"
                        )))
                    }
                }
            }
            if matches!(status, ReadStatus::Eof) {
                return Err(CwcError::Transport(format!(
                    "worker {idx} vanished during measurement: connection closed by peer"
                )));
            }
        }
    }
    obs.metrics
        .set_gauge("live.setup_ms", start.elapsed().as_secs_f64() * 1e3);

    // --- Hand the measured fleet to the kernel and dispatch. ---
    let mut driver = LiveDriver {
        kernel,
        catalog: &catalog,
        ids: infos.iter().map(|i| i.id).collect(),
        conns,
        poller,
        wheel: TimerWheel::new(),
        policy: &policy,
        obs,
        start,
        retries,
        partials: BTreeMap::new(),
        pending_result: None,
        initial_ship: false,
    };
    for (i, info) in infos.iter().enumerate() {
        driver.feed(CoordEvent::Probe {
            slot: i,
            info: *info,
        });
    }
    driver.initial_ship = true;
    driver.feed(CoordEvent::Start);
    driver.initial_ship = false;
    if let Some(e) = driver.kernel.take_fatal() {
        return Err(e);
    }

    // --- The event loop: one thread, the whole fleet. ---
    while !driver.done() {
        if start.elapsed() > deadline {
            return Err(CwcError::Transport(format!(
                "live run exceeded deadline ({deadline:?})"
            )));
        }
        let timeout = driver.poll_timeout();
        events.clear();
        driver.poller.wait(&mut events, Some(timeout))?;
        let iter_started = Instant::now();
        let fired = driver.fire_due_timers();
        for ev in &events {
            let slot = ev.token as usize;
            if slot >= driver.conns.len() {
                continue;
            }
            if ev.readable || ev.hangup {
                driver.handle_readable(slot);
            }
            if ev.writable {
                driver.flush_conn(slot);
            }
            if driver.done() {
                break;
            }
        }
        if fired > 0 || !events.is_empty() {
            driver.obs.metrics.observe(
                "live.loop_iter_us",
                iter_started.elapsed().as_micros() as f64,
            );
        }
    }
    let failure = driver.kernel.take_fleet_loss().map(|fl| FailureSummary {
        workers_lost: fl.workers_lost,
        quarantined: fl.quarantined,
        unprocessed_kb: fl.unprocessed_kb,
        detail: fl.detail,
    });

    // --- Aggregate. ---
    let mut results = BTreeMap::new();
    for (&id, job) in &catalog {
        let mut pieces = driver.partials.remove(&id).unwrap_or_default();
        pieces.sort_by_key(|(off, _)| *off);
        let ordered: Vec<Vec<u8>> = pieces.into_iter().map(|(_, r)| r).collect();
        let program = registry.load(&job.spec.program)?;
        match program.aggregate(&ordered) {
            Ok(r) => {
                results.insert(id, r);
            }
            Err(e) if failure.is_some() => {
                // Degraded run: a job whose pieces cannot aggregate (e.g.
                // an atomic job with nothing completed) is simply absent
                // from the partial results.
                obs.emit(
                    obs.wall_event("live", "aggregate.partial")
                        .severity(cwc_obs::Severity::Warn)
                        .field("job", id.0)
                        .field("msg", format!("{id}: partial aggregation failed: {e}")),
                );
            }
            Err(e) => return Err(e),
        }
    }

    // Dead workers' threads may still be parked on recv; a Shutdown on a
    // torn connection is a no-op, on a live one it lets the thread exit.
    for state in &mut driver.conns {
        if state.dead {
            continue;
        }
        // Best-effort farewell. cwc-lint: allow(error_swallowing)
        queue_frame(state, &Frame::Shutdown).ok();
        // cwc-lint: allow(error_swallowing)
        drain_blocking(state).ok();
    }

    let wall = start.elapsed();
    let lost = driver.kernel.workers_lost();
    let migrated = driver.kernel.migrated();
    obs.metrics
        .set_gauge("live.makespan_ms", wall.as_secs_f64() * 1e3);
    obs.metrics.set_gauge("live.workers_lost", lost as f64);
    obs.emit(
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
            ),
    );

    Ok(LiveOutcome {
        results,
        wall,
        migrated,
        keepalives_acked: driver.kernel.keepalives_acked(),
        retries: driver.retries,
        quarantined: driver.kernel.quarantined(),
        failure,
    })
}

#[cfg(test)]
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

    /// A hand-driven worker on a blocking [`FramedTcp`]: registers, answers
    /// the probe and keep-alives, and replies to every `ShipInput` with the
    /// byte length it was shipped (`primecount` aggregates partials by
    /// summing, so a job's result must equal its input length). It dawdles
    /// `after_exe` after each `ShipExecutable` — a slow link, as the server
    /// sees it — and sends through `fault` if given.
    fn spawn_raw_worker(
        addr: SocketAddr,
        after_exe: Duration,
        fault: Option<Box<dyn WireFault>>,
    ) -> thread::JoinHandle<CwcResult<()>> {
        thread::spawn(move || {
            let mut conn = FramedTcp::connect(addr)?;
            conn.send(&Frame::Register {
                phone: PhoneId(0),
                clock_mhz: 1200,
                cores: 2,
                radio: RadioTech::Wifi80211g,
                ram_kb: 1 << 20,
            })?;
            conn.set_fault(fault);
            loop {
                match conn.recv()? {
                    Frame::BandwidthProbe { probe_id, .. } => {
                        conn.send(&Frame::BandwidthReport {
                            probe_id,
                            kb_per_sec: 600.0,
                        })?
                    }
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
        })
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
            let is_report = encoded.get(cwc_net::FRAME_HEADER_LEN) == Some(&7);
            if !is_report || std::mem::replace(&mut corrupted, true) {
                return SendVerdict::clean(encoded);
            }
            let mut bad = encoded.to_vec();
            *bad.last_mut().unwrap() ^= 0x40;
            SendVerdict::Deliver(vec![WireOp::Write(bad), WireOp::Write(encoded.to_vec())])
        };
        let worker = spawn_raw_worker(addr, Duration::ZERO, Some(Box::new(fault)));
        let input = vec![b'7'; 10 * 1024];
        let jobs = vec![LiveJob::new(
            JobId(0),
            JobKind::Breakable,
            "primecount",
            30,
            input.clone(),
        )];
        let obs = cwc_obs::Obs::new();
        let out = run_live_server_observed(
            listener,
            1,
            jobs,
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(60),
            &obs,
        )
        .unwrap();
        assert!(out.failure.is_none(), "degraded: {:?}", out.failure);
        assert_eq!(
            out.results[&JobId(0)],
            (input.len() as u64).to_be_bytes().to_vec()
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
