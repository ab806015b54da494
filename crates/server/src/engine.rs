//! The simulated central server: a thin discrete-event driver around the
//! sans-IO coordinator kernel ([`crate::coord`]).
//!
//! One `Engine::run` models an evaluation run end to end:
//!
//! 1. **Measure** — every phone runs the iperf-style bandwidth probe; the
//!    results become the `b_i` of this round.
//! 2. **Schedule** — the chosen algorithm (greedy / equal-split /
//!    round-robin) places all jobs.
//! 3. **Ship & execute** — per phone, strictly one partition at a time:
//!    copy executable (first time per phone–job pair) + input, then
//!    execute, then report; the report's measured runtime feeds the
//!    predictor (§4.1's online update).
//! 4. **Fail & migrate** — injected unplug events interrupt work. Online
//!    failures report progress + checkpoint immediately; offline failures
//!    surface only after 3 missed 30-second keep-alives, losing the
//!    partition's partial state. Residuals wait for the next scheduling
//!    instant and are packed over the still-available phones (§5).
//!    Rescheduling instants under the solver policy warm-start the
//!    greedy capacity search from the previous instant's converged
//!    window ([`cwc_core::WarmStart`], DESIGN.md §10), cutting packing
//!    work without changing any schedule the cold search would accept.
//!
//! All of that *logic* lives in the kernel; this module only owns what a
//! driver must — the phone physics (transfer/execute durations, link and
//! efficiency randomness), the discrete-event queue that delivers kernel
//! timers, and the [`Segment`] timeline the Fig. 12 plots are drawn from.
//! Everything observable is emitted as structured events and metrics on
//! [`EngineConfig::obs`].

// Deterministic (DESIGN.md §8): simulated time only, no wall clock.
#![deny(clippy::disallowed_types)]

use crate::coord::{
    CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy, TimerKind,
    RESIDUAL_BASE,
};
use crate::testbed::FleetBuilder;
use cwc_core::SchedulerKind;
use cwc_device::Phone;
use cwc_sim::Simulation;
use cwc_types::{CwcError, CwcResult, JobId, JobSpec, KiloBytes, Micros, MsPerKb, PhoneId};
use std::collections::BTreeMap;

/// Delay from failure detection to the next scheduling instant — the §5
/// grace period that lets briefly-unplugged phones return. Keep-alive
/// timing is the prototype's ([`cwc_net::KEEPALIVE_PERIOD`] ×
/// [`cwc_net::KEEPALIVE_TOLERATED_MISSES`]).
const RESCHEDULE_GRACE: Micros = Micros::from_secs(60);

/// Engine knobs. Defaults follow the prototype (§6).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Scheduling algorithm under test.
    pub scheduler: SchedulerKind,
    /// Profiled baseline costs: program → `T_s` ms/KB on the 806 MHz
    /// phone.
    pub baselines: BTreeMap<String, f64>,
    /// Optional failure-prediction profile (the §3.1 extension): per
    /// phone (by fleet index), the probability of unplugging during the
    /// run, and how aggressively to price it (0 = ignore, 1 = full
    /// expected-rework inflation). Applied at every scheduling instant.
    pub reliability: Option<(Vec<f64>, f64)>,
    /// Per-job service classes (DESIGN.md §12): `Deadline` jobs are
    /// admitted/shipped ahead of best-effort work at every scheduling
    /// instant, and their completion is scored against the deadline.
    pub slo: BTreeMap<JobId, cwc_types::SloClass>,
    /// Risk-driven replication of atomic placements (DESIGN.md §12):
    /// requires `reliability` to supply the per-phone unplug predictions.
    pub replication: Option<cwc_core::ReplicationPolicy>,
    /// Speculative re-execution of stragglers (DESIGN.md §12).
    pub speculation: Option<cwc_core::SpeculationPolicy>,
    /// Hard stop (safety net against unfinishable runs).
    pub horizon: Micros,
    /// Observability: the run emits structured events and metrics through
    /// this handle. The default bundle has no sinks attached, so emission
    /// is a near-free no-op; attach a sink (e.g. [`cwc_obs::MemorySink`],
    /// [`cwc_obs::JsonlSink`]) to capture the run's story — scheduling
    /// rounds, failures, migrations, completions.
    pub obs: cwc_obs::Obs,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheduler: SchedulerKind::Greedy,
            baselines: paper_baselines(),
            reliability: None,
            slo: BTreeMap::new(),
            replication: None,
            speculation: None,
            horizon: Micros::from_hours(12),
            obs: cwc_obs::Obs::new(),
        }
    }
}

/// Profiled `T_s` values for the evaluation programs, calibrated to the
/// prototype's Dalvik-era execution speeds (the paper's 150-task run
/// takes ≈1100 s on 18 phones; interpreted Java on 2012 handsets is an
/// order of magnitude slower than native code).
pub fn paper_baselines() -> BTreeMap<String, f64> {
    [
        ("primecount", 180.0),
        ("wordcount", 80.0),
        ("photoblur", 120.0),
        ("largestint", 25.0),
        ("logscan", 50.0),
        ("render", 400.0),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// An injected plug-state failure.
#[derive(Debug, Clone, Copy)]
pub struct FailureInjection {
    /// When the phone is unplugged.
    pub at: Micros,
    /// Which phone.
    pub phone: PhoneId,
    /// `true`: connectivity is lost too (offline failure — detected by
    /// keep-alive timeout, partial state lost). `false`: the phone
    /// reports the failure and its migration state (online failure).
    pub offline: bool,
    /// If set, the phone is plugged back in at this time.
    pub replug_at: Option<Micros>,
}

/// What a phone was doing during a recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Receiving executable and/or input from the server (Fig. 12a's
    /// black stripes).
    Transfer,
    /// Executing locally (the white stretches).
    Execute,
}

/// One interval of phone activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The phone.
    pub phone: PhoneId,
    /// The *original* job this work belongs to.
    pub job: JobId,
    /// Transfer or execute.
    pub kind: SegmentKind,
    /// Interval start.
    pub start: Micros,
    /// Interval end.
    pub end: Micros,
    /// Whether this work item was a post-failure reassignment
    /// (Fig. 12c's shaded executions).
    pub rescheduled: bool,
}

/// Result of an engine run.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Time the last job completed (the measured makespan).
    pub makespan: Micros,
    /// The scheduler's predicted makespan for the initial schedule, ms.
    pub predicted_makespan_ms: f64,
    /// Per-phone completion time of their initially assigned queues.
    pub phone_completion: Vec<Micros>,
    /// All recorded activity intervals.
    pub segments: Vec<Segment>,
    /// Pieces each original job was executed in (splits + reassignments).
    pub partitions_per_job: BTreeMap<JobId, usize>,
    /// Jobs fully processed.
    pub completed_jobs: usize,
    /// Total jobs submitted.
    pub total_jobs: usize,
    /// Number of work items that went through failure rescheduling.
    pub rescheduled_items: usize,
    /// Per-job completion times, keyed by job id. The sharded driver
    /// ([`crate::shard`]) merges these across kernels; `makespan` is
    /// their maximum.
    pub completed_at: BTreeMap<JobId, Micros>,
    /// The kernel's graceful-degradation summary when the whole fleet
    /// died with work outstanding (`None` on any run with a survivor).
    /// Feeds the cross-shard residual-stealing protocol.
    pub fleet_loss: Option<crate::coord::FleetLoss>,
    /// Phones still marked dead when the run ended (a replugged phone is
    /// alive again and not counted). Under the solver reschedule policy
    /// a fully-dead fleet parks its residuals waiting for a replug that
    /// may never come, so `fleet_loss` alone understates shard death —
    /// the sharded driver reads this to classify steal-round survivors.
    pub workers_lost: usize,
    /// Of the phones ever lost, how many the circuit breaker quarantined.
    pub quarantined_workers: usize,
}

impl EngineOutcome {
    /// Fig. 12b's series: per-job split counts (pieces − 1), ascending.
    pub fn split_counts_sorted(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .partitions_per_job
            .values()
            .map(|&n| n.saturating_sub(1))
            .collect();
        v.sort_unstable();
        v
    }

    /// Completion time of the last *non-rescheduled* work item — the
    /// "original makespan" against which Fig. 12c's +113 s is measured.
    pub fn original_work_makespan(&self) -> Micros {
        self.segments
            .iter()
            .filter(|s| !s.rescheduled)
            .map(|s| s.end)
            .max()
            .unwrap_or(Micros::ZERO)
    }
}

/// What a phone is doing right now, from the driver's point of view.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Transferring,
    Executing { total: Micros },
}

/// The driver-side mirror of one in-flight `ShipInput`: just enough to
/// model the physics (durations) and draw the timeline. The authoritative
/// task state lives in the kernel.
#[derive(Debug)]
struct Flight {
    seq: u64,
    job: JobId,
    kb: KiloBytes,
    /// Input + executable actually on the wire (for the transfer metric).
    shipped_kb: KiloBytes,
    rescheduled: bool,
    started: Micros,
    phase: Phase,
    /// Causal context from the kernel's `ShipInput`; stamped onto the
    /// transfer/execute segment events so sim lifecycles form span trees.
    trace: cwc_obs::TraceCtx,
}

struct Rt {
    phone: Phone,
    flight: Option<Flight>,
    /// `net.kb_transferred.{id}`, resolved at this phone's first
    /// transfer: a phone that never receives anything publishes no name.
    kb_transferred: Option<cwc_obs::Counter>,
}

#[derive(Debug)]
enum Ev {
    TransferDone {
        slot: usize,
        seq: u64,
    },
    ExecDone {
        slot: usize,
        seq: u64,
    },
    Inject {
        idx: usize,
    },
    Replug {
        slot: usize,
    },
    Timer {
        kind: TimerKind,
        slot: usize,
        token: u64,
    },
}

/// The simulated central server.
pub struct Engine {
    config: EngineConfig,
    fleet: Vec<Phone>,
    jobs: Vec<JobSpec>,
    injections: Vec<FailureInjection>,
}

impl Engine {
    /// Creates an engine over a fleet and a job batch.
    pub fn new(
        fleet: Vec<Phone>,
        jobs: Vec<JobSpec>,
        injections: Vec<FailureInjection>,
        config: EngineConfig,
    ) -> CwcResult<Self> {
        if fleet.is_empty() {
            return Err(CwcError::Config("empty fleet".into()));
        }
        for job in &jobs {
            if !config.baselines.contains_key(&job.program) {
                return Err(CwcError::Config(format!(
                    "no profiled baseline for {:?}",
                    job.program
                )));
            }
        }
        Ok(Engine {
            config,
            fleet,
            jobs,
            injections,
        })
    }

    /// Runs the experiment to completion (or the horizon) and reports.
    pub fn run(self) -> CwcResult<EngineOutcome> {
        self.run_inner(false)
    }

    /// Ablation entry point: schedules as if every phone had the fleet's
    /// *mean* bandwidth (a Condor-style CPU-only scheduler) while the
    /// execution still pays the real per-phone link costs — quantifying
    /// what bandwidth-awareness buys (§3.1's argument).
    pub fn run_bandwidth_blind(self) -> CwcResult<EngineOutcome> {
        self.run_inner(true)
    }

    fn run_inner(self, bandwidth_blind: bool) -> CwcResult<EngineOutcome> {
        let mut sim: Simulation<Ev> = Simulation::new();

        self.config.obs.emit_with(|| {
            cwc_obs::Event::sim(0, "engine", "run.start")
                .field("phones", self.fleet.len())
                .field("jobs", self.jobs.len())
                .field("scheduler", self.config.scheduler.label())
        });

        let total_jobs = self.jobs.iter().filter(|j| j.id.0 < RESIDUAL_BASE).count();
        let kernel = Kernel::new(KernelConfig {
            scheduler: self.config.scheduler,
            jobs: self.jobs,
            baselines: self.config.baselines.clone(),
            keepalive_period: cwc_net::KEEPALIVE_PERIOD,
            tolerated_misses: cwc_net::KEEPALIVE_TOLERATED_MISSES,
            reschedule: ReschedulePolicy::Solver {
                delay: RESCHEDULE_GRACE,
            },
            stall_timeout: None,
            breaker: None,
            reliability: self.config.reliability.clone(),
            slo: self.config.slo.clone(),
            replication: self.config.replication,
            speculation: self.config.speculation,
            bandwidth_blind,
            style: DriverStyle::Sim,
            obs: self.config.obs.clone(),
        })?;
        // `Engine::new` checked that every program is profiled; each is
        // looked up once.
        let mut resolved: Vec<(&str, f64)> = Vec::new();
        let mut baseline_by_row = Vec::with_capacity(kernel.specs().len());
        for spec in kernel.specs() {
            let baseline = match resolved.iter().find(|(p, _)| *p == spec.program) {
                Some(&(_, baseline)) => baseline,
                None => {
                    let baseline = self.config.baselines[&spec.program];
                    resolved.push((&spec.program, baseline));
                    baseline
                }
            };
            baseline_by_row.push(baseline);
        }
        let mut driver = SimDriver {
            rts: self
                .fleet
                .into_iter()
                .map(|phone| Rt {
                    phone,
                    flight: None,
                    kb_transferred: None,
                })
                .collect(),
            kernel,
            baseline_by_row,
            injections: self.injections,
            segments: Vec::new(),
            transfer_ms: None,
            cmds: Vec::new(),
            obs: self.config.obs.clone(),
        };

        // 1. Bandwidth measurement: only phones on a charger participate
        // in the initial round (an overnight fleet may have late
        // arrivals, which join at later scheduling instants). The Start
        // event triggers the initial schedule and the first shipments.
        for i in 0..driver.rts.len() {
            if driver.rts[i].phone.plug_state().can_compute() {
                let info = driver.rts[i].phone.info(Micros::ZERO);
                driver.feed(&mut sim, CoordEvent::Probe { slot: i, info });
            }
        }
        driver.feed(&mut sim, CoordEvent::Start);
        if let Some(e) = driver.kernel.take_fatal() {
            return Err(e);
        }

        // 2. Failure injections.
        for idx in 0..driver.injections.len() {
            let inj = driver.injections[idx];
            sim.schedule_at(inj.at, Ev::Inject { idx });
            if let Some(replug) = inj.replug_at {
                let slot = driver.phone_index(inj.phone)?;
                sim.schedule_at(replug, Ev::Replug { slot });
            }
        }

        // 3. Main loop.
        let horizon = self.config.horizon;
        sim.run_until(horizon, |sim, ev| driver.handle(sim, ev));

        // 4. Report.
        let completed_at = driver.kernel.completed_at();
        let completed_jobs = completed_at.len();
        let makespan = completed_at.values().copied().max().unwrap_or(Micros::ZERO);
        let obs = &self.config.obs;
        obs.emit_with(|| {
            cwc_obs::Event::sim(sim.now().0, "engine", "run.complete")
                .field("completed_jobs", completed_jobs)
                .field("makespan_ms", makespan.as_ms_f64())
                .field("reschedule_rounds", driver.kernel.reschedule_rounds())
        });
        obs.metrics
            .set_gauge("engine.makespan_ms", makespan.as_ms_f64());
        obs.metrics
            .set_gauge("engine.completed_jobs", completed_jobs as f64);
        Ok(EngineOutcome {
            makespan,
            predicted_makespan_ms: driver.kernel.predicted_makespan_ms(),
            phone_completion: (0..driver.rts.len())
                .map(|i| driver.kernel.last_completion(i))
                .collect(),
            segments: driver.segments,
            partitions_per_job: driver.kernel.partitions_per_job(),
            completed_jobs,
            total_jobs,
            rescheduled_items: driver.kernel.rescheduled_items(),
            completed_at,
            workers_lost: driver.kernel.workers_lost(),
            quarantined_workers: driver.kernel.quarantined(),
            fleet_loss: driver.kernel.take_fleet_loss(),
        })
    }

    /// Convenience: build the paper's default 18-phone fleet and run the
    /// given jobs with this config.
    pub fn run_on_testbed(
        seed: u64,
        jobs: Vec<JobSpec>,
        injections: Vec<FailureInjection>,
        config: EngineConfig,
    ) -> CwcResult<EngineOutcome> {
        let fleet = FleetBuilder::new(seed).build();
        Engine::new(fleet, jobs, injections, config)?.run()
    }
}

/// The discrete-event driver: phone physics + timeline recording. The
/// control loop itself lives in [`Kernel`].
struct SimDriver {
    rts: Vec<Rt>,
    kernel: Kernel,
    /// Profiled `T_s` per job, indexed like the kernel's rows.
    baseline_by_row: Vec<f64>,
    injections: Vec<FailureInjection>,
    segments: Vec<Segment>,
    /// `span.transfer_ms`, resolved at the run's first transfer.
    transfer_ms: Option<std::sync::Arc<cwc_obs::Histogram>>,
    /// The command buffer every step appends to; empty between feeds.
    cmds: Vec<CoordCommand>,
    obs: cwc_obs::Obs,
}

impl SimDriver {
    fn phone_index(&self, id: PhoneId) -> CwcResult<usize> {
        self.rts
            .iter()
            .position(|rt| rt.phone.id() == id)
            .ok_or(CwcError::UnknownPhone(id))
    }

    /// Feeds one event to the kernel and executes every command it emits
    /// (probes synchronously, which may cascade into further commands).
    /// Commands run in emission order: a probe reply's commands are
    /// appended behind the cursor, after everything already emitted.
    fn feed(&mut self, sim: &mut Simulation<Ev>, ev: CoordEvent) {
        let now = sim.now();
        let mut cmds = std::mem::take(&mut self.cmds);
        self.kernel.step_into(now, ev, &mut cmds);
        let mut next = 0;
        while let Some(cmd) = cmds.get(next) {
            next += 1;
            match *cmd {
                CoordCommand::SendProbe { slot } => {
                    // The round's fresh b_i measurement, on the spot.
                    let info = self.rts[slot].phone.info(now);
                    let ev = CoordEvent::Probe { slot, info };
                    self.kernel.step_into(now, ev, &mut cmds);
                }
                // A replica transfers exactly like a primary: the flag
                // only matters to the kernel's bookkeeping, not to the
                // phone physics.
                CoordCommand::ShipInput {
                    slot,
                    seq,
                    job,
                    program: _,
                    exe_kb,
                    offset_kb: _,
                    len_kb,
                    resume: _,
                    rescheduled,
                    trace,
                    replica: _,
                } => {
                    let rt = &mut self.rts[slot];
                    let shipped_kb = KiloBytes(exe_kb + len_kb);
                    let xfer = rt.phone.transfer_time(now, shipped_kb);
                    rt.flight = Some(Flight {
                        seq,
                        job,
                        kb: KiloBytes(len_kb),
                        shipped_kb,
                        rescheduled,
                        started: now,
                        phase: Phase::Transferring,
                        trace,
                    });
                    sim.schedule_after(xfer, Ev::TransferDone { slot, seq });
                }
                // First-result-wins dedup: the other copy already
                // reported, so this slot's in-flight work is dropped on
                // the floor (its TransferDone/ExecDone become stale).
                CoordCommand::CancelTask { slot, job: _, seq } => {
                    let rt = &mut self.rts[slot];
                    if rt.flight.as_ref().is_some_and(|f| f.seq == seq) {
                        rt.flight = None;
                    }
                }
                CoordCommand::StartTimer {
                    kind,
                    slot,
                    token,
                    after,
                } => {
                    sim.schedule_after(after, Ev::Timer { kind, slot, token });
                }
                // The timing model carries no payloads, and the sim needs
                // no sockets poked: these are live-driver concerns.
                CoordCommand::RecordResult { .. }
                | CoordCommand::SendKeepAlive { .. }
                | CoordCommand::Finished
                | CoordCommand::Halt => {}
            }
        }
        cmds.clear();
        self.cmds = cmds;
    }

    fn handle(&mut self, sim: &mut Simulation<Ev>, ev: Ev) {
        match ev {
            Ev::TransferDone { slot, seq } => self.on_transfer_done(sim, slot, seq),
            Ev::ExecDone { slot, seq } => self.on_exec_done(sim, slot, seq),
            Ev::Inject { idx } => self.on_inject(sim, idx),
            Ev::Replug { slot } => {
                self.rts[slot]
                    .phone
                    .set_plug_state(cwc_device::PlugState::Plugged);
                self.feed(sim, CoordEvent::Replugged { slot });
            }
            Ev::Timer { kind, slot, token } => {
                self.feed(sim, CoordEvent::TimerFired { kind, slot, token });
            }
        }
    }

    fn on_transfer_done(&mut self, sim: &mut Simulation<Ev>, slot: usize, seq: u64) {
        let now = sim.now();
        let rt = &mut self.rts[slot];
        let Some(flight) = rt.flight.as_mut() else {
            return; // stale: the work was interrupted
        };
        if flight.seq != seq {
            return;
        }
        debug_assert_eq!(flight.phase, Phase::Transferring);
        self.segments.push(Segment {
            phone: rt.phone.id(),
            job: flight.job,
            kind: SegmentKind::Transfer,
            start: flight.started,
            end: now,
            rescheduled: flight.rescheduled,
        });
        let metrics = &self.obs.metrics;
        self.transfer_ms
            .get_or_insert_with(|| metrics.histogram("span.transfer_ms"))
            .record(now.saturating_sub(flight.started).as_ms_f64());
        let id = rt.phone.id();
        rt.kb_transferred
            .get_or_insert_with(|| metrics.counter(&format!("net.kb_transferred.{id}")))
            .add(flight.shipped_kb.0);
        self.obs.emit_with(|| {
            flight
                .trace
                .stamp(cwc_obs::Event::sim(now.0, "engine", "segment.transfer"))
                .severity(cwc_obs::Severity::Debug)
                .field("phone", rt.phone.id().to_string())
                .field("job", flight.job.to_string())
                .field("start_us", flight.started.0)
                .field("kb", flight.shipped_kb.0)
                .field("rescheduled", flight.rescheduled)
        });
        // Ground-truth execution time, including this phone's efficiency
        // residual (what the scheduler cannot see).
        let row = self
            .kernel
            .row_of(flight.job)
            .expect("shipped jobs are catalogued");
        let total = rt
            .phone
            .exec_time(MsPerKb(self.baseline_by_row[row]), flight.kb);
        flight.phase = Phase::Executing { total };
        flight.started = now;
        sim.schedule_after(total, Ev::ExecDone { slot, seq });
    }

    fn on_exec_done(&mut self, sim: &mut Simulation<Ev>, slot: usize, seq: u64) {
        let now = sim.now();
        let rt = &mut self.rts[slot];
        if rt.flight.as_ref().is_none_or(|f| f.seq != seq) {
            return;
        }
        let Some(flight) = rt.flight.take() else {
            return;
        };
        let Phase::Executing { total } = flight.phase else {
            return;
        };
        self.segments.push(Segment {
            phone: rt.phone.id(),
            job: flight.job,
            kind: SegmentKind::Execute,
            start: flight.started,
            end: now,
            rescheduled: flight.rescheduled,
        });
        self.obs.emit_with(|| {
            flight
                .trace
                .stamp(cwc_obs::Event::sim(now.0, "engine", "segment.execute"))
                .severity(cwc_obs::Severity::Debug)
                .field("phone", rt.phone.id().to_string())
                .field("job", flight.job.to_string())
                .field("start_us", flight.started.0)
                .field("kb", flight.kb.0)
                .field("rescheduled", flight.rescheduled)
        });
        // The phone's report carries its measured runtime, which the
        // kernel's runtime predictor learns from (§4.1), and a fresh
        // bandwidth reading, which lands in the slot's info: the
        // `Speculate` timer and the kernel digest read it, and every
        // re-solve probes again.
        let info = rt.phone.info(now);
        self.feed(sim, CoordEvent::Probe { slot, info });
        self.feed(
            sim,
            CoordEvent::ReportOk {
                slot,
                seq,
                job: flight.job,
                exec_ms: total.as_ms_f64(),
            },
        );
    }

    fn on_inject(&mut self, sim: &mut Simulation<Ev>, idx: usize) {
        let now = sim.now();
        let inj = self.injections[idx];
        let Ok(slot) = self.phone_index(inj.phone) else {
            return;
        };
        let rt = &mut self.rts[slot];
        if !rt.phone.plug_state().can_compute() {
            return; // already failed
        }
        rt.phone.set_plug_state(cwc_device::PlugState::Unplugged);
        self.obs.metrics.inc("engine.failures_injected");
        self.obs.emit_with(|| {
            cwc_obs::Event::sim(now.0, "failure", "phone.unplugged")
                .severity(cwc_obs::Severity::Warn)
                .field("phone", inj.phone.to_string())
                .field("offline", inj.offline)
                .field(
                    "msg",
                    format!(
                        "{} unplugged ({})",
                        inj.phone,
                        if inj.offline { "offline" } else { "online" }
                    ),
                )
        });
        let flight = rt.flight.take();
        if inj.offline {
            // Silent unplug: no report reaches the server; the kernel
            // parks the work until the keep-alive timeout fires.
            self.feed(sim, CoordEvent::WentDark { slot });
            return;
        }
        match flight {
            // Online executing failure: the phone reports its watermark
            // and checkpoint before going away.
            Some(f) => {
                if let Phase::Executing { total } = f.phase {
                    let elapsed = now.saturating_sub(f.started);
                    let kb = ((elapsed.0 as u128 * f.kb.0 as u128) / total.0.max(1) as u128) as u64;
                    let kb = kb.min(f.kb.0.saturating_sub(1));
                    // Record the partial execution for the timeline.
                    self.segments.push(Segment {
                        phone: self.rts[slot].phone.id(),
                        job: f.job,
                        kind: SegmentKind::Execute,
                        start: f.started,
                        end: now,
                        rescheduled: f.rescheduled,
                    });
                    self.feed(
                        sim,
                        CoordEvent::ReportFailed {
                            slot,
                            seq: f.seq,
                            job: f.job,
                            processed_kb: kb,
                            checkpoint: Some(vec![]),
                        },
                    );
                } else {
                    // Interrupted mid-transfer: nothing processed, the
                    // partition restarts from scratch elsewhere.
                    self.feed(
                        sim,
                        CoordEvent::ReportFailed {
                            slot,
                            seq: f.seq,
                            job: f.job,
                            processed_kb: 0,
                            checkpoint: None,
                        },
                    );
                }
            }
            // Idle phone: only its queue fails with it.
            None => self.feed(
                sim,
                CoordEvent::ConnectionLost {
                    slot,
                    why: String::new(),
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{paper_workload, WorkloadBuilder};

    fn small_jobs(n: usize) -> Vec<JobSpec> {
        WorkloadBuilder::new(1)
            .breakable(n, "primecount", 30, 100, 400)
            .build()
    }

    #[test]
    fn completes_all_jobs_without_failures() {
        let out =
            Engine::run_on_testbed(1, small_jobs(10), vec![], EngineConfig::default()).unwrap();
        assert_eq!(out.completed_jobs, 10);
        assert!(out.makespan > Micros::ZERO);
        assert!(!out.segments.is_empty());
        assert_eq!(out.rescheduled_items, 0);
    }

    #[test]
    fn segments_are_well_formed() {
        let out =
            Engine::run_on_testbed(2, small_jobs(8), vec![], EngineConfig::default()).unwrap();
        for s in &out.segments {
            assert!(s.end >= s.start, "segment ends before it starts");
        }
        // Per phone: non-overlapping, ordered activity.
        for i in 0..18u32 {
            let mut last_end = Micros::ZERO;
            for s in out.segments.iter().filter(|s| s.phone == PhoneId(i)) {
                assert!(s.start >= last_end, "overlapping segments on phone {i}");
                last_end = s.end;
            }
        }
    }

    #[test]
    fn prediction_is_in_the_ballpark_of_reality() {
        // Fig. 12a: predicted 1120 s vs actual 1100 s (≈2%). Allow a
        // wider band: the efficiency outliers make phones finish early.
        let out =
            Engine::run_on_testbed(3, paper_workload(3), vec![], EngineConfig::default()).unwrap();
        let predicted = out.predicted_makespan_ms / 1_000.0;
        let actual = out.makespan.as_secs_f64();
        assert!(out.completed_jobs == 150);
        let ratio = predicted / actual;
        assert!(
            (0.8..1.35).contains(&ratio),
            "predicted {predicted:.0}s vs actual {actual:.0}s (ratio {ratio:.2})"
        );
    }

    #[test]
    fn online_failure_is_rescheduled_and_everything_completes() {
        // Enough work that every phone holds a queue, failed early enough
        // that the victims are mid-flight.
        let jobs = WorkloadBuilder::new(1)
            .breakable(40, "primecount", 30, 300, 900)
            .build();
        let injections = vec![
            FailureInjection {
                at: Micros::from_secs(5),
                phone: PhoneId(0),
                offline: false,
                replug_at: None,
            },
            FailureInjection {
                at: Micros::from_secs(8),
                phone: PhoneId(7),
                offline: false,
                replug_at: None,
            },
        ];
        let out = Engine::run_on_testbed(4, jobs, injections, EngineConfig::default()).unwrap();
        assert_eq!(
            out.completed_jobs, 40,
            "all jobs must finish despite the failures"
        );
        // The failed phones' residuals ran somewhere.
        assert!(out.segments.iter().any(|s| s.rescheduled));
        assert!(out.rescheduled_items > 0);
    }

    #[test]
    fn offline_failure_detected_after_keepalive_timeout() {
        let jobs = small_jobs(12);
        let injections = vec![FailureInjection {
            at: Micros::from_secs(30),
            phone: PhoneId(1),
            offline: true,
            replug_at: None,
        }];
        let detect_after =
            Micros(cwc_net::KEEPALIVE_PERIOD.0 * u64::from(cwc_net::KEEPALIVE_TOLERATED_MISSES));
        let out = Engine::run_on_testbed(5, jobs, injections, EngineConfig::default()).unwrap();
        assert_eq!(out.completed_jobs, 12);
        // No rescheduled work can *start* before the offline detection +
        // grace delay (30 s + 90 s + 60 s = 180 s).
        let earliest = out
            .segments
            .iter()
            .filter(|s| s.rescheduled)
            .map(|s| s.start)
            .min();
        if let Some(earliest) = earliest {
            assert!(
                earliest >= Micros::from_secs(30) + detect_after + RESCHEDULE_GRACE,
                "rescheduled work started at {earliest} before detection + grace"
            );
        }
    }

    #[test]
    fn failed_phone_executes_nothing_after_unplug() {
        let jobs = WorkloadBuilder::new(2)
            .breakable(40, "primecount", 30, 300, 900)
            .build();
        let fail_at = Micros::from_secs(20);
        let injections = vec![FailureInjection {
            at: fail_at,
            phone: PhoneId(2),
            offline: false,
            replug_at: None,
        }];
        let out = Engine::run_on_testbed(6, jobs, injections, EngineConfig::default()).unwrap();
        for s in out.segments.iter().filter(|s| s.phone == PhoneId(2)) {
            assert!(
                s.end <= fail_at || s.start < fail_at,
                "phone-2 activity after unplug: {s:?}"
            );
        }
        assert_eq!(out.completed_jobs, 40);
    }

    #[test]
    fn replug_allows_failed_phone_to_work_again() {
        let jobs = small_jobs(30);
        let injections = vec![FailureInjection {
            at: Micros::from_secs(10),
            phone: PhoneId(0),
            offline: false,
            replug_at: Some(Micros::from_secs(40)),
        }];
        let out = Engine::run_on_testbed(7, jobs, injections, EngineConfig::default()).unwrap();
        assert_eq!(out.completed_jobs, 30);
    }

    #[test]
    fn greedy_beats_baselines_on_the_paper_workload() {
        let jobs = paper_workload(11);
        let mut makespans = std::collections::HashMap::new();
        for kind in SchedulerKind::ALL {
            let cfg = EngineConfig {
                scheduler: kind,
                ..Default::default()
            };
            let out = Engine::run_on_testbed(11, jobs.clone(), vec![], cfg).unwrap();
            assert_eq!(out.completed_jobs, 150, "{kind:?} incomplete");
            makespans.insert(kind, out.makespan.as_secs_f64());
        }
        let greedy = makespans[&SchedulerKind::Greedy];
        let eq = makespans[&SchedulerKind::EqualSplit];
        let rr = makespans[&SchedulerKind::RoundRobin];
        // Paper: greedy ≈1.6× faster than both.
        assert!(
            eq / greedy > 1.2,
            "equal-split {eq:.0}s vs greedy {greedy:.0}s"
        );
        assert!(
            rr / greedy > 1.2,
            "round-robin {rr:.0}s vs greedy {greedy:.0}s"
        );
    }

    #[test]
    fn partition_counts_cover_every_job() {
        let out =
            Engine::run_on_testbed(8, paper_workload(8), vec![], EngineConfig::default()).unwrap();
        assert_eq!(out.partitions_per_job.len(), 150);
        // Fig. 12b: ~90% of tasks unpartitioned under greedy.
        let splits = out.split_counts_sorted();
        let unsplit = splits.iter().filter(|&&s| s == 0).count();
        assert!(
            unsplit * 100 >= splits.len() * 70,
            "only {unsplit}/150 tasks unsplit"
        );
    }
}
