//! The coordinator kernel: CWC's control loop as a pure state machine.
//!
//! [`Kernel::step_into`] consumes one [`CoordEvent`] and appends the
//! [`CoordCommand`]s the driver must perform to a buffer the driver owns.
//! All per-slot and per-task state lives here — work queues, in-flight sequence numbers, keep-alive
//! bookkeeping, the §4.1 online predictor, the §5 residual list and
//! scheduling instants, and the per-slot circuit breakers. Time enters
//! only as the `now` argument; the kernel owns **no** clock, socket, or
//! thread, which is what makes the sim and live drivers thin and the
//! whole control loop replayable from a recorded event script.

use crate::coord::command::{CoordCommand, TimerKind};
use crate::coord::event::CoordEvent;
use crate::resilience::WindowBreaker;
use cwc_core::{
    ProgramId, ReplicationPolicy, RuntimePredictor, SchedProblem, Schedule, Scheduler,
    SchedulerKind, SpeculationPolicy,
};
use cwc_obs::TraceCtx;
use cwc_sim::Fnv1a;
use cwc_types::{
    CwcError, CwcResult, JobId, JobKind, JobSpec, KiloBytes, Micros, PhoneInfo, SloClass,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Refuse to loop forever on an unschedulable residue.
const MAX_ROUNDS: usize = 64;

/// Which driver the kernel narrates for. This changes *presentation* —
/// event clock (sim vs wall), metric prefixes, and which story events are
/// emitted — and one piece of driver plumbing: `Start` arms the per-slot
/// keep-alive timers only for [`DriverStyle::Live`] (the simulator models
/// liveness with `WentDark` instead). It never changes a scheduling
/// decision: placement, ship order, cancellations and every other timer
/// are the same under both styles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverStyle {
    /// Discrete-event simulator: `Event::sim`, `engine.*` metrics.
    Sim,
    /// Live TCP coordinator: `Event::wall`, `live.*` metrics.
    Live,
}

impl DriverStyle {
    /// An event on this style's clock.
    fn event(self, now: Micros, scope: &str, name: &str) -> cwc_obs::Event {
        match self {
            DriverStyle::Sim => cwc_obs::Event::sim(now.0, scope, name),
            DriverStyle::Live => cwc_obs::Event::wall(now.0, scope, name),
        }
    }
}

/// What to do with accumulated residuals (§5's failed list `F_A`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReschedulePolicy {
    /// Wait out a grace delay, re-probe every available slot, and run a
    /// full solver round over the residuals (the simulator's §5 model).
    Solver {
        /// Grace period between failure detection and the instant.
        delay: Micros,
    },
    /// Migrate each residual immediately, round-robin over the surviving
    /// slots (the live prototype's policy: each residual is one
    /// continuation; the heavy lifting was the initial schedule).
    RoundRobin,
}

/// Kernel construction parameters. Both drivers reduce their public
/// configuration surface to this one struct. Cloning shares the `obs`
/// bus/registry (see [`cwc_obs::Obs`]).
#[derive(Clone)]
pub struct KernelConfig {
    /// Scheduling algorithm for the initial round (and solver rounds).
    pub scheduler: SchedulerKind,
    /// The batch: every original job spec, each id once. [`Kernel::new`]
    /// moves these into its catalogue and refuses a repeated id.
    pub jobs: Vec<JobSpec>,
    /// Profiled baseline `T_s` (ms/KB on the 806 MHz reference) per
    /// program; every job's program must be present.
    pub baselines: BTreeMap<String, f64>,
    /// Application keep-alive period.
    pub keepalive_period: Micros,
    /// Unanswered keep-alives tolerated before an offline declaration.
    pub tolerated_misses: u32,
    /// Residual policy: solver rounds (sim) or round-robin (live).
    pub reschedule: ReschedulePolicy,
    /// Arm a per-ship stall watchdog with this timeout (live driver).
    pub stall_timeout: Option<Micros>,
    /// Per-slot circuit breaker: `(threshold, window)` — this many
    /// transient failures inside the window quarantine the slot.
    pub breaker: Option<(u32, Micros)>,
    /// Optional §3.1 failure-prediction profile: per slot, the unplug
    /// probability, plus the pricing aggressiveness.
    pub reliability: Option<(Vec<f64>, f64)>,
    /// Per-job service-level objectives (DESIGN.md §12). Jobs absent from
    /// the map are best-effort; an empty map reproduces the pure-makespan
    /// paper behavior exactly.
    pub slo: BTreeMap<JobId, SloClass>,
    /// Risk-driven replication of atomic placements on phones whose
    /// predicted unplug probability (from [`KernelConfig::reliability`])
    /// exceeds the policy threshold. `None` disables replication.
    pub replication: Option<ReplicationPolicy>,
    /// Speculative re-execution of straggling chunks. `None` disables
    /// speculation.
    pub speculation: Option<SpeculationPolicy>,
    /// Schedule as if every slot had the mean bandwidth (ablation).
    pub bandwidth_blind: bool,
    /// Presentation style (see [`DriverStyle`]).
    pub style: DriverStyle,
    /// Observability handle events and metrics are emitted through.
    pub obs: cwc_obs::Obs,
}

/// One shippable partition (queued or in flight).
#[derive(Debug, Clone)]
struct WorkItem {
    /// Index of the item's row in the kernel's job table, where its job's
    /// id, program and executable size are read.
    job: usize,
    kb: KiloBytes,
    base_offset: KiloBytes,
    resume: Option<Vec<u8>>,
    rescheduled: bool,
    /// Redundancy group this item belongs to (replica pair or
    /// speculation pair); `None` for ordinary singleton placements.
    group: Option<u32>,
    /// True on the redundant copy of a group (the replica or the
    /// speculative re-execution), false on the primary placement.
    speculative: bool,
    /// Causal identity. An item not yet placed carries span 0, which no
    /// mint hands out; its first placement mints the job's root span and
    /// every re-placement (solver round, round-robin migration) a child
    /// span, so the chunk's history is one span tree.
    trace: TraceCtx,
}

/// One row of the kernel's job table: the submitted spec, its program's
/// id in the predictor's catalogue, and what the run has made of the job
/// so far.
#[derive(Clone)]
struct Job {
    spec: JobSpec,
    program: ProgramId,
    /// Credited input, KB.
    progress: u64,
    /// Partitions that reported success.
    partitions: usize,
    /// When the credited input first covered the job's input.
    completed_at: Option<Micros>,
}

/// The row of job `id` in `jobs`, whose ids ascend: the id's offset from
/// the first id when they run without gaps, a binary search otherwise.
fn row_of(jobs: &[Job], id: JobId) -> Option<usize> {
    let first = jobs.first()?.spec.id.0;
    let span = jobs.last()?.spec.id.0 - first;
    if span as usize + 1 == jobs.len() {
        let row = id.0.checked_sub(first)?;
        return (row <= span).then_some(row as usize);
    }
    jobs.binary_search_by_key(&id, |j| j.spec.id).ok()
}

/// Why a redundancy group exists (metric labels only — resolution
/// semantics are identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKind {
    /// Risk-driven replica of an atomic placement on a flaky phone.
    Replica,
    /// Speculative re-execution of a straggler.
    Speculation,
}

/// A [`GroupKind`]'s counter names, spelled out so that no ship or
/// report formats one.
struct GroupMetrics {
    shipped: &'static str,
    won: &'static str,
    wasted: &'static str,
}

impl GroupKind {
    fn metrics(self) -> GroupMetrics {
        match self {
            GroupKind::Replica => GroupMetrics {
                shipped: "sched.replica.shipped",
                won: "sched.replica.won",
                wasted: "sched.replica.wasted",
            },
            GroupKind::Speculation => GroupMetrics {
                shipped: "sched.speculation.shipped",
                won: "sched.speculation.won",
                wasted: "sched.speculation.wasted",
            },
        }
    }
}

/// Bookkeeping for one first-result-wins redundancy pair. The winning
/// member credits the job once; every other member is cancelled, and a
/// member dying only matters once the *whole* group is dead without a
/// winner — then the full original slice requeues, ungrouped.
#[derive(Clone)]
struct ReplicaGroup {
    /// Row of the group's job in the kernel's job table.
    job: usize,
    kb: KiloBytes,
    base_offset: KiloBytes,
    outstanding: u32,
    kind: GroupKind,
}

/// The partition currently shipped to a slot, keyed by sequence number.
#[derive(Debug, Clone)]
struct InFlight {
    seq: u64,
    item: WorkItem,
}

/// Per-slot state table.
#[derive(Clone)]
struct Slot {
    info: Option<PhoneInfo>,
    queue: VecDeque<WorkItem>,
    busy: Option<InFlight>,
    /// Whether the slot holds each program's executable, by program id.
    has_exe: Vec<bool>,
    alive: bool,
    unanswered: u32,
    ka_seq: u64,
    ka_token: u64,
    park_token: u64,
    parked: Option<(u64, Vec<WorkItem>)>,
    /// Ship sequence number of the in-flight item parked when the slot
    /// went silently dark — lets the straggler check rescue the chunk
    /// long before the keep-alive timeout surfaces the failure.
    parked_inflight_seq: Option<u64>,
    last_done: Micros,
    breaker: Option<WindowBreaker>,
}

impl Slot {
    fn new(breaker: Option<(u32, Micros)>) -> Self {
        Slot {
            info: None,
            queue: VecDeque::new(),
            busy: None,
            has_exe: Vec::new(),
            alive: true,
            unanswered: 0,
            ka_seq: 0,
            ka_token: 0,
            park_token: 0,
            parked: None,
            parked_inflight_seq: None,
            last_done: Micros::ZERO,
            breaker: breaker.map(|(t, w)| WindowBreaker::new(t, w)),
        }
    }

    fn id(&self) -> cwc_types::PhoneId {
        self.info
            .map(|i| i.id)
            .unwrap_or(cwc_types::PhoneId(u32::MAX))
    }
}

/// The per-slot state table, indexed by slot. Drivers number their slots
/// densely from 0, so a slot's state is one index away; iteration visits
/// exactly the slots that exist, in ascending order.
#[derive(Clone, Default)]
struct SlotTable(Vec<Option<Slot>>);

impl SlotTable {
    fn get(&self, slot: usize) -> Option<&Slot> {
        self.0.get(slot)?.as_ref()
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Slot> {
        self.0.get_mut(slot)?.as_mut()
    }

    /// `slot`'s state, created (and the table grown) on first touch.
    fn entry(&mut self, slot: usize, breaker: Option<(u32, Micros)>) -> &mut Slot {
        if slot >= self.0.len() {
            self.0.resize_with(slot + 1, || None);
        }
        self.0[slot].get_or_insert_with(|| Slot::new(breaker))
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &Slot)> {
        let slots = self.0.iter().enumerate();
        slots.filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut Slot)> {
        let slots = self.0.iter_mut().enumerate();
        slots.filter_map(|(i, s)| s.as_mut().map(|s| (i, s)))
    }
}

/// An in-progress solver round waiting for its probe replies.
#[derive(Clone)]
struct ProbeRound {
    avail: Vec<usize>,
    awaiting: BTreeSet<usize>,
}

/// Graceful-degradation summary when every slot is lost mid-batch.
#[derive(Debug, Clone)]
pub struct FleetLoss {
    /// Slots lost over the run.
    pub workers_lost: usize,
    /// Of those, how many the circuit breaker quarantined.
    pub quarantined: usize,
    /// Input KB never processed, per job with a shortfall.
    pub unprocessed_kb: BTreeMap<JobId, u64>,
    /// Human-readable account.
    pub detail: String,
}

/// The CWC control loop as an event-in/command-out state machine. See
/// the [module docs](crate::coord) for the driver contract.
///
/// The kernel is `Clone`, so the `cwc-check` explorer can checkpoint a
/// state and branch on every admissible next event without replaying the
/// prefix.
#[derive(Clone)]
pub struct Kernel {
    cfg: KernelConfig,
    /// The catalogue and each job's progress, one row per job in
    /// ascending id order; work items carry their job's row index.
    jobs: Vec<Job>,
    /// The program catalogue (name ↔ [`ProgramId`]) and its estimates.
    predictor: RuntimePredictor,
    slots: SlotTable,
    /// Jobs whose credited KB is still below their input: the batch
    /// completion latch. Derived from the rows' `progress` (so it stays
    /// out of [`Kernel::digest`]); [`Kernel::credit`] counts it down where
    /// it latches `completed_at`, and zero is `Finished`.
    unfinished: usize,
    failed: Vec<WorkItem>,
    round_pending: bool,
    probing: Option<ProbeRound>,
    reschedule_rounds: usize,
    rescheduled_items: usize,
    predicted_makespan_ms: f64,
    next_seq: u64,
    /// Span-id mint for [`TraceCtx`]s. Deterministic: a pure function of
    /// the event sequence, so a script replay reproduces identical ids.
    next_span: u64,
    migrated: usize,
    keepalives_acked: usize,
    quarantined: usize,
    /// Live first-result-wins redundancy pairs, by group id. A group is
    /// removed the moment it resolves (a winner credited, or the last
    /// member dead).
    replica_groups: BTreeMap<u32, ReplicaGroup>,
    next_group: u32,
    /// Speculative launches still allowed this run
    /// ([`SpeculationPolicy::budget`] counts down; 0 with speculation
    /// disabled).
    spec_budget_left: u32,
    finished: bool,
    fleet_loss: Option<FleetLoss>,
    fatal: Option<CwcError>,
    /// Converged binary-search window of the previous scheduling
    /// instant; seeds the greedy solver's warm-started search on solver
    /// reschedule rounds. Deterministic: a pure function of run history.
    warm: Option<cwc_core::WarmStart>,
    /// `span.execute_ms`, resolved at the run's first report.
    execute_ms: Option<Arc<cwc_obs::Histogram>>,
}

impl Kernel {
    /// Builds a kernel over a job batch. Fails if any job's program has
    /// no profiled baseline, or if two jobs carry the same id (the error
    /// names the smallest such id).
    ///
    /// The rows are the batch in one pass: each program is interned once,
    /// with its baseline, and the rows are sorted only if the ids do not
    /// already ascend (both drivers submit in id order).
    pub fn new(mut cfg: KernelConfig) -> CwcResult<Kernel> {
        let mut predictor = RuntimePredictor::new();
        let specs = std::mem::take(&mut cfg.jobs);
        let mut jobs: Vec<Job> = Vec::with_capacity(specs.len());
        for spec in specs {
            let program = predictor.program(&spec.program).or_else(|| {
                let baseline = *cfg.baselines.get(&spec.program)?;
                Some(predictor.register(&spec.program, baseline))
            });
            let Some(program) = program else {
                return Err(CwcError::Config(format!(
                    "no profiled baseline for {:?}",
                    spec.program
                )));
            };
            jobs.push(Job {
                spec,
                program,
                progress: 0,
                partitions: 0,
                completed_at: None,
            });
        }
        if !jobs.is_sorted_by(|a, b| a.spec.id < b.spec.id) {
            jobs.sort_unstable_by_key(|j| j.spec.id);
            if let Some(pair) = jobs.windows(2).find(|w| w[0].spec.id == w[1].spec.id) {
                return Err(CwcError::Config(format!(
                    "job id {} submitted twice",
                    pair[0].spec.id
                )));
            }
        }
        let spec_budget_left = cfg.speculation.map(|s| s.budget).unwrap_or(0);
        // Nothing is credited before `Start`, and `Start` refuses a batch
        // with a zero-size input, so every job begins below its input.
        let unfinished = jobs.len();
        Ok(Kernel {
            cfg,
            jobs,
            predictor,
            slots: SlotTable::default(),
            unfinished,
            failed: Vec::new(),
            round_pending: false,
            probing: None,
            reschedule_rounds: 0,
            rescheduled_items: 0,
            predicted_makespan_ms: 0.0,
            next_seq: 0,
            next_span: 0,
            migrated: 0,
            keepalives_acked: 0,
            quarantined: 0,
            replica_groups: BTreeMap::new(),
            next_group: 0,
            spec_budget_left,
            finished: false,
            fleet_loss: None,
            fatal: None,
            warm: None,
            execute_ms: None,
        })
    }

    /// Advances the state machine by one event, appending the commands it
    /// emits to `out` (in order, behind whatever `out` already holds).
    /// `now` is driver time (sim time or wall micros); the kernel only
    /// ever compares and adds these values, it never generates them.
    pub fn step_into(&mut self, now: Micros, ev: CoordEvent, out: &mut Vec<CoordCommand>) {
        match ev {
            CoordEvent::Probe { slot, info } => self.on_probe(now, slot, info, out),
            CoordEvent::Start => self.on_start(now, out),
            CoordEvent::ReportOk {
                slot,
                seq,
                job,
                exec_ms,
            } => self.on_report_ok(now, slot, seq, job, exec_ms, out),
            CoordEvent::ReportFailed {
                slot,
                seq,
                job,
                processed_kb,
                checkpoint,
            } => self.on_report_failed(now, slot, seq, job, processed_kb, checkpoint, out),
            CoordEvent::KeepAliveSeen { slot } => self.on_keepalive_seen(slot),
            CoordEvent::WentDark { slot } => self.on_went_dark(slot, out),
            CoordEvent::ConnectionLost { slot, why } => {
                self.mark_failed(now, slot, "worker.lost", why);
                self.after_failure(now, out);
            }
            CoordEvent::Misbehaved { slot, why } => self.on_misbehaved(now, slot, why, out),
            CoordEvent::Replugged { slot } => {
                self.slot_mut(slot).alive = true;
            }
            CoordEvent::TimerFired { kind, slot, token } => {
                self.on_timer(now, kind, slot, token, out)
            }
        }
    }

    /// [`Kernel::step_into`] into a fresh buffer: one allocation per step
    /// that emits anything. The drivers, [`crate::coord::script::replay`]
    /// and the checker reuse a buffer instead; this form serves callers
    /// that keep each step's commands as a list of its own (the repo
    /// benchmark's kernel probes, the replay pins).
    pub fn step(&mut self, now: Micros, ev: CoordEvent) -> Vec<CoordCommand> {
        let mut out = Vec::new();
        self.step_into(now, ev, &mut out);
        out
    }

    // --- accessors for drivers -----------------------------------------

    /// Whether every job's input is fully covered.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The initial schedule's predicted makespan (ms).
    pub fn predicted_makespan_ms(&self) -> f64 {
        self.predicted_makespan_ms
    }

    /// The batch's specs, one per row, in ascending id order.
    pub fn specs(&self) -> impl ExactSizeIterator<Item = &JobSpec> {
        self.jobs.iter().map(|j| &j.spec)
    }

    /// The profiled `T_s` (ms/KB on the baseline phone) of job `id`.
    pub fn baseline_of(&self, id: JobId) -> Option<f64> {
        let row = row_of(&self.jobs, id)?;
        Some(self.predictor.baseline(self.jobs[row].program))
    }

    /// Completion time per job (jobs that finished), built on demand.
    pub fn completed_at(&self) -> BTreeMap<JobId, Micros> {
        let done = |j: &Job| Some((j.spec.id, j.completed_at?));
        self.jobs.iter().filter_map(done).collect()
    }

    /// Executed partitions per job (jobs with at least one), built on
    /// demand.
    pub fn partitions_per_job(&self) -> BTreeMap<JobId, usize> {
        let ran = |j: &Job| (j.partitions > 0).then_some((j.spec.id, j.partitions));
        self.jobs.iter().filter_map(ran).collect()
    }

    /// Completed rescheduled partitions.
    pub fn rescheduled_items(&self) -> usize {
        self.rescheduled_items
    }

    /// Scheduling instants attempted after failures.
    pub fn reschedule_rounds(&self) -> usize {
        self.reschedule_rounds
    }

    /// Residual partitions migrated to surviving slots.
    pub fn migrated(&self) -> usize {
        self.migrated
    }

    /// Keep-alive acknowledgements credited.
    pub fn keepalives_acked(&self) -> usize {
        self.keepalives_acked
    }

    /// Slots quarantined by the circuit breaker.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Slots currently marked failed.
    pub fn workers_lost(&self) -> usize {
        self.slots.iter().filter(|(_, s)| !s.alive).count()
    }

    /// Time the slot last completed a partition ([`Micros::ZERO`] if
    /// never).
    pub fn last_completion(&self, slot: usize) -> Micros {
        self.slots
            .get(slot)
            .map(|s| s.last_done)
            .unwrap_or(Micros::ZERO)
    }

    /// Takes the fatal setup error after a [`CoordCommand::Halt`].
    pub fn take_fatal(&mut self) -> Option<CwcError> {
        self.fatal.take()
    }

    /// Takes the graceful-degradation summary if the whole fleet died.
    pub fn take_fleet_loss(&mut self) -> Option<FleetLoss> {
        self.fleet_loss.take()
    }

    /// Whether the fleet was lost (residuals with no survivor to take
    /// them).
    pub fn fleet_lost(&self) -> bool {
        self.fleet_loss.is_some()
    }

    // --- internals -----------------------------------------------------

    fn live(&self) -> bool {
        self.cfg.style == DriverStyle::Live
    }

    fn event(&self, now: Micros, scope: &str, name: &str) -> cwc_obs::Event {
        self.cfg.style.event(now, scope, name)
    }

    fn slot_mut(&mut self, slot: usize) -> &mut Slot {
        self.slots.entry(slot, self.cfg.breaker)
    }

    fn on_probe(&mut self, now: Micros, slot: usize, info: PhoneInfo, out: &mut Vec<CoordCommand>) {
        self.slot_mut(slot).info = Some(info);
        if let Some(round) = self.probing.as_mut() {
            round.awaiting.remove(&slot);
            if round.awaiting.is_empty() {
                self.run_round(now, out);
            }
        }
    }

    /// Slots that have not failed, ascending.
    fn alive_slots(&self) -> Vec<usize> {
        self.slots
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// Initial scheduling instant: every initially-available slot has
    /// been probed; compute and distribute the first schedule. Nothing
    /// runs without it, so any failure is fatal.
    fn on_start(&mut self, now: Micros, out: &mut Vec<CoordCommand>) {
        let mut avail = self.alive_slots();
        avail.retain(|&i| self.slots.get(i).is_some_and(|s| s.info.is_some()));
        if avail.is_empty() {
            return self.fail_fatal(
                CwcError::Infeasible(
                    "no phone is plugged in at the initial scheduling instant".into(),
                ),
                out,
            );
        }
        // The batch enters as work with no progress: each row's whole
        // input, ungrouped and not yet placed.
        let batch: Vec<WorkItem> = (self.jobs.iter().enumerate())
            .map(|(row, job)| WorkItem {
                job: row,
                kb: job.spec.input_kb,
                base_offset: KiloBytes::ZERO,
                resume: None,
                rescheduled: false,
                group: None,
                speculative: false,
                trace: TraceCtx::root(u64::from(job.spec.id.0), 0),
            })
            .collect();
        let schedule = match self.schedule_instant(&avail, &batch) {
            Ok(s) => s,
            Err(e) => return self.fail_fatal(e, out),
        };
        self.predicted_makespan_ms = schedule.predicted_makespan_ms;
        self.cfg.obs.emit_with(|| {
            self.event(now, "sched", "schedule.initial")
                .field("assignments", schedule.num_assignments())
                .field("phones", avail.len())
                .field("predicted_makespan_ms", schedule.predicted_makespan_ms)
                .field(
                    "msg",
                    format!(
                        "initial schedule: {} assignments over {} phones, predicted makespan {:.0} ms",
                        schedule.num_assignments(),
                        avail.len(),
                        schedule.predicted_makespan_ms
                    ),
                )
        });
        self.plan_replicas(now, &avail);
        for &i in &avail {
            self.ship_next(now, i, out);
        }
        if self.live() {
            for (i, s) in self.slots.iter() {
                out.push(CoordCommand::StartTimer {
                    kind: TimerKind::KeepAlive,
                    slot: i,
                    token: s.ka_token,
                    after: self.cfg.keepalive_period,
                });
            }
        }
    }

    /// One scheduling instant (§5), the same code at `Start` and at every
    /// re-solve: Algorithm 1 over the `avail` slots packs `items`, and each
    /// slot's share is queued in SLO admission order. `Start` passes the
    /// batch, one item per row with no progress; a re-solve passes the
    /// failed list. The instant numbers its jobs by position (`JobId(k)`
    /// is `items[k]`), and an error that names a job names the batch's id.
    /// The caller narrates and ships. On `Err` nothing was queued; what
    /// that means — fatal at `Start`, try again later in a round — is the
    /// caller's to say.
    fn schedule_instant(&mut self, avail: &[usize], items: &[WorkItem]) -> CwcResult<Schedule> {
        // The instant's specs carry no name (no scheduler reads one, see
        // `SchedProblem`): each job's costs come by its row's program id.
        // A checkpointed item is one continuation → atomic.
        let (jobs, programs): (Vec<JobSpec>, Vec<ProgramId>) = (items.iter().enumerate())
            .map(|(k, item)| {
                let row = &self.jobs[item.job];
                let kind = item
                    .resume
                    .as_ref()
                    .map_or(row.spec.kind, |_| JobKind::Atomic);
                let spec = JobSpec {
                    id: JobId(k as u32),
                    program: String::new(),
                    kind,
                    input_kb: item.kb,
                    ..row.spec
                };
                (spec, row.program)
            })
            .unzip();
        let mut infos: Vec<PhoneInfo> = avail
            .iter()
            .map(|&i| self.slots.get(i).and_then(|s| s.info))
            .map(|info| info.expect("available slots are probed"))
            .collect();
        if self.cfg.bandwidth_blind {
            let mean = infos.iter().map(|i| i.bandwidth.0).sum::<f64>() / infos.len() as f64;
            for info in &mut infos {
                info.bandwidth = cwc_types::MsPerKb(mean);
            }
        }
        let c = self.predictor.cost_matrix_by_id(&infos, &programs);
        let mut problem = SchedProblem {
            phones: infos,
            jobs,
            c,
        };
        let schedule = self.solve(avail, &mut problem).map_err(|e| match e {
            CwcError::InvalidJob { job, reason } => CwcError::InvalidJob {
                job: self.jobs[items[job.0 as usize].job].spec.id,
                reason,
            },
            e => e,
        })?;
        for (queue, i) in schedule.per_phone.iter().zip(avail) {
            let slot = self.slots.get_mut(*i).expect("available slots exist");
            slot.queue.reserve(queue.len());
            for a in queue {
                let item = &items[a.job.0 as usize];
                self.next_span += 1;
                // A first placement opens its job's root span; a
                // re-placement continues the item's own.
                let placed = item.trace.span_id != 0;
                let trace = if placed {
                    item.trace.child(self.next_span)
                } else {
                    TraceCtx::root(item.trace.trace_id, self.next_span)
                };
                slot.queue.push_back(WorkItem {
                    kb: a.input_kb,
                    base_offset: item.base_offset + a.offset_kb,
                    rescheduled: placed,
                    trace,
                    ..item.clone()
                });
            }
        }
        self.apply_slo_order(avail);
        Ok(schedule)
    }

    /// Algorithm 1 on one instant's `problem`: checked, priced for failure
    /// risk when the config carries a reliability profile, solved from the
    /// previous instant's converged window, and its answer validated.
    fn solve(&mut self, avail: &[usize], problem: &mut SchedProblem) -> CwcResult<Schedule> {
        problem.check()?;
        if let Some((probs, aggressiveness)) = &self.cfg.reliability {
            let per_avail: Vec<f64> = avail
                .iter()
                .map(|&i| probs.get(i).copied().unwrap_or(0.0))
                .collect();
            cwc_core::derisk(problem, &per_avail, *aggressiveness)?;
        }
        let (schedule, warm) = cwc_obs::timed(&self.cfg.obs.metrics, "span.schedule_us", || {
            Scheduler::run_observed_warm(self.cfg.scheduler, problem, &self.cfg.obs, self.warm)
        })?;
        self.warm = warm.or(self.warm);
        schedule.validate(problem)?;
        Ok(schedule)
    }

    /// Stable-sorts every listed slot's queue into SLO admission order:
    /// deadline-class first (earliest deadline first), best-effort last.
    /// A stable sort over the packer's queues keeps the packer's own
    /// ordering within each class, so an empty SLO map is a no-op and the
    /// paper's pure-makespan behavior is untouched.
    fn apply_slo_order(&mut self, slots: &[usize]) {
        let slo = &self.cfg.slo;
        if slo.is_empty() {
            return;
        }
        let rank = |it: &WorkItem| SloClass::rank(slo.get(&self.jobs[it.job].spec.id).copied());
        for &i in slots {
            if let Some(s) = self.slots.get_mut(i) {
                s.queue.make_contiguous().sort_by_key(rank);
            }
        }
    }

    /// Risk-driven replication (DESIGN.md §12): every atomic placement
    /// queued on a slot whose predicted unplug probability exceeds the
    /// policy threshold gets a redundant copy on the most reliable
    /// *other* available slot. First result wins; see
    /// [`Kernel::resolve_group_win`].
    fn plan_replicas(&mut self, now: Micros, avail: &[usize]) {
        let Some(rp) = self.cfg.replication else {
            return;
        };
        let Some((probs, _)) = self.cfg.reliability.clone() else {
            return;
        };
        let prob_of = |i: usize| probs.get(i).copied().unwrap_or(0.0);
        for &i in avail {
            if prob_of(i) <= rp.threshold {
                continue;
            }
            // The replica lands on the most reliable independent slot
            // (ties break on slot index — deterministic).
            let Some(&target) = avail
                .iter()
                .filter(|&&j| j != i)
                .min_by(|&&a, &&b| prob_of(a).total_cmp(&prob_of(b)).then(a.cmp(&b)))
            else {
                continue;
            };
            let Some(s) = self.slots.get_mut(i) else {
                continue;
            };
            // The queue leaves the slot while its items open their groups.
            let mut queue = std::mem::take(&mut s.queue);
            let mut copies: Vec<WorkItem> = Vec::new();
            for item in queue.iter_mut() {
                if item.resume.is_some() || item.group.is_some() || item.speculative {
                    continue;
                }
                if !self.jobs[item.job].spec.kind.is_atomic() {
                    continue;
                }
                copies.push(self.open_group(item, GroupKind::Replica));
                self.cfg.obs.metrics.inc("sched.replica.planned");
            }
            self.slot_mut(i).queue = queue;
            if copies.is_empty() {
                continue;
            }
            self.cfg.obs.emit_with(|| {
                self.event(now, "sched", "replica.planned")
                    .field("slot", i as u64)
                    .field("target", target as u64)
                    .field("replicas", copies.len())
                    .field("fail_prob", prob_of(i))
                    .field(
                        "msg",
                        format!(
                            "replicating {} atomic placement(s) off slot {i} \
                             (p_fail {:.2}) onto slot {target}",
                            copies.len(),
                            prob_of(i)
                        ),
                    )
            });
            if let Some(t) = self.slots.get_mut(target) {
                for copy in copies {
                    t.queue.push_back(copy);
                }
            }
        }
    }

    /// Opens a first-result-wins pair over `primary`: mints the group id,
    /// then the copy's child span, joins `primary` to the group and
    /// returns the redundant copy to queue elsewhere.
    fn open_group(&mut self, primary: &mut WorkItem, kind: GroupKind) -> WorkItem {
        self.next_group += 1;
        let g = self.next_group;
        primary.group = Some(g);
        self.next_span += 1;
        self.replica_groups.insert(
            g,
            ReplicaGroup {
                job: primary.job,
                kb: primary.kb,
                base_offset: primary.base_offset,
                outstanding: 2,
                kind,
            },
        );
        WorkItem {
            speculative: true,
            trace: primary.trace.child(self.next_span),
            ..primary.clone()
        }
    }

    /// Routes one dead item into the §5 failed list. Grouped
    /// (replica/speculation) members never carry partial progress out: a
    /// dying member is dropped while its twin lives, and only the *last*
    /// member of a winnerless group requeues — as the full original
    /// slice, ungrouped — so coverage is counted exactly once.
    fn fail_item(&mut self, item: WorkItem) {
        let Some(g) = item.group else {
            self.failed.push(item);
            return;
        };
        let Some(grp) = self.replica_groups.get_mut(&g) else {
            // Group already resolved (a winner was credited): the loser's
            // residue is void.
            return;
        };
        grp.outstanding = grp.outstanding.saturating_sub(1);
        if grp.outstanding > 0 {
            return;
        }
        let Some(grp) = self.replica_groups.remove(&g) else {
            return;
        };
        self.failed.push(WorkItem {
            kb: grp.kb,
            base_offset: grp.base_offset,
            resume: None,
            group: None,
            speculative: false,
            ..item
        });
    }

    /// First-result-wins: the reporting member of group `g` won. Cancel
    /// every other live member — in-flight copies get a
    /// [`CoordCommand::CancelTask`], queued and parked copies are removed
    /// in place — and free their slots for the next item.
    fn resolve_group_win(
        &mut self,
        now: Micros,
        g: u32,
        winner_speculative: bool,
        out: &mut Vec<CoordCommand>,
    ) {
        let Some(grp) = self.replica_groups.remove(&g) else {
            return;
        };
        let names = grp.kind.metrics();
        if winner_speculative {
            self.cfg.obs.metrics.inc(names.won);
        }
        let style = self.cfg.style;
        let job = self.jobs[grp.job].spec.id;
        let mut wasted = 0u64;
        let mut freed: Vec<usize> = Vec::new();
        for (j, s) in self.slots.iter_mut() {
            if s.busy.as_ref().is_some_and(|b| b.item.group == Some(g)) {
                if let Some(fl) = s.busy.take() {
                    self.cfg.obs.emit_with(|| {
                        fl.item
                            .trace
                            .stamp(style.event(now, "sched", "task.cancelled"))
                            .severity(cwc_obs::Severity::Debug)
                            .field("phone", s.id().0)
                            .field("slot", j as u64)
                            .field("seq", fl.seq)
                            .field("job", job.0)
                    });
                    out.push(CoordCommand::CancelTask {
                        slot: j,
                        job,
                        seq: fl.seq,
                    });
                    wasted += 1;
                    freed.push(j);
                }
            }
            let before = s.queue.len();
            s.queue.retain(|it| it.group != Some(g));
            wasted += (before - s.queue.len()) as u64;
            if let Some((_, parked)) = s.parked.as_mut() {
                let before = parked.len();
                parked.retain(|it| it.group != Some(g));
                wasted += (before - parked.len()) as u64;
            }
        }
        if wasted > 0 {
            self.cfg.obs.metrics.add(names.wasted, wasted);
        }
        for j in freed {
            self.ship_next(now, j, out);
        }
    }

    /// Pops and ships the next queued item on `slot`, if idle and alive.
    fn ship_next(&mut self, now: Micros, slot: usize, out: &mut Vec<CoordCommand>) {
        let stall = self.cfg.stall_timeout;
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        if !s.alive || s.busy.is_some() {
            return;
        }
        let Some(item) = s.queue.pop_front() else {
            return;
        };
        let id = s.id();
        let info = s.info;
        let row = &self.jobs[item.job];
        // Executable shipped once per slot–program pair.
        let k = row.program.index();
        s.has_exe.resize(s.has_exe.len().max(k + 1), false);
        let first = !std::mem::replace(&mut s.has_exe[k], true);
        let exe_kb = if first { row.spec.exe_kb.0 } else { 0 };
        self.next_seq += 1;
        let seq = self.next_seq;
        // The span's opening event, in both styles: every chunk lifecycle
        // starts with a stamped `task.assigned`.
        self.cfg.obs.emit_with(|| {
            item.trace
                .stamp(self.event(now, "sched", "task.assigned"))
                .severity(cwc_obs::Severity::Debug)
                .field("phone", id.0)
                .field("slot", slot as u64)
                .field("seq", seq)
                .field("job", row.spec.id.0)
                .field("offset_kb", item.base_offset.0)
                .field("len_kb", item.kb.0)
                .field("rescheduled", item.rescheduled)
                .field("replica", item.speculative)
        });
        out.push(CoordCommand::ShipInput {
            slot,
            seq,
            job: row.spec.id,
            program: self.predictor.name(row.program).clone(),
            exe_kb,
            offset_kb: item.base_offset.0,
            len_kb: item.kb.0,
            resume: item.resume.clone(),
            rescheduled: item.rescheduled,
            trace: item.trace,
            replica: item.speculative,
        });
        if item.speculative {
            let kind = item
                .group
                .and_then(|g| self.replica_groups.get(&g))
                .map_or(GroupKind::Replica, |grp| grp.kind);
            self.cfg.obs.metrics.inc(kind.metrics().shipped);
        }
        if let Some(timeout) = stall {
            out.push(CoordCommand::StartTimer {
                kind: TimerKind::Stall,
                slot,
                token: seq,
                after: timeout,
            });
        }
        // Straggler watchdog: if this chunk is still in flight when
        // `slack ×` its predicted duration elapses, the kernel launches a
        // speculative copy (budget permitting). Copies and grouped items
        // are never themselves speculated on.
        if let Some(sp) = self.cfg.speculation {
            if item.group.is_none() && !item.speculative && self.spec_budget_left > 0 {
                if let Some(info) = info {
                    let transfer_ms = info.bandwidth.0 * (exe_kb + item.kb.0) as f64;
                    let c_ij = self.predictor.c_ij(&info, self.jobs[item.job].program);
                    let exec_ms = c_ij * item.kb.0 as f64;
                    out.push(CoordCommand::StartTimer {
                        kind: TimerKind::Speculate,
                        slot,
                        token: seq,
                        after: Micros::from_ms_f64(sp.slack * (transfer_ms + exec_ms)),
                    });
                }
            }
        }
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        s.busy = Some(InFlight { seq, item });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_report_ok(
        &mut self,
        now: Micros,
        slot: usize,
        seq: u64,
        job: JobId,
        exec_ms: f64,
        out: &mut Vec<CoordCommand>,
    ) {
        let live = self.live();
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        s.unanswered = 0;
        let jobs = &self.jobs;
        let expected = s
            .busy
            .as_ref()
            .is_some_and(|b| b.seq == seq && jobs[b.item.job].spec.id == job);
        if !expected {
            // Duplicate or stale (frame duplicated in flight, or the task
            // was already requeued by the watchdog).
            if live {
                self.cfg.obs.metrics.inc("live.dup_reports");
                let id = s.id();
                self.cfg.obs.emit_with(|| {
                    self.event(now, "live", "report.stale")
                        .severity(cwc_obs::Severity::Debug)
                        .field("phone", id.0)
                        .field("job", job.0)
                        .field("seq", seq)
                });
            }
            return;
        }
        let Some(fl) = s.busy.take() else { return };
        let item = fl.item;
        let info = s.info;
        let id = s.id();
        s.last_done = now;
        if item.rescheduled {
            self.rescheduled_items += 1;
        }
        self.jobs[item.job].partitions += 1;
        // The measured runtime refines c_ij (§4.1's online update).
        if let Some(info) = info {
            let program = self.jobs[item.job].program;
            self.predictor.observe(&info, program, item.kb, exec_ms);
        }
        let metrics = &self.cfg.obs.metrics;
        self.execute_ms
            .get_or_insert_with(|| metrics.histogram("span.execute_ms"))
            .record(exec_ms);
        if live {
            self.cfg.obs.emit_with(|| {
                item.trace
                    .stamp(self.event(now, "live", "task.complete"))
                    .severity(cwc_obs::Severity::Debug)
                    .field("phone", id.0)
                    .field("job", job.0)
                    .field("kb", item.kb.0)
                    .field("exec_ms", exec_ms)
            });
        }
        out.push(CoordCommand::RecordResult {
            slot,
            job,
            offset_kb: item.base_offset.0,
        });
        // First result wins: a grouped completion resolves its redundancy
        // pair — the twin is cancelled wherever it is, and the job is
        // credited exactly once (here).
        if let Some(g) = item.group {
            self.resolve_group_win(now, g, item.speculative, out);
        }
        self.credit(now, item.job, item.kb.0, id, out);
        self.ship_next(now, slot, out);
    }

    /// Credits `kb` of the job in row `row` of the job table and latches
    /// job / batch completion.
    fn credit(
        &mut self,
        now: Micros,
        row: usize,
        kb: u64,
        phone: cwc_types::PhoneId,
        out: &mut Vec<CoordCommand>,
    ) {
        let row = &mut self.jobs[row];
        let job = row.spec.id;
        row.progress += kb;
        let target = row.spec.input_kb.0;
        debug_assert!(row.progress <= target, "over-completion of {job}");
        if row.progress >= target && row.completed_at.is_none() {
            row.completed_at = Some(now);
            self.unfinished -= 1;
            // Deadlines are relative to run start; the completion latch is
            // the one place a job's SLO verdict is decided.
            if let Some(SloClass::Deadline(ms)) = self.cfg.slo.get(&job) {
                let met = now <= Micros::from_millis(*ms);
                self.cfg.obs.metrics.inc(if met {
                    "slo.deadline.met"
                } else {
                    "slo.deadline.missed"
                });
                self.cfg.obs.emit_with(|| {
                    self.event(now, "slo", "slo.deadline")
                        .severity(if met {
                            cwc_obs::Severity::Debug
                        } else {
                            cwc_obs::Severity::Warn
                        })
                        .field("job", job.0)
                        .field("deadline_ms", *ms)
                        .field("completed_ms", now.as_ms_f64())
                        .field("met", met)
                });
            }
            if !self.live() {
                self.cfg.obs.emit_with(|| {
                    self.event(now, "engine", "job.complete")
                        .field("job", job.to_string())
                        .field("phone", phone.to_string())
                        .field("msg", format!("{job} complete on {phone}"))
                });
            }
        }
        debug_assert_eq!(
            self.unfinished == 0,
            self.jobs.iter().all(|j| j.progress >= j.spec.input_kb.0),
            "completion latch disagrees with the job table scan"
        );
        if !self.finished && self.unfinished == 0 {
            self.finished = true;
            out.push(CoordCommand::Finished);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_report_failed(
        &mut self,
        now: Micros,
        slot: usize,
        seq: u64,
        job: JobId,
        processed_kb: u64,
        checkpoint: Option<Vec<u8>>,
        out: &mut Vec<CoordCommand>,
    ) {
        let live = self.live();
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        s.unanswered = 0;
        let jobs = &self.jobs;
        let expected = s
            .busy
            .as_ref()
            .is_some_and(|b| b.seq == seq && jobs[b.item.job].spec.id == job);
        if !expected {
            // A failure report for nothing in flight is a per-slot
            // protocol violation, not a batch-level error.
            let id = s.id();
            let alive = s.alive;
            if live {
                self.cfg.obs.metrics.inc("live.dup_reports");
                self.cfg.obs.emit_with(|| {
                    self.event(now, "live", "report.spurious")
                        .severity(cwc_obs::Severity::Warn)
                        .field("phone", id.0)
                        .field("job", job.0)
                        .field("seq", seq)
                        .field(
                            "msg",
                            format!("{id}: spurious TaskFailed for {job} (seq {seq})"),
                        )
                });
            }
            if alive && self.breaker_trips(now, slot) {
                self.quarantine(now, slot, "spurious failure reports");
                self.after_failure(now, out);
            }
            return;
        }
        let id = s.id();
        let trace = s.busy.as_ref().map(|b| b.item.trace);
        if live {
            self.cfg.obs.emit_with(|| {
                let failed = self
                    .event(now, "failure", "task.failed")
                    .severity(cwc_obs::Severity::Warn)
                    .field("phone", id.0)
                    .field("job", job.0)
                    .field("processed_kb", processed_kb)
                    .field(
                        "msg",
                        format!("{id} unplugged; {job} checkpointed at {processed_kb} KB"),
                    );
                match trace {
                    Some(t) => t.stamp(failed),
                    None => failed,
                }
            });
        }
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        let Some(fl) = s.busy.take() else { return };
        let item = fl.item;
        let row = item.job;
        if item.group.is_some() {
            // A grouped member never credits partial progress or carries a
            // checkpoint out — its twin may still complete the whole slice.
            // Only the last member of a winnerless group requeues (whole).
            self.fail_item(item);
        } else {
            let processed = processed_kb.min(item.kb.0);
            let remaining = item.kb.0 - processed;
            if remaining > 0 {
                // The checkpoint preserves the processed prefix: the resumed
                // execution only ever reports the remainder. The residual
                // carries the failed span's context; its re-placement mints
                // the child span.
                self.failed.push(WorkItem {
                    kb: KiloBytes(remaining),
                    base_offset: item.base_offset + KiloBytes(processed),
                    resume: checkpoint,
                    ..item
                });
            }
            if processed > 0 {
                self.credit(now, row, processed, id, out);
            }
        }
        // An unplugged phone is out for the rest of the run.
        self.mark_failed(now, slot, "worker.lost", format!("{id} unplugged"));
        self.after_failure(now, out);
    }

    fn on_keepalive_seen(&mut self, slot: usize) {
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        s.unanswered = 0;
        self.keepalives_acked += 1;
        if self.live() {
            self.cfg.obs.metrics.inc("live.keepalive_ack");
        }
    }

    /// Silent unplug (sim): park the slot's work; the server only learns
    /// at the keep-alive timeout.
    fn on_went_dark(&mut self, slot: usize, out: &mut Vec<CoordCommand>) {
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        if !s.alive {
            return;
        }
        s.alive = false;
        s.ka_token += 1;
        let mut parked: Vec<WorkItem> = Vec::new();
        s.parked_inflight_seq = None;
        if let Some(fl) = s.busy.take() {
            s.parked_inflight_seq = Some(fl.seq);
            parked.push(fl.item);
        }
        parked.extend(s.queue.drain(..));
        // A silent unplug loses the partition's partial state (§5):
        // whatever checkpoint was shipped with the work is unrecoverable.
        for item in &mut parked {
            item.resume = None;
        }
        s.park_token += 1;
        let token = s.park_token;
        s.parked = Some((token, parked));
        out.push(CoordCommand::StartTimer {
            kind: TimerKind::OfflineDetect,
            slot,
            token,
            after: Micros(self.cfg.keepalive_period.0 * u64::from(self.cfg.tolerated_misses)),
        });
    }

    fn on_misbehaved(
        &mut self,
        now: Micros,
        slot: usize,
        why: String,
        out: &mut Vec<CoordCommand>,
    ) {
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        s.unanswered = 0;
        let id = s.id();
        let alive = s.alive;
        self.cfg.obs.metrics.inc("live.protocol_violations");
        self.cfg.obs.emit_with(|| {
            self.event(now, "live", "protocol.violation")
                .severity(cwc_obs::Severity::Warn)
                .field("phone", id.0)
                .field("msg", why)
        });
        if alive && self.breaker_trips(now, slot) {
            self.quarantine(now, slot, "repeated protocol violations");
            self.after_failure(now, out);
        }
    }

    fn on_timer(
        &mut self,
        now: Micros,
        kind: TimerKind,
        slot: usize,
        token: u64,
        out: &mut Vec<CoordCommand>,
    ) {
        if self.finished {
            return;
        }
        match kind {
            TimerKind::Reschedule => self.on_reschedule_timer(now, out),
            TimerKind::OfflineDetect => self.on_offline_detect(now, slot, token, out),
            TimerKind::KeepAlive => self.on_keepalive_timer(now, slot, token, out),
            TimerKind::Stall => self.on_stall_timer(now, slot, token, out),
            TimerKind::Speculate => self.on_speculate_timer(now, slot, token, out),
        }
    }

    /// The straggler check fired for one shipped chunk: if it is still in
    /// flight — on a live slot that simply hasn't reported, or parked on
    /// a slot that went silently dark — launch one speculative copy on
    /// the least-loaded surviving slot. First result wins; the loser is
    /// cancelled ([`Kernel::resolve_group_win`]). Bounded by the per-run
    /// speculation budget.
    fn on_speculate_timer(
        &mut self,
        now: Micros,
        slot: usize,
        token: u64,
        out: &mut Vec<CoordCommand>,
    ) {
        if self.cfg.speculation.is_none() || self.spec_budget_left == 0 {
            return;
        }
        let source: Option<WorkItem> = {
            let Some(s) = self.slots.get(slot) else {
                return;
            };
            if s.alive {
                s.busy
                    .as_ref()
                    .filter(|b| b.seq == token && b.item.group.is_none())
                    .map(|b| b.item.clone())
            } else if s.parked_inflight_seq == Some(token) {
                // Silently-dark slot: rescue the in-flight chunk now
                // rather than waiting out the keep-alive timeout plus the
                // reschedule grace period.
                s.parked
                    .as_ref()
                    .and_then(|(_, items)| items.first())
                    .filter(|it| it.group.is_none())
                    .cloned()
            } else {
                None
            }
        };
        let Some(mut src) = source else { return };
        // Least-loaded live independent slot, ties on index.
        let target = self
            .slots
            .iter()
            .filter(|&(j, s)| j != slot && s.alive && s.info.is_some())
            .min_by_key(|&(j, s)| (s.queue.len() + usize::from(s.busy.is_some()), j))
            .map(|(j, _)| j);
        let Some(target) = target else { return };
        let copy = self.open_group(&mut src, GroupKind::Speculation);
        if let Some(s) = self.slots.get_mut(slot) {
            let primary = if s.alive {
                s.busy.as_mut().map(|b| &mut b.item)
            } else {
                s.parked.as_mut().and_then(|(_, parked)| parked.first_mut())
            };
            if let Some(primary) = primary {
                primary.group = src.group;
            }
        }
        let job = self.jobs[src.job].spec.id;
        self.spec_budget_left -= 1;
        self.cfg.obs.metrics.inc("sched.speculation.launched");
        self.cfg.obs.emit_with(|| {
            copy.trace
                .stamp(self.event(now, "sched", "speculation.launched"))
                .field("slot", slot as u64)
                .field("target", target as u64)
                .field("job", job.0)
                .field("seq", token)
                .field("budget_left", u64::from(self.spec_budget_left))
                .field(
                    "msg",
                    format!(
                        "speculating {} (seq {token}, slot {slot}) onto slot {target}; \
                         {} launches left",
                        job, self.spec_budget_left
                    ),
                )
        });
        self.slot_mut(target).queue.push_back(copy);
        self.ship_next(now, target, out);
    }

    /// The keep-alive timeout elapsed on a parked (silently dark) slot:
    /// the offline failure surfaces now (§5).
    fn on_offline_detect(
        &mut self,
        now: Micros,
        slot: usize,
        token: u64,
        out: &mut Vec<CoordCommand>,
    ) {
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        if s.parked.as_ref().is_none_or(|(t, _)| *t != token) {
            return;
        }
        let Some((_, mut residuals)) = s.parked.take() else {
            return;
        };
        // A solver round racing the unplug may have queued fresh work on
        // this slot after its state was parked; sweep that out too.
        residuals.extend(s.queue.drain(..));
        s.parked_inflight_seq = None;
        let id = s.id();
        // The sim collapses the keep-alive probes into one timeout event;
        // the counter still reflects the individual misses that elapsed.
        let misses = u64::from(self.cfg.tolerated_misses);
        self.cfg.obs.metrics.add("engine.keepalive_miss", misses);
        self.cfg.obs.emit_with(|| {
            self.event(now, "engine", "phone.offline_detected")
                .severity(cwc_obs::Severity::Warn)
                .field("phone", id.to_string())
                .field("keepalive_misses", misses)
                .field("lost_residuals", residuals.len())
                .field(
                    "msg",
                    format!("{id} declared offline after {misses} missed keep-alives"),
                )
        });
        for item in residuals {
            self.fail_item(item);
        }
        self.after_failure(now, out);
    }

    /// Periodic liveness probe (live driver): declare idle silent slots
    /// offline, probe everyone else again.
    fn on_keepalive_timer(
        &mut self,
        now: Micros,
        slot: usize,
        token: u64,
        out: &mut Vec<CoordCommand>,
    ) {
        let period = self.cfg.keepalive_period;
        let tolerated = self.cfg.tolerated_misses;
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        if !s.alive || s.ka_token != token {
            return;
        }
        // Misses only count while the slot is idle — a worker deep in a
        // long task is busy, not gone, and its completion report is proof
        // of life anyway.
        if s.busy.is_none() && s.unanswered >= tolerated {
            let why = format!(
                "{} offline ({} unanswered keep-alives)",
                s.id(),
                s.unanswered
            );
            self.mark_failed(now, slot, "worker.lost", why);
            self.after_failure(now, out);
            return;
        }
        s.ka_seq += 1;
        s.unanswered += 1;
        let seq = s.ka_seq;
        let ka_token = s.ka_token;
        self.cfg.obs.metrics.inc("live.keepalive_sent");
        out.push(CoordCommand::SendKeepAlive { slot, seq });
        out.push(CoordCommand::StartTimer {
            kind: TimerKind::KeepAlive,
            slot,
            token: ka_token,
            after: period,
        });
    }

    /// Stall watchdog: a task shipped long ago with no report means a
    /// lost frame or a wedged worker. Requeue it; the breaker decides
    /// whether the slot stays schedulable.
    fn on_stall_timer(
        &mut self,
        now: Micros,
        slot: usize,
        token: u64,
        out: &mut Vec<CoordCommand>,
    ) {
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        if !s.alive || s.busy.as_ref().is_none_or(|b| b.seq != token) {
            return;
        }
        let Some(fl) = s.busy.take() else { return };
        let id = s.id();
        let job = self.jobs[fl.item.job].spec.id;
        self.cfg.obs.metrics.inc("live.stalled");
        self.cfg.obs.emit_with(|| {
            fl.item
                .trace
                .stamp(self.event(now, "failure", "task.stalled"))
                .severity(cwc_obs::Severity::Warn)
                .field("phone", id.0)
                .field("job", job.0)
                .field(
                    "msg",
                    format!(
                        "{id}: no report for {job} after {} ms; requeueing",
                        self.cfg.stall_timeout.unwrap_or(Micros::ZERO).as_ms_f64()
                    ),
                )
        });
        self.fail_item(fl.item);
        if self.breaker_trips(now, slot) {
            self.quarantine(now, slot, "repeated stalls");
        }
        self.after_failure(now, out);
    }

    fn breaker_trips(&mut self, now: Micros, slot: usize) -> bool {
        self.slots
            .get_mut(slot)
            .and_then(|s| s.breaker.as_mut())
            .is_some_and(|b| b.record(now))
    }

    /// Quarantines a flapping slot (circuit breaker tripped): like a
    /// failure, plus the `live.quarantined` counter.
    fn quarantine(&mut self, now: Micros, slot: usize, why: &str) {
        let alive = self.slots.get(slot).is_some_and(|s| s.alive);
        if !alive {
            return;
        }
        self.quarantined += 1;
        self.cfg.obs.metrics.inc("live.quarantined");
        let id = self
            .slots
            .get(slot)
            .map(|s| s.id())
            .unwrap_or(cwc_types::PhoneId(u32::MAX));
        self.mark_failed(
            now,
            slot,
            "worker.quarantined",
            format!("{id} quarantined: {why}"),
        );
    }

    /// Marks a slot failed: emits the event (live), and moves its
    /// in-flight task and queue into the failed list (§5's `F_A`).
    fn mark_failed(&mut self, now: Micros, slot: usize, event: &str, why: String) {
        let live = self.live();
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        if !s.alive {
            return;
        }
        s.alive = false;
        s.ka_token += 1;
        let id = s.id();
        if live {
            self.cfg.obs.emit_with(|| {
                self.event(now, "failure", event)
                    .severity(cwc_obs::Severity::Warn)
                    .field("phone", id.0)
                    .field("msg", why)
            });
        }
        let s = self.slots.get_mut(slot).expect("slot exists");
        let mut dead: Vec<WorkItem> = Vec::new();
        if let Some(fl) = s.busy.take() {
            dead.push(fl.item);
        }
        dead.extend(s.queue.drain(..));
        for item in dead {
            self.fail_item(item);
        }
    }

    /// Routes accumulated residuals per the configured policy.
    fn after_failure(&mut self, now: Micros, out: &mut Vec<CoordCommand>) {
        if self.failed.is_empty() {
            return;
        }
        match self.cfg.reschedule {
            ReschedulePolicy::Solver { .. } => self.arm_reschedule(out),
            ReschedulePolicy::RoundRobin => self.migrate_now(now, out),
        }
    }

    /// Arms the next §5 scheduling instant after the grace delay. One
    /// pending instant absorbs every failure until it fires.
    fn arm_reschedule(&mut self, out: &mut Vec<CoordCommand>) {
        let ReschedulePolicy::Solver { delay } = self.cfg.reschedule else {
            return;
        };
        if !self.round_pending {
            self.round_pending = true;
            out.push(CoordCommand::StartTimer {
                kind: TimerKind::Reschedule,
                slot: 0,
                token: 0,
                after: delay,
            });
        }
    }

    /// Graceful degradation: `residuals` failed items will not be placed
    /// (`why`). Surface the partial coverage — one `Error` event, and the
    /// summary drivers report the shortfall from — instead of erroring
    /// the batch away.
    fn lose_fleet(&mut self, now: Micros, residuals: usize, why: String) {
        let detail =
            format!("{why} with {residuals} residual task(s) unplaced; returning partial results");
        let unprocessed_kb: BTreeMap<JobId, u64> = self
            .jobs
            .iter()
            .filter_map(|j| {
                let input = j.spec.input_kb.0;
                (j.progress < input).then_some((j.spec.id, input - j.progress))
            })
            .collect();
        self.cfg.obs.emit_with(|| {
            self.event(now, "failure", "fleet.lost")
                .severity(cwc_obs::Severity::Error)
                .field("residuals", residuals)
                .field("msg", detail.clone())
        });
        self.fleet_loss = Some(FleetLoss {
            workers_lost: self.workers_lost(),
            quarantined: self.quarantined,
            unprocessed_kb,
            detail,
        });
    }

    /// Round-robin migration of residuals over the survivors (live).
    fn migrate_now(&mut self, now: Micros, out: &mut Vec<CoordCommand>) {
        let mut residuals = std::mem::take(&mut self.failed);
        // Deadline-class residuals are placed (and therefore shipped)
        // first; a stable sort keeps failure order within each class.
        if !self.cfg.slo.is_empty() {
            let slo = &self.cfg.slo;
            residuals.sort_by_key(|r| SloClass::rank(slo.get(&self.jobs[r.job].spec.id).copied()));
        }
        let alive = self.alive_slots();
        if alive.is_empty() {
            let why = format!("all {} workers lost", self.workers_lost());
            return self.lose_fleet(now, residuals.len(), why);
        }
        self.migrated += residuals.len();
        self.cfg
            .obs
            .metrics
            .add("live.migrated", residuals.len() as u64);
        self.cfg.obs.emit_with(|| {
            self.event(now, "live", "migration")
                .field("residuals", residuals.len())
                .field("survivors", alive.len())
                .field(
                    "msg",
                    format!(
                        "migrating {} residuals over {} survivors",
                        residuals.len(),
                        alive.len()
                    ),
                )
        });
        for (k, mut item) in residuals.into_iter().enumerate() {
            item.rescheduled = true;
            self.next_span += 1;
            item.trace = item.trace.child(self.next_span);
            let target = alive[k % alive.len()];
            self.slot_mut(target).queue.push_back(item);
        }
        for &t in &alive {
            self.ship_next(now, t, out);
        }
    }

    /// The §5 scheduling instant fired: if residuals remain, re-probe
    /// every available slot, then run a solver round over them.
    fn on_reschedule_timer(&mut self, now: Micros, out: &mut Vec<CoordCommand>) {
        self.round_pending = false;
        if self.failed.is_empty() {
            return;
        }
        self.reschedule_rounds += 1;
        if self.reschedule_rounds > MAX_ROUNDS {
            // Nothing is armed past this point, so say so — once.
            if self.fleet_loss.is_none() {
                let why = format!("gave up after {MAX_ROUNDS} scheduling instants");
                self.lose_fleet(now, self.failed.len(), why);
            }
            return;
        }
        let avail = self.alive_slots();
        if avail.is_empty() {
            // Try again later; maybe someone replugs.
            return self.arm_reschedule(out);
        }
        // Fresh b_i for the round: probe every available slot; the round
        // runs when the last reply arrives.
        for &i in &avail {
            out.push(CoordCommand::SendProbe { slot: i });
        }
        self.probing = Some(ProbeRound {
            awaiting: avail.iter().copied().collect(),
            avail,
        });
    }

    /// All probes for a solver round arrived: build and distribute the
    /// residual schedule. A round that cannot (every probed slot gone
    /// since, or the residue unschedulable right now) keeps the residuals
    /// and tries again at the next instant.
    fn run_round(&mut self, now: Micros, out: &mut Vec<CoordCommand>) {
        let Some(round) = self.probing.take() else {
            return;
        };
        // A slot can unplug between its probe reply and the last reply
        // that completes the round; distributing over the stale list
        // would strand chunks in a dead slot's queue, which nothing
        // drains.
        let avail: Vec<usize> = round
            .avail
            .into_iter()
            .filter(|&i| self.slots.get(i).is_some_and(|s| s.alive))
            .collect();
        let residuals = std::mem::take(&mut self.failed);
        // Runtime invariant check (debug builds and tests): the round
        // must requeue every failed chunk exactly once.
        if cfg!(debug_assertions) {
            let span = |r: &WorkItem| (self.jobs[r.job].spec.id, r.base_offset.0, r.kb.0);
            if let Err(violation) = cwc_core::schedule::validate_requeue(residuals.iter().map(span))
            {
                let round = self.reschedule_rounds;
                panic!("reschedule round {round}: requeue invariant violated: {violation}");
            }
        }
        let Ok(schedule) = self.schedule_instant(&avail, &residuals) else {
            self.failed = residuals;
            return self.arm_reschedule(out);
        };
        self.cfg.obs.metrics.inc("engine.reschedule_rounds");
        self.cfg.obs.emit_with(|| {
            self.event(now, "sched", "schedule.round")
                .field("round", self.reschedule_rounds)
                .field("residuals", schedule.num_assignments())
                .field("phones", avail.len())
                .field(
                    "msg",
                    format!(
                        "reschedule round {}: {} residuals over {} phones",
                        self.reschedule_rounds,
                        schedule.num_assignments(),
                        avail.len()
                    ),
                )
        });
        for &i in &avail {
            self.ship_next(now, i, out);
        }
    }

    fn fail_fatal(&mut self, e: CwcError, out: &mut Vec<CoordCommand>) {
        self.fatal = Some(e);
        out.push(CoordCommand::Halt);
    }
}

// ---------------------------------------------------------------------------
// Model-checking hooks: state digests + oracle views.
// ---------------------------------------------------------------------------

/// One work chunk as the model checker sees it: enough to account for
/// every input byte, nothing that would leak kernel internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkView {
    /// Original (catalog) job this chunk covers.
    pub job: JobId,
    /// The job's program in the kernel's catalogue.
    pub program: ProgramId,
    /// Chunk length, KB.
    pub kb: u64,
    /// Offset into the job's input, KB.
    pub offset: u64,
    /// Redundancy group membership (replica/speculation pair).
    pub group: Option<u32>,
    /// True on the redundant copy of a group.
    pub speculative: bool,
}

/// One live first-result-wins redundancy pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// Job the group covers.
    pub job: JobId,
    /// Full slice length the group is responsible for, KB.
    pub kb: u64,
    /// Members still alive.
    pub outstanding: u32,
}

/// One slot as the model checker sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotCheckView {
    /// Schedulable (not failed/quarantined).
    pub alive: bool,
    /// Has a `PhoneInfo` (was probed).
    pub probed: bool,
    /// In-flight chunk: `(ship seq, chunk)`.
    pub busy: Option<(u64, ChunkView)>,
    /// Queued chunks, ship order.
    pub queue: Vec<ChunkView>,
    /// Chunks parked by a silent unplug (awaiting offline detection).
    pub parked: Vec<ChunkView>,
    /// Ship seq of the in-flight chunk parked when the slot went dark.
    pub parked_inflight_seq: Option<u64>,
}

/// A read-only snapshot of everything the `cwc-check` invariant oracles
/// need: per-job byte accounting, per-slot work placement, and the live
/// redundancy groups. Intentionally omits presentation-only state
/// (metrics, trace ids, completion timestamps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckView {
    /// Every job's input fully covered.
    pub finished: bool,
    /// Graceful-degradation latch: residuals with no survivor.
    pub fleet_lost: bool,
    /// Fatal setup error latched (a `Halt` was emitted).
    pub fatal: bool,
    /// A reschedule instant is pending.
    pub round_pending: bool,
    /// Slots a solver round is still awaiting probe replies from.
    pub probing: Vec<usize>,
    /// Speculative launches still allowed this run.
    pub spec_budget_left: u32,
    /// Credited KB per job.
    pub progress: std::collections::BTreeMap<JobId, u64>,
    /// Input size per job, KB.
    pub job_size: std::collections::BTreeMap<JobId, u64>,
    /// Jobs whose completion has latched.
    pub completed: std::collections::BTreeSet<JobId>,
    /// The §5 failed list (residuals awaiting a reschedule route).
    pub failed: Vec<ChunkView>,
    /// Live redundancy groups by id.
    pub groups: std::collections::BTreeMap<u32, GroupView>,
    /// Per-slot placement state.
    pub slots: std::collections::BTreeMap<usize, SlotCheckView>,
}

impl CheckView {
    /// KB of outstanding (not yet credited) work per job, counting each
    /// redundancy group exactly once: queued + in-flight + parked +
    /// failed chunks, with grouped members collapsed onto their group's
    /// full slice.
    pub fn outstanding_kb(&self) -> std::collections::BTreeMap<JobId, u64> {
        let mut out: std::collections::BTreeMap<JobId, u64> = std::collections::BTreeMap::new();
        let mut counted: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut add = |chunk: &ChunkView, out: &mut std::collections::BTreeMap<JobId, u64>| {
            match chunk.group {
                Some(g) => {
                    if counted.insert(g) {
                        // The group owns the slice; any member's kb is the
                        // group's kb.
                        *out.entry(chunk.job).or_insert(0) += chunk.kb;
                    }
                }
                None => *out.entry(chunk.job).or_insert(0) += chunk.kb,
            }
        };
        for chunk in &self.failed {
            add(chunk, &mut out);
        }
        for slot in self.slots.values() {
            if let Some((_, chunk)) = &slot.busy {
                add(chunk, &mut out);
            }
            for chunk in &slot.queue {
                add(chunk, &mut out);
            }
            for chunk in &slot.parked {
                add(chunk, &mut out);
            }
        }
        out
    }
}

/// The kernel digest's encodings of strings, flags and options over the
/// workspace's FNV-1a.
trait DigestWrite {
    fn write_str(&mut self, s: &str);
    fn write_flag(&mut self, b: bool);
    fn write_opt(&mut self, v: Option<u64>);
}

impl DigestWrite for Fnv1a {
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }
    fn write_flag(&mut self, b: bool) {
        self.write_u8(u8::from(b));
    }
    fn write_opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.write_u8(1);
                self.write_u64(v);
            }
            None => self.write_u8(0),
        }
    }
}

impl Kernel {
    fn view_chunk(&self, item: &WorkItem) -> ChunkView {
        let row = &self.jobs[item.job];
        ChunkView {
            job: row.spec.id,
            program: row.program,
            kb: item.kb.0,
            offset: item.base_offset.0,
            group: item.group,
            speculative: item.speculative,
        }
    }

    /// The oracle-facing snapshot of the current state.
    pub fn check_view(&self) -> CheckView {
        CheckView {
            finished: self.finished,
            fleet_lost: self.fleet_loss.is_some(),
            fatal: self.fatal.is_some(),
            round_pending: self.round_pending,
            probing: self
                .probing
                .as_ref()
                .map(|r| r.awaiting.iter().copied().collect())
                .unwrap_or_default(),
            spec_budget_left: self.spec_budget_left,
            progress: self.jobs.iter().map(|j| (j.spec.id, j.progress)).collect(),
            job_size: self
                .jobs
                .iter()
                .map(|j| (j.spec.id, j.spec.input_kb.0))
                .collect(),
            completed: self.completed_at().into_keys().collect(),
            failed: self.failed.iter().map(|it| self.view_chunk(it)).collect(),
            groups: self
                .replica_groups
                .iter()
                .map(|(&g, grp)| {
                    (
                        g,
                        GroupView {
                            job: self.jobs[grp.job].spec.id,
                            kb: grp.kb.0,
                            outstanding: grp.outstanding,
                        },
                    )
                })
                .collect(),
            slots: self
                .slots
                .iter()
                .map(|(i, s)| {
                    (
                        i,
                        SlotCheckView {
                            alive: s.alive,
                            probed: s.info.is_some(),
                            busy: s
                                .busy
                                .as_ref()
                                .map(|fl| (fl.seq, self.view_chunk(&fl.item))),
                            queue: s.queue.iter().map(|it| self.view_chunk(it)).collect(),
                            parked: s
                                .parked
                                .as_ref()
                                .map(|(_, items)| {
                                    items.iter().map(|it| self.view_chunk(it)).collect()
                                })
                                .unwrap_or_default(),
                            parked_inflight_seq: s.parked_inflight_seq,
                        },
                    )
                })
                .collect(),
        }
    }

    /// A 64-bit digest of the behavior-relevant kernel state, for the
    /// explorer's visited-state deduplication. Two states with equal
    /// digests are treated as one: the digest therefore covers everything
    /// that can influence a future transition (work placement, byte
    /// accounting, redundancy groups, tokens, the predictor and the
    /// warm-start hint) and deliberately excludes presentation-only state
    /// (completion timestamps, metrics counters, trace ids).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_flag(self.finished);
        h.write_flag(self.fleet_loss.is_some());
        h.write_flag(self.fatal.is_some());
        h.write_flag(self.round_pending);
        h.write_u64(self.reschedule_rounds as u64);
        h.write_u64(self.next_seq);
        h.write_u64(u64::from(self.next_group));
        h.write_u64(u64::from(self.spec_budget_left));
        match &self.probing {
            Some(round) => {
                h.write_u8(1);
                for &i in &round.awaiting {
                    h.write_u64(i as u64);
                }
                h.write_u64(round.avail.len() as u64);
                for &i in &round.avail {
                    h.write_u64(i as u64);
                }
            }
            None => h.write_u8(0),
        }
        for j in &self.jobs {
            h.write_u64(u64::from(j.spec.id.0));
            h.write_u64(j.progress);
        }
        for j in self.jobs.iter().filter(|j| j.completed_at.is_some()) {
            h.write_u64(u64::from(j.spec.id.0));
        }
        h.write_u64(self.failed.len() as u64);
        for item in &self.failed {
            self.hash_item(&mut h, item);
        }
        for (&g, grp) in &self.replica_groups {
            h.write_u64(u64::from(g));
            h.write_u64(u64::from(self.jobs[grp.job].spec.id.0));
            h.write_u64(grp.kb.0);
            h.write_u64(grp.base_offset.0);
            h.write_u64(u64::from(grp.outstanding));
        }
        // The predictor and warm-start hint steer future solver rounds;
        // their `Debug` forms are deterministic (programs in name order).
        h.write_str(&format!("{:?}", self.predictor));
        h.write_str(&format!("{:?}", self.warm));
        for (i, s) in self.slots.iter() {
            h.write_u64(i as u64);
            h.write_flag(s.alive);
            h.write_u64(u64::from(s.unanswered));
            h.write_u64(s.ka_seq);
            h.write_u64(s.ka_token);
            h.write_u64(s.park_token);
            h.write_opt(s.parked_inflight_seq);
            match &s.info {
                Some(info) => {
                    h.write_u8(1);
                    h.write_u64(u64::from(info.id.0));
                    h.write_u64(info.bandwidth.0.to_bits());
                    h.write_u64(info.ram_kb);
                }
                None => h.write_u8(0),
            }
            // Held executables by name, in name order.
            for (name, program) in self.predictor.programs() {
                if s.has_exe.get(program.index()) == Some(&true) {
                    h.write_str(name);
                }
            }
            match &s.busy {
                Some(fl) => {
                    h.write_u8(1);
                    h.write_u64(fl.seq);
                    self.hash_item(&mut h, &fl.item);
                }
                None => h.write_u8(0),
            }
            h.write_u64(s.queue.len() as u64);
            for item in &s.queue {
                self.hash_item(&mut h, item);
            }
            match &s.parked {
                Some((token, items)) => {
                    h.write_u8(1);
                    h.write_u64(*token);
                    h.write_u64(items.len() as u64);
                    for item in items {
                        self.hash_item(&mut h, item);
                    }
                }
                None => h.write_u8(0),
            }
            h.write_str(&format!("{:?}", s.breaker));
        }
        h.finish()
    }

    fn hash_item(&self, h: &mut Fnv1a, item: &WorkItem) {
        let row = &self.jobs[item.job];
        h.write_u64(u64::from(row.spec.id.0));
        h.write_str(self.predictor.name(row.program));
        h.write_u64(row.spec.exe_kb.0);
        h.write_u64(item.kb.0);
        h.write_u64(item.base_offset.0);
        match &item.resume {
            Some(bytes) => {
                h.write_u8(1);
                h.write_u64(bytes.len() as u64);
                h.write(bytes);
            }
            None => h.write_u8(0),
        }
        h.write_flag(item.rescheduled);
        h.write_opt(item.group.map(u64::from));
        h.write_flag(item.speculative);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_types::{CpuSpec, MsPerKb, PhoneId, RadioTech};

    fn config(jobs: Vec<JobSpec>) -> KernelConfig {
        KernelConfig {
            scheduler: SchedulerKind::Greedy,
            jobs,
            baselines: crate::engine::paper_baselines(),
            keepalive_period: Micros::from_secs(5),
            tolerated_misses: 3,
            reschedule: ReschedulePolicy::RoundRobin,
            stall_timeout: None,
            breaker: None,
            reliability: None,
            slo: BTreeMap::new(),
            replication: None,
            speculation: None,
            bandwidth_blind: false,
            style: DriverStyle::Live,
            obs: cwc_obs::Obs::new(),
        }
    }

    fn atomic_jobs(sizes_kb: &[u64]) -> Vec<JobSpec> {
        let job =
            |(i, &kb)| JobSpec::atomic(JobId(i as u32), "photoblur", KiloBytes(40), KiloBytes(kb));
        sizes_kb.iter().enumerate().map(job).collect()
    }

    /// One shipped chunk the harness owes a reply.
    #[derive(Debug, Clone, Copy)]
    struct Shipped {
        slot: usize,
        seq: u64,
        job: JobId,
        len_kb: u64,
        replica: bool,
    }

    /// A kernel driven closed-loop beside an independent count of covered
    /// KB (what the harness itself reported and the kernel accepted). Every
    /// step checks the completion latch against that count: `Finished` is
    /// emitted on exactly the step that covers the batch's last KB.
    struct Harness {
        kernel: Kernel,
        outstanding: Vec<Shipped>,
        /// Every `ShipInput` the kernel emitted, in order.
        ships: Vec<CoordCommand>,
        speculate_timers: Vec<(usize, u64)>,
        covered: BTreeMap<JobId, u64>,
        target: BTreeMap<JobId, u64>,
        now: u64,
        finished_cmds: usize,
        completion_order: Vec<JobId>,
    }

    /// The harness's phone for `slot`, its link at `ms_per_kb`.
    fn phone(slot: usize, ms_per_kb: f64) -> PhoneInfo {
        let cpu = CpuSpec::new(1_400 - 200 * slot as u32, 2);
        let id = PhoneId(slot as u32);
        PhoneInfo::new(id, cpu, RadioTech::Wifi80211g, MsPerKb(ms_per_kb))
    }

    impl Harness {
        /// Probes `slots` phones (slot 0 the fastest) and starts the batch.
        fn start(cfg: KernelConfig, slots: usize) -> Harness {
            let target: BTreeMap<JobId, u64> =
                cfg.jobs.iter().map(|j| (j.id, j.input_kb.0)).collect();
            let mut h = Harness {
                kernel: Kernel::new(cfg).expect("kernel"),
                outstanding: Vec::new(),
                ships: Vec::new(),
                speculate_timers: Vec::new(),
                covered: target.keys().map(|&id| (id, 0)).collect(),
                target,
                now: 0,
                finished_cmds: 0,
                completion_order: Vec::new(),
            };
            for slot in 0..slots {
                let info = phone(slot, 2.0 + slot as f64);
                h.step(CoordEvent::Probe { slot, info }, None);
            }
            h.step(CoordEvent::Start, None);
            h
        }

        fn all_covered(&self) -> bool {
            self.target.iter().all(|(id, &kb)| self.covered[id] >= kb)
        }

        fn uncovered_kb(&self) -> u64 {
            let left = |(id, &kb): (&JobId, &u64)| kb.saturating_sub(self.covered[id]);
            self.target.iter().map(left).sum()
        }

        /// Steps the kernel. `report` is the `(job, kb)` this event covers
        /// if the kernel takes it (`needs_record`: only with a
        /// `RecordResult` in reply, i.e. an accepted `ReportOk`).
        fn step(
            &mut self,
            ev: CoordEvent,
            report: Option<(JobId, u64, bool)>,
        ) -> Vec<CoordCommand> {
            self.now += 1_000;
            let was_covered = self.all_covered();
            let mut out = Vec::new();
            self.kernel.step_into(Micros(self.now), ev, &mut out);
            let recorded = out
                .iter()
                .any(|c| matches!(c, CoordCommand::RecordResult { .. }));
            if let Some((job, kb, needs_record)) = report {
                if recorded || !needs_record {
                    let done = self.covered.get_mut(&job).expect("known job");
                    let before = *done;
                    *done += kb;
                    if before < self.target[&job] && *done >= self.target[&job] {
                        self.completion_order.push(job);
                    }
                }
            }
            for cmd in &out {
                match *cmd {
                    CoordCommand::ShipInput {
                        slot,
                        seq,
                        job,
                        len_kb,
                        replica,
                        ..
                    } => {
                        self.outstanding.push(Shipped {
                            slot,
                            seq,
                            job,
                            len_kb,
                            replica,
                        });
                        self.ships.push(cmd.clone());
                    }
                    CoordCommand::CancelTask { slot, seq, .. } => {
                        self.outstanding.retain(|s| (s.slot, s.seq) != (slot, seq))
                    }
                    CoordCommand::StartTimer {
                        kind: TimerKind::Speculate,
                        slot,
                        token,
                        ..
                    } => self.speculate_timers.push((slot, token)),
                    _ => {}
                }
            }
            let finished_now = out.iter().any(|c| matches!(c, CoordCommand::Finished));
            assert_eq!(
                finished_now,
                self.all_covered() && !was_covered,
                "Finished must ride the step that covers the last KB ({} KB uncovered)",
                self.uncovered_kb()
            );
            self.finished_cmds += usize::from(finished_now);
            out
        }

        fn ok(&mut self, i: usize) {
            let s = self.outstanding.remove(i);
            let ev = CoordEvent::ReportOk {
                slot: s.slot,
                seq: s.seq,
                job: s.job,
                exec_ms: s.len_kb as f64,
            };
            self.step(ev, Some((s.job, s.len_kb, true)));
        }

        fn fail(&mut self, i: usize, processed_kb: u64) {
            let s = self.outstanding.remove(i);
            let ev = CoordEvent::ReportFailed {
                slot: s.slot,
                seq: s.seq,
                job: s.job,
                processed_kb,
                checkpoint: Some(vec![1, 2, 3]),
            };
            self.step(ev, Some((s.job, processed_kb.min(s.len_kb), false)));
        }

        /// Replies `ReportOk` until nothing is owed, copies first (so a
        /// redundant member wins wherever one is in flight).
        fn drain(&mut self) {
            while !self.outstanding.is_empty() {
                let i = self.outstanding.iter().position(|s| s.replica);
                self.ok(i.unwrap_or(0));
            }
        }

        /// The slot's connection drops; what it was shipped is never
        /// answered.
        fn lose(&mut self, slot: usize) -> Vec<CoordCommand> {
            self.outstanding.retain(|s| s.slot != slot);
            let why = "connection reset".to_owned();
            self.step(CoordEvent::ConnectionLost { slot, why }, None)
        }

        fn fire_reschedule(&mut self) -> Vec<CoordCommand> {
            let (kind, slot, token) = (TimerKind::Reschedule, 0, 0);
            self.step(CoordEvent::TimerFired { kind, slot, token }, None)
        }

        fn assert_finished_exactly_once(&self) {
            assert!(self.kernel.finished());
            assert_eq!(self.finished_cmds, 1);
            assert_eq!(self.kernel.unfinished, 0);
            assert_eq!(self.kernel.completed_at().len(), self.target.len());
        }
    }

    #[test]
    fn finished_fires_once_when_jobs_complete_out_of_id_order() {
        let mut h = Harness::start(config(atomic_jobs(&[10, 20, 30, 40, 50, 60])), 2);
        while !h.outstanding.is_empty() {
            let newest = (0..h.outstanding.len()).max_by_key(|&i| h.outstanding[i].job);
            h.ok(newest.expect("non-empty"));
        }
        h.assert_finished_exactly_once();
        let mut by_id = h.completion_order.clone();
        by_id.sort();
        assert_ne!(h.completion_order, by_id, "jobs completed in id order");
    }

    #[test]
    fn finished_fires_on_the_report_failed_whose_partial_credit_covers_the_last_kb() {
        let jobs = vec![
            JobSpec::breakable(JobId(0), "primecount", KiloBytes(30), KiloBytes(400)),
            JobSpec::breakable(JobId(1), "primecount", KiloBytes(30), KiloBytes(300)),
        ];
        let mut h = Harness::start(config(jobs), 3);
        // A partial credit that finishes nothing: the slot dies, the
        // remainder migrates.
        let half = h.outstanding[0].len_kb / 2;
        h.fail(0, half);
        assert!(!h.kernel.finished());
        let mut last_was_failure = false;
        while !h.outstanding.is_empty() {
            last_was_failure = h.outstanding[0].len_kb == h.uncovered_kb();
            if last_was_failure {
                // The worker processed its whole slice, then unplugged.
                h.fail(0, h.outstanding[0].len_kb);
            } else {
                h.ok(0);
            }
        }
        assert!(
            last_was_failure,
            "the batch's last KB must arrive as a ReportFailed"
        );
        h.assert_finished_exactly_once();
    }

    /// Slot 0 is fast and flaky: its atomic placements are replicated onto
    /// slot 1, and whichever member reports first retires the other.
    fn replica_wins() -> Harness {
        let mut cfg = config(atomic_jobs(&[40, 50, 60, 70]));
        cfg.reliability = Some((vec![0.9, 0.0], 0.0));
        cfg.replication = Some(ReplicationPolicy { threshold: 0.5 });
        let obs = cfg.obs.clone();
        let mut h = Harness::start(cfg, 2);
        h.drain();
        assert!(obs.metrics.counter_value("sched.replica.planned") >= 1);
        // A loser is only ever retired by its twin's win.
        assert!(obs.metrics.counter_value("sched.replica.wasted") >= 1);
        h
    }

    #[test]
    fn finished_fires_once_when_a_replica_group_wins() {
        replica_wins().assert_finished_exactly_once();
    }

    /// Slot 0's first chunk straggles: its copy runs on slot 1, and since
    /// the straggler never answers, the copy wins and retires it.
    fn speculative_copy_wins() -> Harness {
        let mut cfg = config(atomic_jobs(&[40, 50, 60, 70]));
        cfg.speculation = Some(SpeculationPolicy {
            slack: 1.5,
            budget: 1,
        });
        let obs = cfg.obs.clone();
        let mut h = Harness::start(cfg, 2);
        let (slot, token) = h.speculate_timers[0];
        let straggler = CoordEvent::TimerFired {
            kind: TimerKind::Speculate,
            slot,
            token,
        };
        h.step(straggler, None);
        assert_eq!(obs.metrics.counter_value("sched.speculation.launched"), 1);
        // Never answer for the straggler itself; its copy has to win.
        while let Some(i) = h
            .outstanding
            .iter()
            .position(|s| (s.slot, s.seq) != (slot, token))
        {
            let i = h.outstanding.iter().position(|s| s.replica).unwrap_or(i);
            h.ok(i);
        }
        assert!(
            h.outstanding.is_empty(),
            "the straggler was never cancelled"
        );
        assert_eq!(obs.metrics.counter_value("sched.speculation.won"), 1);
        h
    }

    #[test]
    fn finished_fires_once_when_a_speculative_copy_wins() {
        speculative_copy_wins().assert_finished_exactly_once();
    }

    /// A redundant copy is one more `ShipInput` of its primary's slice,
    /// told apart by `replica: true` alone: a replica group and a
    /// speculation group each ship the same job, program, offset, length
    /// and checkpoint twice, and exactly one of the two ships is flagged.
    #[test]
    fn a_groups_two_ships_differ_only_in_the_replica_flag() {
        // One atomic job, packed onto the fast flaky slot 0: its replica
        // ships at once on the idle slot 1.
        let mut cfg = config(atomic_jobs(&[40]));
        cfg.reliability = Some((vec![0.9, 0.0], 0.0));
        cfg.replication = Some(ReplicationPolicy { threshold: 0.5 });
        let replicated = Harness::start(cfg, 2);
        for h in [replicated, speculative_copy_wins()] {
            let ships: Vec<_> = (h.ships.iter())
                .map(|c| match c {
                    CoordCommand::ShipInput {
                        job,
                        program,
                        offset_kb,
                        len_kb,
                        resume,
                        trace,
                        replica,
                        ..
                    } => {
                        let slice = (*job, program.clone(), *offset_kb, *len_kb, resume.clone());
                        (slice, *trace, *replica)
                    }
                    _ => unreachable!("the harness logs ships only"),
                })
                .collect();
            let copies = ships.iter().filter(|(_, _, replica)| *replica);
            assert!(copies.clone().count() >= 1, "no group was shipped");
            for (slice, trace, _) in copies {
                // The copy's span continues its primary's placement.
                let primary = |(_, t, _): &&(_, TraceCtx, _)| Some(t.span_id) == trace.parent;
                let primaries: Vec<_> = ships.iter().filter(primary).collect();
                assert_eq!(primaries.len(), 1, "one primary per copy");
                let (primary_slice, _, primary_flagged) = primaries[0];
                assert_eq!(primary_slice, slice);
                assert!(!primary_flagged, "both ships of a group flagged");
            }
        }
    }

    const SOLVER: ReschedulePolicy = ReschedulePolicy::Solver {
        delay: Micros(1_000_000),
    };

    #[test]
    fn a_residue_no_instant_can_place_is_reported_not_silently_dropped() {
        let mut cfg = config(atomic_jobs(&[40, 50]));
        cfg.reschedule = SOLVER;
        let sink = Arc::new(cwc_obs::MemorySink::new());
        cfg.obs.bus.attach(sink.clone());
        let mut h = Harness::start(cfg, 1);
        // The only slot dies: no instant has a survivor to pack onto, so
        // each one re-arms the next — until the kernel refuses to go on.
        let mut out = h.lose(0);
        let mut instants = 0;
        let kind = TimerKind::Reschedule;
        while matches!(out[..], [CoordCommand::StartTimer { kind: k, .. }] if k == kind) {
            assert!(!h.kernel.fleet_lost());
            out = h.fire_reschedule();
            instants += 1;
        }
        assert_eq!((instants, out.len()), (MAX_ROUNDS + 1, 0));
        // Nothing is armed any more, so the shortfall has to be said —
        // once, however often a stray timer fires.
        assert!(h.fire_reschedule().is_empty());
        let events = sink.snapshot().into_iter();
        let errors = events.filter(|e| e.severity == cwc_obs::Severity::Error);
        assert_eq!(errors.map(|e| e.name).collect::<Vec<_>>(), ["fleet.lost"]);
        let loss = h.kernel.take_fleet_loss().expect("shortfall reported");
        assert_eq!(loss.unprocessed_kb.values().sum::<u64>(), 90);
    }

    /// One instant function means `bandwidth_blind` blinds every solve,
    /// not only the first: a re-solve sees the fresh `b_i` through their
    /// mean alone, so permuting them over the slots moves no residual.
    #[test]
    fn a_bandwidth_blind_kernel_re_solves_blind_too() {
        // What the round ships once slot 0 of 4 is lost, the survivors have
        // finished their own shares and answer its probes with `links`
        // (ms/KB; the sum is exact in either order).
        let round_ships = |blind: bool, links: [f64; 3]| {
            let job =
                |i| JobSpec::breakable(JobId(i), "primecount", KiloBytes(30), KiloBytes(4_000));
            let mut cfg = config((0..4).map(job).collect());
            (cfg.reschedule, cfg.bandwidth_blind) = (SOLVER, blind);
            let mut h = Harness::start(cfg, 4);
            h.lose(0);
            h.drain();
            assert_eq!(h.fire_reschedule().len(), 3, "one probe per survivor");
            let probe = |(k, &b): (usize, &f64)| CoordEvent::Probe {
                slot: k + 1,
                info: phone(k + 1, b),
            };
            let replies: Vec<_> = links.iter().enumerate().map(probe).collect();
            let steps = replies.into_iter().map(|ev| h.step(ev, None));
            steps.last().expect("three replies")
        };
        let (ab, ba) = ([1.0, 8.0, 64.0], [64.0, 8.0, 1.0]);
        assert_eq!(round_ships(true, ab).len(), 3, "one ship per idle survivor");
        assert_eq!(round_ships(true, ab), round_ships(true, ba));
        // The control: a sighted kernel does follow the links.
        assert_ne!(round_ships(false, ab), round_ships(false, ba));
    }

    /// No scheduling instant builds the cost matrix's P × J rows: the
    /// predictor hands the scheduler its columns, derisking scales them,
    /// and the packer and the schedule's validation read them. Covers the
    /// cold `Start` instant and a Solver re-solve, both derisked.
    #[test]
    fn no_scheduling_instant_builds_the_cost_rows() {
        let rows_built = cwc_core::CostMatrix::rows_built_on_this_thread();
        let job = |i| JobSpec::breakable(JobId(i), "primecount", KiloBytes(30), KiloBytes(4_000));
        let mut jobs: Vec<JobSpec> = (0..4).map(job).collect();
        jobs.extend(atomic_jobs(&[300, 200]).into_iter().map(|mut j| {
            j.id = JobId(j.id.0 + 4);
            j
        }));
        let mut cfg = config(jobs);
        cfg.reschedule = SOLVER;
        cfg.reliability = Some((vec![0.1, 0.0, 0.3, 0.2], 0.5));
        let mut h = Harness::start(cfg, 4);
        assert!(!h.outstanding.is_empty(), "the cold instant shipped");
        h.lose(0);
        h.drain();
        assert_eq!(h.fire_reschedule().len(), 3, "one probe per survivor");
        let mut shipped = 0;
        for slot in 1..4 {
            let info = phone(slot, 2.0 + slot as f64);
            shipped = h.step(CoordEvent::Probe { slot, info }, None).len();
        }
        assert!(shipped > 0, "the re-solve shipped");
        assert_eq!(
            cwc_core::CostMatrix::rows_built_on_this_thread(),
            rows_built
        );
    }

    /// A batch that carries one id twice is refused at admission, naming
    /// the id, whether the batch arrives in id order or not.
    #[test]
    fn a_repeated_job_id_is_refused_at_admission() {
        let refusal = |ids: &[u32]| {
            let jobs: Vec<JobSpec> = (ids.iter())
                .map(|&i| JobSpec::breakable(JobId(i), "primecount", KiloBytes(30), KiloBytes(50)))
                .collect();
            match Kernel::new(config(jobs)) {
                Err(CwcError::Config(msg)) => msg,
                Err(e) => panic!("{ids:?}: {e}"),
                Ok(_) => panic!("{ids:?}: admitted"),
            }
        };
        assert_eq!(refusal(&[0, 1, 1, 2]), "job id job-1 submitted twice");
        assert_eq!(refusal(&[4, 2, 9, 2, 4]), "job id job-2 submitted twice");
        // A missing baseline is found first, in submission order.
        let mut jobs = atomic_jobs(&[100, 100]);
        jobs[1].id = jobs[0].id;
        jobs[1].program = "unprofiled".into();
        let err = Kernel::new(config(jobs)).err().expect("refused");
        assert!(err.to_string().contains("\"unprofiled\""), "{err}");
    }

    /// The rows are the batch in id order whatever order it arrives in,
    /// with or without gaps in the ids; `Start` lends their specs to the
    /// search and every spec is whole again afterwards — also when the
    /// instant fails.
    #[test]
    fn admission_orders_the_rows_and_start_returns_the_lent_specs() {
        let ids = [7u32, 3, 12, 5];
        let jobs = (ids.iter())
            .map(|&i| JobSpec::breakable(JobId(i), "primecount", KiloBytes(30), KiloBytes(40)))
            .collect::<Vec<_>>();
        let mut h = Harness::start(config(jobs.clone()), 2);
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|j| j.id);
        assert!(h.kernel.specs().eq(&sorted));
        for (row, spec) in sorted.iter().enumerate() {
            assert_eq!(row_of(&h.kernel.jobs, spec.id), Some(row));
        }
        assert_eq!(row_of(&h.kernel.jobs, JobId(4)), None);
        assert_eq!(row_of(&h.kernel.jobs, JobId(13)), None);
        h.drain();
        assert!(h.kernel.finished());

        // Dense ids map by offset, and nothing outside them maps.
        let dense = (10..14)
            .map(|i| JobSpec::breakable(JobId(i), "primecount", KiloBytes(30), KiloBytes(40)))
            .collect::<Vec<_>>();
        let kernel = Kernel::new(config(dense)).expect("kernel");
        assert_eq!(row_of(&kernel.jobs, JobId(12)), Some(2));
        assert_eq!(row_of(&kernel.jobs, JobId(9)), None);
        assert_eq!(row_of(&kernel.jobs, JobId(14)), None);

        // A zero-size input fails the instant, and the error names the
        // job by its batch id, not by its position in the instant; the
        // catalogue stays whole.
        let mut jobs = jobs;
        jobs[2].input_kb = KiloBytes(0);
        let mut kernel = Kernel::new(config(jobs.clone())).expect("kernel");
        let info = phone(0, 2.0);
        kernel.step(Micros(1), CoordEvent::Probe { slot: 0, info });
        let out = kernel.step(Micros(2), CoordEvent::Start);
        assert!(matches!(out[..], [CoordCommand::Halt]), "{out:?}");
        let err = kernel.take_fatal().expect("fatal error latched");
        assert_eq!(err.to_string(), "invalid job job-12: zero-size input");
        jobs.sort_by_key(|j| j.id);
        assert!(kernel.specs().eq(&jobs));
    }

    /// An idle slot is declared lost on the keep-alive timer that finds
    /// `tolerated_misses` (3) probes unanswered, not on an earlier one,
    /// and an answer starts the count again.
    #[test]
    fn an_idle_slot_is_lost_after_exactly_the_tolerated_keepalive_misses() {
        let mut kernel = Kernel::new(config(atomic_jobs(&[40]))).expect("kernel");
        for slot in 0..2 {
            let info = phone(slot, 2.0);
            kernel.step(Micros(1), CoordEvent::Probe { slot, info });
        }
        let out = kernel.step(Micros(2), CoordEvent::Start);
        let busy = out.iter().find_map(|c| match *c {
            CoordCommand::ShipInput { slot, .. } => Some(slot),
            _ => None,
        });
        let idle = 1 - busy.expect("the job is shipped");
        let token = out.iter().find_map(|c| match *c {
            CoordCommand::StartTimer {
                kind: TimerKind::KeepAlive,
                slot,
                token,
                ..
            } if slot == idle => Some(token),
            _ => None,
        });
        let token = token.expect("the idle slot's keep-alive is armed");
        let mut now = Micros(2);
        let mut probed = |kernel: &mut Kernel, ev: CoordEvent| {
            now = Micros(now.0 + 5_000_000);
            let out = kernel.step(now, ev);
            out.iter()
                .any(|c| matches!(c, CoordCommand::SendKeepAlive { slot, .. } if *slot == idle))
        };
        let (kind, slot) = (TimerKind::KeepAlive, idle);
        let fire = CoordEvent::TimerFired { kind, slot, token };
        let mut sent = Vec::new();
        for _ in 0..2 {
            sent.push(probed(&mut kernel, fire.clone()));
        }
        assert!(!probed(&mut kernel, CoordEvent::KeepAliveSeen { slot }));
        for _ in 0..5 {
            sent.push(probed(&mut kernel, fire.clone()));
        }
        assert_eq!(sent, [true, true, true, true, true, false, false]);
        assert_eq!(kernel.keepalives_acked(), 1);
    }
}
