//! Outputs of the coordinator kernel.
//!
//! Commands are *instructions to the driver*: perform this I/O, arm this
//! timer, record this result. The kernel has already updated its own
//! state tables when a command is emitted; a driver that executes every
//! command (and feeds the resulting events back in) implements the full
//! CWC control loop.

use cwc_types::Micros;

/// Timer families the kernel can request. The kernel never reads a
/// clock; it asks the driver to wake it back up via
/// [`crate::coord::CoordEvent::TimerFired`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Periodic liveness probe for one slot (live driver).
    KeepAlive,
    /// Watchdog for one in-flight `ShipInput` (live driver); the token is
    /// the ship sequence number.
    Stall,
    /// Keep-alive-timeout detection for a slot that went dark (sim
    /// driver): fires `period × tolerated_misses` after the silence began.
    OfflineDetect,
    /// The §5 scheduling instant: fold accumulated residuals into a fresh
    /// solver round after the grace delay.
    Reschedule,
    /// Straggler check for one in-flight `ShipInput` (DESIGN.md §12): the
    /// token is the ship sequence number; if the chunk is still in flight
    /// when this fires, the kernel launches a speculative copy.
    Speculate,
}

/// One output of [`crate::coord::Kernel::step_into`].
#[derive(Debug, Clone, PartialEq)]
pub enum CoordCommand {
    /// Measure this slot's bandwidth and reply with
    /// [`crate::coord::CoordEvent::Probe`]. Emitted at every solver-based
    /// scheduling instant (the simulator's per-round `b_i` refresh).
    SendProbe {
        /// Slot to measure.
        slot: usize,
    },
    /// Ship one partition: executable (when `exe_kb > 0`, the binary has
    /// not reached this slot yet) followed by the input slice. The live
    /// driver maps this onto `ShipExecutable` + `ShipInput` frames; the
    /// sim driver starts a transfer of `exe_kb + len_kb` KB.
    ShipInput {
        /// Destination slot.
        slot: usize,
        /// Sequence number reports must echo.
        seq: u64,
        /// Original (catalog) job id.
        job: cwc_types::JobId,
        /// Program name (the worker maps job → program): the kernel's
        /// shared handle, so emitting a ship allocates nothing for it.
        program: std::sync::Arc<str>,
        /// Executable KB riding along (0 once the slot has the program).
        exe_kb: u64,
        /// Partition offset into the job's input.
        offset_kb: u64,
        /// Partition length.
        len_kb: u64,
        /// Checkpoint to resume from, for migrated continuations.
        resume: Option<Vec<u8>>,
        /// Whether this item was placed by a reschedule round.
        rescheduled: bool,
        /// Causal identity of this chunk: minted by the kernel, carried
        /// over the wire, and stamped onto every event the chunk touches.
        /// A redundant copy's span is a child of its primary's.
        trace: cwc_obs::TraceCtx,
        /// Whether this is the redundant copy of a first-result-wins pair
        /// (DESIGN.md §12): a risk-driven replica or a speculative
        /// straggler re-execution. Drivers transfer it like any ship; the
        /// live driver sets the wire frame's flag of the same name. The
        /// flag keeps every proactive decision explicit in the command
        /// stream, and so in record/replay byte-identity.
        replica: bool,
    },
    /// Withdraw an in-flight partition from a slot: its replica (or the
    /// primary it duplicated) already completed elsewhere, so the loser's
    /// work is no longer wanted. The sim driver aborts the flight; the
    /// live driver sends a `CancelTask` frame (old workers skip-and-warn
    /// it, and their late report is absorbed as a stale duplicate).
    CancelTask {
        /// Slot holding the cancelled work.
        slot: usize,
        /// Job being cancelled.
        job: cwc_types::JobId,
        /// Ship sequence number of the cancelled partition.
        seq: u64,
    },
    /// Send an application-layer keep-alive probe to this slot.
    SendKeepAlive {
        /// Destination slot.
        slot: usize,
        /// Keep-alive sequence number.
        seq: u64,
    },
    /// Arm a timer: deliver `TimerFired { kind, slot, token }` after
    /// `after` of driver time has elapsed.
    StartTimer {
        /// Timer family.
        kind: TimerKind,
        /// Slot the timer belongs to (0 for fleet-wide timers).
        slot: usize,
        /// Token to echo; the kernel ignores stale generations.
        token: u64,
        /// Delay from now.
        after: Micros,
    },
    /// A partition report was accepted: the driver should file the result
    /// payload it is holding under this job at this offset.
    RecordResult {
        /// Slot whose report was accepted.
        slot: usize,
        /// Job the partition belongs to.
        job: cwc_types::JobId,
        /// Offset of the accepted partition.
        offset_kb: u64,
    },
    /// Every job's input is fully covered: the batch is done.
    Finished,
    /// The kernel hit a fatal setup error (infeasible problem, invalid
    /// schedule); the driver should stop and surface
    /// [`crate::coord::Kernel::take_fatal`].
    Halt,
}
