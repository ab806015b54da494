//! Inputs to the coordinator kernel.
//!
//! A driver translates whatever its substrate produces — discrete-event
//! callbacks in the simulator, TCP frames and elapsed timeouts in the
//! live path — into this one vocabulary. The kernel never sees a socket,
//! a clock, or a thread: time only enters as the `now` argument of
//! [`crate::coord::Kernel::step_into`] and as [`CoordEvent::TimerFired`]
//! notifications for timers the kernel itself requested.

use crate::coord::command::TimerKind;
use cwc_types::{JobId, PhoneInfo};

/// One input to [`crate::coord::Kernel::step_into`].
///
/// Slots are dense driver-chosen indices (fleet index in the simulator,
/// connection index in the live path); the kernel learns about a slot the
/// first time an event mentions it.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordEvent {
    /// A bandwidth measurement for a slot (registration in the live path,
    /// the iperf-style probe round in the simulator). Also the reply the
    /// kernel expects after emitting
    /// [`crate::coord::CoordCommand::SendProbe`].
    Probe {
        /// Which slot was measured.
        slot: usize,
        /// The full scheduler-facing snapshot, including the fresh `b_i`.
        info: PhoneInfo,
    },
    /// All initially-available slots have been probed: compute the initial
    /// schedule and start shipping.
    Start,
    /// A slot reported a completed partition.
    ReportOk {
        /// Reporting slot.
        slot: usize,
        /// Echoed `ShipInput` sequence number.
        seq: u64,
        /// Echoed job id.
        job: JobId,
        /// Measured execution time (feeds the §4.1 online predictor).
        exec_ms: f64,
    },
    /// A slot reported an interrupted partition (online failure): the
    /// phone was unplugged but connectivity survived long enough to ship
    /// the watermark and checkpoint.
    ReportFailed {
        /// Reporting slot.
        slot: usize,
        /// Echoed `ShipInput` sequence number.
        seq: u64,
        /// Echoed job id.
        job: JobId,
        /// KB processed before the interruption.
        processed_kb: u64,
        /// Checkpoint for the continuation (`None`: restart from scratch).
        checkpoint: Option<Vec<u8>>,
    },
    /// A keep-alive acknowledgement (or any other proof of life the
    /// driver wants credited).
    KeepAliveSeen {
        /// Answering slot.
        slot: usize,
    },
    /// Silent unplug (simulator only): the slot went dark without a
    /// report. The kernel parks its work and arms the keep-alive
    /// detection timer; nothing surfaces until that fires (§5's offline
    /// failure).
    WentDark {
        /// The slot that lost connectivity.
        slot: usize,
    },
    /// The driver observed the slot's transport die (connection closed,
    /// send failed): an immediate offline failure.
    ConnectionLost {
        /// The failed slot.
        slot: usize,
        /// Driver-formatted account, used verbatim in the failure event.
        why: String,
    },
    /// The slot sent something protocol-violating; the per-slot breaker
    /// decides whether it gets quarantined.
    Misbehaved {
        /// The offending slot.
        slot: usize,
        /// Driver-formatted account, used verbatim in the event.
        why: String,
    },
    /// A previously failed slot is plugged back in and reachable; it
    /// becomes eligible at the next scheduling instant.
    Replugged {
        /// The returning slot.
        slot: usize,
    },
    /// A timer previously requested via
    /// [`crate::coord::CoordCommand::StartTimer`] elapsed.
    TimerFired {
        /// Which timer family.
        kind: TimerKind,
        /// The slot it was armed for (0 for fleet-wide timers).
        slot: usize,
        /// The token stamped on the request; stale tokens are ignored.
        token: u64,
    },
}
