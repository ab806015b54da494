//! Sans-IO coordinator kernel for the CWC control loop.
//!
//! The paper's central server runs one control loop (§4–§5): measure
//! `b_i`, schedule with greedy CBP, ship partitions, fold online and
//! offline failures into the next scheduling instant. This module holds
//! that loop exactly once, as a pure event-in/command-out state machine:
//!
//! - [`CoordEvent`] — everything that can happen (probe replies, reports,
//!   keep-alives, disconnects, timer expiries),
//! - [`CoordCommand`] — everything the loop wants done (ship a partition,
//!   send a keep-alive, arm a timer, record a result),
//! - [`Kernel`] — the state machine between them,
//! - [`script`] — record/replay of event streams for offline debugging,
//! - [`fleet`] — the sharding layer above N kernels: phone partitioning
//!   by site/charging cluster and the cross-shard [`FleetAllocator`]
//!   (job splitting, loss aggregation, residual stealing). Sans-IO like
//!   the kernel — the thread pool driving the shards lives outside, in
//!   `crate::shard`.
//!
//! **Driver contract.** A driver owns all I/O and all clocks. It feeds
//! each stimulus to [`Kernel::step_into`] together with its own notion of
//! `now` (sim time or wall micros) and a command buffer it owns and
//! reuses, executes every command the step appended, in order, and
//! delivers [`CoordEvent::TimerFired`] when a requested timer elapses
//! (stale tokens are fine — the kernel ignores them). The simulator's
//! engine drives the kernel from a discrete-event queue; the live path
//! drives the same kernel from TCP frames and receive timeouts. Given
//! the same event sequence, both obtain byte-identical command streams —
//! which is what `tests/determinism.rs` asserts.

// Sans-IO (DESIGN.md §8): drivers own every clock and socket; thread
// spawns and sleeps are banned workspace-wide.
#![deny(clippy::disallowed_types)]

pub mod command;
pub mod event;
pub mod fleet;
pub mod kernel;
pub mod script;

pub use command::{CoordCommand, TimerKind};
pub use event::CoordEvent;
pub use fleet::{charging_cluster_keys, cluster_key, plan_shards, FleetAllocator, ShardPlan};
pub use kernel::{
    CheckView, ChunkView, DriverStyle, FleetLoss, GroupView, Kernel, KernelConfig,
    ReschedulePolicy, SlotCheckView,
};
