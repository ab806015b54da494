//! # cwc-server — the CWC central server
//!
//! The paper's central server is a single lightweight machine (a small
//! EC2 instance in the prototype) that registers phones, measures their
//! bandwidth, schedules jobs with the greedy CBP algorithm, ships
//! executables and input partitions one at a time, collects completion
//! and failure reports, updates its execution-time predictions, detects
//! offline failures via keep-alives, and folds failed work into the next
//! scheduling instant.
//!
//! This crate implements that server twice over the same scheduling core:
//!
//! * [`engine`] — the **simulated** deployment: the full control loop
//!   running on [`cwc_sim`] against modelled phones ([`cwc_device`]) and
//!   links ([`cwc_net`]). Deterministic; regenerates the paper's
//!   evaluation (Figs. 12a/b/c, the makespan table).
//! * [`live`] — the **live** deployment: the same protocol over real TCP
//!   sockets, with worker threads standing in for phones and executing
//!   real task programs ([`cwc_tasks`]) with real migration.
//!
//! At fleet scale a third deployment shape shards the coordinator:
//! [`shard`] partitions the phones across N kernels (planned by
//! [`coord::fleet`]), runs them on the dependency-free work-stealing
//! [`pool`], and merges per-shard results — with residual work stealing
//! between shards when one shard's phones unplug en masse (DESIGN.md
//! §15).
//!
//! Supporting modules: [`testbed`] builds the 18-phone testbed; [`workload`]
//! builds the 150-task evaluation workload; [`feasibility`] reproduces the
//! §3.1 FCFS dispatch experiment (Fig. 5); [`overnight`] drives the fleet
//! with the behavioral study's plug/unplug patterns (and feeds the
//! failure-prediction scheduling extension).

#![forbid(unsafe_code)]
// DESIGN.md §8: no `unwrap`, no silently dropped `Result`, and no bare
// prints (narration goes through the `cwc-obs` bus; each bin is a crate
// root of its own and owns its stdout).
#![deny(clippy::unwrap_used)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod coord;
pub mod engine;
pub mod feasibility;
pub mod live;
pub mod overnight;
pub mod pool;
pub mod resilience;
pub mod shard;
pub mod testbed;
pub mod workload;

pub use coord::{CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy};
pub use engine::{Engine, EngineConfig, EngineOutcome, FailureInjection, Segment, SegmentKind};
pub use live::{
    live_kernel_config, run_live_server, run_live_server_with, run_worker, run_worker_chaos,
    LiveJob, LiveOutcome, LivePolicy, WorkerConfig,
};
pub use pool::{PoolStats, WorkerPool};
pub use resilience::{BreakerConfig, WindowBreaker};
pub use shard::{engine_digest, FleetEngine, FleetOutcome, ShardConfig, ShardOutcome};
pub use testbed::{testbed_fleet, FleetBuilder};
pub use workload::{paper_workload, WorkloadBuilder};
