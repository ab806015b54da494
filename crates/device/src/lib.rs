//! # cwc-device — the smartphone model
//!
//! Everything that happens *on the phone* in CWC, modelled faithfully
//! enough that the scheduler, migration, and throttling logic above it
//! cannot tell simulation from testbed:
//!
//! * [`cpu`] — execution-time model: CPU-clock scaling from the slowest
//!   profiled phone (§4.1), plus a per-device efficiency factor that
//!   reproduces the paper's observation that a few phones beat their
//!   clock-ratio prediction (Fig. 6's off-diagonal points).
//! * [`coremark`] — a real CoreMark-like compute kernel (linked-list
//!   shuffling, matrix arithmetic, CRC-16 state machine) used to regenerate
//!   Fig. 1's CPU comparison with genuine computation.
//! * [`battery`] — the charging model: linear residual-charge growth whose
//!   rate is degraded by CPU load (heavy compute stretches a 100-minute
//!   HTC Sensation charge to ~135 minutes, §4.3).
//! * [`throttle`] — the adaptive MIMD duty-cycle controller that keeps the
//!   charging profile indistinguishable from idle (Fig. 10).
//! * [`task`] — the [`TaskProgram`]/[`TaskState`] abstraction and the
//!   [`TaskRegistry`]: the Rust analogue of shipping a `.jar` and loading
//!   it via reflection, with JavaGO-style checkpoints for migration.
//! * [`executor`] — chunk-at-a-time execution of real task code with
//!   interrupt/checkpoint/resume semantics.
//! * [`phone`] — the composite [`Phone`]: spec + link + battery + plug
//!   state, the unit the fleet simulator manages.

#![forbid(unsafe_code)]
// Narration goes through the `cwc-obs` bus, not stdout (DESIGN.md §8).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod battery;
pub mod coremark;
pub mod cpu;
pub mod executor;
pub mod phone;
pub mod task;
pub mod throttle;

pub use battery::{BatteryModel, BatteryParams};
pub use coremark::{coremark_kernel, scaled_scores, CpuCatalogEntry, CPU_CATALOG};
pub use cpu::{CpuModel, BASELINE_CLOCK_MHZ};
pub use executor::{ExecutionOutcome, Executor};
pub use phone::{Phone, PhoneSpec, PlugState, PHONE_MODELS};
pub use task::{TaskProgram, TaskRegistry, TaskState};
pub use throttle::{MimdThrottle, ThrottleConfig, ThrottleDecision};
