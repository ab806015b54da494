//! # cwc-types — shared vocabulary for the CWC infrastructure
//!
//! This crate defines the identifiers, units, and descriptor records shared
//! by every other crate in the CWC workspace: the discrete-event simulator,
//! the network substrate, the device model, the scheduler, and the central
//! server.
//!
//! The design follows the paper's notation (CoNEXT'12, §4–§5):
//!
//! * `b_i` — time for phone *i* to receive 1 KB from the server, expressed
//!   here as [`MsPerKb`];
//! * `c_ij` — time for phone *i* to execute job *j* over 1 KB of input,
//!   also [`MsPerKb`];
//! * `E_j` / `L_j` — executable and input sizes of job *j* in [`KiloBytes`];
//! * simulated wall-clock time is an integer number of microseconds
//!   ([`Micros`]) so that event ordering is total and deterministic.
//!
//! Jobs are either **breakable** (input may be partitioned across phones and
//! the partial results aggregated at the server) or **atomic** (all input
//! must be processed by a single phone) — see [`JobKind`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ids;
mod job;
mod phone;
mod units;

pub use error::CwcError;
pub use ids::{JobId, PhoneId, ProgramId, UserId};
pub use job::{JobKind, JobSpec, SloClass};
pub use phone::{CpuSpec, PhoneInfo, RadioTech};
pub use units::{KiloBytes, Micros, MsPerKb};

/// Convenient result alias used across the workspace.
pub type CwcResult<T> = Result<T, CwcError>;
