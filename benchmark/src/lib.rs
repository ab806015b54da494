//! The CWC repo benchmark.
//!
//! Five named workloads measure the coordinator **from outside**, through
//! public functions only: end-to-end numbers from untraced repetitions,
//! per-layer numbers from a separate traced run, and an output oracle on
//! every repetition. `README.md` has the workload table, the metric →
//! layer → workload predictions and the load shape; `BENCHMARK.json` at
//! the repo root is the machine-readable contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod livegen;
pub mod report;
pub mod sheet;
pub mod spans;
pub mod workloads;
