//! # cwc-bench — figure and table regeneration for the CWC reproduction
//!
//! One function per figure/table in the paper's evaluation. Each returns
//! plain data; the `figures` binary renders it as text. Seeds default to
//! the values used in EXPERIMENTS.md so the recorded numbers are
//! reproducible bit-for-bit. Per-layer timings live in the repo
//! benchmark (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod live_scale;
pub mod reliability;
pub mod render;
pub mod report;
pub mod trace;

pub use figures::*;
