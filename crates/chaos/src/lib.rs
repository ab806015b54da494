//! # cwc-chaos — deterministic fault injection for the CWC live path
//!
//! The paper's central claim about robustness (§6) is that CWC keeps
//! making progress through *online* failures (a phone unplugged mid-task,
//! reporting a checkpoint) and *offline* failures (a phone silently gone,
//! detected by missed keep-alives). This crate manufactures those failures
//! — and the messier wire-level ones real deployments add on top — so the
//! server's recovery machinery can be exercised in tests instead of
//! trusted on faith.
//!
//! Everything is **seed-driven and deterministic**: a [`FaultPlan`] is a
//! master seed plus a [`FaultProfile`] of per-class injection rates, and
//! each connection or worker derives its own independent [`FaultScript`] /
//! [`WorkerChaos`] by label. No wall-clock randomness anywhere, so a
//! failing soak run reproduces from its seed alone.
//!
//! The wire-level classes ride the [`cwc_net::WireFault`] hook on the
//! transport send path: dropped, duplicated, reordered, bit-flipped
//! (CRC-rejected), partially-written, delayed frames and connection
//! resets. The worker-level classes — crash at a chunk boundary,
//! slow-loris execution — are consulted by the worker loop directly.
//!
//! Dependency-light by design: `cwc-net`, `cwc-obs`, and `cwc-sim` for
//! the workspace's one seeded generator, nothing else.

#![forbid(unsafe_code)]
// Deterministic (DESIGN.md §8): output is a function of inputs and
// seed, so no wall-clock or socket type appears here.
#![deny(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod plan;
pub mod rng;
pub mod script;

pub use cwc_sim::shard_seed;
pub use plan::{FaultKind, FaultPlan, FaultProfile};
pub use rng::ChaosRng;
pub use script::{FaultScript, WorkerChaos};
