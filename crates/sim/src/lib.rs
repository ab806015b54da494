//! # cwc-sim — deterministic discrete-event simulation kernel
//!
//! The CWC paper evaluates on a physical testbed of 18 Android phones spread
//! across three houses. This crate is the substitute substrate: a small,
//! deterministic discrete-event simulator on which the same server logic,
//! link models, and device models run.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Time is integer microseconds ([`cwc_types::Micros`]);
//!    simultaneous events fire in FIFO scheduling order; all randomness comes
//!    from named, independently-seeded streams ([`RngStreams`]). The same
//!    master seed reproduces the same timeline bit-for-bit.
//! 2. **Simplicity.** One generic event type per simulation, one dispatcher
//!    function, a binary-heap queue with lazy cancellation. No reactor, no
//!    processes, no coroutines — the CWC engine is naturally event-shaped
//!    (transfers complete, executions finish, keep-alives time out).
//! 3. **Observability.** Instrumented code emits structured events on the
//!    `cwc-obs` bus; a sink attached there (a `MemorySink`, a JSONL file)
//!    is the run's story, which experiments turn into the paper's
//!    timeline figures (Fig. 12a/12c).
//!
//! ```
//! use cwc_sim::Simulation;
//! use cwc_types::Micros;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulation::new();
//! sim.schedule_after(Micros::from_secs(1), Ev::Ping(1));
//! sim.schedule_after(Micros::from_secs(2), Ev::Ping(2));
//!
//! let mut seen = Vec::new();
//! sim.run(|sim, ev| {
//!     let Ev::Ping(n) = ev;
//!     seen.push((sim.now(), n));
//! });
//! assert_eq!(seen, vec![
//!     (Micros::from_secs(1), 1),
//!     (Micros::from_secs(2), 2),
//! ]);
//! ```

#![forbid(unsafe_code)]
// Deterministic (DESIGN.md §8): output is a function of inputs and
// seed, so no wall-clock or socket type appears here.
#![deny(clippy::disallowed_types)]
#![warn(missing_docs)]

mod queue;
mod rng;

pub use queue::{EventId, Simulation};
pub use rng::{shard_seed, splitmix64, Distributions, Fnv1a, RngStreams, SampleRange, SplitMix64};
