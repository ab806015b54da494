//! # CWC — Computing While Charging
//!
//! A faithful, from-scratch Rust reproduction of *"Computing While Charging:
//! Building a Distributed Computing Infrastructure Using Smartphones"*
//! (ACM CoNEXT 2012). The vision: a large number of idle smartphones are
//! plugged in every night; an enterprise can harness them as an
//! energy-efficient, capital-efficient computing substrate. CWC contributes
//! a makespan-minimizing scheduler that is aware of both CPU-clock and
//! wireless-bandwidth heterogeneity, a task-migration model for unplugged
//! phones, and a CPU throttle that preserves charging profiles.
//!
//! This facade crate re-exports the entire workspace:
//!
//! * [`obs`] — the observability layer: structured event bus, metrics
//!   registry (counters/gauges/histograms), and span timing — every crate
//!   records through it, and runs can stream JSONL event logs;
//! * [`types`] — shared identifiers and units (`b_i`, `c_ij`, `E_j`, `L_j`);
//! * [`sim`] — the deterministic discrete-event kernel that substitutes for
//!   the paper's physical 18-phone testbed;
//! * [`lp`] — a dense two-phase simplex solver (for the Fig. 13 lower bound);
//! * [`net`] — wire protocol, wireless link models, and transports;
//! * [`device`] — the smartphone model: CPU, battery, MIMD throttle,
//!   task execution, and checkpoint/migration;
//! * [`profiler`] — the charging-behavior study (Figs. 2–3);
//! * [`tasks`] — reference workloads (prime count, word count, photo blur…);
//! * [`core`] — **the paper's contribution**: the greedy complementary
//!   bin-packing scheduler with capacity binary search, its baselines, and
//!   the LP-relaxation benchmark;
//! * [`server`] — the central server tying everything together, runnable on
//!   the simulator or over live loopback TCP.
//!
//! ## Quickstart
//!
//! ```
//! use cwc::prelude::*;
//!
//! // Build an 18-phone fleet like the paper's testbed and a 150-task
//! // workload (50 prime counts, 50 word counts, 50 atomic photo blurs).
//! let fleet = testbed_fleet(42);
//! let jobs = paper_workload(42);
//!
//! // Schedule with the greedy CBP algorithm (the default) and simulate
//! // the execution.
//! let engine = Engine::new(fleet, jobs, vec![], EngineConfig::default()).expect("profiled");
//! let outcome = engine.run().expect("schedulable");
//! assert!(outcome.makespan > cwc::types::Micros::ZERO);
//! ```

#![forbid(unsafe_code)]

pub use cwc_core as core;
pub use cwc_device as device;
pub use cwc_lp as lp;
pub use cwc_net as net;
pub use cwc_obs as obs;
pub use cwc_profiler as profiler;
pub use cwc_server as server;
pub use cwc_sim as sim;
pub use cwc_tasks as tasks;
pub use cwc_types as types;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use cwc_core::{Scheduler, SchedulerKind};
    pub use cwc_obs::{Event, EventBus, MetricsRegistry, Obs, Severity};
    pub use cwc_server::{paper_workload, testbed_fleet, Engine, EngineConfig};
    pub use cwc_types::{
        CpuSpec, CwcError, CwcResult, JobId, JobKind, JobSpec, KiloBytes, Micros, MsPerKb, PhoneId,
        PhoneInfo, RadioTech, UserId,
    };
}
