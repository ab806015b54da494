//! # cwc-profiler — the charging-behavior study
//!
//! §3.1 of the paper establishes CWC's viability with a measurement study:
//! an Android app on 15 volunteers' phones logs every plug-state change
//! (*plugged*, *unplugged*, *shutdown*) with a timestamp plus the bytes
//! transferred while plugged; a server parses the logs into charging
//! intervals and computes the statistics behind Figs. 2 and 3.
//!
//! We have no volunteers, so this crate substitutes a **generative user
//! model** calibrated to every quantitative fact the paper reports:
//!
//! * night charging intervals are long (median ≈ 7 h) and singular; day
//!   intervals are short (median ≈ 30 min) and frequent (Fig. 2a);
//! * 80% of night intervals transfer < 2 MB of background data (Fig. 2b);
//! * per-user mean idle night charging is ≥ 3 h, with "regular" users
//!   (3, 4, 8 in the paper) at 8–9 h with low variability (Fig. 2c);
//! * unplug events concentrate in waking hours — under 30% of them occur
//!   between midnight and 8 a.m. (Fig. 3a), with per-user hourly unplug
//!   likelihood low between 12–6 a.m. and spiking 6–9 a.m. (Fig. 3b/c);
//! * only ~3% of log entries are *shutdown* events.
//!
//! The crate keeps the paper's pipeline shape: [`users`] (who the
//! volunteers are) → [`generate`] (behavior → state-change log) →
//! [`logs`] (log → charging intervals, the server-side parser) →
//! [`stats`] (intervals → figures).

#![forbid(unsafe_code)]
// Deterministic (DESIGN.md §8): output is a function of inputs and
// seed, so no wall-clock or socket type appears here.
#![deny(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod generate;
pub mod logs;
pub mod stats;
pub mod users;

pub use generate::generate_study;
pub use logs::{parse_intervals, ChargingInterval, LogEntry, PlugLogState};
pub use stats::{
    idle_hours_per_user, interval_length_split, night_transfer_mb, unplug_cdf_by_hour,
    unplug_likelihood_by_hour, IdleSummary, StudyStats,
};
pub use users::{study_population, UserProfile};
