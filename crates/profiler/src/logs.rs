//! State-change logs and the server-side parser.
//!
//! The profiling app logs a record on every plug-state transition; the
//! server reconstructs charging intervals from consecutive records. This
//! module is that pipeline: [`LogEntry`] (what the app uploads),
//! [`parse_intervals`] (what the server computes), [`ChargingInterval`]
//! (the unit every Fig. 2/3 statistic is computed from).

use cwc_types::{Micros, UserId};

/// Plug state as logged by the profiling app (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlugLogState {
    /// The phone was connected to a charger.
    Plugged,
    /// The phone was detached from the charger.
    Unplugged,
    /// The phone was powered off.
    Shutdown,
}

/// One uploaded log record.
///
/// `at` is the time since study start (study starts at local midnight);
/// `bytes_kb` is the cumulative wireless traffic while in the *plugged*
/// state, reset on each new plug — so it is meaningful on `Unplugged`
/// and `Shutdown` records, mirroring the app's counter-reset behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogEntry {
    /// Which volunteer.
    pub user: UserId,
    /// New state.
    pub state: PlugLogState,
    /// Transition time, relative to study start (midnight, day 0).
    pub at: Micros,
    /// Bytes (KB) transferred during the plugged period that this record
    /// terminates; zero on `Plugged` records.
    pub bytes_kb: u64,
}

/// A reconstructed charging interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargingInterval {
    /// Which volunteer.
    pub user: UserId,
    /// Plug-in time.
    pub start: Micros,
    /// Unplug (or shutdown) time.
    pub end: Micros,
    /// Background traffic during the interval, in KB.
    pub bytes_kb: u64,
    /// Whether the interval ended with the phone powering off.
    pub ended_in_shutdown: bool,
}

impl ChargingInterval {
    /// Interval length in hours.
    pub fn duration_hours(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_hours_f64()
    }

    /// Traffic in MB.
    pub fn transfer_mb(&self) -> f64 {
        self.bytes_kb as f64 / 1024.0
    }

    /// Hour-of-day (0–23) when the interval started.
    pub fn start_hour(&self) -> u32 {
        ((self.start.0 / Micros::from_hours(1).0) % 24) as u32
    }

    /// The paper's day/night split: an interval is a *night* interval if
    /// it begins between 10 p.m. and 5 a.m. local time.
    pub fn is_night(&self) -> bool {
        let h = self.start_hour();
        !(5..22).contains(&h)
    }

    /// The paper's idle criterion: a night interval with under 2 MB of
    /// background traffic is usable for computation.
    pub fn is_idle_night(&self) -> bool {
        self.is_night() && self.transfer_mb() < 2.0
    }
}

/// Parses per-user logs into charging intervals.
///
/// Robust to the dirt real logs have: a `Plugged` immediately followed by
/// another `Plugged` (app restart) keeps the earlier start; `Unplugged`
/// or `Shutdown` without a preceding `Plugged` is dropped. Entries must
/// be fed in upload order (non-decreasing time per user).
pub fn parse_intervals(entries: &[LogEntry]) -> Vec<ChargingInterval> {
    use std::collections::HashMap;
    let mut open: HashMap<UserId, Micros> = HashMap::new();
    let mut intervals = Vec::new();
    for e in entries {
        match e.state {
            PlugLogState::Plugged => {
                open.entry(e.user).or_insert(e.at);
            }
            PlugLogState::Unplugged | PlugLogState::Shutdown => {
                if let Some(start) = open.remove(&e.user) {
                    if e.at > start {
                        intervals.push(ChargingInterval {
                            user: e.user,
                            start,
                            end: e.at,
                            bytes_kb: e.bytes_kb,
                            ended_in_shutdown: e.state == PlugLogState::Shutdown,
                        });
                    }
                }
            }
        }
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(user: u32, state: PlugLogState, hours: u64, bytes_kb: u64) -> LogEntry {
        LogEntry {
            user: UserId(user),
            state,
            at: Micros::from_hours(hours),
            bytes_kb,
        }
    }

    #[test]
    fn basic_interval_reconstruction() {
        let log = vec![
            entry(0, PlugLogState::Plugged, 23, 0),
            entry(0, PlugLogState::Unplugged, 30, 1024),
        ];
        let ivals = parse_intervals(&log);
        assert_eq!(ivals.len(), 1);
        assert_eq!(ivals[0].duration_hours(), 7.0);
        assert!((ivals[0].transfer_mb() - 1.0).abs() < 1e-9);
        assert!(!ivals[0].ended_in_shutdown);
    }

    #[test]
    fn night_day_classification() {
        let night = ChargingInterval {
            user: UserId(0),
            start: Micros::from_hours(23),
            end: Micros::from_hours(30),
            bytes_kb: 100,
            ended_in_shutdown: false,
        };
        assert!(night.is_night());
        assert_eq!(night.start_hour(), 23);

        let early = ChargingInterval {
            start: Micros::from_hours(24 + 2), // 2 a.m. next day
            end: Micros::from_hours(24 + 8),
            ..night
        };
        assert!(early.is_night());

        let day = ChargingInterval {
            start: Micros::from_hours(14),
            end: Micros::from_hours(15),
            ..night
        };
        assert!(!day.is_night());
    }

    #[test]
    fn idle_requires_night_and_low_traffic() {
        let mut ival = ChargingInterval {
            user: UserId(1),
            start: Micros::from_hours(23),
            end: Micros::from_hours(31),
            bytes_kb: 1024, // 1 MB
            ended_in_shutdown: false,
        };
        assert!(ival.is_idle_night());
        ival.bytes_kb = 5 * 1024; // 5 MB
        assert!(!ival.is_idle_night());
        ival.bytes_kb = 100;
        ival.start = Micros::from_hours(10);
        ival.end = Micros::from_hours(12);
        assert!(!ival.is_idle_night());
    }

    #[test]
    fn orphan_unplug_is_dropped() {
        let log = vec![entry(0, PlugLogState::Unplugged, 9, 10)];
        assert!(parse_intervals(&log).is_empty());
    }

    #[test]
    fn duplicate_plug_keeps_first_start() {
        let log = vec![
            entry(0, PlugLogState::Plugged, 22, 0),
            entry(0, PlugLogState::Plugged, 23, 0),
            entry(0, PlugLogState::Unplugged, 30, 0),
        ];
        let ivals = parse_intervals(&log);
        assert_eq!(ivals.len(), 1);
        assert_eq!(ivals[0].start, Micros::from_hours(22));
    }

    #[test]
    fn shutdown_ends_interval_and_is_flagged() {
        let log = vec![
            entry(0, PlugLogState::Plugged, 22, 0),
            entry(0, PlugLogState::Shutdown, 26, 55),
        ];
        let ivals = parse_intervals(&log);
        assert_eq!(ivals.len(), 1);
        assert!(ivals[0].ended_in_shutdown);
        assert_eq!(ivals[0].bytes_kb, 55);
    }

    #[test]
    fn users_are_tracked_independently() {
        let log = vec![
            entry(0, PlugLogState::Plugged, 22, 0),
            entry(1, PlugLogState::Plugged, 23, 0),
            entry(0, PlugLogState::Unplugged, 30, 10),
            entry(1, PlugLogState::Unplugged, 31, 20),
        ];
        let ivals = parse_intervals(&log);
        assert_eq!(ivals.len(), 2);
        assert_eq!(ivals[0].user, UserId(0));
        assert_eq!(ivals[1].user, UserId(1));
        assert_eq!(ivals[1].duration_hours(), 8.0);
    }

    #[test]
    fn zero_length_interval_is_dropped() {
        let log = vec![
            entry(0, PlugLogState::Plugged, 22, 0),
            entry(0, PlugLogState::Unplugged, 22, 0),
        ];
        assert!(parse_intervals(&log).is_empty());
    }
}
