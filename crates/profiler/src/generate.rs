//! Behavior generation: user profiles → state-change logs.
//!
//! Each simulated day, a volunteer produces a handful of short daytime
//! charging intervals (desk, car, kitchen counter) and — usually — one
//! long overnight interval. Every interval carries a log-normal background
//! traffic volume and a small chance of ending in a shutdown instead of an
//! unplug. The output is the exact record stream the profiling app would
//! upload, which then flows through the same parser the server uses.

use crate::logs::{LogEntry, PlugLogState};
use crate::users::UserProfile;
use cwc_sim::Distributions;
use cwc_types::Micros;

/// Generates `days` of logs for one volunteer.
pub fn generate_user_log(
    profile: &UserProfile,
    days: u32,
    rng: &mut impl Distributions,
) -> Vec<LogEntry> {
    let mut entries = Vec::new();
    // Time the phone comes off the previous charge — a long night can
    // reach past 7 a.m., so the next day's intervals must not start
    // before it ends (keeps each user's log stream time-ordered).
    let mut busy_until_h = 0.0f64;
    for day in 0..u64::from(days) {
        let day_start_h = day as f64 * 24.0;

        // --- Daytime intervals (between 7:30 and 21:00). ---
        let n_day = sample_count(profile.day_intervals_per_day, rng);
        let mut cursor_h = (day_start_h + 7.5).max(busy_until_h + 0.2);
        for _ in 0..n_day {
            let gap_h = rng.exponential((21.0 - 7.5) / (profile.day_intervals_per_day + 1.0));
            let start_h = cursor_h + gap_h;
            if start_h > day_start_h + 21.0 {
                break;
            }
            let dur_h = rng
                .log_normal_median(profile.day_duration_median_h, profile.day_duration_sigma)
                .clamp(0.05, 4.0);
            let end_h = (start_h + dur_h).min(day_start_h + 21.5);
            push_interval(&mut entries, profile, start_h, end_h, rng);
            busy_until_h = end_h;
            cursor_h = end_h + 0.2;
        }

        // --- Night interval. ---
        if rng.chance(profile.night_charge_prob) {
            let start_h = (day_start_h
                + rng.normal_clamped(
                    profile.night_plug_hour_mean,
                    profile.night_plug_hour_sd,
                    21.0,
                    25.5, // up to 1:30 a.m. next day
                ))
            .max(busy_until_h + 0.1);
            let dur_h = rng
                .log_normal_median(
                    profile.night_duration_median_h,
                    profile.night_duration_sigma,
                )
                .clamp(0.5, 12.0);
            push_interval(&mut entries, profile, start_h, start_h + dur_h, rng);
            busy_until_h = start_h + dur_h;
        }
    }
    entries
}

/// Generates the full 15-volunteer study (`days` days per user).
/// Entries are grouped per user, each user's stream in time order.
pub fn generate_study(
    profiles: &[UserProfile],
    days: u32,
    streams: &cwc_sim::RngStreams,
) -> Vec<LogEntry> {
    let mut all = Vec::new();
    for p in profiles {
        let mut rng = streams.indexed_stream("profiler/user", p.id.index());
        all.extend(generate_user_log(p, days, &mut rng));
    }
    all
}

fn push_interval(
    entries: &mut Vec<LogEntry>,
    profile: &UserProfile,
    start_h: f64,
    end_h: f64,
    rng: &mut impl Distributions,
) {
    if end_h <= start_h {
        return;
    }
    let bytes_mb = rng.log_normal_median(profile.transfer_median_mb, profile.transfer_sigma);
    // Traffic roughly scales with how long the phone sat there, relative
    // to a nominal 6 h interval, so short day intervals transfer less.
    let scaled_mb = bytes_mb * ((end_h - start_h) / 6.0).clamp(0.05, 2.0);
    let ends_in_shutdown = rng.chance(profile.shutdown_prob);
    entries.push(LogEntry {
        user: profile.id,
        state: PlugLogState::Plugged,
        at: Micros::from_secs_f64(start_h * 3600.0),
        bytes_kb: 0,
    });
    entries.push(LogEntry {
        user: profile.id,
        state: if ends_in_shutdown {
            PlugLogState::Shutdown
        } else {
            PlugLogState::Unplugged
        },
        at: Micros::from_secs_f64(end_h * 3600.0),
        bytes_kb: (scaled_mb * 1024.0).max(1.0) as u64,
    });
}

/// Poisson-ish small-count sampler (inverse-CDF on a short support).
fn sample_count(mean: f64, rng: &mut impl Distributions) -> u32 {
    // Knuth's method is fine for small means.
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= l || k > 12 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logs::parse_intervals;
    use crate::users::study_population;
    use cwc_sim::RngStreams;

    fn study() -> Vec<LogEntry> {
        let streams = RngStreams::new(2012);
        let mut rng = streams.stream("users");
        let profiles = study_population(&mut rng);
        generate_study(&profiles, 28, &streams)
    }

    #[test]
    fn logs_parse_into_intervals() {
        let entries = study();
        let intervals = parse_intervals(&entries);
        // 15 users × 28 days × (≥1 interval most days).
        assert!(
            intervals.len() > 15 * 28 / 2,
            "too few: {}",
            intervals.len()
        );
        for iv in &intervals {
            assert!(iv.end > iv.start);
            assert!(iv.bytes_kb >= 1);
        }
    }

    #[test]
    fn per_user_streams_are_time_ordered() {
        let entries = study();
        for user in 0..15u32 {
            let times: Vec<u64> = entries
                .iter()
                .filter(|e| e.user.0 == user)
                .map(|e| e.at.0)
                .collect();
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "user {user} unordered"
            );
        }
    }

    #[test]
    fn night_intervals_are_long_day_intervals_short() {
        let intervals = parse_intervals(&study());
        let nights: Vec<f64> = intervals
            .iter()
            .filter(|i| i.is_night())
            .map(|i| i.duration_hours())
            .collect();
        let days: Vec<f64> = intervals
            .iter()
            .filter(|i| !i.is_night())
            .map(|i| i.duration_hours())
            .collect();
        assert!(!nights.is_empty() && !days.is_empty());
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let mn = median(nights);
        let md = median(days);
        assert!((5.5..9.0).contains(&mn), "night median {mn} h (paper ≈7)");
        assert!((0.2..1.2).contains(&md), "day median {md} h (paper ≈0.5)");
    }

    #[test]
    fn shutdown_fraction_near_three_percent() {
        let entries = study();
        let ends = entries
            .iter()
            .filter(|e| e.state != PlugLogState::Plugged)
            .count();
        let shutdowns = entries
            .iter()
            .filter(|e| e.state == PlugLogState::Shutdown)
            .count();
        let frac = shutdowns as f64 / ends as f64;
        assert!((0.005..0.08).contains(&frac), "shutdown fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = study();
        let b = study();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }
}
