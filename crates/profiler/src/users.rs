//! Volunteer profiles — the generative model of one phone owner.

use cwc_sim::Distributions;
use cwc_types::UserId;

/// Behavioral parameters of one study volunteer.
///
/// All durations are in hours, all times in local hours-of-day. Nightly
/// behavior is log-normal around a per-user median: "regular" users have a
/// long median and small sigma (they plug in at bedtime every night);
/// irregular users have shorter, noisier nights.
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// Volunteer identity (0-based, like the paper's user numbering).
    pub id: UserId,
    /// Probability a given night has a charging interval at all.
    pub night_charge_prob: f64,
    /// Mean hour-of-day the night charge begins (e.g. 23.0 = 11 p.m.).
    pub night_plug_hour_mean: f64,
    /// Std-dev of the night plug hour.
    pub night_plug_hour_sd: f64,
    /// Median night charging duration in hours.
    pub night_duration_median_h: f64,
    /// Sigma of the underlying normal for night duration (variability).
    pub night_duration_sigma: f64,
    /// Mean number of daytime charging intervals per day (Poisson-ish).
    pub day_intervals_per_day: f64,
    /// Median daytime interval length in hours.
    pub day_duration_median_h: f64,
    /// Sigma for daytime interval length.
    pub day_duration_sigma: f64,
    /// Median background transfer per charging interval, in MB.
    pub transfer_median_mb: f64,
    /// Sigma of the underlying normal for transfer volume.
    pub transfer_sigma: f64,
    /// Probability that an interval ends in a shutdown rather than an
    /// unplug (paper: ~3% of log entries are shutdowns).
    pub shutdown_prob: f64,
}

/// Indices of the paper's "regular" users with 8–9 h, low-variability
/// nights (Fig. 2c singles out users 3, 4 and 8).
pub const REGULAR_USERS: [u32; 3] = [3, 4, 8];

/// Builds the 15-volunteer population of the paper's study.
///
/// Users 3, 4 and 8 are the regulars; the rest draw their night medians
/// around 6–7 h with larger variability, so the aggregate night median
/// lands near the paper's ≈7 h.
pub fn study_population(rng: &mut impl Distributions) -> Vec<UserProfile> {
    (0..15u32)
        .map(|i| {
            let regular = REGULAR_USERS.contains(&i);
            let (median, sigma) = if regular {
                (8.3 + 0.4 * rng.next_f64(), 0.10)
            } else {
                (5.8 + 2.4 * rng.next_f64(), 0.28 + 0.22 * rng.next_f64())
            };
            UserProfile {
                id: UserId(i),
                night_charge_prob: if regular { 0.97 } else { 0.85 },
                night_plug_hour_mean: 22.4 + 1.6 * rng.next_f64(),
                night_plug_hour_sd: if regular { 0.4 } else { 0.9 },
                night_duration_median_h: median,
                night_duration_sigma: sigma,
                day_intervals_per_day: 1.8 + 1.6 * rng.next_f64(),
                day_duration_median_h: 0.5,
                day_duration_sigma: 0.55,
                // Calibrated so P(transfer < 2 MB) ≈ 0.8 in aggregate:
                // with median 0.5 MB, sigma = ln(2/0.5)/z_{0.8} ≈ 1.65.
                // Regular users run little background traffic — that is
                // what makes their Fig. 2c idle bars reach 8–9 h.
                transfer_median_mb: if regular {
                    0.15
                } else {
                    0.4 + 0.35 * rng.next_f64()
                },
                transfer_sigma: if regular {
                    1.0
                } else {
                    1.55 + 0.2 * rng.next_f64()
                },
                shutdown_prob: 0.03,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_sim::RngStreams;

    fn population() -> Vec<UserProfile> {
        let mut rng = RngStreams::new(42).stream("users");
        study_population(&mut rng)
    }

    #[test]
    fn fifteen_volunteers() {
        let pop = population();
        assert_eq!(pop.len(), 15);
        for (i, u) in pop.iter().enumerate() {
            assert_eq!(u.id, UserId(i as u32));
        }
    }

    #[test]
    fn regular_users_have_long_stable_nights() {
        let pop = population();
        for &r in &REGULAR_USERS {
            let u = &pop[r as usize];
            assert!(
                u.night_duration_median_h > 8.0,
                "user {r} median {}",
                u.night_duration_median_h
            );
            assert!(u.night_duration_sigma <= 0.15);
        }
    }

    #[test]
    fn population_is_deterministic_per_seed() {
        let a = population();
        let mut rng = RngStreams::new(42).stream("users");
        let b = study_population(&mut rng);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.night_duration_median_h, y.night_duration_median_h);
        }
    }

    #[test]
    fn shutdown_probability_is_three_percent() {
        for u in population() {
            assert!((u.shutdown_prob - 0.03).abs() < 1e-12);
        }
    }
}
