//! Bandwidth measurement — the iperf analogue.
//!
//! Before scheduling, CWC runs a short throughput test from each phone to
//! the server and uses the inverse of the measured rate as `b_i` (§6:
//! *"we initiate iperf sessions from each phone to the EC2 server and log
//! the measured data rate in KBps (the inverse of this value is used as
//! b_i)"*). This module reproduces that procedure against a [`LinkModel`]
//! and computes the stability statistics behind Fig. 4.

use crate::link::LinkModel;
use cwc_types::{Micros, MsPerKb};

/// One throughput sample from a measurement session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthSample {
    /// Sample timestamp.
    pub at: Micros,
    /// Instantaneous throughput in KB/s.
    pub kb_per_sec: f64,
}

/// Summary of a measurement session.
#[derive(Debug, Clone)]
pub struct MeasurementReport {
    /// The raw time series (for Fig. 4-style plots).
    pub samples: Vec<BandwidthSample>,
    /// Mean throughput in KB/s.
    pub mean_kb_per_sec: f64,
    /// Standard deviation of the throughput in KB/s.
    pub std_dev: f64,
}

impl MeasurementReport {
    /// Coefficient of variation (σ/µ) — the paper's stability criterion.
    pub fn coefficient_of_variation(&self) -> f64 {
        self.std_dev / self.mean_kb_per_sec
    }

    /// The `b_i` estimate the scheduler consumes: 1 / mean rate.
    pub fn ms_per_kb(&self) -> MsPerKb {
        MsPerKb::from_kb_per_sec(self.mean_kb_per_sec)
    }
}

/// Runs an iperf-style session against `link`, sampling once per
/// `interval` from `start` for `duration`.
///
/// ```
/// use cwc_net::link::{LinkConfig, LinkModel};
/// use cwc_net::measure::measure_link;
/// use cwc_sim::RngStreams;
/// use cwc_types::{Micros, RadioTech};
///
/// let mut link = LinkModel::new(
///     LinkConfig::typical(RadioTech::Wifi80211a),
///     RngStreams::new(7).stream("doc"),
/// );
/// let report = measure_link(&mut link, Micros::ZERO,
///                           Micros::from_secs(60), Micros::from_secs(1));
/// // Stationary WiFi: low variation (the Fig. 4 claim), and the b_i the
/// // scheduler will use is just the inverse mean rate.
/// assert!(report.coefficient_of_variation() < 0.1);
/// assert!(report.ms_per_kb().0 > 0.0);
/// ```
///
/// # Panics
/// Panics if `interval` is zero or `duration < interval`.
pub fn measure_link(
    link: &mut LinkModel,
    start: Micros,
    duration: Micros,
    interval: Micros,
) -> MeasurementReport {
    let samples: Vec<BandwidthSample> = sample_times(start, duration, interval)
        .map(|at| BandwidthSample {
            at,
            kb_per_sec: link.rate_at(at),
        })
        .collect();
    let mean = samples.iter().map(|s| s.kb_per_sec).sum::<f64>() / samples.len() as f64;
    let var = samples
        .iter()
        .map(|s| (s.kb_per_sec - mean).powi(2))
        .sum::<f64>()
        / samples.len() as f64;
    MeasurementReport {
        samples,
        mean_kb_per_sec: mean,
        std_dev: var.sqrt(),
    }
}

/// The session's sample instants: one per whole `interval` in
/// `duration`, the first an interval after `start`.
fn sample_times(
    start: Micros,
    duration: Micros,
    interval: Micros,
) -> impl ExactSizeIterator<Item = Micros> {
    assert!(interval.0 > 0, "interval must be nonzero");
    assert!(duration.0 >= interval.0, "duration shorter than interval");
    let n = (duration.0 / interval.0) as usize;
    (1..n + 1).map(move |k| start + Micros(interval.0 * k as u64))
}

/// [`measure_link`]'s `mean_kb_per_sec` and nothing else: the same
/// samples at the same instants summed in the same order, so the value
/// and the link's state afterwards match it to the bit, with no sample
/// vector and no deviation. What the per-chunk `b_i` refresh of a
/// simulated phone reads; the full report stays for Fig. 4.
///
/// # Panics
/// Panics if `interval` is zero or `duration < interval`.
pub fn mean_kb_per_sec(
    link: &mut LinkModel,
    start: Micros,
    duration: Micros,
    interval: Micros,
) -> f64 {
    let times = sample_times(start, duration, interval);
    let n = times.len();
    times.map(|at| link.rate_at(at)).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use cwc_sim::RngStreams;
    use cwc_types::RadioTech;

    fn wifi_link(seed: u64) -> LinkModel {
        LinkModel::new(
            LinkConfig::typical(RadioTech::Wifi80211g),
            RngStreams::new(seed).stream("measure-test"),
        )
    }

    #[test]
    fn paper_style_600s_session() {
        let mut link = wifi_link(4);
        let report = measure_link(
            &mut link,
            Micros::ZERO,
            Micros::from_secs(600),
            Micros::from_secs(1),
        );
        assert_eq!(report.samples.len(), 600);
        // Stationary WiFi: CV stays below ~10%.
        assert!(
            report.coefficient_of_variation() < 0.10,
            "cv {}",
            report.coefficient_of_variation()
        );
        // b_i near 1000/520 ≈ 1.9 ms/KB.
        let b = report.ms_per_kb().0;
        assert!((1.0..4.0).contains(&b), "b_i {b}");
    }

    #[test]
    fn sample_timestamps_are_monotonic() {
        let mut link = wifi_link(8);
        let report = measure_link(
            &mut link,
            Micros::from_secs(100),
            Micros::from_secs(10),
            Micros::from_secs(2),
        );
        assert_eq!(report.samples.len(), 5);
        for pair in report.samples.windows(2) {
            assert!(pair[0].at < pair[1].at);
        }
        assert!(report.samples[0].at > Micros::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "interval must be nonzero")]
    fn zero_interval_panics() {
        let mut link = wifi_link(1);
        measure_link(&mut link, Micros::ZERO, Micros::from_secs(1), Micros::ZERO);
    }

    #[test]
    fn mean_alone_matches_the_full_report_and_leaves_the_link_alike() {
        for seed in 0..50 {
            let mut full = wifi_link(seed);
            let mut lean = full.clone();
            // Back-to-back sessions, then one past the 64-period gap.
            for start in [0, 10, 20, 500].map(Micros::from_secs) {
                let (duration, interval) = (Micros::from_secs(10), Micros::from_secs(1));
                let report = measure_link(&mut full, start, duration, interval);
                let mean = mean_kb_per_sec(&mut lean, start, duration, interval);
                assert_eq!(mean.to_bits(), report.mean_kb_per_sec.to_bits());
            }
            let later = Micros::from_secs(600);
            assert_eq!(lean.rate_at(later).to_bits(), full.rate_at(later).to_bits());
        }
    }

    #[test]
    fn statistics_match_samples() {
        let mut link = wifi_link(2);
        let report = measure_link(
            &mut link,
            Micros::ZERO,
            Micros::from_secs(50),
            Micros::from_secs(1),
        );
        let mean =
            report.samples.iter().map(|s| s.kb_per_sec).sum::<f64>() / report.samples.len() as f64;
        assert!((mean - report.mean_kb_per_sec).abs() < 1e-9);
    }
}
