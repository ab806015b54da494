//! The §3.1 bandwidth-variability experiment (Fig. 5).
//!
//! Setup from the paper: a central server holds 600 files; 6 phones with
//! *identical CPU clocks* but different wireless bandwidths process them
//! (each file's task: find the largest integer). Dispatch is
//! first-come-first-served — the next queued file goes to the first phone
//! that becomes idle; the first 6 files ship in parallel. The measured
//! *turnaround* of a file is (result-returned time − enqueue time).
//!
//! Finding: with all 6 phones, the 90th-percentile turnaround is worse
//! than with only the 4 fast-linked phones — wireless bandwidth must be a
//! scheduling input, which is exactly what distinguishes CWC from
//! Condor-style CPU-only scheduling.

use cwc_device::Phone;
use cwc_types::{KiloBytes, Micros, MsPerKb};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One file-processing record.
#[derive(Debug, Clone, Copy)]
pub struct FileRecord {
    /// Which phone processed it (fleet index).
    pub phone: usize,
    /// Turnaround: transfer + processing time of the file on its phone
    /// (the per-file service time Fig. 5 plots; the paper's 600 files
    /// queue at the server and dispatch as phones free up, so queueing
    /// shows up as `queue_wait`, not in the turnaround CDF).
    pub turnaround: Micros,
    /// Time the file waited before a phone picked it up.
    pub queue_wait: Micros,
}

/// Runs the FCFS dispatch experiment: `files` file sizes over `phones`,
/// with per-file compute cost `exec_ms_per_kb` at the phones' (identical)
/// clock. Returns per-file records in completion order.
pub fn fcfs_dispatch(
    phones: &mut [Phone],
    files: &[KiloBytes],
    baseline_ms_per_kb: f64,
) -> Vec<FileRecord> {
    assert!(!phones.is_empty());
    // (next idle time, phone index) min-heap.
    let mut idle: BinaryHeap<Reverse<(Micros, usize)>> = (0..phones.len())
        .map(|i| Reverse((Micros::ZERO, i)))
        .collect();
    let mut records = Vec::with_capacity(files.len());
    for &size in files {
        let Reverse((free_at, i)) = idle.pop().expect("heap never empties");
        let xfer = phones[i].transfer_time(free_at, size);
        let exec = phones[i].exec_time(MsPerKb(baseline_ms_per_kb), size);
        let done = free_at + xfer + exec;
        records.push(FileRecord {
            phone: i,
            turnaround: xfer + exec,
            queue_wait: free_at,
        });
        idle.push(Reverse((done, i)));
    }
    records
}

/// Sorted turnaround values in ms (for CDF plotting).
pub fn turnaround_cdf_ms(records: &[FileRecord]) -> Vec<f64> {
    let mut v: Vec<f64> = records.iter().map(|r| r.turnaround.as_ms_f64()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The value at percentile `p` (0–100) of a sorted series.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_device::{BatteryParams, CpuModel, PhoneSpec};
    use cwc_net::link::{LinkConfig, LinkModel};
    use cwc_sim::RngStreams;
    use cwc_types::{CpuSpec, PhoneId, RadioTech};

    /// Six phones, identical 1.2 GHz CPUs, mixed link speeds (the paper's
    /// §3.1 configuration).
    fn fig5_phones(seed: u64) -> Vec<Phone> {
        let radios = [
            RadioTech::Wifi80211a,
            RadioTech::Wifi80211g,
            RadioTech::FourG,
            RadioTech::ThreeG,
            RadioTech::ThreeG,
            RadioTech::Edge,
        ];
        let streams = RngStreams::new(seed);
        radios
            .iter()
            .enumerate()
            .map(|(i, &radio)| {
                let spec = PhoneSpec {
                    id: PhoneId::from_index(i),
                    model: "HTC Sensation".into(),
                    cpu: CpuModel::ideal(CpuSpec::new(1200, 2)),
                    radio,
                    ram_kb: 1 << 20,
                    battery: BatteryParams::htc_sensation(),
                };
                let link = LinkModel::new(
                    LinkConfig::typical(radio),
                    streams.indexed_stream("fig5", i),
                );
                Phone::new(spec, link, 50.0)
            })
            .collect()
    }

    fn files(n: usize) -> Vec<KiloBytes> {
        (0..n)
            .map(|k| KiloBytes(20 + (k as u64 % 5) * 10))
            .collect()
    }

    #[test]
    fn every_file_is_processed_exactly_once() {
        let mut phones = fig5_phones(1);
        let records = fcfs_dispatch(&mut phones, &files(600), 2.0);
        assert_eq!(records.len(), 600);
    }

    #[test]
    fn dropping_slow_links_improves_tail_latency() {
        // Paper: 6 phones → 90th pct ≈ 1200 ms; best 4 links → ≈ 700 ms.
        let f = files(600);
        let mut all6 = fig5_phones(2);
        let all_records = fcfs_dispatch(&mut all6, &f, 2.0);
        let all_cdf = turnaround_cdf_ms(&all_records);

        let mut fast4: Vec<Phone> = fig5_phones(2)
            .into_iter()
            .filter(|p| p.spec().radio != RadioTech::Edge && p.spec().radio != RadioTech::ThreeG)
            .collect();
        // Keep exactly 4: the two WiFi + 4G... fig5_phones has 2×3G;
        // filter removed three phones, leaving 3 — re-add one 3G.
        if fast4.len() < 4 {
            let extra = fig5_phones(2)
                .into_iter()
                .find(|p| p.spec().radio == RadioTech::ThreeG)
                .unwrap();
            fast4.push(extra);
        }
        assert_eq!(fast4.len(), 4);
        let fast_records = fcfs_dispatch(&mut fast4, &f, 2.0);
        let fast_cdf = turnaround_cdf_ms(&fast_records);

        let p90_all = percentile(&all_cdf, 90.0);
        let p90_fast = percentile(&fast_cdf, 90.0);
        assert!(
            p90_fast < p90_all,
            "4 fast phones p90 {p90_fast:.0}ms should beat 6 phones p90 {p90_all:.0}ms"
        );
        // ...at the price of more queueing (the paper's caveat).
        let wait = |records: &[FileRecord]| {
            records
                .iter()
                .map(|r| r.queue_wait.as_ms_f64())
                .sum::<f64>()
                / records.len() as f64
        };
        assert!(
            wait(&fast_records) > wait(&all_records),
            "fewer phones must queue longer"
        );
    }

    #[test]
    fn slowest_link_dominates_the_tail() {
        let mut phones = fig5_phones(3);
        let records = fcfs_dispatch(&mut phones, &files(300), 2.0);
        let cdf = turnaround_cdf_ms(&records);
        // The EDGE phone's turnarounds should populate the top decile.
        let p99 = percentile(&cdf, 99.0);
        let edge_max = records
            .iter()
            .filter(|r| r.phone == 5)
            .map(|r| r.turnaround.as_ms_f64())
            .fold(0.0f64, f64::max);
        assert!(edge_max >= p99 * 0.8, "edge max {edge_max} vs p99 {p99}");
    }

    #[test]
    fn percentile_helper() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
    }
}
