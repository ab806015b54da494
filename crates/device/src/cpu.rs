//! Execution-time model — the paper's CPU-clock scaling (§4.1).
//!
//! CWC profiles each task once, on the *slowest* phone in the fleet
//! (HTC G2, 806 MHz in the testbed), measuring `T_s` ms per KB of input.
//! A phone clocked at `A` MHz is then predicted to need `T_s · S / A`
//! ms/KB. Fig. 6 validates the model: most phones land on the y=x line,
//! a few run *faster* than predicted. [`CpuModel::efficiency`] captures
//! that residual: actual time = predicted time × efficiency, with
//! efficiency < 1 for the pleasant surprises.

use cwc_types::{CpuSpec, KiloBytes, Micros, MsPerKb};

/// Clock of the profiling baseline phone (HTC G2) in MHz.
pub const BASELINE_CLOCK_MHZ: u32 = 806;

/// A phone CPU as the execution model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Advertised spec (what the phone reports at registration — all the
    /// *scheduler* ever sees).
    pub spec: CpuSpec,
    /// Ground-truth multiplicative deviation from the clock-scaling
    /// prediction: actual = predicted × efficiency. 1.0 means the
    /// prediction is exact; 0.8 means the phone is 25% faster than its
    /// clock suggests (better IPC, faster flash, bigger cache).
    pub efficiency: f64,
}

impl CpuModel {
    /// A CPU that exactly follows the clock-scaling prediction.
    pub fn ideal(spec: CpuSpec) -> Self {
        CpuModel {
            spec,
            efficiency: 1.0,
        }
    }

    /// A CPU with an explicit efficiency factor.
    ///
    /// # Panics
    /// Panics unless `0 < efficiency <= 2`.
    pub fn with_efficiency(spec: CpuSpec, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 2.0,
            "implausible efficiency {efficiency}"
        );
        CpuModel { spec, efficiency }
    }

    /// Predicted per-KB execution time in ms, given the task's profiled
    /// baseline cost (`T_s`, ms/KB on the 806 MHz phone). This is what the
    /// *scheduler* believes.
    pub fn predicted_ms_per_kb(&self, baseline: MsPerKb) -> MsPerKb {
        baseline * f64::from(BASELINE_CLOCK_MHZ) / f64::from(self.spec.clock_mhz)
    }

    /// Ground-truth per-KB execution time in ms — what the phone actually
    /// takes, including the efficiency residual.
    pub fn actual_ms_per_kb(&self, baseline: MsPerKb) -> MsPerKb {
        self.predicted_ms_per_kb(baseline) * self.efficiency
    }

    /// Ground-truth time to execute a task over `input` KB of data.
    pub fn exec_time(&self, baseline: MsPerKb, input: KiloBytes) -> Micros {
        self.actual_ms_per_kb(baseline).time_for(input)
    }

    /// Measured speedup of this CPU over the baseline for a task — the
    /// quantity on Fig. 6's y-axis.
    pub fn measured_speedup(&self, baseline: MsPerKb) -> f64 {
        baseline.0 / self.actual_ms_per_kb(baseline).0
    }

    /// Predicted speedup from clock ratio alone — Fig. 6's x-axis.
    pub fn predicted_speedup(&self) -> f64 {
        f64::from(self.spec.clock_mhz) / f64::from(BASELINE_CLOCK_MHZ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu(clock: u32) -> CpuModel {
        CpuModel::ideal(CpuSpec::new(clock, 2))
    }

    #[test]
    fn baseline_predicts_itself() {
        let c = cpu(BASELINE_CLOCK_MHZ);
        assert!((c.predicted_ms_per_kb(MsPerKb(10.0)).0 - 10.0).abs() < 1e-12);
        assert!((c.predicted_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faster_clock_scales_linearly() {
        let c = cpu(1612); // exactly 2x the baseline
        assert!((c.predicted_ms_per_kb(MsPerKb(10.0)).0 - 5.0).abs() < 1e-12);
        assert!((c.predicted_speedup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_below_one_beats_prediction() {
        let fast = CpuModel::with_efficiency(CpuSpec::new(1200, 2), 0.8);
        let ideal = CpuModel::ideal(CpuSpec::new(1200, 2));
        assert!(fast.actual_ms_per_kb(MsPerKb(10.0)) < ideal.actual_ms_per_kb(MsPerKb(10.0)));
        assert!(fast.measured_speedup(MsPerKb(10.0)) > fast.predicted_speedup());
        // Ideal phone: measured == predicted speedup.
        assert!((ideal.measured_speedup(MsPerKb(10.0)) - ideal.predicted_speedup()).abs() < 1e-12);
    }

    #[test]
    fn exec_time_is_cost_times_size() {
        let c = cpu(806);
        // 10 ms/KB × 100 KB = 1 s.
        assert_eq!(
            c.exec_time(MsPerKb(10.0), KiloBytes(100)),
            Micros::from_secs(1)
        );
    }

    #[test]
    #[should_panic(expected = "implausible efficiency")]
    fn zero_efficiency_rejected() {
        let _ = CpuModel::with_efficiency(CpuSpec::new(1000, 2), 0.0);
    }
}
