//! Battery charging model (§4.3).
//!
//! Two experimental facts from the paper anchor the model:
//!
//! * Residual charge grows **linearly** with time while plugged ("the
//!   residual battery percentage exhibits a predictable linear change with
//!   respect to time"), at a device-and-charger-specific rate.
//! * Heavy CPU use can stretch the charge time — a full HTC Sensation
//!   charge takes ~100 min idle but ~135 min under continuous compute
//!   (+35%), while the HTC G2 shows no significant effect.
//!
//! The mechanism is power headroom: the charger supplies more power than
//! the battery draws, so CPU utilization below a *headroom fraction* is
//! free; beyond it, every extra watt of CPU comes out of the charging
//! current. That is exactly the structure the MIMD throttle exploits: it
//! seeks the highest utilization that leaves the charging profile intact.

use cwc_types::Micros;

/// Device-specific charging parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryParams {
    /// Time for a full 0→100% charge with no tasks running.
    pub idle_full_charge: Micros,
    /// Time for a full 0→100% charge with the CPU pegged at 100%.
    pub busy_full_charge: Micros,
    /// *Sustained* CPU utilization below which charging is unaffected
    /// (charger power headroom), in `[0, 1]`.
    pub headroom: f64,
    /// Thermal/controller smoothing time constant: the charging penalty
    /// responds to utilization averaged over roughly this window, not to
    /// instantaneous bursts. This is why duty-cycling works at all — a
    /// 30 s run / 30 s sleep cycle looks like 50% sustained load to the
    /// charge controller, which is inside the headroom.
    pub smoothing: Micros,
}

impl BatteryParams {
    /// HTC Sensation: 100 → 135 minutes under load (§4.3), with enough
    /// headroom that ~80% utilization charges like idle — consistent with
    /// the paper's reported 24.5% compute-time overhead for the throttled
    /// run (`1/0.8 − 1 ≈ 25%`).
    pub fn htc_sensation() -> Self {
        BatteryParams {
            idle_full_charge: Micros::from_mins(100),
            busy_full_charge: Micros::from_mins(135),
            headroom: 0.8,
            smoothing: Micros::from_secs(90),
        }
    }

    /// HTC G2: the paper found no significant charging-time effect from
    /// CPU load — full headroom.
    pub fn htc_g2() -> Self {
        BatteryParams {
            idle_full_charge: Micros::from_mins(110),
            busy_full_charge: Micros::from_mins(112),
            headroom: 1.0,
            smoothing: Micros::from_secs(90),
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.idle_full_charge.0 == 0 || self.busy_full_charge < self.idle_full_charge {
            return Err("busy charge time must be >= idle charge time > 0".into());
        }
        if !(0.0..=1.0).contains(&self.headroom) {
            return Err(format!("headroom {} outside [0,1]", self.headroom));
        }
        if self.smoothing.0 == 0 {
            return Err("smoothing time constant must be nonzero".into());
        }
        Ok(())
    }

    /// Idle charging rate in percent per microsecond.
    fn idle_rate(&self) -> f64 {
        100.0 / self.idle_full_charge.0 as f64
    }

    /// Charging rate (%/µs) at a given CPU utilization.
    ///
    /// Piecewise linear: flat at the idle rate up to `headroom`, then
    /// descending to the busy rate at utilization 1.
    pub fn rate_at_utilization(&self, util: f64) -> f64 {
        let util = util.clamp(0.0, 1.0);
        let idle = self.idle_rate();
        if util <= self.headroom {
            return idle;
        }
        let busy = 100.0 / self.busy_full_charge.0 as f64;
        if self.headroom >= 1.0 {
            return idle;
        }
        let frac = (util - self.headroom) / (1.0 - self.headroom);
        idle + frac * (busy - idle)
    }

    /// Analytic time for the battery to gain `pct` percent at constant
    /// utilization.
    pub fn time_to_gain(&self, pct: f64, util: f64) -> Micros {
        assert!(pct > 0.0);
        Micros::from_ms_f64(pct / self.rate_at_utilization(util) / 1_000.0)
    }
}

/// Mutable battery state: residual charge while plugged.
#[derive(Debug, Clone, Copy)]
pub struct BatteryModel {
    params: BatteryParams,
    charge_pct: f64,
    /// EWMA of recent CPU utilization — what the charging penalty sees.
    util_smoothed: f64,
}

impl BatteryModel {
    /// Creates a battery at `initial_pct` residual charge, thermally cold
    /// (smoothed utilization zero).
    ///
    /// # Panics
    /// Panics if parameters are invalid or the charge is outside [0, 100].
    pub fn new(params: BatteryParams, initial_pct: f64) -> Self {
        params.validate().expect("invalid battery params");
        assert!((0.0..=100.0).contains(&initial_pct));
        BatteryModel {
            params,
            charge_pct: initial_pct,
            util_smoothed: 0.0,
        }
    }

    /// Current residual charge in percent.
    pub fn charge_pct(&self) -> f64 {
        self.charge_pct
    }

    /// Whether the battery reads 100%.
    pub fn is_full(&self) -> bool {
        self.charge_pct >= 100.0 - 1e-9
    }

    /// The parameters this battery charges with.
    pub fn params(&self) -> &BatteryParams {
        &self.params
    }

    /// Advances charging by `dt` at the given instantaneous CPU
    /// utilization. The charging penalty responds to the *smoothed*
    /// utilization (thermal/controller time constant), so short bursts
    /// below the headroom on average do not slow charging. Charge
    /// saturates at 100%.
    pub fn step(&mut self, dt: Micros, cpu_util: f64) {
        let cpu_util = cpu_util.clamp(0.0, 1.0);
        let alpha = 1.0 - (-(dt.0 as f64) / self.params.smoothing.0 as f64).exp();
        self.util_smoothed += (cpu_util - self.util_smoothed) * alpha;
        let gained = self.params.rate_at_utilization(self.util_smoothed) * dt.0 as f64;
        self.charge_pct = (self.charge_pct + gained).min(100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensation_idle_charges_in_100_minutes() {
        let t = BatteryParams::htc_sensation().time_to_gain(100.0, 0.0);
        assert_eq!(t, Micros::from_mins(100));
    }

    #[test]
    fn sensation_busy_charges_in_135_minutes() {
        let t = BatteryParams::htc_sensation().time_to_gain(100.0, 1.0);
        let mins = t.as_hours_f64() * 60.0;
        assert!((mins - 135.0).abs() < 0.5, "busy charge {mins} min");
    }

    #[test]
    fn utilization_below_headroom_is_free() {
        let p = BatteryParams::htc_sensation();
        assert_eq!(p.rate_at_utilization(0.0), p.rate_at_utilization(0.79));
        assert!(p.rate_at_utilization(0.9) < p.rate_at_utilization(0.8));
    }

    #[test]
    fn g2_is_load_insensitive() {
        let p = BatteryParams::htc_g2();
        // Full headroom: rate identical at any utilization.
        assert_eq!(p.rate_at_utilization(0.0), p.rate_at_utilization(1.0));
    }

    #[test]
    fn stepping_matches_analytic_time() {
        let mut b = BatteryModel::new(BatteryParams::htc_sensation(), 40.0);
        let dt = Micros::from_secs(1);
        let mut elapsed = Micros::ZERO;
        while !b.is_full() {
            b.step(dt, 0.0);
            elapsed += dt;
        }
        // 60% at 1%/min = 60 minutes.
        let mins = elapsed.as_hours_f64() * 60.0;
        assert!((mins - 60.0).abs() < 0.1, "stepped to full in {mins} min");
    }

    #[test]
    fn charge_saturates_at_100() {
        let mut b = BatteryModel::new(BatteryParams::htc_g2(), 99.9);
        b.step(Micros::from_mins(30), 0.0);
        assert_eq!(b.charge_pct(), 100.0);
        assert!(b.is_full());
    }

    #[test]
    fn linear_growth_between_steps() {
        let mut b = BatteryModel::new(BatteryParams::htc_sensation(), 0.0);
        b.step(Micros::from_mins(25), 0.0);
        assert!((b.charge_pct() - 25.0).abs() < 1e-9);
        b.step(Micros::from_mins(25), 0.0);
        assert!((b.charge_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid battery params")]
    fn busy_faster_than_idle_rejected() {
        let _ = BatteryModel::new(
            BatteryParams {
                idle_full_charge: Micros::from_mins(100),
                busy_full_charge: Micros::from_mins(90),
                headroom: 0.5,
                smoothing: Micros::from_secs(90),
            },
            0.0,
        );
    }

    #[test]
    fn duty_cycled_bursts_below_headroom_charge_like_idle() {
        // 30 s full-tilt / 30 s sleep = 50% sustained load, inside the
        // Sensation's 80% headroom → charging must be unaffected.
        let mut cycled = BatteryModel::new(BatteryParams::htc_sensation(), 0.0);
        let dt = Micros::from_millis(500);
        let mut now = Micros::ZERO;
        while !cycled.is_full() {
            let in_run_phase = (now.0 / 30_000_000).is_multiple_of(2);
            cycled.step(dt, if in_run_phase { 1.0 } else { 0.0 });
            now += dt;
        }
        let mins = now.as_hours_f64() * 60.0;
        assert!(
            (mins - 100.0).abs() < 2.0,
            "duty-cycled charge took {mins} min"
        );
    }

    #[test]
    fn sustained_load_is_not_masked_by_smoothing() {
        let mut b = BatteryModel::new(BatteryParams::htc_sensation(), 0.0);
        let dt = Micros::from_millis(500);
        let mut now = Micros::ZERO;
        while !b.is_full() {
            b.step(dt, 1.0);
            now += dt;
        }
        let mins = now.as_hours_f64() * 60.0;
        assert!(
            mins > 130.0,
            "sustained load must slow charging, took {mins} min"
        );
    }

    #[test]
    fn time_to_gain_scales_with_pct() {
        let p = BatteryParams::htc_sensation();
        let one = p.time_to_gain(1.0, 0.0);
        let five = p.time_to_gain(5.0, 0.0);
        assert_eq!(five.0, one.0 * 5);
    }
}
