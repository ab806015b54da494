//! The adaptive MIMD CPU throttle (§4.3, Fig. 10).
//!
//! Root constraint: DVFS needs root, so CWC cannot touch voltage or
//! frequency. Instead it duty-cycles the task — run, sleep, run, sleep —
//! and adapts the sleep length multiplicatively:
//!
//! 1. Measure δ (*target charging parameter*): the time for the residual
//!    charge to gain 1% with no task running.
//! 2. Run the task for δ/2, sleep for δ/2; repeat until the charge has
//!    gained 1%. Call that elapsed time β (*actual charging parameter*).
//! 3. If β = δ (charging unharmed), there may be spare outlet power:
//!    **decrease** the sleep window by ×0.75. If β > δ, the CPU is eating
//!    into the charge current: **increase** the sleep window by ×2.
//! 4. Recompute δ whenever the residual charge has moved by 5% (the
//!    profile can drift with battery level, other apps, or the charger).
//!
//! The controller here is exactly that state machine; a driver
//! ([`simulate_charge`]) closes the loop against a [`BatteryModel`] and
//! produces the Fig. 10 series.

use crate::battery::{BatteryModel, BatteryParams};
use cwc_types::Micros;

/// Throttle tuning. Defaults are the paper's values.
#[derive(Debug, Clone, Copy)]
pub struct ThrottleConfig {
    /// Multiplier applied to the sleep window when β > δ (paper: 2.0).
    pub sleep_increase: f64,
    /// Multiplier applied when β ≈ δ (paper: 0.75).
    pub sleep_decrease: f64,
}

/// Relative tolerance for "β equals δ".
const EQUALITY_TOLERANCE: f64 = 0.02;

/// Recalibrate δ after the charge moves this many percent (paper: 5).
const RECALIBRATE_EVERY_PCT: f64 = 5.0;

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            sleep_increase: 2.0,
            sleep_decrease: 0.75,
        }
    }
}

/// What the CPU should do for the next instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleDecision {
    /// Execute the task.
    Run,
    /// Leave the CPU idle.
    Sleep,
}

/// The MIMD duty-cycle controller.
#[derive(Debug, Clone)]
pub struct MimdThrottle {
    cfg: ThrottleConfig,
    /// Target charging parameter δ.
    delta: Micros,
    /// Current sleep window length.
    sleep_window: Micros,
    /// Remaining time in the current phase.
    phase_left: Micros,
    /// Whether the current phase is a run phase.
    running: bool,
    /// Charge percent at the start of the current β measurement.
    beta_anchor_pct: f64,
    /// Time at the start of the current β measurement.
    beta_anchor_at: Micros,
    /// Charge percent at the last δ recalibration.
    recal_anchor_pct: f64,
}

impl MimdThrottle {
    /// Creates a controller with a freshly measured δ, starting at the
    /// paper's initial 50% duty cycle (run δ/2, sleep δ/2).
    pub fn new(cfg: ThrottleConfig, delta: Micros, now: Micros, charge_pct: f64) -> Self {
        assert!(delta.0 > 0, "delta must be positive");
        let half = Micros(delta.0 / 2);
        MimdThrottle {
            cfg,
            delta,
            sleep_window: half,
            phase_left: half,
            running: true,
            beta_anchor_pct: charge_pct,
            beta_anchor_at: now,
            recal_anchor_pct: charge_pct,
        }
    }

    /// Current δ.
    pub fn delta(&self) -> Micros {
        self.delta
    }

    /// Current sleep-window length.
    pub fn sleep_window(&self) -> Micros {
        self.sleep_window
    }

    /// Instantaneous duty cycle implied by the current windows.
    pub fn duty_cycle(&self) -> f64 {
        let run = (self.delta.0 / 2) as f64;
        run / (run + self.sleep_window.0 as f64)
    }

    /// Whether a δ recalibration is due (charge moved ≥ 5% since last).
    pub fn recalibration_due(&self, charge_pct: f64) -> bool {
        (charge_pct - self.recal_anchor_pct).abs() >= RECALIBRATE_EVERY_PCT
    }

    /// Installs a freshly measured δ (the driver obtains it from the
    /// device's stored charging profile, or by idling for 1%).
    pub fn recalibrate(&mut self, new_delta: Micros, charge_pct: f64) {
        assert!(new_delta.0 > 0);
        // Preserve the learned duty cycle across recalibration: scale the
        // sleep window by the δ ratio.
        let ratio = new_delta.0 as f64 / self.delta.0 as f64;
        self.sleep_window = Micros((self.sleep_window.0 as f64 * ratio).round() as u64);
        self.delta = new_delta;
        self.recal_anchor_pct = charge_pct;
    }

    /// Advances the controller by `dt`, observing the current charge, and
    /// returns what the CPU should do during that interval.
    ///
    /// The β logic fires on every 1% charge gain: compare the elapsed time
    /// against δ and adjust the sleep window multiplicatively.
    pub fn tick(&mut self, now: Micros, dt: Micros, charge_pct: f64) -> ThrottleDecision {
        // 1% crossing → β measurement complete.
        if charge_pct - self.beta_anchor_pct >= 1.0 {
            let beta = now.saturating_sub(self.beta_anchor_at);
            let threshold = self.delta.scale(1.0 + EQUALITY_TOLERANCE);
            if beta > threshold {
                self.sleep_window = self.sleep_window.scale(self.cfg.sleep_increase);
            } else {
                self.sleep_window = self.sleep_window.scale(self.cfg.sleep_decrease);
            }
            // Clamp to keep the duty cycle in a sane band.
            let min_sleep = Micros((self.delta.0 / 512).max(1));
            let max_sleep = Micros(self.delta.0 * 8);
            self.sleep_window = Micros(self.sleep_window.0.clamp(min_sleep.0, max_sleep.0));
            self.beta_anchor_pct = charge_pct;
            self.beta_anchor_at = now;
        }

        // Phase machine.
        let decision = if self.running {
            ThrottleDecision::Run
        } else {
            ThrottleDecision::Sleep
        };
        if dt >= self.phase_left {
            self.running = !self.running;
            self.phase_left = if self.running {
                Micros(self.delta.0 / 2)
            } else {
                self.sleep_window
            };
        } else {
            self.phase_left -= dt;
        }
        decision
    }
}

/// Charging policy for [`simulate_charge`].
#[derive(Debug, Clone, Copy)]
pub enum ChargePolicy {
    /// No tasks: the paper's "ideal charging profile".
    Idle,
    /// Task pegged at 100% utilization: the paper's "heavily utilized" run.
    Heavy,
    /// The MIMD throttle.
    Throttled(ThrottleConfig),
}

/// Result of a charging simulation.
#[derive(Debug, Clone)]
pub struct ChargeOutcome {
    /// Sampled `(time, charge %)` series — the Fig. 10 curves.
    pub timeline: Vec<(Micros, f64)>,
    /// Time at which the battery reached 100%.
    pub full_at: Micros,
    /// Total CPU-running time accumulated (compute throughput proxy).
    pub cpu_time: Micros,
}

impl ChargeOutcome {
    /// The compute-time overhead of this policy relative to `baseline`
    /// for the *same amount of work*: if this run accumulates CPU time at
    /// rate `u` (utilization) and the baseline at rate `u₀`, a fixed job
    /// takes `u₀/u − 1` longer here. For throttled-vs-heavy this is the
    /// paper's "24.5% increase in computation time".
    pub fn compute_overhead_vs(&self, baseline: &ChargeOutcome) -> f64 {
        let self_util = self.cpu_time.0 as f64 / self.full_at.0.max(1) as f64;
        let base_util = baseline.cpu_time.0 as f64 / baseline.full_at.0.max(1) as f64;
        base_util / self_util - 1.0
    }
}

/// Simulates a full charge from `start_pct` under a policy, sampling the
/// timeline every `sample_every`.
///
/// ```
/// use cwc_device::throttle::{simulate_charge, ChargePolicy, ThrottleConfig};
/// use cwc_device::BatteryParams;
/// use cwc_types::Micros;
///
/// let params = BatteryParams::htc_sensation();
/// let idle = simulate_charge(params, ChargePolicy::Idle, 0.0, Micros::from_mins(10));
/// let heavy = simulate_charge(params, ChargePolicy::Heavy, 0.0, Micros::from_mins(10));
/// let throttled = simulate_charge(
///     params,
///     ChargePolicy::Throttled(ThrottleConfig::default()),
///     0.0,
///     Micros::from_mins(10),
/// );
/// // The Fig. 10 ordering: heavy is slowest; the throttle tracks idle.
/// assert!(idle.full_at <= throttled.full_at);
/// assert!(throttled.full_at < heavy.full_at);
/// ```
pub fn simulate_charge(
    params: BatteryParams,
    policy: ChargePolicy,
    start_pct: f64,
    sample_every: Micros,
) -> ChargeOutcome {
    let mut battery = BatteryModel::new(params, start_pct);
    let dt = Micros::from_millis(250);
    let mut now = Micros::ZERO;
    let mut cpu_time = Micros::ZERO;
    let mut timeline = vec![(now, battery.charge_pct())];
    let mut next_sample = sample_every;

    // The throttle first measures δ with no task running (1% idle gain).
    let mut throttle = match policy {
        ChargePolicy::Throttled(cfg) => {
            let delta = params.time_to_gain(1.0, 0.0);
            Some(MimdThrottle::new(cfg, delta, now, battery.charge_pct()))
        }
        _ => None,
    };

    while !battery.is_full() {
        let util = match (&policy, &mut throttle) {
            (ChargePolicy::Idle, _) => 0.0,
            (ChargePolicy::Heavy, _) => 1.0,
            (ChargePolicy::Throttled(_), Some(t)) => {
                if t.recalibration_due(battery.charge_pct()) {
                    // Fresh δ from the device's stored idle charging
                    // profile at the current battery level.
                    let delta = params.time_to_gain(1.0, 0.0);
                    t.recalibrate(delta, battery.charge_pct());
                }
                match t.tick(now, dt, battery.charge_pct()) {
                    ThrottleDecision::Run => 1.0,
                    ThrottleDecision::Sleep => 0.0,
                }
            }
            (ChargePolicy::Throttled(_), None) => unreachable!(),
        };
        battery.step(dt, util);
        now += dt;
        if util > 0.0 {
            cpu_time += dt;
        }
        if now >= next_sample {
            timeline.push((now, battery.charge_pct()));
            next_sample += sample_every;
        }
    }
    timeline.push((now, battery.charge_pct()));
    ChargeOutcome {
        timeline,
        full_at: now,
        cpu_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: f64) -> Micros {
        Micros::from_secs_f64(m * 60.0)
    }

    #[test]
    fn idle_policy_matches_ideal_profile() {
        let out = simulate_charge(
            BatteryParams::htc_sensation(),
            ChargePolicy::Idle,
            0.0,
            mins(5.0),
        );
        let full_min = out.full_at.as_hours_f64() * 60.0;
        assert!(
            (full_min - 100.0).abs() < 1.0,
            "idle full at {full_min} min"
        );
        assert_eq!(out.cpu_time, Micros::ZERO);
    }

    #[test]
    fn heavy_policy_stretches_charge_35_percent() {
        let out = simulate_charge(
            BatteryParams::htc_sensation(),
            ChargePolicy::Heavy,
            0.0,
            mins(5.0),
        );
        let full_min = out.full_at.as_hours_f64() * 60.0;
        assert!(
            (full_min - 135.0).abs() < 1.5,
            "heavy full at {full_min} min"
        );
    }

    #[test]
    fn throttled_charges_nearly_like_idle() {
        let out = simulate_charge(
            BatteryParams::htc_sensation(),
            ChargePolicy::Throttled(ThrottleConfig::default()),
            0.0,
            mins(5.0),
        );
        let full_min = out.full_at.as_hours_f64() * 60.0;
        // Fig. 10: "almost the same as in the ideal case" — well under the
        // 135-minute heavy run and within a few minutes of 100.
        assert!(
            full_min < 112.0,
            "throttled full charge took {full_min} min (want ≈100)"
        );
        assert!(full_min >= 99.0);
    }

    #[test]
    fn throttled_compute_overhead_near_paper_value() {
        let params = BatteryParams::htc_sensation();
        let heavy = simulate_charge(params, ChargePolicy::Heavy, 0.0, mins(5.0));
        let throttled = simulate_charge(
            params,
            ChargePolicy::Throttled(ThrottleConfig::default()),
            0.0,
            mins(5.0),
        );
        let overhead = throttled.compute_overhead_vs(&heavy);
        // Paper: ≈24.5% more compute time than the heavy run. Accept a
        // generous band — the claim is "tens of percent, not 2x".
        assert!(
            (0.10..=0.50).contains(&overhead),
            "compute overhead {overhead}"
        );
    }

    #[test]
    fn g2_throttle_converges_to_high_duty() {
        // With full headroom, β never exceeds δ, so sleep keeps shrinking.
        let params = BatteryParams::htc_g2();
        let out = simulate_charge(
            params,
            ChargePolicy::Throttled(ThrottleConfig::default()),
            0.0,
            mins(10.0),
        );
        let util = out.cpu_time.0 as f64 / out.full_at.0 as f64;
        assert!(
            util > 0.9,
            "G2 should compute nearly continuously, util {util}"
        );
    }

    #[test]
    fn timeline_is_monotone_in_time_and_charge() {
        let out = simulate_charge(
            BatteryParams::htc_sensation(),
            ChargePolicy::Throttled(ThrottleConfig::default()),
            20.0,
            mins(2.0),
        );
        for pair in out.timeline.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 <= pair[1].1 + 1e-9);
        }
        assert!((out.timeline.last().unwrap().1 - 100.0).abs() < 1e-6);
    }

    #[test]
    fn controller_increases_sleep_when_beta_exceeds_delta() {
        let cfg = ThrottleConfig::default();
        let delta = Micros::from_secs(60);
        let mut t = MimdThrottle::new(cfg, delta, Micros::ZERO, 50.0);
        let w0 = t.sleep_window();
        // Simulate a 1% gain that took 2δ (charging clearly degraded).
        t.tick(Micros::from_secs(120), Micros::from_millis(250), 51.0);
        assert_eq!(t.sleep_window().0, w0.0 * 2, "sleep should double");
    }

    #[test]
    fn controller_decreases_sleep_when_beta_matches_delta() {
        let cfg = ThrottleConfig::default();
        let delta = Micros::from_secs(60);
        let mut t = MimdThrottle::new(cfg, delta, Micros::ZERO, 50.0);
        let w0 = t.sleep_window();
        // 1% gained in exactly δ: charging unharmed → trim sleep by 0.75.
        t.tick(Micros::from_secs(60), Micros::from_millis(250), 51.0);
        assert_eq!(t.sleep_window().0, (w0.0 as f64 * 0.75).round() as u64);
    }

    #[test]
    fn recalibration_preserves_duty_cycle() {
        let mut t = MimdThrottle::new(
            ThrottleConfig::default(),
            Micros::from_secs(60),
            Micros::ZERO,
            50.0,
        );
        let duty_before = t.duty_cycle();
        assert!(t.recalibration_due(55.0));
        assert!(!t.recalibration_due(52.0));
        t.recalibrate(Micros::from_secs(120), 55.0);
        // Duty cycle ratio is kept: both run and sleep scale with δ.
        assert!((t.duty_cycle() - duty_before).abs() < 1e-6);
        assert_eq!(t.delta(), Micros::from_secs(120));
    }
}
