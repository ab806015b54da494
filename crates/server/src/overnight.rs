//! Overnight fleet simulation — the deployment story end to end.
//!
//! The paper's vision is *"schedule jobs on phones while they charge
//! overnight"*; its evaluation injects failures by hand. This module
//! closes the loop: each fleet phone is owned by a volunteer from the
//! §3.1 behavioral study, the study's generative model decides when
//! each phone is plugged in, unplugged (a failure), or arrives late, and
//! the engine runs a batch across that living fleet. The same history
//! also yields per-phone unplug probabilities, feeding the
//! failure-prediction scheduler extension ([`cwc_core::reliability`]).

use crate::engine::{Engine, EngineConfig, EngineOutcome, FailureInjection};
use cwc_device::{Phone, PlugState};
use cwc_profiler::{parse_intervals, study_population, ChargingInterval};
use cwc_sim::RngStreams;
use cwc_types::{CwcResult, JobSpec, Micros};

/// The scheduling window starts at this local hour (1 a.m. — inside the
/// paper's low-failure 12 a.m.–8 a.m. band, by which point nearly every
/// volunteer who will charge tonight has plugged in, per Fig. 2a/3a).
pub const NIGHT_START_HOUR: u64 = 25; // hour 25 = 1 a.m. of the next day

/// Horizon over which per-phone failure probabilities are estimated.
/// The batch itself usually finishes within a couple of hours, so "will
/// this phone survive the next two hours" is the decision-relevant risk —
/// over a full 8-hour window nearly *every* phone unplugs eventually
/// (people wake up), which would carry no signal.
pub const RISK_WINDOW: Micros = Micros(2 * 3_600_000_000);

/// Plan derived from simulated user behavior for one night.
#[derive(Debug, Clone)]
pub struct OvernightPlan {
    /// Plug-state events relative to the window start.
    pub injections: Vec<FailureInjection>,
    /// Phones already charging at the window start.
    pub plugged_at_start: Vec<bool>,
    /// Per-phone probability (from the user's history) of unplugging
    /// within the window — input to the reliability extension.
    pub fail_prob: Vec<f64>,
    /// The window length.
    pub horizon: Micros,
}

impl OvernightPlan {
    /// Number of phones available when scheduling starts.
    pub fn initially_available(&self) -> usize {
        self.plugged_at_start.iter().filter(|&&b| b).count()
    }
}

/// Builds the plan for `fleet_size` phones over a `window` starting at
/// `start_hour` of day `night_idx` (0-based day in a `history_days`-day
/// behavior history). `start_hour` counts hours past midnight of that
/// day; values ≥ 24 reach into the next morning. [`NIGHT_START_HOUR`] is
/// the overnight window; a 6 a.m. start (`start_hour = 30`) lands in the
/// morning unplug wave of Fig. 3 — the adversarial regime where the
/// failure-prediction extension earns its keep.
///
/// Each phone is assigned volunteer `i % 15`'s behavior, with per-phone
/// randomness from the seed, so two phones sharing a profile still act
/// independently.
pub fn plan_window(
    fleet_size: usize,
    seed: u64,
    night_idx: u32,
    window: Micros,
    history_days: u32,
    start_hour: u64,
) -> OvernightPlan {
    assert!(night_idx < history_days, "night outside history");
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("users");
    let profiles = study_population(&mut rng);

    let mut injections = Vec::new();
    let mut plugged_at_start = Vec::with_capacity(fleet_size);
    let mut fail_prob = Vec::with_capacity(fleet_size);

    let window_start = Micros::from_hours(24 * u64::from(night_idx) + start_hour);
    let window_end = window_start + window;

    for phone_idx in 0..fleet_size {
        let profile = &profiles[phone_idx % profiles.len()];
        // Independent behavior per phone even when profiles repeat.
        let mut phone_rng = streams.indexed_stream("overnight/phone", phone_idx);
        let log = cwc_profiler::generate::generate_user_log(profile, history_days, &mut phone_rng);
        let intervals = parse_intervals(&log);

        // Tonight's state: is the phone plugged at window start, and what
        // transitions fall inside the window?
        let mut plugged_now = false;
        for iv in &intervals {
            if iv.start <= window_start && iv.end > window_start {
                plugged_now = true;
                // Unplugging inside the window is a failure.
                if iv.end < window_end {
                    injections.push(FailureInjection {
                        at: iv.end - window_start,
                        phone: cwc_types::PhoneId::from_index(phone_idx),
                        offline: iv.ended_in_shutdown,
                        replug_at: next_plug_after(&intervals, iv.end, window_start, window_end),
                    });
                }
            } else if iv.start > window_start && iv.start < window_end && !plugged_now {
                // Late arrival: starts unplugged, joins mid-window.
                // (Handled below via plugged_at_start = false + replug.)
            }
        }
        if !plugged_now {
            if let Some(replug) =
                next_plug_after(&intervals, window_start, window_start, window_end)
            {
                injections.push(FailureInjection {
                    at: Micros(1), // effectively at the start
                    phone: cwc_types::PhoneId::from_index(phone_idx),
                    offline: false,
                    replug_at: Some(replug),
                });
            }
        }
        plugged_at_start.push(plugged_now);

        // Historical failure likelihood: over all nights in the history,
        // how often did this phone unplug inside the *risk window*?
        let mut nights_plugged = 0u32;
        let mut nights_failed = 0u32;
        let risk = RISK_WINDOW.0.min(window.0);
        for night in 0..history_days {
            let ws = Micros::from_hours(24 * u64::from(night) + start_hour);
            let we = ws + Micros(risk);
            for iv in &intervals {
                if iv.start <= ws && iv.end > ws {
                    nights_plugged += 1;
                    if iv.end < we {
                        nights_failed += 1;
                    }
                    break;
                }
            }
        }
        fail_prob.push(if nights_plugged == 0 {
            0.5 // unknown user: assume coin-flip risk
        } else {
            f64::from(nights_failed) / f64::from(nights_plugged)
        });
    }

    OvernightPlan {
        injections,
        plugged_at_start,
        fail_prob,
        horizon: window,
    }
}

fn next_plug_after(
    intervals: &[ChargingInterval],
    after: Micros,
    window_start: Micros,
    window_end: Micros,
) -> Option<Micros> {
    intervals
        .iter()
        .filter(|iv| iv.start >= after && iv.start < window_end)
        .map(|iv| iv.start - window_start)
        .min()
}

/// Runs a job batch across one behavior-driven night.
///
/// `reliability_aggressiveness`: `None` runs the plain paper scheduler;
/// `Some(a)` enables the failure-prediction extension with that blend.
pub fn run_overnight(
    mut fleet: Vec<Phone>,
    jobs: Vec<JobSpec>,
    plan: &OvernightPlan,
    reliability_aggressiveness: Option<f64>,
    mut config: EngineConfig,
) -> CwcResult<EngineOutcome> {
    assert_eq!(fleet.len(), plan.plugged_at_start.len());
    for (phone, &plugged) in fleet.iter_mut().zip(&plan.plugged_at_start) {
        phone.set_plug_state(if plugged {
            PlugState::Plugged
        } else {
            PlugState::Unplugged
        });
    }
    config.horizon = plan.horizon;
    config.reliability = reliability_aggressiveness.map(|a| (plan.fail_prob.clone(), a));
    Engine::new(fleet, jobs, plan.injections.clone(), config)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::testbed_fleet;
    use crate::workload::WorkloadBuilder;

    fn jobs(n: usize) -> Vec<JobSpec> {
        WorkloadBuilder::new(5)
            .breakable(n, "primecount", 30, 200, 800)
            .build()
    }

    fn plan() -> OvernightPlan {
        plan_window(18, 11, 3, Micros::from_hours(8), 28, NIGHT_START_HOUR)
    }

    #[test]
    fn most_phones_are_plugged_by_1am() {
        let p = plan();
        assert!(
            p.initially_available() >= 12,
            "only {} of 18 available",
            p.initially_available()
        );
    }

    #[test]
    fn failure_probabilities_are_probabilities() {
        let p = plan();
        assert_eq!(p.fail_prob.len(), 18);
        assert!(p.fail_prob.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Regular users (profiles 3, 4, 8) should look safer than the
        // cohort average.
        let avg: f64 = p.fail_prob.iter().sum::<f64>() / 18.0;
        for idx in [3usize, 4, 8] {
            assert!(
                p.fail_prob[idx] <= avg + 0.15,
                "regular-profile phone {idx} risk {} vs avg {avg}",
                p.fail_prob[idx]
            );
        }
    }

    #[test]
    fn injections_fall_inside_the_window() {
        let p = plan();
        for inj in &p.injections {
            assert!(inj.at <= p.horizon);
            if let Some(r) = inj.replug_at {
                assert!(r <= p.horizon);
            }
        }
    }

    #[test]
    fn overnight_run_completes_a_sized_batch() {
        let p = plan();
        let out = run_overnight(
            testbed_fleet(11),
            jobs(20),
            &p,
            None,
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(
            out.completed_jobs, 20,
            "a 20-job batch fits comfortably in an 8-hour night"
        );
    }

    #[test]
    fn reliability_extension_runs_and_completes() {
        let p = plan();
        let out = run_overnight(
            testbed_fleet(11),
            jobs(20),
            &p,
            Some(1.0),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(out.completed_jobs, 20);
    }

    #[test]
    fn deterministic_plan() {
        let a = plan();
        let b = plan();
        assert_eq!(a.plugged_at_start, b.plugged_at_start);
        assert_eq!(a.fail_prob, b.fail_prob);
        assert_eq!(a.injections.len(), b.injections.len());
    }
}
