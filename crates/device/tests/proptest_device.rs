//! Property tests for the device models: battery monotonicity and
//! ordering, throttle convergence, CPU-model consistency.

use cwc_device::throttle::{simulate_charge, ChargePolicy, ThrottleConfig};
use cwc_device::{BatteryModel, BatteryParams, CpuModel};
use cwc_types::{CpuSpec, KiloBytes, Micros};
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = BatteryParams> {
    (60u64..180, 0u64..80, 0.3..1.0f64, 30u64..300).prop_map(
        |(idle_min, extra_min, headroom, smooth_s)| BatteryParams {
            idle_full_charge: Micros::from_mins(idle_min),
            busy_full_charge: Micros::from_mins(idle_min + extra_min),
            headroom,
            smoothing: Micros::from_secs(smooth_s),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn charge_is_monotone_under_any_utilization_trace(
        params in params_strategy(),
        utils in proptest::collection::vec(0.0..1.0f64, 1..200),
        start in 0.0..99.0f64,
    ) {
        let mut b = BatteryModel::new(params, start);
        let mut last = b.charge_pct();
        for u in utils {
            b.step(Micros::from_secs(30), u);
            prop_assert!(b.charge_pct() >= last - 1e-12, "charge went down");
            prop_assert!(b.charge_pct() <= 100.0);
            last = b.charge_pct();
        }
    }

    #[test]
    fn busier_is_never_faster(params in params_strategy(), u1 in 0.0..1.0f64, u2 in 0.0..1.0f64) {
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        // Higher sustained utilization can never *increase* the charge rate.
        prop_assert!(
            params.rate_at_utilization(hi) <= params.rate_at_utilization(lo) + 1e-18
        );
    }

    #[test]
    fn throttled_charge_completes_between_idle_and_heavy(params in params_strategy()) {
        let sample = Micros::from_mins(10);
        let idle = simulate_charge(params, ChargePolicy::Idle, 0.0, sample);
        let heavy = simulate_charge(params, ChargePolicy::Heavy, 0.0, sample);
        let throttled = simulate_charge(
            params,
            ChargePolicy::Throttled(ThrottleConfig::default()),
            0.0,
            sample,
        );
        prop_assert!(idle.full_at <= heavy.full_at);
        // Allow a small discretization slack on both ends.
        prop_assert!(
            throttled.full_at >= idle.full_at.saturating_sub(Micros::from_secs(5)),
            "throttled {} beat idle {}", throttled.full_at, idle.full_at
        );
        prop_assert!(
            throttled.full_at <= heavy.full_at + Micros::from_secs(5),
            "throttled {} lost to heavy {}", throttled.full_at, heavy.full_at
        );
        // The throttle always gets *some* compute done.
        prop_assert!(throttled.cpu_time > Micros::ZERO);
    }

    #[test]
    fn cpu_exec_time_scales_linearly_in_input(
        clock in 500u32..2_000,
        eff in 0.5..1.5f64,
        base in 1.0..200.0f64,
        kb in 1u64..5_000,
    ) {
        let cpu = CpuModel::with_efficiency(CpuSpec::new(clock, 2), eff);
        let one = cpu.exec_time(cwc_types::MsPerKb(base), KiloBytes(kb));
        let two = cpu.exec_time(cwc_types::MsPerKb(base), KiloBytes(kb * 2));
        let ratio = two.0 as f64 / one.0.max(1) as f64;
        prop_assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        // Faster clock → strictly less time (same efficiency).
        let faster = CpuModel::with_efficiency(CpuSpec::new(clock * 2, 2), eff);
        prop_assert!(faster.exec_time(cwc_types::MsPerKb(base), KiloBytes(kb)) < one);
    }

    #[test]
    fn measured_speedup_inverts_efficiency(
        clock in 807u32..2_000,
        eff in 0.5..1.5f64,
        base in 1.0..200.0f64,
    ) {
        let cpu = CpuModel::with_efficiency(CpuSpec::new(clock, 2), eff);
        let expected = cpu.predicted_speedup() / eff;
        prop_assert!((cpu.measured_speedup(cwc_types::MsPerKb(base)) - expected).abs() < 1e-9);
    }
}
