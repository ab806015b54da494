//! Wireless link models.
//!
//! The paper's key networking observation (§3.1) is twofold:
//!
//! 1. **A stationary, charging phone has a stable link** (Fig. 4) — WiFi
//!    bandwidth measured over 600 s barely moves, so infrequent periodic
//!    measurements suffice; cellular links are less stable.
//! 2. **Bandwidth varies hugely *across* phones** (1–70 ms/KB) — which is
//!    why the scheduler must be bandwidth-aware (Fig. 5).
//!
//! [`LinkModel`] captures both: a per-technology mean throughput with an
//! AR(1) (first-order autoregressive) fading process around it. The AR(1)
//! parameters give WiFi a small stationary coefficient of variation and
//! cellular a larger one, matching the measured behavior. Reading the
//! rate after any gap costs one normal draw: [`LinkModel::rate_at`] takes
//! the process's exact multi-step transition instead of walking it one
//! sample period at a time.

use cwc_sim::{Distributions, SplitMix64};
use cwc_types::{KiloBytes, Micros, MsPerKb, RadioTech};

/// Parameters of a link's throughput process.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Radio technology (determines defaults; kept for reporting).
    pub tech: RadioTech,
    /// Long-run mean throughput in KB/s.
    pub mean_kb_per_sec: f64,
    /// Stationary coefficient of variation (σ/µ) of the fading process.
    pub jitter_frac: f64,
    /// AR(1) correlation per sample step, in `[0, 1)`. Values near 1 make
    /// fades persist (slow fading); 0 gives white noise.
    pub corr: f64,
    /// Interval between AR(1) steps.
    pub sample_period: Micros,
}

impl LinkConfig {
    /// Typical parameters for a technology, calibrated so the resulting
    /// `b_i` values span the paper's measured 1–70 ms/KB range:
    ///
    /// | tech     | mean KB/s | b_i (ms/KB) | stationary CV |
    /// |----------|-----------|-------------|---------------|
    /// | 802.11a  | 950       | ≈1.1        | 2% (clean 5 GHz band) |
    /// | 802.11g  | 520       | ≈1.9        | 6% (interfering APs)  |
    /// | 4G       | 310       | ≈3.2        | 18%           |
    /// | 3G       | 95        | ≈10.5       | 22%           |
    /// | EDGE     | 15        | ≈67         | 25%           |
    pub fn typical(tech: RadioTech) -> Self {
        let (mean, cv) = match tech {
            RadioTech::Wifi80211a => (950.0, 0.02),
            RadioTech::Wifi80211g => (520.0, 0.06),
            RadioTech::FourG => (310.0, 0.18),
            RadioTech::ThreeG => (95.0, 0.22),
            RadioTech::Edge => (15.0, 0.25),
        };
        LinkConfig {
            tech,
            mean_kb_per_sec: mean,
            jitter_frac: cv,
            corr: 0.9,
            sample_period: Micros::from_secs(1),
        }
    }
}

/// The throughput process of one phone's link to the central server.
///
/// The model is an AR(1) process over throughput `x`:
/// `x' = µ + φ(x − µ) + ε`, with `ε` scaled so the stationary standard
/// deviation equals `µ · jitter_frac`, advanced in whole sample periods
/// (`φ` is per period). Throughput is floored at 5% of the mean so a deep
/// fade slows — never deadlocks — a transfer.
#[derive(Debug, Clone)]
pub struct LinkModel {
    cfg: LinkConfig,
    rng: SplitMix64,
    current_kbps: f64,
    last_step_at: Micros,
}

impl LinkModel {
    /// Creates a link at its stationary mean.
    pub fn new(cfg: LinkConfig, rng: SplitMix64) -> Self {
        LinkModel {
            current_kbps: cfg.mean_kb_per_sec,
            cfg,
            rng,
            last_step_at: Micros::ZERO,
        }
    }

    /// The configuration this link runs with.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Advances the fading process to `now` and returns the instantaneous
    /// throughput in KB/s.
    ///
    /// A gap of `k ≥ 1` whole sample periods takes the exact `k`-step
    /// transition of the AR(1) process in one normal draw:
    /// `x' = µ + φᵏ(x − µ) + ε`, `ε ~ N(0, σ²(1 − φ²ᵏ))`, with `σ` the
    /// stationary deviation. That is the distribution of `k` iterated
    /// steps, at the cost of one; as `k` grows, `φᵏ` reaches 0 and the
    /// draw becomes a stationary sample without a cut-over point. At
    /// `k = 1` it is the single step term for term, bit for bit. A gap
    /// shorter than one period draws nothing. The 5% floor applies once,
    /// to the result.
    pub fn rate_at(&mut self, now: Micros) -> f64 {
        let period = self.cfg.sample_period.0.max(1);
        let steps = now.saturating_sub(self.last_step_at).0 / period;
        if steps > 0 {
            let mu = self.cfg.mean_kb_per_sec;
            let stat_sigma = mu * self.cfg.jitter_frac;
            // k steps keep φᵏ of the deviation and add the innovation
            // variance σ²(1 − φ²ᵏ), so the stationary σ stays µ·CV.
            let phi = corr_pow(self.cfg.corr, steps);
            let innov_sigma = stat_sigma * (1.0 - phi * phi).sqrt();
            let eps = self.rng.normal(0.0, innov_sigma);
            self.current_kbps = mu + phi * (self.current_kbps - mu) + eps;
            self.current_kbps = self.current_kbps.max(mu * 0.05);
            self.last_step_at = now;
        }
        self.current_kbps
    }

    /// Current `b_i` (ms per KB) at `now`.
    pub fn ms_per_kb(&mut self, now: Micros) -> MsPerKb {
        MsPerKb::from_kb_per_sec(self.rate_at(now))
    }

    /// Time to transfer `size` starting at `now`, integrating the fading
    /// process over the transfer.
    ///
    /// A long transfer rides through multiple fades, so its effective
    /// rate is close to the link's mean — exactly why the paper's
    /// once-per-round `b_i` measurement is good enough. Sampling only the
    /// instant the transfer starts would overweight deep fades and make
    /// simulated makespans noisier than the testbed's.
    pub fn transfer_time(&mut self, now: Micros, size: KiloBytes) -> Micros {
        let mut remaining = size.as_f64(); // KB
        let mut t = now;
        let step = self.cfg.sample_period;
        // Cap the walk; beyond it, finish at the mean rate (a transfer
        // this long is hours — precision there is irrelevant).
        for _ in 0..4096 {
            if remaining <= 0.0 {
                return t.saturating_sub(now);
            }
            let rate = self.rate_at(t); // KB/s
            let sendable = rate * step.as_secs_f64();
            if sendable >= remaining {
                let frac = remaining / sendable;
                t += step.scale(frac);
                return t.saturating_sub(now);
            }
            remaining -= sendable;
            t += step;
        }
        t += Micros::from_secs_f64(remaining / self.cfg.mean_kb_per_sec);
        t.saturating_sub(now)
    }
}

/// `phi` to the power `k` by square-and-multiply over the bits of `k`:
/// at most 64 squarings, and exactly `phi` at `k = 1`. `f64::powi` is not
/// used because its precision may differ between platforms, and every
/// pinned simulated outcome depends on these bits.
fn corr_pow(phi: f64, mut k: u64) -> f64 {
    let (mut base, mut acc) = (phi, 1.0);
    while k > 0 {
        if k & 1 == 1 {
            acc *= base;
        }
        base *= base;
        k >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_sim::RngStreams;

    fn link(tech: RadioTech, seed: u64) -> LinkModel {
        LinkModel::new(
            LinkConfig::typical(tech),
            RngStreams::new(seed).stream("link-test"),
        )
    }

    #[test]
    fn typical_configs_span_paper_bandwidth_range() {
        // b_i between roughly 1 and 70 ms/KB across technologies.
        let fast =
            MsPerKb::from_kb_per_sec(LinkConfig::typical(RadioTech::Wifi80211a).mean_kb_per_sec);
        let slow = MsPerKb::from_kb_per_sec(LinkConfig::typical(RadioTech::Edge).mean_kb_per_sec);
        assert!(fast.0 < 1.5, "fastest b_i {fast}");
        assert!(slow.0 > 60.0 && slow.0 < 70.5, "slowest b_i {slow}");
    }

    #[test]
    fn wifi_is_more_stable_than_cellular() {
        let mut wifi = link(RadioTech::Wifi80211a, 1);
        let mut cell = link(RadioTech::ThreeG, 1);
        let cv = |samples: &[f64]| {
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let var =
                samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
            var.sqrt() / mean
        };
        let wifi_s: Vec<f64> = (1..600)
            .map(|s| wifi.rate_at(Micros::from_secs(s)))
            .collect();
        let cell_s: Vec<f64> = (1..600)
            .map(|s| cell.rate_at(Micros::from_secs(s)))
            .collect();
        assert!(
            cv(&wifi_s) < cv(&cell_s),
            "wifi CV {} should be below cellular CV {}",
            cv(&wifi_s),
            cv(&cell_s)
        );
        assert!(cv(&wifi_s) < 0.05, "wifi CV {} too high", cv(&wifi_s));
    }

    #[test]
    fn rate_stays_positive_through_deep_fades() {
        let mut l = link(RadioTech::Edge, 99);
        for s in 1..10_000 {
            let r = l.rate_at(Micros::from_secs(s));
            assert!(r > 0.0, "rate must stay positive, got {r}");
        }
    }

    #[test]
    fn long_gap_resamples_from_stationary() {
        let mut l = link(RadioTech::Wifi80211g, 7);
        let r1 = l.rate_at(Micros::from_secs(1));
        // Jump 10 hours ahead: must not iterate 36k steps (fast), and must
        // return a plausible stationary sample.
        let r2 = l.rate_at(Micros::from_hours(10));
        let mu = l.config().mean_kb_per_sec;
        assert!((r2 - mu).abs() < mu * 0.5, "r2 {r2} far from mean {mu}");
        assert!(r1 > 0.0);
    }

    const TECHS: [RadioTech; 5] = [
        RadioTech::Wifi80211a,
        RadioTech::Wifi80211g,
        RadioTech::FourG,
        RadioTech::ThreeG,
        RadioTech::Edge,
    ];

    /// One AR(1) step as the iterating `rate_at` computed it before the
    /// closed-form transition: one innovation, then the floor.
    fn single_step_as_iterated(l: &mut LinkModel, now: Micros) -> f64 {
        let mu = l.cfg.mean_kb_per_sec;
        let stat_sigma = mu * l.cfg.jitter_frac;
        let phi = l.cfg.corr;
        let innov_sigma = stat_sigma * (1.0 - phi * phi).sqrt();
        let eps = l.rng.normal(0.0, innov_sigma);
        l.current_kbps = mu + phi * (l.current_kbps - mu) + eps;
        l.current_kbps = l.current_kbps.max(mu * 0.05);
        l.last_step_at = now;
        l.current_kbps
    }

    #[test]
    fn a_one_period_gap_is_the_single_step_bit_for_bit() {
        for (t, tech) in TECHS.into_iter().enumerate() {
            for seed in 0..20 {
                let mut gaps = RngStreams::new(seed).indexed_stream("gaps", t);
                let mut fast = link(tech, seed);
                let mut slow = fast.clone();
                let mut now = Micros::ZERO;
                for k in 0..200 {
                    // Every fourth read follows a long random gap, so the
                    // single steps start from states all over the process.
                    if k % 4 == 3 {
                        now += Micros(gaps.gen_range(1_000_000..200_000_000u64));
                        slow.rate_at(now);
                        fast.rate_at(now);
                    }
                    now += fast.cfg.sample_period;
                    let want = single_step_as_iterated(&mut slow, now);
                    assert_eq!(
                        fast.rate_at(now).to_bits(),
                        want.to_bits(),
                        "{tech:?} seed {seed} step {k}"
                    );
                }
                assert_eq!(fast.rng.next_u64(), slow.rng.next_u64());
            }
        }
    }

    #[test]
    fn a_gap_draws_one_normal_or_none() {
        const SECOND: u64 = 1_000_000;
        let gaps = [
            (0, 0),
            (1, 0),
            (SECOND - 1, 0),
            (SECOND, 1),
            (SECOND + 1, 1),
            (2 * SECOND - 1, 1),
            (64 * SECOND, 1),
            (65 * SECOND, 1),
            (1_000_000 * SECOND, 1),
            (SECOND - 1, 0),
        ];
        for tech in TECHS {
            for seed in 0..20 {
                let mut l = link(tech, seed);
                for &(gap_us, draws) in &gaps {
                    let mut want = l.rng.clone();
                    for _ in 0..draws {
                        want.std_normal();
                    }
                    // The gap counts from the last step, not the last read.
                    l.rate_at(l.last_step_at + Micros(gap_us));
                    assert_eq!(
                        l.rng.clone().next_u64(),
                        want.next_u64(),
                        "{tech:?} seed {seed} gap {gap_us} us"
                    );
                }
            }
        }
    }

    #[test]
    fn k_step_moments_match_the_ar1_process_with_no_cliff() {
        // 802.11g: µ = 520, σ = 31.2, so x₀ = µ − 3σ sits far above the
        // 5% floor and every moment below is the unfloored process's.
        let cfg = LinkConfig::typical(RadioTech::Wifi80211g);
        let (mu, phi) = (cfg.mean_kb_per_sec, cfg.corr);
        let sigma = mu * cfg.jitter_frac;
        let x0 = mu - 3.0 * sigma;
        const SEEDS: u64 = 4_000;
        for k in [1u64, 2, 10, 64, 65, 1_000_000] {
            let samples: Vec<f64> = (0..SEEDS)
                .map(|seed| {
                    let mut l = link(RadioTech::Wifi80211g, seed);
                    l.current_kbps = x0;
                    l.rate_at(Micros::from_secs(k))
                })
                .collect();
            let n = SEEDS as f64;
            let mean = samples.iter().sum::<f64>() / n;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            let phi_k = phi.powf(k as f64);
            let want_mean = mu + phi_k * (x0 - mu);
            let want_var = sigma * sigma * (1.0 - phi_k * phi_k);
            // Five standard errors of each estimator.
            let mean_tol = 5.0 * (want_var / n).sqrt();
            let var_tol = 5.0 * want_var * (2.0 / (n - 1.0)).sqrt();
            assert!(
                (mean - want_mean).abs() < mean_tol,
                "k {k}: mean {mean}, want {want_mean} ± {mean_tol}"
            );
            assert!(
                (var - want_var).abs() < var_tol,
                "k {k}: variance {var}, want {want_var} ± {var_tol}"
            );
        }
    }

    #[test]
    fn corr_pow_is_exact_at_one_and_logarithmic_in_k() {
        for phi in [0.0, 0.5, 0.9, 0.999_999, 1.0] {
            assert_eq!(corr_pow(phi, 0), 1.0);
            assert_eq!(corr_pow(phi, 1).to_bits(), phi.to_bits());
            assert_eq!(corr_pow(phi, 2).to_bits(), (phi * phi).to_bits());
        }
        let mut walked = 1.0f64;
        for k in 1..=64 {
            walked *= 0.9;
            let jumped = corr_pow(0.9, k);
            assert!((jumped - walked).abs() <= 1e-14 * walked, "k {k}");
        }
        assert_eq!(corr_pow(0.9, 1_000_000_000), 0.0);
        // A walk of u64::MAX multiplications would never return.
        assert_eq!(corr_pow(0.9, u64::MAX), 0.0);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mut a = link(RadioTech::FourG, 5);
        let mut b = link(RadioTech::FourG, 5);
        for s in 1..100 {
            assert_eq!(
                a.rate_at(Micros::from_secs(s)),
                b.rate_at(Micros::from_secs(s))
            );
        }
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let mut l = link(RadioTech::Wifi80211a, 3);
        let t1 = l.transfer_time(Micros::from_secs(1), KiloBytes(100));
        let t2 = l.transfer_time(Micros::from_secs(1), KiloBytes(200));
        // Same instant, both inside one fading step → same rate → double
        // (up to µs rounding).
        assert!(
            (t2.0 as i64 - 2 * t1.0 as i64).abs() <= 2,
            "{t2:?} vs 2x{t1:?}"
        );
    }
}
