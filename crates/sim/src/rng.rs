//! Named, independently-seeded random streams and the distribution toolkit.
//!
//! `rand` (without `rand_distr`, which is outside the allowed offline crate
//! set) only ships uniform sampling, so this module implements the handful
//! of continuous distributions the CWC models need: normal (Box–Muller),
//! log-normal, exponential, and truncation helpers. They are exercised by
//! the link-fading model, the charging-behavior generator, and the
//! execution-noise model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives independent, reproducible RNG streams from one master seed.
///
/// Each subsystem asks for a stream by label (`"link/phone-3"`,
/// `"user-7/plug"`, …). Labels hash with FNV-1a — a fixed algorithm, so the
/// derivation is stable across Rust versions and platforms, unlike
/// `DefaultHasher`.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    master: u64,
}

impl RngStreams {
    /// Creates the stream factory for a master seed.
    pub fn new(master: u64) -> Self {
        RngStreams { master }
    }

    /// Returns the master seed.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Derives the seeded RNG for `label`.
    pub fn stream(&self, label: &str) -> StdRng {
        let mixed = splitmix64(self.master ^ fnv1a64(label.as_bytes()));
        StdRng::seed_from_u64(mixed)
    }

    /// Derives a stream for a label built from a prefix and an index —
    /// convenient for per-phone / per-user streams.
    pub fn indexed_stream(&self, prefix: &str, index: usize) -> StdRng {
        // Hash prefix and index separately; formatting into a String per
        // call would also work but this avoids the allocation in hot loops.
        let mut h = fnv1a64(prefix.as_bytes());
        h ^= index as u64;
        h = h.wrapping_mul(0x100000001b3);
        StdRng::seed_from_u64(splitmix64(self.master ^ h))
    }

    /// Derives the stream factory for shard `shard` of a sharded run.
    ///
    /// Same derivation as `cwc_chaos::shard_seed` (the workspace's one
    /// splittable-seed scheme): `splitmix64(master ^ H("shard", shard))`,
    /// so a sharded driver that seeds simulation state through this
    /// factory and fault plans through `shard_seed` lands both on the
    /// same per-shard seed.
    pub fn shard(&self, shard: u64) -> RngStreams {
        let mut h = fnv1a64(b"shard");
        h ^= shard;
        h = h.wrapping_mul(0x100000001b3);
        RngStreams {
            master: splitmix64(self.master ^ h),
        }
    }
}

/// FNV-1a 64-bit hash — tiny, stable, good enough for seed derivation.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// SplitMix64 finalizer — decorrelates structured seed inputs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Distribution sampling helpers over any [`Rng`].
///
/// Implemented as an extension trait so call sites read naturally:
/// `rng.normal(mu, sigma)`.
pub trait Distributions: Rng {
    /// Standard-normal sample via the Box–Muller transform.
    fn std_normal(&mut self) -> f64 {
        // Avoid u1 == 0 (log singularity) by sampling in the open interval.
        let u1: f64 = loop {
            let u: f64 = self.gen();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = self.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Advances the generator exactly as one [`Distributions::std_normal`]
    /// call would — the same rejection loop on `u1`, the same `u2` draw —
    /// without computing the sample. For a caller that must keep its
    /// stream position but has no use for the value.
    fn skip_normal(&mut self) {
        while self.gen::<f64>() <= f64::MIN_POSITIVE {}
        let _: f64 = self.gen();
    }

    /// Normal sample with the given mean and standard deviation.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.std_normal()
    }

    /// Normal sample truncated to `[lo, hi]` by resampling (up to a bounded
    /// number of tries, then clamping — keeps worst-case cost finite).
    fn normal_clamped(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        for _ in 0..16 {
            let x = self.normal(mean, std_dev);
            if (lo..=hi).contains(&x) {
                return x;
            }
        }
        self.normal(mean, std_dev).clamp(lo, hi)
    }

    /// Log-normal sample parameterized by the *location/scale of the
    /// underlying normal* (`mu`, `sigma`).
    fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Log-normal sample parameterized by its own *median* and the sigma of
    /// the underlying normal — the natural way to encode "median night
    /// charging interval ≈ 7 h" style facts from the paper.
    fn log_normal_median(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        self.log_normal(median.ln(), sigma)
    }

    /// Exponential sample with the given mean (inverse-CDF method).
    fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = loop {
            let u: f64 = self.gen();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Bernoulli trial.
    fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.gen::<f64>() < p
    }
}

impl<R: Rng + ?Sized> Distributions for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = RngStreams::new(7).stream("link");
        let b = RngStreams::new(7).stream("link");
        let xs: Vec<u64> = a
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let ys: Vec<u64> = b
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_differ() {
        let streams = RngStreams::new(7);
        let x: u64 = streams.stream("a").gen();
        let y: u64 = streams.stream("b").gen();
        assert_ne!(x, y);
    }

    #[test]
    fn different_master_seeds_differ() {
        let x: u64 = RngStreams::new(1).stream("a").gen();
        let y: u64 = RngStreams::new(2).stream("a").gen();
        assert_ne!(x, y);
    }

    #[test]
    fn indexed_streams_are_stable_and_distinct() {
        let streams = RngStreams::new(42);
        let a1: u64 = streams.indexed_stream("phone", 1).gen();
        let a1_again: u64 = streams.indexed_stream("phone", 1).gen();
        let a2: u64 = streams.indexed_stream("phone", 2).gen();
        assert_eq!(a1, a1_again);
        assert_ne!(a1, a2);
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = RngStreams::new(123).stream("normal-test");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn skip_normal_leaves_the_stream_where_std_normal_does() {
        for seed in 0..1_000 {
            let mut drawn = RngStreams::new(seed).stream("skip");
            let mut skipped = drawn.clone();
            for _ in 0..3 {
                drawn.std_normal();
                skipped.skip_normal();
            }
            assert_eq!(drawn.gen::<u64>(), skipped.gen::<u64>(), "seed {seed}");
        }
    }

    /// Yields `zeros` zero words, then counts up: `gen::<f64>()` is 0.0
    /// that many times, so the `u1` rejection loop has to spin.
    #[derive(Clone)]
    struct ZerosFirst {
        zeros: u32,
        calls: u64,
    }

    impl rand::RngCore for ZerosFirst {
        fn next_u64(&mut self) -> u64 {
            self.calls += 1;
            if self.zeros > 0 {
                self.zeros -= 1;
                return 0;
            }
            self.calls << 32
        }
    }

    #[test]
    fn skip_normal_runs_the_rejection_loop() {
        for zeros in 0..4 {
            let mut drawn = ZerosFirst { zeros, calls: 0 };
            let mut skipped = drawn.clone();
            assert!(drawn.std_normal().is_finite());
            skipped.skip_normal();
            assert_eq!(drawn.calls, u64::from(zeros) + 2);
            assert_eq!(skipped.calls, drawn.calls, "{zeros} rejected draws");
        }
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut rng = RngStreams::new(5).stream("exp-test");
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn log_normal_median_is_the_median() {
        let mut rng = RngStreams::new(9).stream("lognorm-test");
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.log_normal_median(7.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 7.0).abs() < 0.3, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut rng = RngStreams::new(11).stream("clamp-test");
        for _ in 0..1_000 {
            let x = rng.normal_clamped(0.0, 10.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = RngStreams::new(3).stream("chance");
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn shard_factories_are_deterministic_and_distinct() {
        let root = RngStreams::new(77);
        let mut seen = std::collections::BTreeSet::new();
        for shard in 0..64u64 {
            assert_eq!(
                root.shard(shard).master_seed(),
                root.shard(shard).master_seed()
            );
            assert!(
                seen.insert(root.shard(shard).master_seed()),
                "shard seed collision"
            );
            assert_ne!(root.shard(shard).master_seed(), root.master_seed());
        }
    }
}
