//! Seeded randomness for the whole workspace: the one generator, its
//! named streams, and the distribution toolkit.
//!
//! [`SplitMix64`] is the only generator. Link fading, the behavioural
//! study's plug/unplug draws, the synthetic task inputs and the chaos fault
//! plans all draw from one, seeded either through [`RngStreams`] or
//! directly. The continuous distributions the CWC models need — normal
//! (Box–Muller), log-normal, exponential and truncation helpers — are
//! written here on top of it ([`Distributions`]).
//!
//! Every simulated outcome the repo pins is a function of *which draw lands
//! where*, so nothing here may change a word of any stream: the golden
//! streams in `tests/determinism.rs` hold every seeding path and every
//! sampling call.

use std::ops::{Range, RangeInclusive};

/// The SplitMix64 increment (2^64 / φ).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

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
    pub fn stream(&self, label: &str) -> SplitMix64 {
        SplitMix64::seed_from_u64(splitmix64(self.master ^ fnv1a64(label.as_bytes())))
    }

    /// Derives a stream for a label built from a prefix and an index —
    /// convenient for per-phone / per-user streams, without formatting a
    /// `String` per call.
    pub fn indexed_stream(&self, prefix: &str, index: usize) -> SplitMix64 {
        SplitMix64::seed_from_u64(splitmix64(
            self.master ^ indexed_label(prefix, index as u64),
        ))
    }

    /// Derives the stream factory for shard `shard` of a sharded run: its
    /// master seed is [`shard_seed`]`(master, shard)`.
    pub fn shard(&self, shard: u64) -> RngStreams {
        RngStreams {
            master: shard_seed(self.master, shard),
        }
    }
}

/// Derives the master seed for shard `shard` of a sharded run from the
/// run's master seed.
///
/// The workspace's one splittable-seed scheme: the sharded sim driver, the
/// shard bench and per-shard fault plans all derive per-shard seeds here
/// (directly or through [`RngStreams::shard`]) instead of doing ad-hoc
/// arithmetic at the call site. The derivation is
/// `splitmix64(master ^ H("shard", shard))` — the hash
/// [`RngStreams::indexed_stream`] uses — so shard streams are statistically
/// independent of the parent and of each other; `cwc-chaos`'s tests prove
/// the first 1 000 draws of 64 sibling shards never collide.
pub fn shard_seed(master: u64, shard: u64) -> u64 {
    splitmix64(master ^ indexed_label("shard", shard))
}

/// FNV-1a of `prefix` with `index` folded in as one more "byte".
fn indexed_label(prefix: &str, index: u64) -> u64 {
    (fnv1a64(prefix.as_bytes()) ^ index).wrapping_mul(FNV_PRIME)
}

/// FNV-1a of `bytes` in one call.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// The workspace's one FNV-1a (64-bit) hasher, streaming — tiny, and
/// stable across Rust versions and platforms, unlike `DefaultHasher`.
/// Stream labels hash through it, and so do the model checker's state
/// digests (the kernel's and the harness's), which feed its visited set.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Folds `bytes` in, one at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte in.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }

    /// Folds `v`'s eight little-endian bytes in.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    /// The hasher at the FNV-1a offset basis: nothing written yet.
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

/// SplitMix64 finalizer — decorrelates structured seed inputs. It is the
/// first draw of [`SplitMix64::from_state`]`(z)`.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace's seeded generator: SplitMix64 (Steele, Lea & Flood), one
/// 64-bit word of state, one word per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the generator at raw state `state`: its first draw is
    /// [`splitmix64`]`(state)`. `cwc-chaos` seeds fault plans this way.
    pub fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Seeds the generator from a 64-bit seed: four words of
    /// `from_state(seed)` folded into one state. Every [`RngStreams`]
    /// stream and the workload / task-input builders start this way.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut words = SplitMix64::from_state(seed);
        let state = (0..4).fold(0xa076_1d64_78bd_642f, |state: u64, _| {
            state.rotate_left(17).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ words.next_u64()
        });
        SplitMix64 { state }
    }

    /// Derives an independent child generator for `label` without
    /// advancing this one.
    pub fn derive(&self, label: &str) -> SplitMix64 {
        SplitMix64::from_state(splitmix64(self.state ^ fnv1a64(label.as_bytes())))
    }
}

impl Distributions for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        let word = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        word
    }
}

/// A range [`Distributions::gen_range`] draws from: `lo..hi` or `lo..=hi`
/// over the integer widths and the `f64` the workspace samples.
pub trait SampleRange<T> {
    /// The value one uniformly random `word` selects; panics on an empty
    /// range.
    fn pick(self, word: u64) -> T;
}

macro_rules! int_ranges {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn pick(self, word: u64) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                // Modulo bias is irrelevant at the spans the workspace draws.
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add((word % span) as $wide) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn pick(self, word: u64) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64 + 1;
                (lo as $wide).wrapping_add((word % span) as $wide) as $t
            }
        }
    )*};
}
int_ranges!(u8 => u64, u32 => u64, u64 => u64, usize => u64, i16 => i64, i32 => i64);

impl SampleRange<f64> for Range<f64> {
    fn pick(self, word: u64) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + (self.end - self.start) * unit_f64(word)
    }
}

/// The top 53 bits of `word` as a uniform sample in `[0, 1)`.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Sampling over a stream of uniformly random words.
///
/// [`SplitMix64`] is the implementation product code draws from; the trait
/// is what lets a test substitute a scripted word source. Call sites read
/// naturally: `rng.normal(mu, sigma)`. `next_f64`, `gen_range`, `gen_ratio`
/// and `chance` each draw exactly one word.
pub trait Distributions {
    /// The next 64 uniformly random bits; every other draw is built on it.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform sample from `lo..hi` or `lo..=hi`.
    fn gen_range<T>(&mut self, range: impl SampleRange<T>) -> T {
        range.pick(self.next_u64())
    }

    /// True with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator);
        self.next_u64() % u64::from(denominator) < u64::from(numerator)
    }

    /// Standard-normal sample via the Box–Muller transform.
    fn std_normal(&mut self) -> f64 {
        // Avoid u1 == 0 (log singularity) by sampling in the open interval.
        let u1: f64 = loop {
            let u = self.next_f64();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
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
            let u = self.next_f64();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Bernoulli trial.
    fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngStreams::new(7).stream("link");
        let mut b = RngStreams::new(7).stream("link");
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let streams = RngStreams::new(7);
        let x: u64 = streams.stream("a").next_u64();
        let y: u64 = streams.stream("b").next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn different_master_seeds_differ() {
        let x: u64 = RngStreams::new(1).stream("a").next_u64();
        let y: u64 = RngStreams::new(2).stream("a").next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn indexed_streams_are_stable_and_distinct() {
        let streams = RngStreams::new(42);
        let a1: u64 = streams.indexed_stream("phone", 1).next_u64();
        let a1_again: u64 = streams.indexed_stream("phone", 1).next_u64();
        let a2: u64 = streams.indexed_stream("phone", 2).next_u64();
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
    fn next_f64_is_in_unit_interval() {
        let mut rng = SplitMix64::from_state(3);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
        assert_eq!(unit_f64(u64::MAX), 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = RngStreams::new(7).stream("ranges");
        for _ in 0..1000 {
            let v = r.gen_range(10..20u32);
            assert!((10..20).contains(&v));
            let f = r.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
            let s = r.gen_range(-24..=24i16);
            assert!((-24..=24).contains(&s));
            assert!(r.gen_range(60..=255u8) >= 60);
        }
    }

    #[test]
    fn splitmix64_is_the_first_draw_from_that_state() {
        for z in [0, 1, 0x0063_6861_6f73, u64::MAX] {
            assert_eq!(splitmix64(z), SplitMix64::from_state(z).next_u64());
        }
    }

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        for master in [0u64, 1, 42, u64::MAX] {
            let mut seen = std::collections::BTreeSet::new();
            for shard in 0..64u64 {
                assert_eq!(shard_seed(master, shard), shard_seed(master, shard));
                assert!(seen.insert(shard_seed(master, shard)), "seed collision");
            }
        }
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
