//! Deterministic randomness for fault plans.
//!
//! The chaos harness must replay identical fault sequences from a seed, so
//! it draws from the workspace's one seeded generator,
//! [`cwc_sim::SplitMix64`], started from a raw state
//! ([`SplitMix64::from_state`]) rather than through `seed_from_u64`: the
//! fault scripts that soak and replay runs reproduce are functions of
//! exactly these streams.

use cwc_sim::{splitmix64, Distributions, SplitMix64};

/// The fault-plan generator: a [`SplitMix64`] seeded per plan, plus the two
/// draws whose edge cases fault scripts depend on.
///
/// Streams derived via [`ChaosRng::derive`] are statistically independent
/// of each other and of the parent, so each connection's fault script rolls
/// its own dice without coupling to scheduling order.
#[derive(Debug, Clone)]
pub struct ChaosRng(SplitMix64);

impl ChaosRng {
    /// Creates a generator from a master seed.
    pub fn new(seed: u64) -> Self {
        ChaosRng(SplitMix64::from_state(splitmix64(seed ^ 0x6368616f73))) // "chaos"
    }

    /// Derives an independent child stream for `label` without advancing
    /// this generator.
    pub fn derive(&self, label: &str) -> ChaosRng {
        ChaosRng(self.0.derive(label))
    }

    /// Bernoulli trial with probability `p`. Unlike
    /// [`Distributions::chance`], which it shadows, it draws nothing when
    /// `p <= 0`, so a disabled fault class leaves the stream untouched.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform integer in `[0, n)`; returns 0 without drawing when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            // Modulo bias is irrelevant for fault placement.
            self.next_u64() % n
        }
    }
}

impl Distributions for ChaosRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_sim::shard_seed;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let root = ChaosRng::new(7);
        let mut x = root.derive("conn/0");
        let mut y = root.derive("conn/1");
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn derive_is_pure() {
        let root = ChaosRng::new(7);
        let mut a = root.derive("w");
        let mut b = root.derive("w");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = ChaosRng::new(9);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn chance_tracks_probability_roughly() {
        let mut rng = ChaosRng::new(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.2)).count();
        assert!((1_500..2_500).contains(&hits), "{hits}");
    }

    #[test]
    fn shard_streams_never_collide_in_first_1000_draws() {
        // The satellite contract: distinct shards of the same run must not
        // collide anywhere in their first 1k draws — pooled across *all*
        // shards, so cross-shard duplicates count too, not just aligned
        // positions.
        let mut seen = std::collections::BTreeSet::new();
        for shard in 0..64u64 {
            let mut rng = ChaosRng::new(shard_seed(12648430, shard));
            for draw in 0..1_000 {
                assert!(
                    seen.insert(rng.next_u64()),
                    "shard {shard} draw {draw} collided with an earlier draw"
                );
            }
        }
    }

    #[test]
    fn below_bounds() {
        let mut rng = ChaosRng::new(5);
        assert_eq!(rng.below(0), 0);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
