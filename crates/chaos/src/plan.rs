//! Fault taxonomy, profiles, and the seed-driven plan.
//!
//! A [`FaultPlan`] is the single source of chaos for one run: a master seed
//! plus a [`FaultProfile`] saying which fault classes fire and how often.
//! Every connection (and every worker's execution loop) derives its own
//! deterministic script from the plan by label, so the whole injected fault
//! sequence is a pure function of `(seed, profile, labels)` — replayable
//! bit-for-bit, which is what lets the soak tests assert byte-identical
//! results against a fault-free run.

use crate::rng::ChaosRng;
use crate::script::{FaultScript, WorkerChaos};
use std::str::FromStr;
use std::time::Duration;

/// The fault classes the harness can inject, covering the wire-level and
/// worker-level halves of the paper's §6 failure taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Outbound frame silently dropped (sender believes it was sent).
    Drop,
    /// Outbound frame written twice back-to-back.
    Duplicate,
    /// One bit of the frame body flipped in flight (CRC must catch it).
    Corrupt,
    /// Frame written in two bursts with a pause in between (stuttered
    /// delivery; exercises streaming reassembly).
    PartialWrite,
    /// Connection hard-reset after a truncated prefix of the frame.
    Reset,
    /// Frame delivered late (sleep before the write).
    Delay,
    /// Worker process dies at a chunk boundary mid-task (offline failure).
    Crash,
    /// Worker turns slow-loris: still alive, but each chunk crawls.
    SlowLoris,
}

impl FaultKind {
    /// Every fault class, in the (fixed) order scripts roll them.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Corrupt,
        FaultKind::PartialWrite,
        FaultKind::Reset,
        FaultKind::Delay,
        FaultKind::Crash,
        FaultKind::SlowLoris,
    ];

    /// Stable lowercase name (used in profile strings and `chaos.*` metric
    /// keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Corrupt => "corrupt",
            FaultKind::PartialWrite => "partial-write",
            FaultKind::Reset => "reset",
            FaultKind::Delay => "delay",
            FaultKind::Crash => "crash",
            FaultKind::SlowLoris => "slow-loris",
        }
    }

    /// The `chaos.injected.*` counter this kind's injections land in.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            FaultKind::Drop => "chaos.injected.drop",
            FaultKind::Duplicate => "chaos.injected.duplicate",
            FaultKind::Corrupt => "chaos.injected.corrupt",
            FaultKind::PartialWrite => "chaos.injected.partial-write",
            FaultKind::Reset => "chaos.injected.reset",
            FaultKind::Delay => "chaos.injected.delay",
            FaultKind::Crash => "chaos.injected.crash",
            FaultKind::SlowLoris => "chaos.injected.slow-loris",
        }
    }

    /// Position in [`FaultKind::ALL`], which lists the kinds in declaration
    /// order (`all_lists_every_kind_at_its_discriminant` pins that).
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-class injection rates plus knobs shared by all scripts of a plan.
/// Registration, bandwidth-probing and shutdown frames are always spared
/// (see [`cwc_net::is_handshake_tag`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    rates: [f64; FaultKind::ALL.len()],
    /// Upper bound for injected delivery delays and slow-loris stalls.
    pub max_delay: Duration,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            rates: [0.0; FaultKind::ALL.len()],
            max_delay: Duration::from_millis(30),
        }
    }
}

impl FaultProfile {
    /// The empty profile: no faults ever fire.
    pub fn none() -> Self {
        Self::default()
    }

    /// A profile with a single fault class at `rate`.
    pub fn single(kind: FaultKind, rate: f64) -> Self {
        Self::none().with_rate(kind, rate)
    }

    /// A profile with *every* fault class at `rate`.
    pub fn all(rate: f64) -> Self {
        let mut p = Self::none();
        for k in FaultKind::ALL {
            p = p.with_rate(k, rate);
        }
        p
    }

    /// Builder: sets the injection rate for one class.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// The injection rate of one class.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }
}

/// Parses the `--chaos-profile` vocabulary: `none`, `all`, or one fault
/// class name (see [`FaultKind::name`]). Single-class profiles get a rate
/// high enough to fire several times per soak run; `all` spreads a lower
/// rate across every class.
impl FromStr for FaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "none" => Ok(FaultProfile::none()),
            "all" => Ok(FaultProfile::all(0.08)),
            other => FaultKind::ALL
                .iter()
                .find(|k| k.name() == other)
                .map(|k| FaultProfile::single(*k, 0.2))
                .ok_or_else(|| {
                    format!(
                        "unknown chaos profile {other:?}; expected none, all, or one of: {}",
                        FaultKind::ALL.map(|k| k.name()).join(", ")
                    )
                }),
        }
    }
}

/// A seeded, deterministic source of fault scripts for one run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    root: ChaosRng,
    obs: Option<cwc_obs::Obs>,
}

impl FaultPlan {
    /// Creates a plan from a master seed and a profile.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan {
            seed,
            profile,
            root: ChaosRng::new(seed),
            obs: None,
        }
    }

    /// Like [`FaultPlan::new`], recording every injection through `obs`
    /// (`chaos`/`inject` events, `chaos.injected.{kind}` counters).
    pub fn observed(seed: u64, profile: FaultProfile, obs: cwc_obs::Obs) -> Self {
        let mut plan = Self::new(seed, profile);
        plan.obs = Some(obs);
        plan
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The profile this plan injects.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Derives the wire-fault script for the connection named `label`
    /// (e.g. `"server/conn-3"` or `"worker/phone-1"`). Same plan + same
    /// label → identical script, regardless of creation order.
    pub fn script(&self, label: &str) -> FaultScript {
        FaultScript::new(
            self.root.derive(label),
            self.profile.clone(),
            label.to_owned(),
            self.obs.clone(),
        )
    }

    /// Derives the worker-level chaos decisions (crash-at-chunk,
    /// slow-loris pacing) for the worker named `label`.
    pub fn worker_chaos(&self, label: &str) -> WorkerChaos {
        WorkerChaos::new(
            self.root.derive(label).derive("exec"),
            self.profile.clone(),
            label.to_owned(),
            self.obs.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parsing_covers_the_vocabulary() {
        let none: FaultProfile = "none".parse().unwrap();
        assert!(FaultKind::ALL.iter().all(|k| none.rate(*k) == 0.0));
        let all: FaultProfile = "all".parse().unwrap();
        for k in FaultKind::ALL {
            assert!(all.rate(k) > 0.0, "{}", k.name());
        }
        for k in FaultKind::ALL {
            let p: FaultProfile = k.name().parse().unwrap();
            assert!(p.rate(k) > 0.0);
            let others = FaultKind::ALL.iter().filter(|o| **o != k);
            for o in others {
                assert_eq!(p.rate(*o), 0.0);
            }
        }
        assert!("wibble".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn rates_clamp_to_unit_interval() {
        let p = FaultProfile::single(FaultKind::Drop, 7.0);
        assert_eq!(p.rate(FaultKind::Drop), 1.0);
        let p = FaultProfile::single(FaultKind::Drop, -1.0);
        assert_eq!(p.rate(FaultKind::Drop), 0.0);
    }

    #[test]
    fn scripts_are_label_deterministic() {
        let plan = FaultPlan::new(99, FaultProfile::all(0.3));
        let mut a = plan.script("conn/0");
        let mut b = plan.script("conn/0");
        // A non-handshake frame, so the scripts actually roll dice on it.
        let mut buf = bytes::BytesMut::new();
        cwc_net::Frame::KeepAlive { seq: 1 }.encode(&mut buf);
        let frame = buf.to_vec();
        for _ in 0..50 {
            use cwc_net::WireFault;
            assert_eq!(a.on_send(&frame), b.on_send(&frame));
        }
    }

    #[test]
    fn all_lists_every_kind_at_its_discriminant() {
        // `index` is `self as usize`, so `ALL` must hold every kind at its
        // declaration position. The match has no wildcard arm: a new kind
        // does not compile until it gets its position here.
        let position = |k: FaultKind| match k {
            FaultKind::Drop => 0,
            FaultKind::Duplicate => 1,
            FaultKind::Corrupt => 2,
            FaultKind::PartialWrite => 3,
            FaultKind::Reset => 4,
            FaultKind::Delay => 5,
            FaultKind::Crash => 6,
            FaultKind::SlowLoris => 7,
        };
        for (i, k) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(position(k), i, "{}", k.name());
            assert_eq!(FaultKind::ALL[k as usize], k);
            assert_eq!(k.counter(), format!("chaos.injected.{}", k.name()));
        }
        assert_eq!(FaultKind::ALL.len(), position(FaultKind::SlowLoris) + 1);
    }
}
