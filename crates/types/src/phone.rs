//! Phone descriptors — the scheduler-facing view of a smartphone.

use crate::{MsPerKb, PhoneId};
use std::fmt;

/// The radio technology a phone uses to reach the central server.
///
/// The paper's 18-phone testbed mixes 802.11a/g WiFi with EDGE, 3G and 4G
/// cellular links; the resulting bandwidth spread (`b_i` from 1 to 70 ms/KB)
/// is what makes bandwidth-aware scheduling matter (§3.1, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RadioTech {
    /// 802.11a WiFi (5 GHz, no neighbouring-AP interference in the testbed).
    Wifi80211a,
    /// 802.11g WiFi (2.4 GHz, interference-prone).
    Wifi80211g,
    /// EDGE cellular — the slowest link in the testbed.
    Edge,
    /// 3G cellular.
    ThreeG,
    /// 4G cellular — the fastest cellular link in the testbed.
    FourG,
}

impl RadioTech {
    /// All technologies, in testbed-typical fastest-to-slowest order.
    pub const ALL: [RadioTech; 5] = [
        RadioTech::Wifi80211a,
        RadioTech::Wifi80211g,
        RadioTech::FourG,
        RadioTech::ThreeG,
        RadioTech::Edge,
    ];

    /// Whether this is a WiFi (as opposed to cellular) technology.
    #[inline]
    pub const fn is_wifi(self) -> bool {
        matches!(self, RadioTech::Wifi80211a | RadioTech::Wifi80211g)
    }
}

impl fmt::Display for RadioTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RadioTech::Wifi80211a => "802.11a",
            RadioTech::Wifi80211g => "802.11g",
            RadioTech::Edge => "EDGE",
            RadioTech::ThreeG => "3G",
            RadioTech::FourG => "4G",
        };
        f.write_str(s)
    }
}

/// CPU description reported at registration.
///
/// CWC's execution-time predictor only consumes the clock (§4.1): a task
/// profiled at `T_s` ms/KB on the slowest phone (clock `S`) is predicted to
/// take `T_s * S / A` ms/KB on a phone clocked at `A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuSpec {
    /// Clock speed in MHz. The paper's testbed spans 806 MHz (HTC G2, the
    /// profiling baseline) to 1500 MHz.
    pub clock_mhz: u32,
    /// Number of cores. CWC tasks are single-threaded Java programs, so the
    /// scheduler ignores this; the CoreMark harness (Fig. 1) does not.
    pub cores: u32,
}

impl CpuSpec {
    /// Creates a CPU spec.
    ///
    /// # Panics
    /// Panics if the clock or core count is zero.
    pub fn new(clock_mhz: u32, cores: u32) -> Self {
        assert!(clock_mhz > 0, "CPU clock must be nonzero");
        assert!(cores > 0, "core count must be nonzero");
        CpuSpec { clock_mhz, cores }
    }
}

impl fmt::Display for CpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz x{}", self.clock_mhz, self.cores)
    }
}

/// The scheduler's snapshot of a phone: identity, CPU, and the most recent
/// bandwidth measurement.
///
/// This is deliberately the *only* information the scheduling algorithms
/// see — the same tuple whether it comes from real iperf probes against
/// physical handsets (the paper's prototype) or from the simulated link
/// layer (this reproduction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhoneInfo {
    /// Registered identity.
    pub id: PhoneId,
    /// Reported CPU.
    pub cpu: CpuSpec,
    /// Radio technology (diagnostic; scheduling uses `bandwidth`).
    pub radio: RadioTech,
    /// Latest measured `b_i`: time to push 1 KB from the server to this
    /// phone.
    pub bandwidth: MsPerKb,
    /// Usable RAM in KB; caps the partition size the scheduler may assign
    /// (footnote 4 of §5). `u64::MAX` means "unconstrained".
    pub ram_kb: u64,
}

impl PhoneInfo {
    /// Creates an unconstrained-RAM phone snapshot.
    pub fn new(id: PhoneId, cpu: CpuSpec, radio: RadioTech, bandwidth: MsPerKb) -> Self {
        PhoneInfo {
            id,
            cpu,
            radio,
            bandwidth,
            ram_kb: u64::MAX,
        }
    }

    /// Sets the RAM cap (builder-style).
    pub fn with_ram_kb(mut self, ram_kb: u64) -> Self {
        self.ram_kb = ram_kb;
        self
    }

    /// Validates that the bandwidth measurement is usable.
    pub fn validate(&self) -> Result<(), crate::CwcError> {
        if !self.bandwidth.is_valid() {
            return Err(crate::CwcError::InvalidPhone {
                phone: self.id,
                reason: format!("bad bandwidth {:?}", self.bandwidth),
            });
        }
        Ok(())
    }
}

impl fmt::Display for PhoneInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {} b={}]",
            self.id, self.cpu, self.radio, self.bandwidth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radio_wifi_classification() {
        assert!(RadioTech::Wifi80211a.is_wifi());
        assert!(RadioTech::Wifi80211g.is_wifi());
        assert!(!RadioTech::Edge.is_wifi());
        assert!(!RadioTech::ThreeG.is_wifi());
        assert!(!RadioTech::FourG.is_wifi());
    }

    #[test]
    #[should_panic(expected = "CPU clock must be nonzero")]
    fn zero_clock_rejected() {
        let _ = CpuSpec::new(0, 1);
    }

    #[test]
    fn phone_info_validation() {
        let ok = PhoneInfo::new(
            PhoneId(0),
            CpuSpec::new(1_000, 2),
            RadioTech::Wifi80211g,
            MsPerKb(5.0),
        );
        assert!(ok.validate().is_ok());

        let bad = PhoneInfo {
            bandwidth: MsPerKb(f64::NAN),
            ..ok
        };
        assert!(bad.validate().is_err());
        let negative = PhoneInfo {
            bandwidth: MsPerKb(-1.0),
            ..ok
        };
        assert!(negative.validate().is_err());
    }

    #[test]
    fn ram_builder() {
        let p = PhoneInfo::new(
            PhoneId(1),
            CpuSpec::new(1_200, 4),
            RadioTech::FourG,
            MsPerKb(3.0),
        )
        .with_ram_kb(1_048_576);
        assert_eq!(p.ram_kb, 1_048_576);
    }

    #[test]
    fn displays() {
        let p = PhoneInfo::new(
            PhoneId(7),
            CpuSpec::new(1_200, 2),
            RadioTech::ThreeG,
            MsPerKb(12.0),
        );
        let s = p.to_string();
        assert!(s.contains("phone-7"));
        assert!(s.contains("1200MHz"));
        assert!(s.contains("3G"));
    }
}
