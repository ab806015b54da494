//! Measurement units used throughout CWC.
//!
//! * [`Micros`] — simulated time as integer microseconds. Integer time gives
//!   a total order for the event queue, making simulations bit-for-bit
//!   reproducible across runs and platforms.
//! * [`KiloBytes`] — data sizes (`E_j`, `L_j`, `l_ij` in the paper).
//! * [`MsPerKb`] — transfer/compute rates (`b_i`, `c_ij` in the paper).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in integer microseconds.
///
/// CWC's cost model works in (fractional) milliseconds; conversions to and
/// from `f64` milliseconds round to the nearest microsecond, which keeps the
/// modelling error far below anything observable in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero time — the start of every simulation.
    pub const ZERO: Micros = Micros(0);
    /// The farthest representable instant; used as an "infinite" deadline.
    pub const MAX: Micros = Micros(u64::MAX);

    /// Builds a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Micros(s * 1_000_000)
    }

    /// Builds a duration from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        Micros(m * 60_000_000)
    }

    /// Builds a duration from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        Micros(h * 3_600_000_000)
    }

    /// Builds a duration from fractional milliseconds, rounding to the
    /// nearest microsecond. Negative and non-finite inputs saturate to zero.
    #[inline]
    pub fn from_ms_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return Micros::ZERO;
        }
        Micros((ms * 1_000.0).round() as u64)
    }

    /// Builds a duration from fractional seconds (same saturation rules as
    /// [`Micros::from_ms_f64`]).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Self::from_ms_f64(s * 1_000.0)
    }

    /// The duration as fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration as fractional hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000_000.0
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Micros) -> Option<Micros> {
        self.0.checked_add(rhs.0).map(Micros)
    }

    /// Scales the duration by a non-negative factor, rounding to the
    /// nearest microsecond.
    #[inline]
    pub fn scale(self, factor: f64) -> Micros {
        debug_assert!(factor >= 0.0, "cannot scale time by a negative factor");
        Micros((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    /// Panics on underflow in debug builds; use
    /// [`Micros::saturating_sub`] when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    #[inline]
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        iter.fold(Micros::ZERO, Add::add)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.as_ms_f64();
        if total_ms < 1_000.0 {
            write!(f, "{total_ms:.2}ms")
        } else if total_ms < 60_000.0 {
            write!(f, "{:.2}s", total_ms / 1_000.0)
        } else if total_ms < 3_600_000.0 {
            write!(f, "{:.2}min", total_ms / 60_000.0)
        } else {
            write!(f, "{:.2}h", total_ms / 3_600_000.0)
        }
    }
}

/// A data size in kilobytes — the unit the paper's cost model is stated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KiloBytes(pub u64);

impl KiloBytes {
    /// Zero bytes.
    pub const ZERO: KiloBytes = KiloBytes(0);

    /// Builds a size from whole megabytes.
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        KiloBytes(mb * 1_024)
    }

    /// The size as fractional megabytes.
    #[inline]
    pub fn as_mb_f64(self) -> f64 {
        self.0 as f64 / 1_024.0
    }

    /// The size as a float, for cost arithmetic.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Whether this is a zero-length payload.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: KiloBytes) -> KiloBytes {
        KiloBytes(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, rhs: KiloBytes) -> KiloBytes {
        KiloBytes(self.0.min(rhs.0))
    }
}

impl Add for KiloBytes {
    type Output = KiloBytes;
    #[inline]
    fn add(self, rhs: KiloBytes) -> KiloBytes {
        KiloBytes(self.0 + rhs.0)
    }
}

impl AddAssign for KiloBytes {
    #[inline]
    fn add_assign(&mut self, rhs: KiloBytes) {
        self.0 += rhs.0;
    }
}

impl Sub for KiloBytes {
    type Output = KiloBytes;
    #[inline]
    fn sub(self, rhs: KiloBytes) -> KiloBytes {
        KiloBytes(self.0 - rhs.0)
    }
}

impl Sum for KiloBytes {
    fn sum<I: Iterator<Item = KiloBytes>>(iter: I) -> KiloBytes {
        iter.fold(KiloBytes::ZERO, Add::add)
    }
}

impl fmt::Display for KiloBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_024 {
            write!(f, "{:.2}MB", self.as_mb_f64())
        } else {
            write!(f, "{}KB", self.0)
        }
    }
}

/// A rate in milliseconds per kilobyte.
///
/// This is the unit of both `b_i` (network transfer: the time phone *i*
/// takes to receive 1 KB from the server) and `c_ij` (compute: the time
/// phone *i* takes to run job *j* over 1 KB of input). The paper measured
/// `b_i` between 1 and 70 ms/KB across its WiFi/EDGE/3G/4G testbed.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MsPerKb(pub f64);

impl MsPerKb {
    /// Builds a rate from a throughput in KB per second.
    ///
    /// # Panics
    /// Panics if `kbps` is not strictly positive.
    #[inline]
    pub fn from_kb_per_sec(kbps: f64) -> Self {
        assert!(kbps > 0.0, "throughput must be positive, got {kbps}");
        MsPerKb(1_000.0 / kbps)
    }

    /// Time to move/process `size` at this rate.
    #[inline]
    pub fn time_for(self, size: KiloBytes) -> Micros {
        Micros::from_ms_f64(self.0 * size.as_f64())
    }

    /// Whether the rate is a usable, finite, positive value.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 > 0.0
    }
}

impl Mul<f64> for MsPerKb {
    type Output = MsPerKb;
    #[inline]
    fn mul(self, rhs: f64) -> MsPerKb {
        MsPerKb(self.0 * rhs)
    }
}

impl Div<f64> for MsPerKb {
    type Output = MsPerKb;
    #[inline]
    fn div(self, rhs: f64) -> MsPerKb {
        MsPerKb(self.0 / rhs)
    }
}

impl fmt::Display for MsPerKb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms/KB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_constructors_agree() {
        assert_eq!(Micros::from_millis(1), Micros(1_000));
        assert_eq!(Micros::from_secs(1), Micros::from_millis(1_000));
        assert_eq!(Micros::from_mins(1), Micros::from_secs(60));
        assert_eq!(Micros::from_hours(1), Micros::from_mins(60));
    }

    #[test]
    fn micros_f64_round_trip() {
        let t = Micros::from_ms_f64(1234.567);
        assert!((t.as_ms_f64() - 1234.567).abs() < 1e-3);
    }

    #[test]
    fn micros_f64_saturates_garbage() {
        assert_eq!(Micros::from_ms_f64(-5.0), Micros::ZERO);
        assert_eq!(Micros::from_ms_f64(f64::NAN), Micros::ZERO);
        assert_eq!(Micros::from_ms_f64(f64::NEG_INFINITY), Micros::ZERO);
    }

    #[test]
    fn micros_saturating_sub() {
        assert_eq!(
            Micros::from_secs(1).saturating_sub(Micros::from_secs(2)),
            Micros::ZERO
        );
        assert_eq!(
            Micros::from_secs(3).saturating_sub(Micros::from_secs(1)),
            Micros::from_secs(2)
        );
    }

    #[test]
    fn micros_display_picks_scale() {
        assert_eq!(Micros::from_ms_f64(12.5).to_string(), "12.50ms");
        assert_eq!(Micros::from_secs(90).to_string(), "1.50min");
        assert_eq!(Micros::from_hours(2).to_string(), "2.00h");
    }

    #[test]
    fn kilobytes_arithmetic() {
        let a = KiloBytes(1_500);
        let b = KiloBytes::from_mb(1);
        assert_eq!((a + b).0, 2_524);
        assert_eq!((a - KiloBytes(500)).0, 1_000);
        assert_eq!(
            KiloBytes(100).saturating_sub(KiloBytes(200)),
            KiloBytes::ZERO
        );
        assert!((b.as_mb_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rate_time_for() {
        // 10 ms/KB over 100 KB = 1 s.
        let rate = MsPerKb(10.0);
        assert_eq!(rate.time_for(KiloBytes(100)), Micros::from_secs(1));
    }

    #[test]
    fn rate_throughput_round_trip() {
        let r = MsPerKb::from_kb_per_sec(500.0);
        assert!((r.0 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_rejected() {
        let _ = MsPerKb::from_kb_per_sec(0.0);
    }

    #[test]
    fn sums() {
        let total: Micros = (1..=3).map(Micros::from_secs).sum();
        assert_eq!(total, Micros::from_secs(6));
        let bytes: KiloBytes = (1..=3).map(KiloBytes).sum();
        assert_eq!(bytes, KiloBytes(6));
    }
}
