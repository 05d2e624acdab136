//! Simulated time: nanosecond-resolution instants and durations.
//!
//! `u64` nanoseconds give ~584 years of simulated range — far beyond any
//! experiment here — while keeping ordering exact (no floating-point time).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "armed but never firing" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as `f64` (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Builds an instant from seconds (reporting/configuration use).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e9).round() as u64)
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add that never overflows past [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole nanoseconds.
    pub const fn nanos(n: u64) -> Self {
        SimDuration(n)
    }
    /// From whole microseconds.
    pub const fn micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    /// From whole milliseconds.
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    /// From whole seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    /// From fractional seconds (rounded to the nearest nanosecond).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e9).round() as u64)
    }

    /// Nanosecond count.
    pub fn as_nanos(self) -> u64 {
        self.0
    }
    /// As fractional seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// As fractional milliseconds (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scales by a float factor (used for RTO backoff and jitter), rounding
    /// to the nearest nanosecond and saturating at zero.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k.max(0.0)).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimDuration::secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::micros(4).as_nanos(), 4_000);
        assert_eq!(SimDuration::nanos(5).as_nanos(), 5);
        assert!((SimDuration::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::secs(1);
        assert_eq!(t.as_nanos(), 1_000_000_000);
        assert_eq!((t - SimTime::ZERO).as_nanos(), 1_000_000_000);
        // Subtraction saturates rather than underflowing.
        assert_eq!((SimTime::ZERO - t).as_nanos(), 0);
        assert_eq!(t.duration_since(SimTime(2_000_000_000)).as_nanos(), 0);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration::nanos(10).mul_f64(1.26).as_nanos(), 13);
        assert_eq!(SimDuration::nanos(10).mul_f64(-1.0).as_nanos(), 0);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::secs(1)),
            SimTime::MAX
        );
        assert_eq!(SimDuration(u64::MAX).saturating_mul(2).as_nanos(), u64::MAX);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::millis(1) < SimDuration::secs(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::nanos(2)), "2ns");
    }
}
