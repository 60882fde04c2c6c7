//! Simulated time: a monotonically increasing virtual clock.
//!
//! The simulation never reads the wall clock; all timestamps derive from
//! event scheduling, which keeps every run bit-for-bit reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`; saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Build from milliseconds; saturates at the longest span.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// Build from seconds; saturates at the longest span.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000))
    }

    /// Microseconds in this span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(1500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(1500));
        assert_eq!(t - SimTime(500_000), SimDuration::from_secs(1));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime(5).since(SimTime(10)), SimDuration::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3000);
        assert!((SimTime(2_500_000).as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn saturating_behaviour() {
        let max = SimTime(u64::MAX);
        assert_eq!(max + SimDuration::from_secs(1), max);
        // Unit conversions saturate too, instead of wrapping.
        let longest = SimDuration(u64::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX / 1_000 + 1), longest);
        assert_eq!(SimDuration::from_secs(u64::MAX), longest);
        assert_eq!(
            SimDuration::from_millis(u64::MAX / 1_000).as_micros(),
            u64::MAX / 1_000 * 1_000
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimTime(1_000_000).to_string(), "1.000000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
    }
}
