//! Simulation time.
//!
//! [`SimTime`] is a totally ordered wrapper over non-negative `f64`
//! seconds. Event queues need `Ord`; raw `f64` only offers `PartialOrd`,
//! so construction rejects NaN once and ordering is then total.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in simulated time, in seconds from simulation start.
///
/// # Example
///
/// ```
/// use ww_sim::SimTime;
/// let a = SimTime::from_secs(1.5);
/// let b = a + SimTime::from_secs(0.5);
/// assert_eq!(b.as_secs(), 2.0);
/// assert!(a < b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN, infinite, or negative. `-0.0` is
    /// accepted and stored as `+0.0`, so a time's bits — and with them
    /// the packed radix key ([`key_of`](crate::key_of)) — order the way
    /// the time does.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        if !(secs.is_finite() && secs >= 0.0) {
            invalid_secs(secs);
        }
        // `x + 0.0` is `x`, bit for bit, for every `x` but `-0.0`.
        SimTime(secs + 0.0)
    }

    /// Creates a time from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimTime::from_secs`].
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        SimTime::from_secs(ms / 1000.0)
    }

    /// Creates a time from microseconds.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimTime::from_secs`].
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        SimTime::from_secs(us / 1_000_000.0)
    }

    /// Seconds since simulation start.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Saturating subtraction: `max(self - other, 0)`.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }
}

/// The panic of [`SimTime::from_secs`], kept out of line so an inlined
/// constructor costs one compare and one branch.
#[cold]
#[inline(never)]
fn invalid_secs(secs: f64) -> ! {
    panic!("sim time must be finite and non-negative, got {secs}")
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, so this cannot fail.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`SimTime::saturating_sub`] when underflow is expected.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimTime::from_micros(2_000_000.0).as_secs(), 2.0);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn negative_zero_is_stored_as_zero() {
        let t = SimTime::from_secs(-0.0);
        assert_eq!(t.as_secs().to_bits(), 0.0f64.to_bits());
        assert_eq!(t, SimTime::ZERO);
        // Only `-0.0` changes: the other zero and the smallest subnormal
        // keep their bits.
        assert_eq!(SimTime::from_secs(0.0).as_secs().to_bits(), 0);
        let tiny = f64::from_bits(1);
        assert_eq!(SimTime::from_secs(tiny).as_secs().to_bits(), 1);
        assert_eq!(SimTime::from_millis(-0.0).as_secs().to_bits(), 0);
    }

    #[test]
    fn total_order() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(v[0].as_secs(), 1.0);
        assert_eq!(v[2].as_secs(), 3.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2.0);
        let b = SimTime::from_secs(0.5);
        assert_eq!((a + b).as_secs(), 2.5);
        assert_eq!((a - b).as_secs(), 1.5);
        assert_eq!(b.saturating_sub(a).as_secs(), 0.0);
    }

    #[test]
    #[should_panic]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_secs(1.0) - SimTime::from_secs(2.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_secs(0.25).to_string(), "0.250000s");
    }
}
