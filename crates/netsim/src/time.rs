//! Virtual time and per-actor logical clocks.
//!
//! All of the paper's reaction-time budgets (§4.2–4.4) are stated in wall
//! time: frame periods of 66–100 ms for VR, 200–333 ms for desktop, up to a
//! minute for the simulation loop. We model time as nanoseconds in a `u64`,
//! which covers ~584 years of virtual time — comfortably more than any
//! steering session.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since session start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of the simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 as f64 / 1e6;
        if ms >= 1000.0 {
            write!(f, "{:.3}s", ms / 1000.0)
        } else {
            write!(f, "{ms:.3}ms")
        }
    }
}

/// A per-actor logical clock using the virtual-time merge rule.
///
/// Each independently-acting party (a simulation, a visualization server, a
/// steering client at some site) owns a `VClock`. Local work advances the
/// clock by the modeled cost; receiving a message merges the sender-side
/// arrival time into the local clock. The resulting timestamps are exactly
/// the times a faithful discrete-event simulation would produce for
/// request/response interactions.
#[derive(Debug, Clone, Default)]
pub struct VClock {
    now: SimTime,
}

impl VClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        VClock { now: SimTime::ZERO }
    }

    /// A clock starting at an arbitrary time.
    pub fn at(t: SimTime) -> Self {
        VClock { now: t }
    }

    /// Current local time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Spend `d` of local compute/render time.
    pub fn advance(&mut self, d: SimTime) -> SimTime {
        self.now += d;
        self.now
    }

    /// Merge an incoming event timestamp (message arrival): local time
    /// becomes `max(local, arrival)`. Returns the new local time.
    pub fn merge(&mut self, arrival: SimTime) -> SimTime {
        self.now = self.now.max(arrival);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(3), SimTime::from_nanos(3_000_000));
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
    }

    #[test]
    fn accessors_truncate() {
        let t = SimTime::from_nanos(1_999_999);
        assert_eq!(t.as_millis(), 1);
        assert_eq!(t.as_micros(), 1_999);
        assert!((t.as_secs_f64() - 0.001999999).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a + b, SimTime::from_millis(14));
        assert_eq!(a - b, SimTime::from_millis(6));
        // subtraction saturates rather than wrapping
        assert_eq!(b - a, SimTime::ZERO);
        assert_eq!(b.saturating_since(a), SimTime::ZERO);
    }

    #[test]
    fn clock_advance_and_merge() {
        let mut c = VClock::new();
        c.advance(SimTime::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(5));
        // merging an earlier arrival is a no-op
        c.merge(SimTime::from_millis(3));
        assert_eq!(c.now(), SimTime::from_millis(5));
        // merging a later arrival jumps forward
        c.merge(SimTime::from_millis(9));
        assert_eq!(c.now(), SimTime::from_millis(9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000s");
    }
}
