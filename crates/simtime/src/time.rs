//! Millisecond-resolution simulated instants and durations.
//!
//! [`SimTime`] is an absolute instant measured from the simulation epoch
//! (the moment a simulation starts); [`SimDuration`] is a span between two
//! instants. Both wrap a `u64` millisecond count, which gives ~584 million
//! years of range — far beyond any trace replay — while keeping arithmetic
//! exact (no floating-point drift in billing-hour boundaries).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Milliseconds in one second.
pub const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds in one minute.
pub const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds in one hour (the EC2 billing granularity).
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;

/// A span of simulated time with millisecond resolution.
///
/// # Examples
///
/// ```
/// use proteus_simtime::SimDuration;
///
/// let warning = SimDuration::from_mins(2);
/// assert_eq!(warning.as_secs(), 120);
/// assert!(warning < SimDuration::from_hours(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MILLIS_PER_SEC)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * MILLIS_PER_MIN)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * MILLIS_PER_HOUR)
    }

    /// Creates a duration from fractional hours, rounding to the nearest
    /// millisecond.
    ///
    /// Negative inputs saturate to [`SimDuration::ZERO`].
    pub fn from_hours_f64(hours: f64) -> Self {
        if hours <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((hours * MILLIS_PER_HOUR as f64).round() as u64)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * MILLIS_PER_SEC as f64).round() as u64)
    }

    /// Total length in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Total length in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SEC
    }

    /// Total length in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Total length in fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_MIN as f64
    }

    /// Total length in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamping at zero instead of panicking on underflow.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics in debug builds on underflow; use
    /// [`SimDuration::saturating_sub`] when the operands may be unordered.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms >= MILLIS_PER_HOUR {
            write!(f, "{:.2}h", self.as_hours_f64())
        } else if ms >= MILLIS_PER_MIN {
            write!(f, "{:.1}m", self.as_mins_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// An absolute instant in simulated time, measured from the simulation
/// epoch.
///
/// # Examples
///
/// ```
/// use proteus_simtime::{SimDuration, SimTime};
///
/// let t = SimTime::EPOCH + SimDuration::from_mins(95);
/// assert_eq!(t - SimTime::from_hours(1), SimDuration::from_mins(35));
/// // `since` saturates instead of running before the epoch.
/// assert_eq!(SimTime::EPOCH.since(t), SimDuration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (time zero).
    pub const EPOCH: SimTime = SimTime(0);

    /// Creates an instant from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from whole hours since the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * MILLIS_PER_HOUR)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional hours since the epoch.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// The duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_millis(self.0.saturating_sub(earlier.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_millis())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_millis();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds if the subtraction would precede the epoch.
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_millis())
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}h", self.as_hours_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(60), SimDuration::from_mins(1));
        assert_eq!(SimDuration::from_mins(60), SimDuration::from_hours(1));
        assert_eq!(SimDuration::from_hours(2).as_millis(), 2 * MILLIS_PER_HOUR);
    }

    #[test]
    fn fractional_hours_round_trip() {
        let d = SimDuration::from_hours_f64(1.5);
        assert_eq!(d, SimDuration::from_mins(90));
        assert!((d.as_hours_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn negative_fractional_inputs_saturate() {
        assert_eq!(SimDuration::from_hours_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_secs(1));
    }

    #[test]
    fn since_saturates_for_future_reference() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early).as_millis(), 10);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.00h");
        assert_eq!(SimDuration::from_mins(30).to_string(), "30.0m");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimTime::from_hours(1).to_string(), "t+1.000h");
    }

    #[test]
    fn min_max_are_consistent() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let ta = SimTime::from_millis(1);
        let tb = SimTime::from_millis(2);
        assert_eq!(ta.min(tb), ta);
        assert_eq!(ta.max(tb), tb);
    }
}
