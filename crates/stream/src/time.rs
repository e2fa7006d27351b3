//! Logical time: timestamps and durations.
//!
//! The paper indexes streams by discrete timestamps `i` (`d_i` is the data
//! provided at timestamp `i`). We use a millisecond-resolution signed integer
//! so both logical indices (`0, 1, 2, …`) and wall-clock-like traces (the
//! Taxi dataset samples every 177 s) fit the same type.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in stream time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

/// A signed span of stream time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub i64);

impl Timestamp {
    /// The zero timestamp (stream origin).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Timestamp(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        Timestamp(s * 1000)
    }

    /// Milliseconds since the stream origin.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Index of the tumbling window of `len` containing this timestamp.
    ///
    /// Timestamps are assigned to `[k·len, (k+1)·len)`. Negative timestamps
    /// floor toward negative infinity so windows stay half-open everywhere.
    pub fn window_index(self, len: TimeDelta) -> i64 {
        debug_assert!(len.0 > 0, "window length must be positive");
        self.0.div_euclid(len.0)
    }
}

impl TimeDelta {
    /// The zero span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        TimeDelta(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        TimeDelta(s * 1000)
    }

    /// Length in milliseconds.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// True if the span is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Multiply the span by an integer factor.
    pub const fn scaled(self, k: i64) -> TimeDelta {
        TimeDelta(self.0 * k)
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl SubAssign<TimeDelta> for Timestamp {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl Sub<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ms", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seconds_scale_to_millis() {
        assert_eq!(Timestamp::from_secs(2), Timestamp::from_millis(2000));
        assert_eq!(TimeDelta::from_secs(177).millis(), 177_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Timestamp::from_millis(500);
        let d = TimeDelta::from_millis(120);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn window_index_is_half_open() {
        let len = TimeDelta::from_millis(10);
        assert_eq!(Timestamp::from_millis(0).window_index(len), 0);
        assert_eq!(Timestamp::from_millis(9).window_index(len), 0);
        assert_eq!(Timestamp::from_millis(10).window_index(len), 1);
        assert_eq!(Timestamp::from_millis(-1).window_index(len), -1);
        assert_eq!(Timestamp::from_millis(-10).window_index(len), -1);
        assert_eq!(Timestamp::from_millis(-11).window_index(len), -2);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Timestamp::from_millis(42).to_string(), "t=42ms");
        assert_eq!(TimeDelta::from_millis(42).to_string(), "42ms");
    }

    proptest! {
        #[test]
        fn window_index_matches_containment(ms in -1_000_000i64..1_000_000, len in 1i64..10_000) {
            let t = Timestamp::from_millis(ms);
            let d = TimeDelta::from_millis(len);
            let k = t.window_index(d);
            let start = k * len;
            prop_assert!(start <= ms && ms < start + len);
        }

        #[test]
        fn add_sub_inverse(ms in -1_000_000i64..1_000_000, dm in -1_000_000i64..1_000_000) {
            let t = Timestamp::from_millis(ms);
            let d = TimeDelta::from_millis(dm);
            prop_assert_eq!((t + d) - d, t);
        }
    }
}
