//! Simulation clock types.
//!
//! [`SimTime`] is an absolute instant and [`SimDuration`] a span, both in
//! integer microseconds. Integer time keeps the event queue total order
//! exact — two events scheduled "3 s apart" are *exactly* 3,000,000 ticks
//! apart no matter how the span was computed.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;
/// Microseconds in one millisecond.
pub const MICROS_PER_MILLI: u64 = 1_000;

/// An absolute simulation instant, counted in microseconds since the start
/// of the simulation (time zero).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole milliseconds, saturating at `MAX`.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(MICROS_PER_MILLI))
    }

    /// Builds an instant from whole seconds, saturating at `MAX`.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(MICROS_PER_SEC))
    }

    /// Builds an instant from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero, huge ones to `MAX`.
    ///
    /// # Panics
    ///
    /// If `s` is NaN.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(micros_from_secs_f64("SimTime::from_secs_f64", s))
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`, saturating to zero when `earlier`
    /// is actually later (the caller mixed up its bookkeeping; a saturating
    /// result keeps delay accounting robust instead of panicking mid-run).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Exact span since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier > self`; use [`SimTime::saturating_since`] when the
    /// ordering is not guaranteed.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }
}

/// The firing order of both kernels' event queues as one integer:
/// `(at, seq)` packed as `(at << 64) | seq`. Both halves are full `u64`s
/// in disjoint bits, so the key compares exactly like the tuple — and in
/// one integer compare instead of a lexicographic two-field one.
pub(crate) const fn event_key(at: SimTime, seq: u64) -> u128 {
    ((at.0 as u128) << 64) | seq as u128
}

/// The instant half of an [`event_key`].
pub(crate) const fn event_key_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole milliseconds, saturating at `MAX`.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(MICROS_PER_MILLI))
    }

    /// Builds a span from whole seconds, saturating at `MAX`.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(MICROS_PER_SEC))
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero, huge ones to `MAX`.
    ///
    /// # Panics
    ///
    /// If `s` is NaN.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(micros_from_secs_f64("SimDuration::from_secs_f64", s))
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the span by a non-negative factor, rounding to the nearest
    /// microsecond. Used by jitter models (`latency * 1.3`).
    ///
    /// # Panics
    ///
    /// If `factor` is NaN.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            !factor.is_nan(),
            "SimDuration::mul_f64 got a {factor} factor"
        );
        SimDuration((self.0 as f64 * factor.max(0.0)).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// `s` seconds as whole microseconds: rounded, negative values clamped to
/// zero and values past `u64::MAX` saturated (the float-to-int cast). A NaN
/// `s` would silently become zero, so it panics, naming `caller`.
fn micros_from_secs_f64(caller: &str, s: f64) -> u64 {
    assert!(!s.is_nan(), "{caller} got {s} seconds");
    (s.max(0.0) * MICROS_PER_SEC as f64).round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(
            rhs.0 <= self.0,
            "SimDuration subtraction underflow: {self} - {rhs}"
        );
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(40).as_micros(), 40_000);
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
    }

    #[test]
    fn fractional_seconds_round_to_nearest_microsecond() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(2.8).as_micros(), 2_800_000);
        assert_eq!(SimTime::from_secs_f64(-5.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!(t + d, SimTime::from_secs(13));
        assert_eq!(t - d, SimTime::from_secs(7));
        assert_eq!((t + d).since(t), d);
        assert_eq!(d * 3, SimDuration::from_secs(9));
        assert_eq!(d / 2, SimDuration::from_micros(1_500_000));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "since")]
    fn since_panics_on_reversed_order() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn add_saturates_at_max() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn constructors_saturate_at_max() {
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration::MAX);
        // Unchecked, this one wrapped to an *earlier* instant in release.
        assert_eq!(SimTime::from_secs(u64::MAX / 10), SimTime::MAX);
    }

    #[test]
    fn event_key_orders_like_the_tuple_at_the_edges() {
        let times = [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX].map(SimTime);
        let seqs = [0, 1, u64::MAX - 1, u64::MAX];
        let pairs: Vec<(SimTime, u64)> = times
            .iter()
            .flat_map(|&t| seqs.iter().map(move |&s| (t, s)))
            .collect();
        for &a in &pairs {
            assert_eq!(event_key_time(event_key(a.0, a.1)), a.0);
            for &b in &pairs {
                assert_eq!(
                    event_key(a.0, a.1).cmp(&event_key(b.0, b.1)),
                    a.cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn mul_f64_scales_and_clamps() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_secs(3));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn subtracting_past_zero_from_an_instant_saturates() {
        let d = SimDuration::from_secs(1);
        assert_eq!(SimTime::ZERO - d, SimTime::ZERO);
        assert_eq!(SimTime::from_micros(5) - d, SimTime::ZERO);
    }

    #[test]
    fn duration_add_and_mul_saturate_at_max() {
        let d = SimDuration::from_micros(1);
        assert_eq!(SimDuration::MAX + d, SimDuration::MAX);
        let mut acc = SimDuration::MAX;
        acc += d;
        assert_eq!(acc, SimDuration::MAX);
        assert_eq!(SimDuration::MAX * 2, SimDuration::MAX);
        assert_eq!(SimDuration::from_secs(1) * u64::MAX, SimDuration::MAX);
    }

    #[test]
    #[should_panic(expected = "SimDuration subtraction underflow")]
    fn duration_subtraction_underflow_panics() {
        let _ = SimDuration::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    #[should_panic(expected = "SimDuration subtraction underflow")]
    fn duration_sub_assign_underflow_panics() {
        let mut d = SimDuration::ZERO;
        d -= SimDuration::from_micros(1);
    }

    #[test]
    #[should_panic(expected = "divide by zero")]
    fn duration_division_by_zero_panics() {
        let _ = SimDuration::from_secs(1) / 0;
    }

    #[test]
    fn from_secs_f64_clamps_infinities_and_huge_values() {
        for s in [f64::INFINITY, 1e300] {
            assert_eq!(SimTime::from_secs_f64(s), SimTime::MAX, "{s}");
            assert_eq!(SimDuration::from_secs_f64(s), SimDuration::MAX, "{s}");
        }
        for s in [f64::NEG_INFINITY, -0.0] {
            assert_eq!(SimTime::from_secs_f64(s), SimTime::ZERO, "{s}");
            assert_eq!(SimDuration::from_secs_f64(s), SimDuration::ZERO, "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "SimTime::from_secs_f64 got NaN seconds")]
    fn sim_time_from_nan_seconds_panics() {
        SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "SimDuration::from_secs_f64 got NaN seconds")]
    fn sim_duration_from_nan_seconds_panics() {
        SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "SimDuration::mul_f64 got a NaN factor")]
    fn mul_f64_by_nan_panics() {
        SimDuration::from_secs(1).mul_f64(f64::NAN);
    }

    #[test]
    fn mul_f64_by_infinity_saturates_a_nonzero_span() {
        assert_eq!(
            SimDuration::from_micros(1).mul_f64(f64::INFINITY),
            SimDuration::MAX
        );
        assert_eq!(SimDuration::MAX.mul_f64(f64::INFINITY), SimDuration::MAX);
        // 0 × ∞ is NaN, which the cast turns into 0.
        assert_eq!(SimDuration::ZERO.mul_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", SimDuration::from_millis(2800)), "2.800s");
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
    }
}
