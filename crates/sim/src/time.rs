//! Simulated time.
//!
//! [`SimTime`] is a nanosecond-resolution instant/duration on the virtual
//! clock. It is a plain `u64` wrapper so it is `Copy`, totally ordered, and
//! cheap to store in event queues. The same type doubles as a duration;
//! the paper's measurements span ~1 µs (probe costs) to ~500 s (application
//! runs), all of which fit comfortably in 64-bit nanoseconds (~584 years).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant (simulation epoch).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }
    /// Construct from fractional seconds (saturating at zero for negatives).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Microseconds since the epoch (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }
    /// Milliseconds since the epoch (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }
    /// Fractional seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs > self`.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The larger of two instants.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two instants.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Scale a duration by a floating-point factor (rounds to nearest ns).
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimTime {
        SimTime(round_to_u64(self.0 as f64 * k))
    }
}

/// `x.round() as u64` — nearest, halves away from zero; negatives and NaN
/// to 0; saturating — in integer arithmetic. `f64::round` is a call into
/// libm wherever SSE4.1 cannot be assumed, and the workload models scale a
/// count or price a unit of work on every simulated call.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    // Exact: below 2^52 a double's fraction is representable, above it
    // there is none.
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, k: u64) -> SimTime {
        SimTime(self.0 * k)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, k: u64) -> SimTime {
        SimTime(self.0 / k)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering with an adaptive unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1_500);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!((a + b).as_micros(), 14);
        assert_eq!((a - b).as_micros(), 6);
        assert_eq!((a * 3).as_micros(), 30);
        assert_eq!((a / 2).as_micros(), 5);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn round_to_u64_is_f64_round() {
        let mut rng = crate::rng::SimRng::new(7, 0);
        let edges = [
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            -0.3,
            -0.7,
            4503599627370495.5, // 2^52 - 0.5
            4503599627370496.0,
            9007199254740993.0,
            1.8446744073709552e19,
            1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let draws = (0..20_000).map(|i| {
            let mantissa = rng.gen_range_u64(0..=u64::MAX >> 11) as f64;
            mantissa / (1u64 << (i % 53)) as f64
        });
        for x in edges.into_iter().chain(draws) {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimTime::from_nanos(10).mul_f64(1.26).as_nanos(), 13);
        assert_eq!(SimTime::from_nanos(10).mul_f64(0.0).as_nanos(), 0);
    }

    /// `VT_begin`/`VT_end` scale their cost by the aggregated repetition
    /// count with the integer multiply. The float path it replaced was
    /// exact wherever the product fits a double's 53 bits — every per-call
    /// cost at any repetition count a run can reach — so nothing moved.
    #[test]
    fn integer_scaling_equals_mul_f64_for_probe_costs() {
        let c = crate::ProbeCosts::power3();
        let fields = [
            c.vt_begin_active,
            c.vt_end_active,
            c.vt_deactivated,
            c.trampoline_dispatch,
            c.vt_funcdef,
            c.mpi_wrapper_event,
            c.omp_region_event,
            c.flush_per_byte,
            c.confsync_poll,
            c.stats_format_per_rank,
            c.stats_write_base,
        ];
        for cost in fields {
            for reps in [1u64, 2, 1_000, 1_000_000, 1 << 32] {
                assert_eq!(cost * reps, cost.mul_f64(reps as f64), "{cost} x {reps}");
            }
        }
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_and_secs_f64() {
        let total: SimTime = [1u64, 2, 3].iter().map(|&s| SimTime::from_secs(s)).sum();
        assert_eq!(total, SimTime::from_secs(6));
        assert!((SimTime::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }
}
