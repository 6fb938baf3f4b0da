use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in GPU clock cycles (1.6 GHz).
///
/// All components of the simulator share this single clock domain; slower
/// clocks (e.g. the 1 GHz HBM2 interface) express their timing parameters as
/// GPU-cycle counts.
///
/// # Examples
///
/// ```
/// use miopt_engine::Cycle;
///
/// let start = Cycle(100);
/// let end = start + 25;
/// assert_eq!(end - start, 25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the later of two cycles.
    #[must_use]
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the cycle count elapsed since `earlier`, saturating at zero.
    #[must_use]
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Difference in cycles.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self >= rhs, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_round_trip() {
        let c = Cycle(10) + 5;
        assert_eq!(c, Cycle(15));
        assert_eq!(c - Cycle(10), 5);
    }

    #[test]
    fn ordering_follows_time() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle(7).max(Cycle(3)), Cycle(7));
        assert_eq!(Cycle(3).max(Cycle(7)), Cycle(7));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Cycle(5).since(Cycle(9)), 0);
        assert_eq!(Cycle(9).since(Cycle(5)), 4);
    }

    /// Regression guard for the `a - b` → `Cycle::since` migration: the
    /// bare operator is reserved for call sites where `a >= b` is a
    /// structural guarantee, and debug builds enforce that loudly.
    /// Elapsed-time computations whose operands can cross (e.g. a
    /// watchdog comparing a warped `now` against an older checkpoint)
    /// must use `since`, which saturates instead.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cycle subtraction underflow")]
    fn sub_underflow_panics_in_debug() {
        let _ = Cycle(5) - Cycle(9);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle(3).to_string(), "cycle 3");
    }
}
