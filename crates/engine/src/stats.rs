//! Small statistics helpers used by every component's stat block.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use miopt_engine::stats::Counter;
///
/// let mut hits = Counter::default();
/// hits.inc();
/// hits.add(2);
/// assert_eq!(hits.get(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Reconstructs a counter from a persisted count (results
    /// deserialization hook — not for use inside the simulator).
    #[must_use]
    pub fn from_value(n: u64) -> Counter {
        Counter(n)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A numerator/denominator pair reported as a ratio (e.g. row hit rate).
///
/// # Examples
///
/// ```
/// use miopt_engine::stats::Ratio;
///
/// let mut r = Ratio::default();
/// r.record(true);
/// r.record(false);
/// r.record(true);
/// assert!((r.value() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Records one event; `hit` selects whether it counts in the numerator.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Numerator.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Denominator.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The ratio, or 0.0 if no events were recorded.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Reconstructs a ratio from persisted numerator/denominator (results
    /// deserialization hook — not for use inside the simulator).
    ///
    /// # Panics
    ///
    /// Panics if `hits > total`.
    #[must_use]
    pub fn from_parts(hits: u64, total: u64) -> Ratio {
        assert!(hits <= total, "ratio numerator exceeds denominator");
        Ratio { hits, total }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.1}%)",
            self.hits,
            self.total,
            self.value() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn ratio_empty_is_zero() {
        assert_eq!(Ratio::default().value(), 0.0);
    }

    #[test]
    fn ratio_counts_hits_and_total() {
        let mut r = Ratio::default();
        for i in 0..10 {
            r.record(i % 2 == 0);
        }
        assert_eq!(r.hits(), 5);
        assert_eq!(r.total(), 10);
        assert_eq!(r.value(), 0.5);
    }

    #[test]
    fn counter_and_ratio_round_trip_through_their_parts() {
        let c = Counter::from_value(17);
        assert_eq!(Counter::from_value(c.get()), c);
        let r = Ratio::from_parts(3, 9);
        assert_eq!(Ratio::from_parts(r.hits(), r.total()), r);
        assert!((r.value() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "numerator exceeds")]
    fn ratio_rejects_impossible_parts() {
        let _ = Ratio::from_parts(5, 3);
    }
}
