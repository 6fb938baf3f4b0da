//! Deterministic open-loop request arrival schedules.
//!
//! A serving tenant's traffic is fixed *before* the simulation starts:
//! either a Poisson process expanded from a seed, or an explicit trace.
//! Pre-generating the whole schedule (rather than drawing arrivals as
//! the simulation advances) keeps the simulator free of hidden RNG state
//! — the schedule is plain data, its FNV-1a hash goes into sweep
//! provenance and journal fingerprints, and a resumed sweep replays
//! byte-identical traffic.

use miopt_engine::hash::Fnv1a;
use miopt_engine::rng::SplitMix64;

/// A fixed, sorted list of request arrival cycles for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSchedule {
    arrivals: Vec<u64>,
    seed: u64,
}

impl ArrivalSchedule {
    /// A Poisson (memoryless open-loop) schedule: `requests` arrivals
    /// whose inter-arrival gaps are exponentially distributed with the
    /// given mean, drawn from a [`SplitMix64`] stream seeded with
    /// `seed`. The same `(seed, mean, requests)` triple always expands
    /// to the same schedule.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interarrival` is not finite and positive, or if
    /// `requests` is zero.
    #[must_use]
    pub fn poisson(seed: u64, mean_interarrival: f64, requests: usize) -> ArrivalSchedule {
        assert!(
            mean_interarrival.is_finite() && mean_interarrival > 0.0,
            "mean inter-arrival must be finite and positive"
        );
        assert!(requests > 0, "a schedule needs at least one request");
        let mut rng = SplitMix64::new(seed);
        let mut t = 0.0f64;
        let arrivals = (0..requests)
            .map(|_| {
                // Inverse-CDF exponential; next_f64 is in [0, 1) so the
                // argument of ln is in (0, 1].
                t += -(1.0 - rng.next_f64()).ln() * mean_interarrival;
                t as u64
            })
            .collect();
        ArrivalSchedule { arrivals, seed }
    }

    /// An explicit trace of arrival cycles (`seed` is recorded as 0).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or not sorted.
    #[must_use]
    pub fn trace(arrivals: Vec<u64>) -> ArrivalSchedule {
        assert!(
            !arrivals.is_empty(),
            "a schedule needs at least one request"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "trace arrivals must be sorted"
        );
        ArrivalSchedule { arrivals, seed: 0 }
    }

    /// The arrival cycles, sorted ascending.
    #[must_use]
    pub fn arrivals(&self) -> &[u64] {
        &self.arrivals
    }

    /// Number of scheduled requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the schedule is empty (never true for a validated
    /// schedule; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The seed the schedule was expanded from (0 for traces).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// FNV-1a fingerprint of the full schedule (seed and every arrival
    /// cycle) — recorded in provenance and journal fingerprints so a
    /// resumed sweep can prove it is replaying identical traffic.
    #[must_use]
    pub fn hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.seed);
        for &a in &self.arrivals {
            h.write_u64(a);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let a = ArrivalSchedule::poisson(42, 1000.0, 50);
        let b = ArrivalSchedule::poisson(42, 1000.0, 50);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.len(), 50);
        assert!(a.arrivals().windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival should be in the right ballpark.
        let span = *a.arrivals().last().unwrap() as f64;
        assert!(span > 10_000.0 && span < 200_000.0, "span {span}");
    }

    #[test]
    fn different_seeds_and_rates_change_the_schedule() {
        let a = ArrivalSchedule::poisson(1, 1000.0, 20);
        let b = ArrivalSchedule::poisson(2, 1000.0, 20);
        let c = ArrivalSchedule::poisson(1, 2000.0, 20);
        assert_ne!(a, b);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn bad_traces_are_rejectededly_described() {
        for (trace, message) in [
            (vec![], "a schedule needs at least one request"),
            (vec![5, 3], "trace arrivals must be sorted"),
        ] {
            let panic = std::panic::catch_unwind(|| ArrivalSchedule::trace(trace))
                .expect_err("a bad trace is refused");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&message));
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_panics() {
        let _ = ArrivalSchedule::trace(vec![5, 3]);
    }
}
