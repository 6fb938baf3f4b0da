//! Mergeable log-bucketed latency histograms.
//!
//! Serving experiments summarize millions of per-request latencies as
//! tail quantiles (p50/p95/p99). Storing every sample would dwarf the
//! rest of a report, and storing only a handful of pre-chosen quantiles
//! would make results impossible to combine across workers. A
//! [`LatencyHistogram`] solves both: samples land in logarithmically
//! spaced buckets with a bounded relative error, the bucket layout is a
//! compile-time constant (so any two histograms merge by adding counts),
//! and merging is associative and commutative — sharded recording
//! produces byte-identical quantiles regardless of how the work was
//! split.
//!
//! The layout is the classic octave scheme: values below
//! [`SUB_BUCKETS`] are stored exactly; above that, each power-of-two
//! octave is split into [`SUB_BUCKETS`] linear sub-buckets, bounding the
//! relative quantization error by `1 / SUB_BUCKETS` (6.25%). All
//! arithmetic is on integers, so the same samples always produce the
//! same buckets and the same quantiles.

/// Sub-buckets per octave. Values below this are recorded exactly;
/// larger values are quantized to a relative precision of
/// `1 / SUB_BUCKETS`.
pub const SUB_BUCKETS: u64 = 16;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Total number of buckets needed to cover the full `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB_BUCKETS as usize;

/// A fixed-layout, mergeable histogram of `u64` samples (latencies in
/// cycles, by convention).
///
/// # Examples
///
/// ```
/// use miopt_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for latency in [10, 20, 30, 40, 1000] {
///     h.record(latency);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.quantile(0.50), Some(30));
/// assert_eq!(h.min(), Some(10));
/// assert_eq!(h.max(), Some(1000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index a value falls into.
    ///
    /// Values below [`SUB_BUCKETS`] map to their own bucket; larger
    /// values share a bucket with at most `1 / SUB_BUCKETS` of relative
    /// spread.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        let msb = 63 - (value | 1).leading_zeros();
        if msb < SUB_BITS {
            value as usize
        } else {
            let octave = (msb - SUB_BITS + 1) as usize;
            let sub = ((value >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
            (octave << SUB_BITS) + sub
        }
    }

    /// Smallest value that maps to bucket `index` — the representative
    /// reported for quantiles landing in that bucket.
    #[must_use]
    pub fn bucket_lower_bound(index: usize) -> u64 {
        let idx = index as u64;
        if idx < SUB_BUCKETS {
            idx
        } else {
            let octave = (idx >> SUB_BITS) + SUB_BITS as u64 - 1;
            let sub = idx & (SUB_BUCKETS - 1);
            (SUB_BUCKETS + sub) << (octave - SUB_BITS as u64)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one.
    ///
    /// Merging is associative and commutative: any grouping of the same
    /// histograms yields identical counts, and therefore identical
    /// quantiles.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Exact sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact-sum mean of the recorded samples, if any.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded samples, if any.
    ///
    /// Returns the lower bound of the bucket holding the sample of rank
    /// `ceil(q * count)` (nearest-rank), clamped into the exactly-known
    /// `[min, max]` range; the top rank reports the exact maximum.
    /// Values below [`SUB_BUCKETS`] are exact; above, the result
    /// underestimates the true sample by at most `1 / SUB_BUCKETS`
    /// relative error.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a finite value in `0.0 ..= 1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(
            q.is_finite() && (0.0..=1.0).contains(&q),
            "quantile {q} outside 0.0..=1.0"
        );
        if self.is_empty() {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_lower_bound(index).clamp(self.min, self.max));
            }
        }
        unreachable!("histogram count does not match bucket totals")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt_engine::prop;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(LatencyHistogram::bucket_index(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotonic() {
        // Every value maps to a bucket whose lower bound is <= the value,
        // and bucket indices never decrease as values grow.
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            1 << 20,
            (1 << 20) + 1,
            u64::MAX / 2,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &probes {
            let idx = LatencyHistogram::bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            assert!(LatencyHistogram::bucket_lower_bound(idx) <= v);
            last = idx;
        }
        // Exhaustively: each bucket's lower bound maps back to itself, and
        // the value just below it maps to the previous bucket.
        for idx in 1..BUCKETS {
            let low = LatencyHistogram::bucket_lower_bound(idx);
            assert_eq!(LatencyHistogram::bucket_index(low), idx);
            assert_eq!(LatencyHistogram::bucket_index(low - 1), idx - 1);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut x = 1u64;
        while x < 1 << 40 {
            let idx = LatencyHistogram::bucket_index(x);
            let low = LatencyHistogram::bucket_lower_bound(idx);
            assert!(low <= x);
            assert!(
                (x - low) as f64 <= x as f64 / SUB_BUCKETS as f64,
                "error too large at {x}: bucket low {low}"
            );
            x = x * 7 + 3;
        }
    }

    #[test]
    fn quantiles_on_known_data() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(100));
        // p50 = rank 50; value 50 lands in bucket [50, 52) -> lower
        // bound 50 (exact here, since 50 opens its bucket).
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_quantile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        prop::check("merge_is_associative_and_commutative", 64, |c| {
            let mut mk = || {
                let mut h = LatencyHistogram::new();
                for _ in 0..c.steps(0..150) {
                    h.record(c.below(1 << 24));
                }
                h
            };
            let (x, y, z) = (mk(), mk(), mk());

            let mut xy_z = x.clone();
            xy_z.merge(&y);
            xy_z.merge(&z);

            let mut yz = y.clone();
            yz.merge(&z);
            let mut x_yz = x.clone();
            x_yz.merge(&yz);

            let mut z_yx = z.clone();
            z_yx.merge(&y);
            z_yx.merge(&x);

            assert_eq!(xy_z, x_yz);
            assert_eq!(xy_z, z_yx);
            assert_eq!(xy_z.count(), x.count() + y.count() + z.count());
        });
    }

    #[test]
    fn merged_quantiles_match_single_recorder() {
        let mut whole = LatencyHistogram::new();
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for v in 0..1000u64 {
            let sample = v * v % 7919;
            whole.record(sample);
            if v % 2 == 0 {
                left.record(sample);
            } else {
                right.record(sample);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(left.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_n(77, 5);
        a.record_n(12, 0); // no-op
        for _ in 0..5 {
            b.record(77);
        }
        assert_eq!(a, b);
        assert_eq!(a.sum(), 385);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.quantile(0.01), Some(0));
    }
}
