//! The estimator: order statistics over repeated timings.
//!
//! Host time on the small shared container this benchmark has to run on
//! moves in 5–15 s episodes (see `README.md`, "Estimator"), so the only
//! statistic that repeats between runs is the minimum over repetitions
//! that are spread across the whole run. Medians and quartiles are
//! reported beside it as noise indicators, never gated.

/// Smallest sample. Panics on an empty slice: every caller times at
/// least one repetition.
pub fn min(samples: &[f64]) -> f64 {
    samples
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("at least one sample")
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "at least one sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, i.e. exactly what
/// Python's `statistics.quantiles(samples, n=4)` returns as its first
/// and last cut point — the acceptance rule for this benchmark is
/// written in terms of that function. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped so that both
        // neighbours exist; the fraction may then exceed 1 (linear
        // extrapolation), as in CPython.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread the acceptance rule bounds. 0 below two samples.
pub fn iqr_share(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) => (q3 - q1) / median(samples),
        None => 0.0,
    }
}

/// Repeated timings of one case, one row of samples per part.
///
/// Cases are timed round-robin (rep 1 of every case, then rep 2 …), so
/// each part's samples are spread over the whole run; the case's time is
/// the sum over its parts of each part's minimum.
#[derive(Debug, Default)]
pub struct CaseTimes {
    per_part: Vec<Vec<f64>>,
}

impl CaseTimes {
    /// Adds one rep: a sample for every part.
    pub fn push(&mut self, parts: &[f64]) {
        if self.per_part.is_empty() {
            self.per_part = vec![Vec::new(); parts.len()];
        }
        assert_eq!(
            parts.len(),
            self.per_part.len(),
            "parts of a case are fixed"
        );
        for (row, sample) in self.per_part.iter_mut().zip(parts) {
            row.push(*sample);
        }
    }

    /// Σ over parts of the minimum rep: what `host_s` sums over cases.
    pub fn sum_of_min(&self) -> f64 {
        self.per_part.iter().map(|p| min(p)).sum()
    }

    /// Each rep's total, in rep order.
    pub fn rep_totals(&self) -> Vec<f64> {
        let reps = self.per_part.first().map_or(0, Vec::len);
        (0..reps)
            .map(|r| self.per_part.iter().map(|p| p[r]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn case_times_minimise_each_part_over_reps() {
        let mut t = CaseTimes::default();
        for (a, b) in [(1.0, 5.0), (0.8, 7.0), (1.2, 4.0)] {
            t.push(&[a, b]);
        }
        assert!((t.sum_of_min() - 4.8).abs() < 1e-12);
        assert_eq!(t.rep_totals(), [6.0, 7.8, 5.2]);
    }
}
