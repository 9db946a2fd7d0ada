//! Scalar summaries: mean, sample standard deviation, extrema.
//!
//! Tables 2 and 3 of the paper report "Avg" and "Std" columns over the 30
//! high-activity days; [`Summary`] is the carrier for those columns.

/// Streaming summary of a sequence of `f64` observations.
///
/// Uses Welford's online algorithm so that a nine-month campaign can be
/// summarized without buffering every sample. `std` is the *sample*
/// standard deviation (divide by `n - 1`), matching how the paper reports
/// day-to-day variability.
///
/// ```
/// use sp2_stats::Summary;
///
/// let s = Summary::of(&[17.0, 16.2, 18.1]);
/// assert!((s.mean() - 17.1).abs() < 0.01);
/// assert!(s.std() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = v - self.mean;
        self.m2 += delta * delta2;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges another summary into this one (parallel reduction step).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation; 0 for fewer than two observations.
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Weighted mean of `(value, weight)` pairs; 0 when total weight is 0.
///
/// The paper's batch-job section reports a *time-weighted* average of
/// 19 Mflops per node — walltime is the weight.
pub fn weighted_mean(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (v, w) in pairs {
        num += v * w;
        den += w;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_inert() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn known_mean_and_std() {
        // 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample std sqrt(32/7).
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq = Summary::of(&all);
        let mut a = Summary::of(&all[..37]);
        let b = Summary::of(&all[37..]);
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.std() - seq.std()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::of(&[1.0, 2.0, 3.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn weighted_mean_time_weighting() {
        // A 3600 s job at 10 Mflops and a 600 s job at 40 Mflops.
        let m = weighted_mean([(10.0, 3600.0), (40.0, 600.0)]);
        assert!((m - (10.0 * 3600.0 + 40.0 * 600.0) / 4200.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_zero_weight() {
        assert_eq!(weighted_mean([(5.0, 0.0)]), 0.0);
        assert_eq!(weighted_mean(std::iter::empty()), 0.0);
    }
}
