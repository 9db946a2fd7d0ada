//! Time-series container for campaign-scale rate traces.
//!
//! The RS2HPM daemon samples every node at a 15-minute cadence; Figure 1 is
//! the daily aggregation of that trace over 270 days. [`TimeSeries`] holds
//! `(t_seconds, value)` pairs and supports the daily binning and peak
//! queries (max day, max 15-minute interval) that the paper quotes.

/// Seconds per simulated day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// An append-only series of `(time_seconds, value)` samples.
///
/// Samples must be appended in nondecreasing time order; `push` enforces
/// this so downstream binning can be a single pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the last appended time.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "samples must be time-ordered: {t} < {last}");
        }
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Largest sample value, i.e. the paper's "maximum 15-minute rate"
    /// when the series is the daemon trace. `None` if empty.
    pub fn max_value(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// Averages samples into day bins: element `d` of the result is the
    /// mean of all samples with `t` in `[d * 86400, (d+1) * 86400)`.
    /// Days with no samples yield 0 (an idle machine reports zero rate).
    pub fn daily_means(&self, n_days: usize) -> Vec<f64> {
        let mut sum = vec![0.0; n_days];
        let mut cnt = vec![0u32; n_days];
        for (t, v) in self.iter() {
            let d = (t / SECONDS_PER_DAY) as usize;
            if d < n_days {
                sum[d] += v;
                cnt[d] += 1;
            }
        }
        sum.iter()
            .zip(&cnt)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }

    /// Best daily mean, i.e. the paper's "24-hour rate of 3.4 Gflops was
    /// sustained" style of statistic.
    pub fn max_daily_mean(&self, n_days: usize) -> f64 {
        self.daily_means(n_days)
            .into_iter()
            .fold(0.0, |a: f64, b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        ts.push(900.0, 2.0);
        assert_eq!(ts.len(), 2);
        let pairs: Vec<_> = ts.iter().collect();
        assert_eq!(pairs, vec![(0.0, 1.0), (900.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(100.0, 1.0);
        ts.push(50.0, 2.0);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut ts = TimeSeries::new();
        ts.push(10.0, 1.0);
        ts.push(10.0, 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn daily_means_bins_correctly() {
        let mut ts = TimeSeries::new();
        // Day 0: samples 2 and 4 -> mean 3. Day 2: sample 10.
        ts.push(0.0, 2.0);
        ts.push(43_200.0, 4.0);
        ts.push(2.0 * SECONDS_PER_DAY + 1.0, 10.0);
        let d = ts.daily_means(3);
        assert_eq!(d, vec![3.0, 0.0, 10.0]);
    }

    #[test]
    fn samples_beyond_horizon_ignored() {
        let mut ts = TimeSeries::new();
        ts.push(5.0 * SECONDS_PER_DAY, 99.0);
        assert_eq!(ts.daily_means(3), vec![0.0; 3]);
    }

    #[test]
    fn max_queries() {
        let mut ts = TimeSeries::new();
        assert_eq!(ts.max_value(), None);
        ts.push(0.0, 1.5);
        ts.push(900.0, 5.7);
        ts.push(1800.0, 2.2);
        assert_eq!(ts.max_value(), Some(5.7));
        assert!((ts.max_daily_mean(1) - (1.5 + 5.7 + 2.2) / 3.0).abs() < 1e-12);
    }
}
