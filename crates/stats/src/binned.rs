//! Binned scatter reduction.
//!
//! Figures 3 and 5 of the paper are scatter plots with a visible central
//! tendency: per-node Mflops against nodes requested (Figure 3) and against
//! the system/user FXU ratio (Figure 5). [`BinnedScatter`] reduces raw
//! `(x, y)` points into per-bin summaries so the bench harness can print the
//! series the figures show.

use crate::summary::Summary;

/// Accumulates `(x, y)` points into uniform bins over `[x_min, x_max)`.
#[derive(Debug, Clone)]
pub struct BinnedScatter {
    x_min: f64,
    x_max: f64,
    bins: Vec<Summary>,
    /// Points outside `[x_min, x_max)` are counted, not dropped silently.
    out_of_range: u64,
}

impl BinnedScatter {
    /// Creates `n_bins` uniform bins spanning `[x_min, x_max)`.
    ///
    /// # Panics
    /// Panics if `x_max <= x_min` or `n_bins == 0`.
    pub fn new(x_min: f64, x_max: f64, n_bins: usize) -> Self {
        assert!(x_max > x_min, "x range must be nonempty");
        assert!(n_bins > 0, "need at least one bin");
        BinnedScatter {
            x_min,
            x_max,
            bins: vec![Summary::new(); n_bins],
            out_of_range: 0,
        }
    }

    /// Adds one point. Points with `x` outside the configured range — or
    /// with a non-finite `x` or `y`, which would poison every bin summary
    /// they touch — are tallied in `out_of_range` and otherwise ignored.
    pub fn add(&mut self, x: f64, y: f64) {
        if !x.is_finite() || !y.is_finite() || !(self.x_min..self.x_max).contains(&x) {
            self.out_of_range += 1;
            return;
        }
        let w = (self.x_max - self.x_min) / self.bins.len() as f64;
        let idx = (((x - self.x_min) / w) as usize).min(self.bins.len() - 1);
        self.bins[idx].push(y);
    }

    /// Center x-coordinate of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.x_max - self.x_min) / self.bins.len() as f64;
        self.x_min + (i as f64 + 0.5) * w
    }

    /// Per-bin summaries, indexed by bin.
    pub fn bins(&self) -> &[Summary] {
        &self.bins
    }

    /// Number of points rejected for being outside the x range.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// `(bin_center, mean_y, count)` for every nonempty bin.
    pub fn series(&self) -> Vec<(f64, f64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count() > 0)
            .map(|(i, s)| (self.bin_center(i), s.mean(), s.count()))
            .collect()
    }

    /// Pearson correlation between bin centers and bin means over nonempty
    /// bins — a quick monotonicity check for Figure 5's downward trend.
    pub fn center_mean_correlation(&self) -> f64 {
        let pts = self.series();
        if pts.len() < 2 {
            return 0.0;
        }
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for (x, y, _) in &pts {
            sxy += (x - mx) * (y - my);
            sxx += (x - mx) * (x - mx);
            syy += (y - my) * (y - my);
        }
        if sxx == 0.0 || syy == 0.0 {
            0.0
        } else {
            sxy / (sxx * syy).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_land_in_expected_bins() {
        let mut b = BinnedScatter::new(0.0, 10.0, 5);
        b.add(0.5, 1.0); // bin 0
        b.add(9.5, 3.0); // bin 4
        assert_eq!(b.bins()[0].count(), 1);
        assert_eq!(b.bins()[4].count(), 1);
        assert_eq!(b.bins()[2].count(), 0);
    }

    #[test]
    fn out_of_range_counted_not_binned() {
        let mut b = BinnedScatter::new(0.0, 1.0, 2);
        b.add(-0.1, 5.0);
        b.add(1.0, 5.0); // half-open: x_max excluded
        assert_eq!(b.out_of_range(), 2);
        assert!(b.series().is_empty());
    }

    #[test]
    fn non_finite_points_rejected_not_binned() {
        let mut b = BinnedScatter::new(0.0, 1.0, 2);
        b.add(0.5, f64::NAN);
        b.add(f64::NAN, 1.0);
        b.add(0.5, f64::INFINITY);
        b.add(f64::NEG_INFINITY, 1.0);
        assert_eq!(b.out_of_range(), 4);
        assert!(b.series().is_empty());
        // A later finite point still lands cleanly: the NaN never touched
        // the bin's running summary.
        b.add(0.5, 2.0);
        assert_eq!(b.series(), vec![(0.75, 2.0, 1)]);
    }

    #[test]
    fn bin_centers_uniform() {
        let b = BinnedScatter::new(0.0, 10.0, 5);
        assert!((b.bin_center(0) - 1.0).abs() < 1e-12);
        assert!((b.bin_center(4) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn series_reports_means() {
        let mut b = BinnedScatter::new(0.0, 4.0, 2);
        b.add(0.5, 10.0);
        b.add(1.5, 20.0);
        b.add(3.0, 7.0);
        let s = b.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], (1.0, 15.0, 2));
        assert_eq!(s[1], (3.0, 7.0, 1));
    }

    #[test]
    fn correlation_detects_monotone_decline() {
        let mut b = BinnedScatter::new(0.0, 5.0, 5);
        for i in 0..5 {
            let x = i as f64 + 0.5;
            b.add(x, 20.0 - 4.0 * x);
        }
        assert!(b.center_mean_correlation() < -0.99);
    }

    #[test]
    fn correlation_degenerate_cases() {
        let b = BinnedScatter::new(0.0, 1.0, 4);
        assert_eq!(b.center_mean_correlation(), 0.0);
        let mut one = BinnedScatter::new(0.0, 1.0, 4);
        one.add(0.1, 2.0);
        assert_eq!(one.center_mean_correlation(), 0.0);
    }

    #[test]
    #[should_panic(expected = "x range must be nonempty")]
    fn empty_range_panics() {
        BinnedScatter::new(1.0, 1.0, 3);
    }
}
