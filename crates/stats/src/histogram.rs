//! Weighted histograms over integer-valued categories.
//!
//! Figure 2 of the paper is a histogram of batch-job *walltime* (the
//! weight) against *nodes requested* (the category). [`Histogram`] supports
//! exactly that: integer categories, `f64` accumulated weight.

/// A histogram over integer categories `0 ..= max_category` accumulating
/// `f64` weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Vec<f64>,
    /// Weight from categories beyond `max_category`. Kept out of the bins
    /// so the last in-range category is never inflated, but still part of
    /// [`Histogram::total`] — nothing is silently dropped.
    overflow: f64,
}

impl Histogram {
    /// Creates a histogram covering categories `0 ..= max_category`.
    pub fn new(max_category: usize) -> Self {
        Histogram {
            bins: vec![0.0; max_category + 1],
            overflow: 0.0,
        }
    }

    /// Adds `weight` to `category`. Weight for categories beyond the
    /// configured range accumulates in the overflow tally
    /// ([`Histogram::overflow`]) rather than being clamped into the last
    /// bin, which would misattribute it to `max_category`.
    pub fn add(&mut self, category: usize, weight: f64) {
        match self.bins.get_mut(category) {
            Some(bin) => *bin += weight,
            None => self.overflow += weight,
        }
    }

    /// Weight accumulated in `category` (0 when out of range).
    pub fn weight(&self, category: usize) -> f64 {
        self.bins.get(category).copied().unwrap_or(0.0)
    }

    /// Weight accumulated from categories beyond `max_category`.
    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    /// Total accumulated weight, overflow included.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum::<f64>() + self.overflow
    }

    /// Category holding the most weight, breaking ties toward the smaller
    /// category; `None` when the histogram is entirely empty.
    pub fn mode(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &w) in self.bins.iter().enumerate() {
            if w > 0.0 && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((i, w));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Fraction of total weight in categories `> threshold`; 0 if empty.
    /// Overflow weight came from categories beyond `max_category`, so it
    /// always counts as above the threshold.
    ///
    /// The paper's Figure 2 observation — "essentially no wall clock time
    /// consumed by jobs requesting more than 64 nodes" — is this quantity
    /// with `threshold = 64`.
    pub fn fraction_above(&self, threshold: usize) -> f64 {
        let total = self.total();
        if total == 0.0 {
            return 0.0;
        }
        let above: f64 = self
            .bins
            .iter()
            .enumerate()
            .filter(|(i, _)| *i > threshold)
            .map(|(_, &w)| w)
            .sum();
        (above + self.overflow) / total
    }

    /// All `(category, weight)` pairs with nonzero weight.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0.0)
            .map(|(i, &w)| (i, w))
    }

    /// The raw bins, indexed by category.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Top `k` categories by weight, heaviest first.
    pub fn top_k(&self, k: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self.nonzero().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut h = Histogram::new(144);
        h.add(16, 100.0);
        h.add(16, 50.0);
        h.add(32, 60.0);
        assert_eq!(h.weight(16), 150.0);
        assert_eq!(h.weight(32), 60.0);
        assert_eq!(h.weight(8), 0.0);
        assert_eq!(h.total(), 210.0);
    }

    #[test]
    fn out_of_range_accumulates_in_overflow_not_last_bin() {
        let mut h = Histogram::new(10);
        h.add(99, 5.0);
        h.add(11, 2.0);
        assert_eq!(h.weight(10), 0.0);
        assert_eq!(h.weight(99), 0.0);
        assert_eq!(h.overflow(), 7.0);
        assert_eq!(h.total(), 7.0);
        // Overflow stays out of the per-category views.
        assert_eq!(h.nonzero().count(), 0);
        assert_eq!(h.mode(), None);
        assert!(h.top_k(3).is_empty());
    }

    #[test]
    fn fraction_above_counts_overflow_as_above() {
        let mut h = Histogram::new(10);
        h.add(5, 90.0);
        h.add(64, 10.0); // beyond max_category -> overflow
        assert!((h.fraction_above(7) - 0.1).abs() < 1e-12);
        assert!((h.fraction_above(10) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mode_picks_heaviest() {
        let mut h = Histogram::new(144);
        assert_eq!(h.mode(), None);
        h.add(8, 10.0);
        h.add(16, 25.0);
        h.add(32, 20.0);
        assert_eq!(h.mode(), Some(16));
    }

    #[test]
    fn mode_tie_breaks_low() {
        let mut h = Histogram::new(5);
        h.add(2, 7.0);
        h.add(4, 7.0);
        assert_eq!(h.mode(), Some(2));
    }

    #[test]
    fn fraction_above_threshold() {
        let mut h = Histogram::new(144);
        h.add(16, 90.0);
        h.add(128, 10.0);
        assert!((h.fraction_above(64) - 0.1).abs() < 1e-12);
        assert_eq!(h.fraction_above(144), 0.0);
        assert_eq!(Histogram::new(4).fraction_above(0), 0.0);
    }

    #[test]
    fn top_k_ordering() {
        let mut h = Histogram::new(144);
        h.add(8, 30.0);
        h.add(16, 100.0);
        h.add(32, 60.0);
        h.add(1, 5.0);
        let top = h.top_k(3);
        assert_eq!(top, vec![(16, 100.0), (32, 60.0), (8, 30.0)]);
    }

    #[test]
    fn nonzero_skips_empty_bins() {
        let mut h = Histogram::new(4);
        h.add(0, 1.0);
        h.add(4, 2.0);
        let nz: Vec<_> = h.nonzero().collect();
        assert_eq!(nz, vec![(0, 1.0), (4, 2.0)]);
    }
}
