//! Sample-coverage accounting for gap-tolerant aggregation.
//!
//! The real 9-month trace had holes — node outages, missed cron sweeps,
//! discarded anomalies — yet the paper still produced every table by
//! aggregating over whatever was sampled. This module gives the analysis
//! layer an explicit coverage ledger so those holes are *measured*
//! (and reported) instead of silently averaged over.

/// A tally of how much of a population was actually observed.
///
/// Units are caller-defined (node-samples, node-seconds, …); only the
/// ratio matters. `fraction()` is exactly `1.0` when nothing was missed,
/// so scaling by it is bit-neutral for complete data.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coverage {
    /// Observed quantity.
    pub covered: f64,
    /// Quantity that would have been observed with no gaps.
    pub total: f64,
}

impl Coverage {
    /// An empty ledger.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// A ledger from one observation.
    pub fn of(covered: f64, total: f64) -> Self {
        Coverage { covered, total }
    }

    /// Adds one observation window.
    pub fn push(&mut self, covered: f64, total: f64) {
        self.covered += covered;
        self.total += total;
    }

    /// Folds another ledger in.
    pub fn merge(&mut self, other: &Coverage) {
        self.covered += other.covered;
        self.total += other.total;
    }

    /// Observed fraction in `[0, 1]`; `0.0` for an empty ledger.
    ///
    /// Computes `covered / total` directly, so a gap-free ledger yields
    /// exactly `1.0` (x/x == 1.0 for finite nonzero x).
    pub fn fraction(&self) -> f64 {
        if self.total <= 0.0 {
            0.0
        } else {
            (self.covered / self.total).clamp(0.0, 1.0)
        }
    }

    /// Whether nothing was missed.
    pub fn is_complete(&self) -> bool {
        self.total > 0.0 && self.covered >= self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coverage_is_exactly_one() {
        let mut c = Coverage::new();
        c.push(144.0, 144.0);
        c.push(96.0, 96.0);
        assert_eq!(c.fraction().to_bits(), 1.0f64.to_bits());
        assert!(c.is_complete());
    }

    #[test]
    fn partial_coverage_accumulates() {
        let mut c = Coverage::of(100.0, 144.0);
        c.push(44.0, 144.0);
        assert!((c.fraction() - 0.5).abs() < 1e-12);
        assert!(!c.is_complete());
    }

    #[test]
    fn empty_and_dark_ledgers() {
        assert_eq!(Coverage::new().fraction(), 0.0);
        assert!(!Coverage::new().is_complete());
        assert_eq!(Coverage::of(0.0, 144.0).fraction(), 0.0);
    }

    #[test]
    fn merge_matches_pushes() {
        let mut a = Coverage::of(10.0, 20.0);
        let b = Coverage::of(5.0, 20.0);
        a.merge(&b);
        assert_eq!(a, Coverage::of(15.0, 40.0));
    }
}
