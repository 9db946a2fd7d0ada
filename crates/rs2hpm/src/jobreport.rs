//! Per-job counter reports via the PBS prologue/epilogue path.
//!
//! "The PBS batch system runs a prologue script before each job and an
//! epilogue script after each job. These scripts know which SP2 nodes the
//! batch job is using and obtain counter values at the beginning and end
//! of each job for these nodes" (§3). A [`JobCounterReport`] is the file
//! those scripts wrote, post-processed: per-job rates for Figures 3–5.

use crate::rates::RateReport;
use sp2_hpm::{CounterDelta, CounterSelection, CounterSnapshot};

/// The epilogue-time report for one batch job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCounterReport {
    /// Batch job id.
    pub job_id: u64,
    /// Nodes the job ran on.
    pub nodes: u32,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Counter delta summed over the job's nodes.
    pub total: CounterDelta,
    /// Whole-job rates (sum over nodes) over the residency window.
    pub rates: RateReport,
}

impl JobCounterReport {
    /// Builds the report from prologue/epilogue snapshot batches:
    /// `before[i]` and `after[i]` are the same node's counters at job
    /// start and finish. Parallel slices rather than pairs so the event
    /// loop can hand over its pooled batch buffers without re-pairing.
    ///
    /// # Panics
    /// Panics on an empty node list, mismatched batch lengths, or a
    /// non-positive window.
    pub fn from_snapshots(
        selection: &CounterSelection,
        job_id: u64,
        start: f64,
        end: f64,
        before: &[CounterSnapshot],
        after: &[CounterSnapshot],
    ) -> Self {
        assert!(!before.is_empty(), "a job runs on at least one node");
        assert_eq!(
            before.len(),
            after.len(),
            "prologue and epilogue must cover the same nodes"
        );
        assert!(end > start, "job window must be positive");
        let mut total = CounterDelta::zero(selection.len());
        for (b, a) in before.iter().zip(after) {
            total.accumulate(&CounterDelta::between(b, a));
        }
        let rates = RateReport::from_delta(selection, &total, end - start);
        JobCounterReport {
            job_id,
            nodes: before.len() as u32,
            start,
            end,
            total,
            rates,
        }
    }

    /// Wall clock the job consumed.
    pub fn walltime(&self) -> f64 {
        self.end - self.start
    }

    /// Whole-job Mflops (all nodes) — Figure 4's y-axis for 16-node jobs.
    pub fn job_mflops(&self) -> f64 {
        self.rates.mflops
    }

    /// Per-node Mflops — Figure 3's y-axis.
    pub fn mflops_per_node(&self) -> f64 {
        self.rates.mflops / self.nodes as f64
    }

    /// Whether this job looks like it paged: system-mode FXU+ICU
    /// instructions exceed user-mode (the §6 diagnostic).
    pub fn paging_suspected(&self) -> bool {
        self.rates.system_user_fxu_ratio > 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, EventSet, Hpm, Mode, Signal};

    fn run_job(
        n_nodes: usize,
        user_fma_per_node: u64,
        sys_fxu_per_node: u64,
        seconds: f64,
    ) -> JobCounterReport {
        let sel = nas_selection();
        let mut before = Vec::new();
        let mut after = Vec::new();
        for _ in 0..n_nodes {
            let mut hpm = Hpm::new(sel.clone());
            before.push(hpm.snapshot());
            let mut u = EventSet::new();
            u.bump(Signal::Fpu0Fma, user_fma_per_node);
            u.bump(Signal::Fpu0Add, user_fma_per_node);
            u.bump(Signal::Fxu0Exec, 2 * user_fma_per_node);
            hpm.absorb(&u, Mode::User);
            let mut s = EventSet::new();
            s.bump(Signal::Fxu0Exec, sys_fxu_per_node);
            hpm.absorb(&s, Mode::System);
            after.push(hpm.snapshot());
        }
        JobCounterReport::from_snapshots(&sel, 7, 100.0, 100.0 + seconds, &before, &after)
    }

    #[test]
    fn rates_sum_over_nodes() {
        let r = run_job(16, 10_000_000, 0, 1.0);
        // 16 nodes x 2e7 flops / 1 s = 320 Mflops — Figure 4's average.
        assert!((r.job_mflops() - 320.0).abs() < 0.1);
        assert!((r.mflops_per_node() - 20.0).abs() < 0.01);
        assert_eq!(r.nodes, 16);
        assert_eq!(r.walltime(), 1.0);
    }

    #[test]
    fn paging_diagnostic() {
        let healthy = run_job(4, 1_000_000, 100, 1.0);
        assert!(!healthy.paging_suspected());
        let pager = run_job(4, 1_000_000, 10_000_000, 1.0);
        assert!(pager.paging_suspected());
        assert!(pager.rates.system_user_fxu_ratio > 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_job_rejected() {
        JobCounterReport::from_snapshots(&nas_selection(), 1, 0.0, 1.0, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn mismatched_batches_rejected() {
        let sel = nas_selection();
        let hpm = Hpm::new(sel.clone());
        let s = hpm.snapshot();
        JobCounterReport::from_snapshots(&sel, 1, 0.0, 1.0, &[s.clone(), s.clone()], &[s]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn inverted_window_rejected() {
        let sel = nas_selection();
        let hpm = Hpm::new(sel.clone());
        JobCounterReport::from_snapshots(&sel, 1, 10.0, 10.0, &[hpm.snapshot()], &[hpm.snapshot()]);
    }
}
