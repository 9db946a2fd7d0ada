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
    /// start and finish.
    ///
    /// # Panics
    /// Panics on an empty node list, mismatched batch lengths, a
    /// non-positive window, or snapshots of another selection.
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
        let mut total = CounterDelta::zero(selection.len());
        for (b, a) in before.iter().zip(after) {
            add_delta(&mut total.user, &b.user, &a.user);
            add_delta(&mut total.system, &b.system, &a.system);
        }
        Self::from_total(selection, job_id, start, end, before.len(), total)
    }

    /// Builds the report from counter lanes (layout on
    /// [`CounterSelection::lanes_per_node`]). `prologue` holds the job's
    /// nodes' lanes at job start, one node after another; `epilogue`
    /// yields the same nodes' lanes at job finish, in the same order.
    /// Each node's delta is formed and summed straight from the lanes,
    /// exactly as [`Self::from_snapshots`] sums the same readings.
    ///
    /// # Panics
    /// Panics on an empty prologue, an epilogue covering a different
    /// number of nodes, a non-positive window, or lanes of another
    /// selection.
    pub fn from_lanes<'a>(
        selection: &CounterSelection,
        job_id: u64,
        start: f64,
        end: f64,
        prologue: &[u64],
        epilogue: impl IntoIterator<Item = &'a [u64]>,
    ) -> Self {
        let per_node = selection.lanes_per_node();
        assert!(!prologue.is_empty(), "a job runs on at least one node");
        assert_eq!(
            prologue.len() % per_node,
            0,
            "prologue lanes from a different counter selection"
        );
        let nodes = prologue.len() / per_node;
        let mut total = CounterDelta::zero(selection.len());
        let mut epilogue = epilogue.into_iter();
        let mut covered = 0;
        for (before, after) in prologue.chunks_exact(per_node).zip(&mut epilogue) {
            let (before_user, before_system) = selection.split_lanes(before);
            let (after_user, after_system) = selection.split_lanes(after);
            add_delta(&mut total.user, before_user, after_user);
            add_delta(&mut total.system, before_system, after_system);
            covered += 1;
        }
        assert!(
            covered == nodes && epilogue.next().is_none(),
            "prologue and epilogue must cover the same nodes"
        );
        Self::from_total(selection, job_id, start, end, nodes, total)
    }

    fn from_total(
        selection: &CounterSelection,
        job_id: u64,
        start: f64,
        end: f64,
        nodes: usize,
        total: CounterDelta,
    ) -> Self {
        assert!(end > start, "job window must be positive");
        let rates = RateReport::from_delta(selection, &total, end - start);
        JobCounterReport {
            job_id,
            nodes: nodes as u32,
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

/// Adds `after − before` onto `total`, slot by slot: the counters'
/// wrapping difference, summed with `+=` so overflow checks still apply.
///
/// # Panics
/// Panics unless all three slices have the same length.
fn add_delta(total: &mut [u64], before: &[u64], after: &[u64]) {
    assert!(
        before.len() == total.len() && after.len() == total.len(),
        "readings from different counter selections"
    );
    for ((sum, &b), &a) in total.iter_mut().zip(before).zip(after) {
        *sum += a.wrapping_sub(b);
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
    fn lanes_and_snapshots_give_the_same_report() {
        let sel = nas_selection();
        let mut before = Vec::new();
        let mut after = Vec::new();
        let mut prologue = Vec::new();
        let mut epilogue = Vec::new();
        for n in 0..3u64 {
            let mut hpm = Hpm::new(sel.clone());
            let mut e = EventSet::new();
            e.bump(Signal::Fpu0Fma, u64::MAX - n); // wraps across the job
            hpm.absorb(&e, Mode::User);
            before.push(hpm.snapshot());
            let mut lanes = vec![0; sel.lanes_per_node()];
            hpm.read_lanes(&mut lanes);
            prologue.extend_from_slice(&lanes);
            let mut e = EventSet::new();
            e.bump(Signal::Fpu0Fma, 1_000 + n);
            e.bump(Signal::Fxu1Exec, 17 * n);
            hpm.absorb(&e, Mode::User);
            hpm.absorb(&e, Mode::System);
            after.push(hpm.snapshot());
            hpm.read_lanes(&mut lanes);
            epilogue.push(lanes);
        }
        let from_lanes = JobCounterReport::from_lanes(
            &sel,
            9,
            0.0,
            60.0,
            &prologue,
            epilogue.iter().map(Vec::as_slice),
        );
        let from_snaps = JobCounterReport::from_snapshots(&sel, 9, 0.0, 60.0, &before, &after);
        assert_eq!(from_lanes, from_snaps);
        let slot = sel.slot_of(Signal::Fpu0Fma).unwrap();
        assert_eq!(from_lanes.total.user[slot], 3_003);
        assert_eq!(from_lanes.nodes, 3);
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn lanes_with_an_extra_epilogue_node_rejected() {
        let sel = nas_selection();
        let lanes = vec![0; sel.lanes_per_node()];
        JobCounterReport::from_lanes(&sel, 1, 0.0, 1.0, &lanes, [&lanes[..], &lanes[..]]);
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn lanes_with_a_missing_epilogue_node_rejected() {
        let sel = nas_selection();
        let lanes = vec![0; 2 * sel.lanes_per_node()];
        JobCounterReport::from_lanes(&sel, 1, 0.0, 1.0, &lanes, [sel.node_lanes(&lanes, 0)]);
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
