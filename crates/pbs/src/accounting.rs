//! PBS accounting: job records, utilization, and Figure-2 aggregation.

/// How a job left the machine, as the accounting log sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Killed because a node it occupied failed. `requeued` records
    /// whether PBS put the job back at the head of the queue (a requeued
    /// attempt appears as a separate record when it next runs).
    NodeFailure {
        /// Whether the job was requeued for another attempt.
        requeued: bool,
    },
    /// Still running when the measurement campaign ended; the record is
    /// clipped at the horizon.
    Horizon,
}

impl JobOutcome {
    /// Whether this record represents a successful run.
    pub fn is_completed(self) -> bool {
        matches!(self, JobOutcome::Completed)
    }
}

/// One job attempt, as the accounting log sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Batch job id (submission order).
    pub id: u64,
    /// Nodes requested (and dedicated).
    pub nodes: u32,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// How the attempt ended.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Wall clock consumed, in seconds.
    pub fn walltime(&self) -> f64 {
        self.end - self.start
    }

    /// Node-seconds consumed (the utilization numerator contribution).
    pub fn node_seconds(&self) -> f64 {
        self.walltime() * self.nodes as f64
    }
}

/// Machine utilization over `[t0, t1]`: the fraction of node-time the
/// machine spent servicing PBS jobs (the paper's definition, Figure 1).
///
/// Jobs partially inside the window contribute their overlap.
pub fn utilization(records: &[JobRecord], total_nodes: u32, t0: f64, t1: f64) -> f64 {
    assert!(t1 > t0, "window must be nonempty");
    let denom = total_nodes as f64 * (t1 - t0);
    let busy: f64 = records
        .iter()
        .map(|r| {
            let lo = r.start.max(t0);
            let hi = r.end.min(t1);
            if hi > lo {
                (hi - lo) * r.nodes as f64
            } else {
                0.0
            }
        })
        .sum();
    busy / denom
}

/// Figure 2's histogram: total walltime (seconds) by nodes requested,
/// restricted to jobs exceeding `min_walltime_s` (600 s in the paper, to
/// filter interactive sessions and benchmarking runs).
pub fn walltime_histogram(
    records: &[JobRecord],
    max_nodes: u32,
    min_walltime_s: f64,
) -> sp2_stats::Histogram {
    let mut h = sp2_stats::Histogram::new(max_nodes as usize);
    for r in records {
        if r.walltime() > min_walltime_s {
            h.add(r.nodes as usize, r.walltime());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, nodes: u32, start: f64, end: f64) -> JobRecord {
        JobRecord {
            id,
            nodes,
            start,
            end,
            outcome: JobOutcome::Completed,
        }
    }

    #[test]
    fn walltime_and_node_seconds() {
        let r = rec(1, 16, 100.0, 700.0);
        assert_eq!(r.walltime(), 600.0);
        assert_eq!(r.node_seconds(), 9600.0);
    }

    #[test]
    fn utilization_full_machine() {
        let records = vec![rec(1, 4, 0.0, 100.0)];
        assert!((utilization(&records, 4, 0.0, 100.0) - 1.0).abs() < 1e-12);
        assert!((utilization(&records, 8, 0.0, 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_clips_to_window() {
        let records = vec![rec(1, 2, -50.0, 50.0)];
        // Overlap [0,50] on 2 of 4 nodes over a 100 s window: 25 %.
        assert!((utilization(&records, 4, 0.0, 100.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_ignores_disjoint_jobs() {
        let records = vec![rec(1, 4, 200.0, 300.0)];
        assert_eq!(utilization(&records, 4, 0.0, 100.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be nonempty")]
    fn empty_window_panics() {
        utilization(&[], 4, 5.0, 5.0);
    }

    #[test]
    fn histogram_filters_short_jobs() {
        let records = vec![
            rec(1, 16, 0.0, 601.0),  // kept: 601 s
            rec(2, 16, 0.0, 599.0),  // dropped: ≤ 600 s
            rec(3, 32, 0.0, 1000.0), // kept
        ];
        let h = walltime_histogram(&records, 144, 600.0);
        assert_eq!(h.weight(16), 601.0);
        assert_eq!(h.weight(32), 1000.0);
        assert_eq!(h.weight(8), 0.0);
    }
}
