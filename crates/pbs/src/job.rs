//! Batch job descriptions.

/// Unique batch job identifier; also the x-axis of Figure 4
/// ("performance … as a function of batch job id").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// What a user submits.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job id (assigned by submission order).
    pub id: JobId,
    /// Number of nodes requested; nodes are dedicated.
    pub nodes: u32,
    /// Requested walltime in seconds (the limit, not the actual).
    pub requested_walltime_s: f64,
    /// Opaque payload: index of the workload program this job runs.
    /// PBS never interprets it; the cluster runtime does.
    pub payload: u64,
}

impl JobSpec {
    /// Whether this job triggers PBS drain mode on the NAS configuration
    /// (cannot be checkpointed, needs more than 64 nodes).
    pub fn needs_drain(&self, drain_threshold: u32) -> bool {
        self.nodes > drain_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_threshold_is_exclusive() {
        let mk = |nodes| JobSpec {
            id: JobId(1),
            nodes,
            requested_walltime_s: 3600.0,
            payload: 0,
        };
        assert!(!mk(64).needs_drain(64));
        assert!(mk(65).needs_drain(64));
        assert!(mk(144).needs_drain(64));
    }

    #[test]
    fn job_ids_order_by_submission() {
        assert!(JobId(5) < JobId(6));
    }
}
