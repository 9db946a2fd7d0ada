//! Self-metering for the batch system.
//!
//! PBS is pure bookkeeping — cheap next to the node simulator — so the
//! interesting readings are shape, not time: how deep the queue got
//! (draining for >64-node jobs shows up here), how many jobs flowed
//! through, and how often node failures forced requeues.

use sp2_trace::{Counter, Gauge, MaxGauge, Metric, MetricsSnapshot};

/// Jobs accepted into the queue.
pub static SUBMITTED: Counter = Counter::new("pbs.jobs_submitted");

/// Jobs handed nodes and started.
pub static STARTED: Counter = Counter::new("pbs.jobs_started");

/// Killed jobs put back at the head of the queue after a node failure.
pub static REQUEUED: Counter = Counter::new("pbs.jobs_requeued");

/// Deepest the queue ever got (including the job being pushed).
pub static QUEUE_DEPTH_MAX: MaxGauge = MaxGauge::new("pbs.queue_depth_max");

/// Current queue depth — the flight recorder samples this on the daemon
/// cadence to plot the queue's history (Figure 1's demand axis).
pub static QUEUE_DEPTH: Gauge = Gauge::new("pbs.queue_depth");

/// The batch system's statics, each listed once: what [`collect`]
/// observes, [`reset`] zeroes and a flight recording samples.
pub static ALL: [Metric; 5] = [
    Metric::Counter(&SUBMITTED),
    Metric::Counter(&STARTED),
    Metric::Counter(&REQUEUED),
    Metric::MaxGauge(&QUEUE_DEPTH_MAX),
    Metric::Gauge(&QUEUE_DEPTH),
];

/// Appends the batch system's table to `snap`.
pub fn collect(snap: &mut MetricsSnapshot) {
    for metric in ALL {
        metric.observe(snap);
    }
}

/// Zeroes every reading.
pub fn reset() {
    for metric in ALL {
        metric.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_reports_queue_shape() {
        let mut snap = MetricsSnapshot::new();
        collect(&mut snap);
        for key in [
            "pbs.jobs_submitted",
            "pbs.jobs_started",
            "pbs.jobs_requeued",
            "pbs.queue_depth_max",
            "pbs.queue_depth",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
    }
}
