//! Self-metering for the RS2HPM tool chain — the daemon measuring the
//! daemon.
//!
//! The real collection scripts were themselves a measurable workload
//! (§3 of the paper); here every 15-minute sweep times itself and
//! tallies how many node deltas contributed, re-baselined, or were
//! discarded as implausible.

use sp2_trace::{Counter, Metric, MetricValue, MetricsSnapshot, Timer};

/// Wall time of [`crate::Daemon::sweep`] passes (one span per stepped
/// sweep; fast-forwarded sweeps are replayed, not swept).
pub static SWEEP: Timer = Timer::new("rs2hpm.sweep");

/// Per-node deltas folded into machine-wide samples.
pub static NODES_SAMPLED: Counter = Counter::new("rs2hpm.nodes_sampled");

/// Per-node deltas discarded as implausible (counter glitches).
pub static ANOMALIES: Counter = Counter::new("rs2hpm.anomalies");

/// Nodes that only (re-)established a baseline this pass — first sight,
/// return from an outage, or recovery after a discarded delta.
pub static BASELINES: Counter = Counter::new("rs2hpm.baselines");

/// The tool chain's statics, each listed once: what [`collect`]
/// observes, [`reset`] zeroes and a flight recording samples.
pub static ALL: [Metric; 4] = [
    Metric::Timer(&SWEEP),
    Metric::Counter(&NODES_SAMPLED),
    Metric::Counter(&ANOMALIES),
    Metric::Counter(&BASELINES),
];

/// Appends the tool chain's table and the derived mean sweep duration
/// to `snap`.
pub fn collect(snap: &mut MetricsSnapshot) {
    for metric in ALL {
        metric.observe(snap);
    }
    let (sweep_ns, sweeps) = snap.duration("rs2hpm.sweep");
    snap.append(
        "rs2hpm.sweep_mean_us",
        MetricValue::Value(if sweeps == 0 {
            0.0
        } else {
            sweep_ns as f64 / sweeps as f64 / 1e3
        }),
    );
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
    fn collect_reports_sweep_and_tallies() {
        let mut snap = MetricsSnapshot::new();
        collect(&mut snap);
        for key in [
            "rs2hpm.sweep",
            "rs2hpm.sweep_mean_us",
            "rs2hpm.nodes_sampled",
            "rs2hpm.anomalies",
            "rs2hpm.baselines",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
    }
}
