//! Self-metering for the campaign engine.
//!
//! The event loop is where campaign minutes go, so it is split into the
//! phases the engine actually alternates between: advancing node
//! counters, scheduling jobs, and handling fault events. The daemon's
//! sweeps over the counters are timed where they run, by `rs2hpm.sweep`.

use sp2_trace::{Counter, Metric, MetricValue, MetricsSnapshot, Timer};

/// Whole [`crate::Campaign::run`] invocations, wall time per campaign.
pub static CAMPAIGN: Timer = Timer::new("cluster.campaign");

/// Events popped off the simulation heap.
pub static EVENTS: Counter = Counter::new("cluster.events");

/// Simulated seconds covered by completed campaigns.
pub static SIMULATED_S: Counter = Counter::new("cluster.simulated_seconds");

/// Sweeps delivered to the daemon, stepped or replayed.
pub static SWEEPS: Counter = Counter::new("cluster.sweeps");

/// Sweeps satisfied by cluster-interval fast-forward instead of
/// stepping (`sweeps_elided / sweeps` is the campaign's elision rate).
pub static SWEEPS_ELIDED: Counter = Counter::new("cluster.sweeps_elided");

/// Wall time of advancing every node's counters in each sampling pass
/// (stepped or fast-forwarded; the reference engine's copy into its
/// lane buffer included).
pub static ADVANCE: Timer = Timer::new("cluster.phase.advance");

/// Wall time of PBS scheduling passes (job starts).
pub static SCHEDULE: Timer = Timer::new("cluster.phase.schedule");

/// Wall time of fault handling (node-down/node-up events).
pub static FAULT_SWEEP: Timer = Timer::new("cluster.phase.faults");

/// Wall time of rotated-campaign passes (one span per planned pass).
pub static ROTATE: Timer = Timer::new("cluster.phase.rotate");

/// Passes executed by rotated campaigns.
pub static ROTATE_PASSES: Counter = Counter::new("cluster.rotate_passes");

/// The campaign engine's statics, each listed once: what [`collect`]
/// observes, [`reset`] zeroes and a flight recording samples.
pub static ALL: [Metric; 10] = [
    Metric::Timer(&CAMPAIGN),
    Metric::Counter(&EVENTS),
    Metric::Counter(&SIMULATED_S),
    Metric::Counter(&SWEEPS),
    Metric::Counter(&SWEEPS_ELIDED),
    Metric::Timer(&ADVANCE),
    Metric::Timer(&SCHEDULE),
    Metric::Timer(&FAULT_SWEEP),
    Metric::Timer(&ROTATE),
    Metric::Counter(&ROTATE_PASSES),
];

/// Appends the engine's table and the derived
/// simulated-seconds-per-wall-second throughput to `snap`.
pub fn collect(snap: &mut MetricsSnapshot) {
    for metric in ALL {
        metric.observe(snap);
    }
    let campaign_wall_s = snap.duration("cluster.campaign").0 as f64 / 1e9;
    let simulated_s = snap.count("cluster.simulated_seconds") as f64;
    snap.append(
        "cluster.sim_seconds_per_wall_second",
        MetricValue::Value(if campaign_wall_s > 0.0 {
            simulated_s / campaign_wall_s
        } else {
            0.0
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
    fn collect_reports_phases_and_derived_rates() {
        let mut snap = MetricsSnapshot::new();
        collect(&mut snap);
        for key in [
            "cluster.campaign",
            "cluster.events",
            "cluster.sweeps",
            "cluster.sweeps_elided",
            "cluster.phase.advance",
            "cluster.phase.schedule",
            "cluster.phase.faults",
            "cluster.phase.rotate",
            "cluster.rotate_passes",
            "cluster.sim_seconds_per_wall_second",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
    }
}
