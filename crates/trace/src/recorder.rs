//! The flight recorder's interval time series.
//!
//! The static metrics are free-running cumulative counters, exactly like
//! the SP2's hardware counters — useful for totals (`sp2 profile`), but
//! a *history* needs what Bergeron's daemon did every 15 minutes:
//! sample on a cadence and difference consecutive snapshots. This module
//! is that daemon turned inward. The campaign engine calls [`on_sweep`]
//! at every simulated daemon sweep; every `cadence` sweeps the calling
//! thread's current [`crate::Recording`] collects a [`MetricsSnapshot`]
//! (through the collector callback it was made with, so this crate stays
//! dependency-free), differences it against the previous one, and pushes
//! an [`IntervalSample`] into a bounded ring buffer.
//!
//! Discontinuities are handled the way the daemon handles its own
//! restarts: when any monotonic reading moves backwards (someone called
//! a subsystem's `reset`/`reset_all` mid-flight), the interval is
//! recorded as a pure **re-baseline** — `discontinuity` is flagged, the
//! monotonic deltas are zeroed instead of going negative, and the next
//! interval differences against the post-reset snapshot. Instantaneous
//! gauges pass through unchanged (they never difference).
//!
//! When the ring is full the oldest sample is dropped and a counter
//! incremented — bounded memory, never silent truncation. While no
//! recording is current, [`on_sweep`] is one thread-local read.

use crate::context::with_recording;
use crate::snapshot::{MetricValue, MetricsSnapshot};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Default ring capacity in samples: a 85-day campaign at the default
/// one-sample-per-sweep cadence before the ring starts recycling.
pub const DEFAULT_CAPACITY: usize = 8_192;

/// Snapshot provider a recording calls on every sampled sweep. A plain
/// fn pointer keeps `sp2-trace` dependency-free; `sp2-core` supplies its
/// aggregate `metrics::snapshot`.
pub type Collector = fn() -> MetricsSnapshot;

/// One recorded interval: what changed between two sampled sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// 1-based daemon sweep index at capture (0 = the baseline pass).
    pub sweep: u64,
    /// Simulated seconds at capture.
    pub sim_t: f64,
    /// A monotonic reading moved backwards (a subsystem reset); the
    /// monotonic deltas in this sample are zeroed re-baselines.
    pub discontinuity: bool,
    /// Interval readings in snapshot order: counts and durations are
    /// deltas over the interval, values are instantaneous.
    pub deltas: Vec<(Cow<'static, str>, MetricValue)>,
}

/// A cloned-out view of a recording's ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Sweeps between samples (1 = every daemon sweep).
    pub cadence: u64,
    /// Samples oldest-first.
    pub samples: Vec<IntervalSample>,
    /// Samples lost to the drop-oldest policy.
    pub dropped: u64,
}

impl TimeSeries {
    /// The per-sample values of one named metric as `(sim_t, value)`
    /// points, durations read as milliseconds.
    pub fn points(&self, name: &str) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .filter_map(|s| {
                s.deltas
                    .iter()
                    .find(|(n, _)| n.as_ref() == name)
                    .map(|(_, v)| (s.sim_t, v.as_f64()))
            })
            .collect()
    }
}

/// Differences two snapshots into interval readings. Returns the deltas
/// and whether a monotonic reading regressed (`reset_all` ran between
/// the snapshots). On a regression the sample is a pure re-baseline:
/// every monotonic delta is zero — mirroring how the RS2HPM daemon
/// discards the delta and re-baselines after its own restart — and no
/// delta is ever negative.
fn diff_snapshots(
    prev: &MetricsSnapshot,
    cur: &MetricsSnapshot,
) -> (Vec<(Cow<'static, str>, MetricValue)>, bool) {
    let prev_entries = prev.entries();
    let cur_entries = cur.entries();
    // The collector walks the subsystems in a fixed order, so between
    // two sweeps the name sequences are almost always identical —
    // difference by index then, instead of an O(n²) lookup per name.
    // The slow path only runs when a metric appeared or disappeared.
    let aligned = prev_entries.len() == cur_entries.len()
        && prev_entries
            .iter()
            .zip(cur_entries)
            .all(|((a, _), (b, _))| a == b);
    let prev_of = |i: usize, name: &str| -> Option<&MetricValue> {
        if aligned {
            Some(&prev_entries[i].1)
        } else {
            prev.get(name)
        }
    };
    let regressed = cur_entries
        .iter()
        .enumerate()
        .any(|(i, (name, v))| match *v {
            MetricValue::Count(c) => {
                matches!(prev_of(i, name), Some(&MetricValue::Count(p)) if c < p)
            }
            MetricValue::Duration { total_ns, count } => matches!(
                prev_of(i, name),
                Some(&MetricValue::Duration { total_ns: p_ns, count: p_n })
                    if total_ns < p_ns || count < p_n
            ),
            MetricValue::Value(_) => false,
        });
    let deltas = cur_entries
        .iter()
        .enumerate()
        .map(|(i, (name, v))| {
            let delta = match *v {
                MetricValue::Count(c) => {
                    let p = match (regressed, prev_of(i, name)) {
                        (false, Some(&MetricValue::Count(p))) => p,
                        (false, _) => 0,
                        (true, _) => c, // re-baseline: contribute nothing
                    };
                    MetricValue::Count(c - p)
                }
                MetricValue::Duration { total_ns, count } => {
                    let (p_ns, p_n) = match (regressed, prev_of(i, name)) {
                        (
                            false,
                            Some(&MetricValue::Duration {
                                total_ns: p_ns,
                                count: p_n,
                            }),
                        ) => (p_ns, p_n),
                        (false, _) => (0, 0),
                        (true, _) => (total_ns, count),
                    };
                    MetricValue::Duration {
                        total_ns: total_ns - p_ns,
                        count: count - p_n,
                    }
                }
                MetricValue::Value(x) => MetricValue::Value(x),
            };
            (name.clone(), delta)
        })
        .collect();
    (deltas, regressed)
}

/// A recording's interval state: the cadence and collector it was made
/// with, the last sampled snapshot, and the bounded ring.
#[derive(Debug)]
pub(crate) struct IntervalSeries {
    cadence: u64,
    capacity: usize,
    collector: Collector,
    baseline: Option<MetricsSnapshot>,
    samples: VecDeque<IntervalSample>,
    dropped: u64,
}

impl IntervalSeries {
    pub(crate) fn new(cadence: u64, collector: Collector, capacity: usize) -> IntervalSeries {
        IntervalSeries {
            cadence: cadence.max(1),
            capacity: capacity.max(1),
            collector,
            baseline: None,
            samples: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Samples and records the interval when `sweep` lands on the
    /// cadence.
    pub(crate) fn on_sweep(&mut self, sweep: u64, sim_t: f64) {
        if !sweep.is_multiple_of(self.cadence) {
            return;
        }
        let cur = (self.collector)();
        if let Some(prev) = &self.baseline {
            let (deltas, discontinuity) = diff_snapshots(prev, &cur);
            if self.samples.len() >= self.capacity {
                self.samples.pop_front();
                self.dropped += 1;
            }
            self.samples.push_back(IntervalSample {
                sweep,
                sim_t,
                discontinuity,
                deltas,
            });
        }
        // Sweep 0 (or the first sampled sweep) only baselines, exactly like
        // the daemon's first pass over a node.
        self.baseline = Some(cur);
    }

    pub(crate) fn to_series(&self) -> TimeSeries {
        TimeSeries {
            cadence: self.cadence,
            samples: self.samples.iter().cloned().collect(),
            dropped: self.dropped,
        }
    }
}

/// Called by the campaign engine at daemon sweep `sweep` (0 for the
/// baseline pass at t=0), simulated time `sim_t`. The calling thread's
/// current recording samples the metrics and records the interval when
/// the sweep lands on its cadence. One thread-local read while no
/// recording is current.
pub fn on_sweep(sweep: u64, sim_t: f64) {
    with_recording(|recording| recording.on_sweep(sweep, sim_t));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recording;

    fn snap(entries: &[(&'static str, MetricValue)]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        for (n, v) in entries {
            s.append(*n, v.clone());
        }
        s
    }

    #[test]
    fn diff_produces_interval_deltas() {
        let prev = snap(&[
            ("a.count", MetricValue::Count(10)),
            ("a.gauge", MetricValue::Value(0.5)),
            (
                "a.timer",
                MetricValue::Duration {
                    total_ns: 1_000,
                    count: 2,
                },
            ),
        ]);
        let cur = snap(&[
            ("a.count", MetricValue::Count(17)),
            ("a.gauge", MetricValue::Value(0.25)),
            (
                "a.timer",
                MetricValue::Duration {
                    total_ns: 4_500,
                    count: 5,
                },
            ),
            ("a.new", MetricValue::Count(3)),
        ]);
        let (deltas, disc) = diff_snapshots(&prev, &cur);
        assert!(!disc);
        let get = |name: &str| deltas.iter().find(|(n, _)| n == name).unwrap().1.clone();
        assert_eq!(get("a.count"), MetricValue::Count(7));
        assert_eq!(
            get("a.gauge"),
            MetricValue::Value(0.25),
            "gauges pass through"
        );
        assert_eq!(
            get("a.timer"),
            MetricValue::Duration {
                total_ns: 3_500,
                count: 3
            }
        );
        assert_eq!(
            get("a.new"),
            MetricValue::Count(3),
            "new metrics baseline at 0"
        );
    }

    #[test]
    fn reset_discontinuity_is_flagged_and_never_negative() {
        // The satellite contract: a reset_all between snapshots must
        // re-baseline (deltas zero, flagged), mirroring the daemon's
        // restart handling — never a negative or wrapped delta.
        let prev = snap(&[
            ("a.count", MetricValue::Count(1_000)),
            (
                "a.timer",
                MetricValue::Duration {
                    total_ns: 9_000,
                    count: 9,
                },
            ),
        ]);
        // reset_all zeroed everything, then a little new work happened.
        let cur = snap(&[
            ("a.count", MetricValue::Count(4)),
            (
                "a.timer",
                MetricValue::Duration {
                    total_ns: 100,
                    count: 1,
                },
            ),
        ]);
        let (deltas, disc) = diff_snapshots(&prev, &cur);
        assert!(disc, "regression must flag a discontinuity");
        for (name, v) in &deltas {
            match *v {
                MetricValue::Count(c) => assert_eq!(c, 0, "{name} must re-baseline"),
                MetricValue::Duration { total_ns, count } => {
                    assert_eq!((total_ns, count), (0, 0), "{name} must re-baseline");
                }
                MetricValue::Value(_) => {}
            }
        }
        // The next interval differences against the post-reset snapshot.
        let next = snap(&[("a.count", MetricValue::Count(10))]);
        let (deltas, disc) = diff_snapshots(&cur, &next);
        assert!(!disc);
        assert_eq!(deltas[0].1, MetricValue::Count(6));
    }

    #[test]
    fn partial_regression_rebaselines_whole_sample() {
        // One subsystem reset while another kept counting: the sample
        // is still a single coherent re-baseline (no mixing of real
        // deltas with reset artifacts).
        let prev = snap(&[("x", MetricValue::Count(50)), ("y", MetricValue::Count(50))]);
        let cur = snap(&[("x", MetricValue::Count(60)), ("y", MetricValue::Count(0))]);
        let (deltas, disc) = diff_snapshots(&prev, &cur);
        assert!(disc);
        assert!(deltas.iter().all(|(_, v)| v.as_count() == Some(0)));
    }

    #[test]
    fn recorder_samples_on_cadence_with_ring_bound() {
        static TICKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        fn counting_collector() -> MetricsSnapshot {
            let t = TICKS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            snap_helper(t * 5)
        }
        fn snap_helper(v: u64) -> MetricsSnapshot {
            let mut s = MetricsSnapshot::new();
            s.append("tick.count", MetricValue::Count(v));
            s
        }
        let mut ring = IntervalSeries::new(2, counting_collector, 3);
        ring.on_sweep(0, 0.0); // baseline only
        for sweep in 1..=10 {
            ring.on_sweep(sweep, sweep as f64 * 900.0);
        }
        let series = ring.to_series();
        assert_eq!(series.cadence, 2);
        // Sweeps 2,4,6,8,10 sampled; ring of 3 keeps 6,8,10.
        assert_eq!(series.samples.len(), 3);
        assert_eq!(series.dropped, 2, "ring drops are counted");
        let sweeps: Vec<u64> = series.samples.iter().map(|s| s.sweep).collect();
        assert_eq!(sweeps, vec![6, 8, 10]);
        // Every interval advanced the collector once → delta 5 each.
        for s in &series.samples {
            assert_eq!(s.deltas[0].1, MetricValue::Count(5));
            assert!(!s.discontinuity);
        }
        assert_eq!(series.points("tick.count").len(), 3);
    }

    #[test]
    fn disabled_recording_samples_nothing() {
        let rec = Recording::new(1, MetricsSnapshot::new);
        rec.run(|| {
            on_sweep(0, 0.0);
            on_sweep(1, 900.0);
        });
        assert_eq!(rec.series().samples.len(), 1);
        on_sweep(2, 1800.0);
        on_sweep(3, 2700.0);
        assert_eq!(
            rec.series().samples.len(),
            1,
            "a recording no longer current samples nothing"
        );
    }
}
