//! The flight recorder's interval time series.
//!
//! The static metrics are free-running cumulative counters, exactly like
//! the SP2's hardware counters — useful for totals (`sp2 profile`), but
//! a *history* needs what Bergeron's daemon did every 15 minutes: read a
//! fixed selection of registers and difference the raw values. This
//! module is that daemon turned inward. A recording is made with the
//! instrumented crates' metric tables, and the campaign engine calls
//! [`on_sweep`] at every simulated daemon sweep. The calling thread's
//! current [`crate::Recording`] then appends one fixed-width row of raw
//! readings to a bounded flat ring: counts, timer nanoseconds and span
//! counts, and gauge bits, in table order. A row carries no names and
//! costs no allocation. [`crate::Recording::series`] differences
//! consecutive rows by index and names the readings from the tables.
//!
//! Discontinuities are handled the way the daemon handles its own
//! restarts: when any count or duration moves backwards between two
//! rows (someone called a subsystem's `reset` mid-flight), the interval
//! is a pure **re-baseline** — `discontinuity` is flagged, the monotonic
//! deltas are zeroed instead of going negative, and the next interval
//! differences against the post-reset row. Instantaneous gauges pass
//! through unchanged (they never difference).
//!
//! When the ring is full the oldest row is dropped and a counter
//! incremented — bounded memory, never silent truncation. While no
//! recording is current, [`on_sweep`] is one thread-local read.

use crate::context::with_recording;
use crate::metric::Metric;
use crate::snapshot::MetricValue;

/// Default ring capacity in rows: 2^15 holds the 25,921 rows (the
/// baseline and 25,920 sweeps) of the paper's 270-day campaign.
pub const DEFAULT_CAPACITY: usize = 1 << 15;

/// Row slots ahead of the readings: the sweep index and the bits of the
/// simulated time.
const HEADER: usize = 2;

/// One recorded interval: what changed between two consecutive sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// 1-based daemon sweep index at capture (0 = the baseline pass).
    pub sweep: u64,
    /// Simulated seconds at capture.
    pub sim_t: f64,
    /// A monotonic reading moved backwards (a subsystem reset); the
    /// monotonic deltas in this sample are zeroed re-baselines.
    pub discontinuity: bool,
    /// Interval readings in table order: counts and durations are
    /// deltas over the interval, values are instantaneous.
    pub deltas: Vec<(&'static str, MetricValue)>,
}

impl IntervalSample {
    /// The interval reading of one named metric.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.deltas.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

/// A differenced view of a recording's ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Samples oldest-first, one per sweep after the oldest row held.
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
            .filter_map(|s| s.get(name).map(|v| (s.sim_t, v.as_f64())))
            .collect()
    }
}

impl Metric {
    /// Row slots of the raw reading: a timer's nanoseconds and spans, or
    /// one count or gauge's bits.
    fn width(self) -> usize {
        match self {
            Metric::Timer(_) => 2,
            _ => 1,
        }
    }

    /// Writes the raw reading into the metric's `slots` of a row.
    fn read(self, slots: &mut [u64]) {
        match self {
            Metric::Counter(c) => slots[0] = c.get(),
            Metric::Gauge(g) => slots[0] = g.get().to_bits(),
            Metric::MaxGauge(m) => slots[0] = m.get(),
            Metric::Timer(t) => {
                slots[0] = t.total_ns();
                slots[1] = t.count();
            }
        }
    }

    /// Whether a count or duration went backwards between two rows'
    /// slots of this metric.
    fn regressed(self, prev: &[u64], cur: &[u64]) -> bool {
        !matches!(self, Metric::Gauge(_)) && cur.iter().zip(prev).any(|(c, p)| c < p)
    }

    /// The interval reading between two rows' slots of this metric:
    /// counts and durations differenced (zero on a re-baseline), a
    /// gauge as read.
    fn delta(self, prev: &[u64], cur: &[u64], rebaseline: bool) -> MetricValue {
        let d = |i: usize| if rebaseline { 0 } else { cur[i] - prev[i] };
        match self {
            Metric::Counter(_) | Metric::MaxGauge(_) => MetricValue::Count(d(0)),
            Metric::Gauge(_) => MetricValue::Value(f64::from_bits(cur[0])),
            Metric::Timer(_) => MetricValue::Duration {
                total_ns: d(0),
                count: d(1),
            },
        }
    }
}

/// A recording's interval state: the sampled metrics laid out as row
/// slots, and the bounded ring of raw rows.
#[derive(Debug)]
pub(crate) struct IntervalSeries {
    /// Every sampled metric, in table order, with the row slot its
    /// reading starts at.
    layout: Vec<(Metric, usize)>,
    /// Slots per row.
    stride: usize,
    /// Rows the ring holds at most.
    capacity: usize,
    /// `capacity` rows of `stride` slots; row `n` of the recording
    /// lands in ring row `n % capacity`.
    ring: Vec<u64>,
    /// Rows appended since the recording began.
    rows: usize,
}

impl IntervalSeries {
    pub(crate) fn new(tables: &[&[Metric]], capacity: usize) -> IntervalSeries {
        let mut layout = Vec::new();
        let mut stride = HEADER;
        for &metric in tables.iter().flat_map(|table| table.iter()) {
            layout.push((metric, stride));
            stride += metric.width();
        }
        IntervalSeries {
            layout,
            stride,
            capacity,
            ring: vec![0; capacity * stride],
            rows: 0,
        }
    }

    /// The slots of the metric whose reading starts at `at`.
    fn slots(row: &[u64], metric: Metric, at: usize) -> &[u64] {
        &row[at..at + metric.width()]
    }

    /// Row `n` of the recording; the caller keeps `n` among the rows
    /// held.
    fn row(&self, n: usize) -> &[u64] {
        let r = n % self.capacity;
        &self.ring[r * self.stride..(r + 1) * self.stride]
    }

    /// Appends the row of sweep `sweep`, overwriting the oldest row when
    /// the ring is full.
    pub(crate) fn on_sweep(&mut self, sweep: u64, sim_t: f64) {
        let r = self.rows % self.capacity;
        self.rows += 1;
        let row = &mut self.ring[r * self.stride..(r + 1) * self.stride];
        row[0] = sweep;
        row[1] = sim_t.to_bits();
        for &(metric, at) in &self.layout {
            metric.read(&mut row[at..at + metric.width()]);
        }
    }

    /// Differences two rows by index.
    fn interval(&self, prev: &[u64], cur: &[u64]) -> IntervalSample {
        let discontinuity = self.layout.iter().any(|&(metric, at)| {
            metric.regressed(Self::slots(prev, metric, at), Self::slots(cur, metric, at))
        });
        let deltas = self
            .layout
            .iter()
            .map(|&(metric, at)| {
                let (p, c) = (Self::slots(prev, metric, at), Self::slots(cur, metric, at));
                (metric.name(), metric.delta(p, c, discontinuity))
            })
            .collect();
        IntervalSample {
            sweep: cur[0],
            sim_t: f64::from_bits(cur[1]),
            discontinuity,
            deltas,
        }
    }

    /// Differences every row held against the one before it. The oldest
    /// row held only baselines, exactly like the daemon's first pass
    /// over a node; the rows before it were dropped.
    pub(crate) fn to_series(&self) -> TimeSeries {
        let dropped = self.rows.saturating_sub(self.capacity);
        TimeSeries {
            samples: (dropped + 1..self.rows)
                .map(|n| self.interval(self.row(n - 1), self.row(n)))
                .collect(),
            dropped: dropped as u64,
        }
    }
}

/// Called by the campaign engine at daemon sweep `sweep` (0 for the
/// baseline pass at t=0), simulated time `sim_t`. The calling thread's
/// current recording appends the sweep's row. One thread-local read
/// while no recording is current.
pub fn on_sweep(sweep: u64, sim_t: f64) {
    with_recording(|recording| recording.on_sweep(sweep, sim_t));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Recording, Timer};

    static COUNT: Counter = Counter::new("a.count");
    static GAUGE: Gauge = Gauge::new("a.gauge");
    static TIMER: Timer = Timer::new("a.timer");
    static TABLE: [Metric; 3] = [
        Metric::Counter(&COUNT),
        Metric::Gauge(&GAUGE),
        Metric::Timer(&TIMER),
    ];

    /// A row's readings: count, gauge bits, timer ns and spans.
    fn row(count: u64, gauge: f64, ns: u64, spans: u64) -> [u64; 6] {
        [0, 0, count, gauge.to_bits(), ns, spans]
    }

    fn series() -> IntervalSeries {
        IntervalSeries::new(&[&TABLE], 4)
    }

    #[test]
    fn rows_difference_into_interval_deltas() {
        let s = series();
        let sample = s.interval(&row(10, 0.5, 1_000, 2), &row(17, 0.25, 4_500, 5));
        assert!(!sample.discontinuity);
        assert_eq!(sample.get("a.count"), Some(&MetricValue::Count(7)));
        assert_eq!(
            sample.get("a.gauge"),
            Some(&MetricValue::Value(0.25)),
            "gauges pass through"
        );
        assert_eq!(
            sample.get("a.timer"),
            Some(&MetricValue::Duration {
                total_ns: 3_500,
                count: 3
            })
        );
        let names: Vec<&str> = sample.deltas.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a.count", "a.gauge", "a.timer"], "table order");
    }

    #[test]
    fn reset_discontinuity_is_flagged_and_never_negative() {
        // A reset between two rows must re-baseline (deltas zero,
        // flagged), mirroring the daemon's restart handling — never a
        // negative or wrapped delta.
        let s = series();
        // The reset zeroed everything, then a little new work happened.
        let (before, after) = (row(1_000, 0.5, 9_000, 9), row(4, 0.75, 100, 1));
        let sample = s.interval(&before, &after);
        assert!(sample.discontinuity, "regression must flag a discontinuity");
        assert_eq!(sample.get("a.count"), Some(&MetricValue::Count(0)));
        assert_eq!(
            sample.get("a.timer"),
            Some(&MetricValue::Duration {
                total_ns: 0,
                count: 0
            })
        );
        assert_eq!(sample.get("a.gauge"), Some(&MetricValue::Value(0.75)));
        // The next interval differences against the post-reset row.
        let next = s.interval(&after, &row(10, 0.75, 100, 1));
        assert!(!next.discontinuity);
        assert_eq!(next.get("a.count"), Some(&MetricValue::Count(6)));
    }

    #[test]
    fn partial_regression_rebaselines_whole_sample() {
        // One reading reset while another kept counting: the sample is
        // still a single coherent re-baseline (no mixing of real deltas
        // with reset artifacts).
        let s = series();
        let sample = s.interval(&row(50, 0.0, 50, 5), &row(60, 0.0, 0, 0));
        assert!(sample.discontinuity);
        assert_eq!(sample.get("a.count"), Some(&MetricValue::Count(0)));
    }

    #[test]
    fn recorder_samples_every_sweep_with_ring_bound() {
        crate::set_enabled(true);
        Metric::Counter(&COUNT).reset();
        let mut ring = series();
        ring.on_sweep(0, 0.0); // baseline only
        for sweep in 1..=10 {
            COUNT.add(5);
            ring.on_sweep(sweep, sweep as f64 * 900.0);
        }
        crate::set_enabled(false);
        let series = ring.to_series();
        // Rows 0..=10 appended; a ring of 4 keeps rows 7..=10, so the
        // samples of sweeps 8, 9 and 10.
        assert_eq!(series.samples.len(), 3);
        assert_eq!(series.dropped, 7, "ring drops are counted");
        let sweeps: Vec<u64> = series.samples.iter().map(|s| s.sweep).collect();
        assert_eq!(sweeps, vec![8, 9, 10]);
        // Every interval advanced the counter once → delta 5 each.
        for s in &series.samples {
            assert_eq!(s.get("a.count"), Some(&MetricValue::Count(5)));
            assert!(!s.discontinuity);
        }
        assert_eq!(series.points("a.count").len(), 3);
        assert_eq!(series.samples[2].sim_t, 9_000.0);
    }

    #[test]
    fn disabled_recording_samples_nothing() {
        let rec = Recording::new(&[]);
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
