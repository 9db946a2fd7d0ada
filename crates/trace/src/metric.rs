//! Static metric primitives: counters, gauges, and timing spans.
//!
//! All four types are `const`-constructible so instrumented crates
//! declare them as statics and list each once in a table of [`Metric`]s;
//! recording is a relaxed atomic op gated on the calling thread's enable
//! switch, and reading is always allowed (a disabled metric simply reads
//! as its last recorded value).

use crate::snapshot::{MetricValue, MetricsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing event count (cache hits, jobs requeued,
/// simulated cycles).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Declares a counter; use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events (no-op while tracing is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The accumulated count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (the current queue depth).
/// Stored as `f64` bits so gauges can carry rates.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    /// Declares a gauge reading 0.0; use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            // f64 0.0 has an all-zero bit pattern.
            bits: AtomicU64::new(0),
        }
    }

    /// Records the current value (no-op while tracing is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The last recorded value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A high-water mark over `u64` observations (peak queue depth).
#[derive(Debug)]
pub struct MaxGauge {
    name: &'static str,
    max: AtomicU64,
}

impl MaxGauge {
    /// Declares a high-water mark at 0; use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        MaxGauge {
            name,
            max: AtomicU64::new(0),
        }
    }

    /// Raises the mark to `v` if higher (no-op while tracing is
    /// disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The high-water mark so far.
    pub fn get(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// Accumulated wall time plus invocation count for one code region.
///
/// [`Timer::span`] returns a guard that records elapsed nanoseconds on
/// drop; when tracing is disabled the guard carries no start time and
/// drop does nothing, so a span costs one branch.
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    total_ns: AtomicU64,
    count: AtomicU64,
}

impl Timer {
    /// Declares a timer; use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Timer {
            name,
            total_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Opens a scoped span; elapsed time is recorded when the guard
    /// drops. Armed only while tracing is enabled.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            timer: self,
            start: crate::enabled().then(Instant::now),
        }
    }

    /// Records `ns` nanoseconds directly (for callers that measured
    /// elapsed time themselves, e.g. inside a parallel loop).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if crate::enabled() {
            self.total_ns.fetch_add(ns, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Scoped timing guard; see [`Timer::span`].
#[must_use = "a span measures the scope it is bound to; drop it where the region ends"]
#[derive(Debug)]
pub struct Span<'a> {
    timer: &'a Timer,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            // u64 nanoseconds cover ~584 years of span time.
            let ns = start.elapsed().as_nanos() as u64;
            self.timer.total_ns.fetch_add(ns, Ordering::Relaxed);
            self.timer.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One static metric, as the crate that declares it lists it in its
/// table (`pub static ALL: [Metric; N]`). A table is the fixed selection
/// of registers the RS2HPM daemon read: [`Metric::observe`] names its
/// readings for a snapshot, and a [`crate::Recording`] samples it as a
/// row of raw numbers every daemon sweep.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    MaxGauge(&'static MaxGauge),
    Timer(&'static Timer),
}

impl Metric {
    /// The metric name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Gauge(g) => g.name,
            Metric::MaxGauge(m) => m.name,
            Metric::Timer(t) => t.name,
        }
    }

    /// Appends the current reading to a snapshot: counters and
    /// high-water marks as counts, gauges as values, timers as
    /// durations.
    pub fn observe(self, snap: &mut MetricsSnapshot) {
        let value = match self {
            Metric::Counter(c) => MetricValue::Count(c.get()),
            Metric::Gauge(g) => MetricValue::Value(g.get()),
            Metric::MaxGauge(m) => MetricValue::Count(m.get()),
            Metric::Timer(t) => MetricValue::Duration {
                total_ns: t.total_ns(),
                count: t.count(),
            },
        };
        snap.append(self.name(), value);
    }

    /// Zeroes the metric (collection-side use; never on a hot path). A
    /// gauge's all-zero bits read 0.0.
    pub fn reset(self) {
        match self {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.bits.store(0, Ordering::Relaxed),
            Metric::MaxGauge(m) => m.max.store(0, Ordering::Relaxed),
            Metric::Timer(t) => {
                t.total_ns.store(0, Ordering::Relaxed);
                t.count.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_timer_record_when_enabled() {
        crate::set_enabled(true);
        let c = Counter::new("t.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new("t.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);

        let m = MaxGauge::new("t.max");
        m.record(3);
        m.record(7);
        m.record(5);
        assert_eq!(m.get(), 7);

        let t = Timer::new("t.timer");
        {
            let _s = t.span();
            std::hint::black_box(1 + 1);
        }
        t.record_ns(1_000);
        assert_eq!(t.count(), 2);
        assert!(t.total_ns() >= 1_000);

        crate::set_enabled(false);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        crate::set_enabled(false);
        let c = Counter::new("t.off.count");
        c.add(9);
        let g = Gauge::new("t.off.gauge");
        g.set(1.0);
        let m = MaxGauge::new("t.off.max");
        m.record(8);
        let t = Timer::new("t.off.timer");
        {
            let _s = t.span();
        }
        t.record_ns(50);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(m.get(), 0);
        assert_eq!((t.total_ns(), t.count()), (0, 0));
    }

    #[test]
    fn reset_zeroes_and_observe_appends() {
        static C: Counter = Counter::new("t.reset.count");
        static G: Gauge = Gauge::new("t.reset.gauge");
        static M: MaxGauge = MaxGauge::new("t.reset.max");
        static T: Timer = Timer::new("t.reset.timer");
        let table = [
            Metric::Counter(&C),
            Metric::Gauge(&G),
            Metric::MaxGauge(&M),
            Metric::Timer(&T),
        ];
        crate::set_enabled(true);
        C.add(3);
        G.set(1.5);
        M.record(4);
        T.record_ns(10);
        crate::set_enabled(false);

        let mut snap = MetricsSnapshot::new();
        for metric in table {
            metric.observe(&mut snap);
        }
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(
            names,
            [
                "t.reset.count",
                "t.reset.gauge",
                "t.reset.max",
                "t.reset.timer"
            ]
        );
        assert_eq!(snap.get("t.reset.count"), Some(&MetricValue::Count(3)));
        assert_eq!(snap.get("t.reset.gauge"), Some(&MetricValue::Value(1.5)));
        assert_eq!(snap.get("t.reset.max"), Some(&MetricValue::Count(4)));
        assert_eq!(
            snap.get("t.reset.timer"),
            Some(&MetricValue::Duration {
                total_ns: 10,
                count: 1
            })
        );

        for metric in table {
            metric.reset();
        }
        assert_eq!((C.get(), G.get(), M.get()), (0, 0.0, 0));
        assert_eq!((T.total_ns(), T.count()), (0, 0));
    }

    #[test]
    fn statics_are_const_constructible() {
        static C: Counter = Counter::new("t.static");
        assert_eq!(C.get(), 0);
        assert_eq!(Metric::Counter(&C).name(), "t.static");
    }
}
