//! Static metric primitives: counters, gauges, and timing spans.
//!
//! All four types are `const`-constructible so instrumented crates
//! declare them as statics; recording is a relaxed atomic op gated on
//! the calling thread's enable switch, and reading is always allowed (a
//! disabled metric simply reads as its last recorded value).

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

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
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

    /// Zeroes the counter (collection-side use; never on a hot path).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    /// Appends this counter to a snapshot.
    pub fn observe(&self, snap: &mut MetricsSnapshot) {
        snap.append(self.name, MetricValue::Count(self.get()));
    }
}

/// A last-write-wins instantaneous value (current queue depth, the
/// latest sweep's bottleneck split). Stored as `f64` bits so gauges can
/// carry rates.
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

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
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

    /// Resets the gauge to 0.0.
    pub fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }

    /// Appends this gauge to a snapshot.
    pub fn observe(&self, snap: &mut MetricsSnapshot) {
        snap.append(self.name, MetricValue::Value(self.get()));
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

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
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

    /// Resets the mark to 0.
    pub fn reset(&self) {
        self.max.store(0, Ordering::Relaxed);
    }

    /// Appends this mark to a snapshot.
    pub fn observe(&self, snap: &mut MetricsSnapshot) {
        snap.append(self.name, MetricValue::Count(self.get()));
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

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
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

    /// Zeroes both accumulators.
    pub fn reset(&self) {
        self.total_ns.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }

    /// Appends this timer to a snapshot.
    pub fn observe(&self, snap: &mut MetricsSnapshot) {
        snap.append(
            self.name,
            MetricValue::Duration {
                total_ns: self.total_ns(),
                count: self.count(),
            },
        );
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
        crate::set_enabled(true);
        let c = Counter::new("t.reset.count");
        c.add(3);
        c.reset();
        assert_eq!(c.get(), 0);
        let t = Timer::new("t.reset.timer");
        t.record_ns(10);
        t.reset();
        assert_eq!((t.total_ns(), t.count()), (0, 0));
        crate::set_enabled(false);

        let mut snap = MetricsSnapshot::new();
        c.observe(&mut snap);
        t.observe(&mut snap);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get("t.reset.count"), Some(&MetricValue::Count(0)));
    }

    #[test]
    fn statics_are_const_constructible() {
        static C: Counter = Counter::new("t.static");
        assert_eq!(C.get(), 0);
        assert_eq!(C.name(), "t.static");
    }
}
