//! Self-metering for the node simulator.
//!
//! The cycle simulator is the deepest hot path in the stack — every
//! kernel signature measurement runs it — so instrumentation sits at
//! kernel-run granularity (one counter bump per `run_kernel`), never
//! inside the dispatch loop. The signature-cache statistics piggyback on
//! the cache's own always-on atomics and are merely bridged into the
//! snapshot here.

use crate::sigcache::SignatureCache;
use crate::steady::FastForwardReport;
use sp2_trace::{Counter, MaxGauge, MetricValue, MetricsSnapshot, Timer};

/// Kernels cycle-simulated by [`crate::node::Node::run_kernel`].
pub static KERNEL_RUNS: Counter = Counter::new("power2.kernel_runs");

/// Kernel runs where the steady-state detector found a period and
/// fast-forwarded ([`crate::steady`]).
pub static FF_DETECTED: Counter = Counter::new("power2.fastforward.detected_runs");

/// Kernel runs where the detector engaged but gave up (aperiodic state),
/// falling back to full cycle-by-cycle simulation.
pub static FF_FALLBACK: Counter = Counter::new("power2.fastforward.fallback_runs");

/// Loop iterations actually stepped through the dispatch loop.
pub static FF_ITERS_SIMULATED: Counter = Counter::new("power2.fastforward.iters_simulated");

/// Loop iterations accounted for algebraically instead of stepped.
pub static FF_ITERS_EXTRAPOLATED: Counter = Counter::new("power2.fastforward.iters_extrapolated");

/// Total iterations the detector ran before confirming a period, summed
/// over detected runs (divide by `detected_runs` for the mean latency).
pub static FF_DETECT_LATENCY: Counter = Counter::new("power2.fastforward.detect_latency_iters");

/// Simulated POWER2 cycles across all kernel runs (the numerator of
/// simulated-cycle throughput; divide by [`MEASURE`] busy time).
pub static SIMULATED_CYCLES: Counter = Counter::new("power2.simulated_cycles");

/// Busy time spent cycle-simulating kernels for signature measurements
/// (the signature cache's miss path), summed over every measuring
/// thread. A batch measured on several cores adds more busy time than
/// the wall time it takes; [`MEASURE_BATCH`] has the wall time.
pub static MEASURE: Timer = Timer::new("power2.signature_measure");

/// Wall time of each [`SignatureCache::measure_all`] batch, hits and
/// misses together.
pub static MEASURE_BATCH: Timer = Timer::new("power2.measure_batch");

/// The most threads any [`SignatureCache::measure_all`] batch measured
/// its misses on.
pub static MEASURE_THREADS: MaxGauge = MaxGauge::new("power2.measure_threads");

/// Folds one kernel run's fast-forward outcome into the counters.
/// Called once per `run_kernel`, never inside the dispatch loop.
pub(crate) fn record_fast_forward(r: &FastForwardReport) {
    FF_ITERS_SIMULATED.add(r.simulated_iters);
    if !r.engaged {
        return;
    }
    if r.detected() {
        FF_DETECTED.inc();
        FF_ITERS_EXTRAPOLATED.add(r.extrapolated_iters);
        FF_DETECT_LATENCY.add(r.detected_at_iter + 1);
    } else {
        FF_FALLBACK.inc();
    }
}

/// Appends the node simulator's readings — including the process-wide
/// signature cache's hit/miss/eviction tallies and the derived hit rate
/// and simulated-cycle throughput — to `snap`.
pub fn collect(snap: &mut MetricsSnapshot) {
    let cache = SignatureCache::global();
    snap.append("power2.sigcache.hits", MetricValue::Count(cache.hits()));
    snap.append("power2.sigcache.misses", MetricValue::Count(cache.misses()));
    snap.append(
        "power2.sigcache.coalesced",
        MetricValue::Count(cache.coalesced()),
    );
    snap.append(
        "power2.sigcache.evictions",
        MetricValue::Count(cache.evictions()),
    );
    snap.append(
        "power2.sigcache.entries",
        MetricValue::Count(cache.len() as u64),
    );
    let lookups = cache.hits() + cache.misses();
    snap.append(
        "power2.sigcache.hit_rate",
        MetricValue::Value(if lookups == 0 {
            0.0
        } else {
            cache.hits() as f64 / lookups as f64
        }),
    );
    KERNEL_RUNS.observe(snap);
    SIMULATED_CYCLES.observe(snap);
    MEASURE.observe(snap);
    MEASURE_BATCH.observe(snap);
    MEASURE_THREADS.observe(snap);
    FF_DETECTED.observe(snap);
    FF_FALLBACK.observe(snap);
    FF_ITERS_SIMULATED.observe(snap);
    FF_ITERS_EXTRAPOLATED.observe(snap);
    FF_DETECT_LATENCY.observe(snap);
    let total_iters = FF_ITERS_SIMULATED.get() + FF_ITERS_EXTRAPOLATED.get();
    snap.append(
        "power2.fastforward.extrapolated_fraction",
        MetricValue::Value(if total_iters == 0 {
            0.0
        } else {
            FF_ITERS_EXTRAPOLATED.get() as f64 / total_iters as f64
        }),
    );
    // Simulated cycles per busy second: the single-thread simulator
    // rate, whatever the number of threads that measured in parallel.
    let busy_s = MEASURE.total_ns() as f64 / 1e9;
    snap.append(
        "power2.simulated_cycles_per_sec",
        MetricValue::Value(if busy_s > 0.0 {
            SIMULATED_CYCLES.get() as f64 / busy_s
        } else {
            0.0
        }),
    );
}

/// Zeroes the simulator's own metrics (cache statistics are owned by
/// [`SignatureCache`] and reset via [`SignatureCache::clear`]).
pub fn reset() {
    KERNEL_RUNS.reset();
    SIMULATED_CYCLES.reset();
    MEASURE.reset();
    MEASURE_BATCH.reset();
    MEASURE_THREADS.reset();
    FF_DETECTED.reset();
    FF_FALLBACK.reset();
    FF_ITERS_SIMULATED.reset();
    FF_ITERS_EXTRAPOLATED.reset();
    FF_DETECT_LATENCY.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_reports_cache_and_run_metrics() {
        let mut snap = MetricsSnapshot::new();
        collect(&mut snap);
        for key in [
            "power2.sigcache.hits",
            "power2.sigcache.misses",
            "power2.sigcache.coalesced",
            "power2.sigcache.evictions",
            "power2.sigcache.hit_rate",
            "power2.kernel_runs",
            "power2.simulated_cycles",
            "power2.signature_measure",
            "power2.measure_batch",
            "power2.measure_threads",
            "power2.simulated_cycles_per_sec",
            "power2.fastforward.detected_runs",
            "power2.fastforward.fallback_runs",
            "power2.fastforward.iters_simulated",
            "power2.fastforward.iters_extrapolated",
            "power2.fastforward.detect_latency_iters",
            "power2.fastforward.extrapolated_fraction",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
    }
}
