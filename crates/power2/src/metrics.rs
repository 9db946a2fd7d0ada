//! Self-metering for the node simulator.
//!
//! The cycle simulator is the deepest hot path in the stack — every
//! kernel signature measurement runs it — so instrumentation sits at
//! kernel-run granularity (one counter bump per `run_kernel`), never
//! inside the dispatch loop. The signature-cache statistics piggyback on
//! the cache's own always-on atomics and are merely bridged into the
//! snapshot here.

use crate::sigcache::SignatureCache;
use sp2_trace::{Counter, MaxGauge, MetricValue, MetricsSnapshot, Timer};

/// Kernels cycle-simulated by [`crate::node::Node::run_kernel`].
pub static KERNEL_RUNS: Counter = Counter::new("power2.kernel_runs");

/// Simulated POWER2 cycles across all kernel runs (the numerator of
/// simulated-cycle throughput; divide by [`MEASURE`] busy time).
pub static SIMULATED_CYCLES: Counter = Counter::new("power2.simulated_cycles");

/// Dynamic instructions across all kernel runs (the numerator of
/// simulated-instruction throughput, which, unlike the cycle rate, does
/// not swing with each kernel's CPI).
pub static SIMULATED_INSTRUCTIONS: Counter = Counter::new("power2.simulated_instructions");

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
    SIMULATED_INSTRUCTIONS.observe(snap);
    MEASURE.observe(snap);
    MEASURE_BATCH.observe(snap);
    MEASURE_THREADS.observe(snap);
    // Simulated cycles and instructions per busy second: single-thread
    // simulator rates, whatever the number of threads that measured in
    // parallel.
    let busy_s = MEASURE.total_ns() as f64 / 1e9;
    let per_busy_s =
        |n: u64| MetricValue::Value(if busy_s > 0.0 { n as f64 / busy_s } else { 0.0 });
    snap.append(
        "power2.simulated_cycles_per_sec",
        per_busy_s(SIMULATED_CYCLES.get()),
    );
    snap.append(
        "power2.simulated_instructions_per_sec",
        per_busy_s(SIMULATED_INSTRUCTIONS.get()),
    );
}

/// Zeroes the simulator's own metrics (cache statistics are owned by
/// [`SignatureCache`] and reset via [`SignatureCache::clear`]).
pub fn reset() {
    KERNEL_RUNS.reset();
    SIMULATED_CYCLES.reset();
    SIMULATED_INSTRUCTIONS.reset();
    MEASURE.reset();
    MEASURE_BATCH.reset();
    MEASURE_THREADS.reset();
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
            "power2.simulated_instructions",
            "power2.signature_measure",
            "power2.measure_batch",
            "power2.measure_threads",
            "power2.simulated_cycles_per_sec",
            "power2.simulated_instructions_per_sec",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
    }
}
