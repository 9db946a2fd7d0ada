//! Self-metering for the node simulator.
//!
//! The cycle simulator is the deepest hot path in the stack — every
//! kernel signature measurement runs it — so instrumentation sits at
//! kernel-run granularity (one bump of each counter per `run_kernel`),
//! never inside the dispatch loop. The signature-cache statistics
//! piggyback on the cache's own always-on atomics and are merely bridged
//! into the snapshot here.

use crate::sigcache::SignatureCache;
use sp2_trace::{Counter, MaxGauge, Metric, MetricValue, MetricsSnapshot, Timer};

/// Kernels cycle-simulated by [`crate::node::Node::run_kernel`].
pub static KERNEL_RUNS: Counter = Counter::new("power2.kernel_runs");

/// Simulated POWER2 cycles across all kernel runs (the numerator of
/// simulated-cycle throughput; divide by [`MEASURE`] busy time).
pub static SIMULATED_CYCLES: Counter = Counter::new("power2.simulated_cycles");

/// Dynamic instructions across all kernel runs (the numerator of
/// simulated-instruction throughput, which, unlike the cycle rate, does
/// not swing with each kernel's CPI).
pub static SIMULATED_INSTRUCTIONS: Counter = Counter::new("power2.simulated_instructions");

/// Timing-memo table lookups across all kernel runs (the node
/// simulator's per-run timing memo; bodies too short for a lookup to pay
/// make none).
pub static TIMING_MEMO_LOOKUPS: Counter = Counter::new("power2.timing_memo.lookups");

/// Timing-memo lookups that replayed a recorded iteration.
pub static TIMING_MEMO_HITS: Counter = Counter::new("power2.timing_memo.hits");

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

/// The node simulator's statics, each listed once: what [`collect`]
/// observes, [`reset`] zeroes and a flight recording samples.
pub static ALL: [Metric; 8] = [
    Metric::Counter(&KERNEL_RUNS),
    Metric::Counter(&SIMULATED_CYCLES),
    Metric::Counter(&SIMULATED_INSTRUCTIONS),
    Metric::Counter(&TIMING_MEMO_LOOKUPS),
    Metric::Counter(&TIMING_MEMO_HITS),
    Metric::Timer(&MEASURE),
    Metric::Timer(&MEASURE_BATCH),
    Metric::MaxGauge(&MEASURE_THREADS),
];

/// `n / d`, or 0 when nothing was counted.
fn ratio(n: f64, d: f64) -> MetricValue {
    MetricValue::Value(if d > 0.0 { n / d } else { 0.0 })
}

/// Appends the process-wide signature cache's tallies and size,
/// the node simulator's table, and the readings derived from them: the
/// cache and timing-memo hit rates and the simulated-cycle and
/// -instruction throughput.
pub fn collect(snap: &mut MetricsSnapshot) {
    let cache = SignatureCache::global();
    let (hits, misses) = (cache.hits(), cache.misses());
    snap.append("power2.sigcache.hits", MetricValue::Count(hits));
    snap.append("power2.sigcache.misses", MetricValue::Count(misses));
    snap.append(
        "power2.sigcache.coalesced",
        MetricValue::Count(cache.coalesced()),
    );
    snap.append(
        "power2.sigcache.entries",
        MetricValue::Count(cache.len() as u64),
    );
    snap.append(
        "power2.sigcache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    for metric in ALL {
        metric.observe(snap);
    }
    let memo_rate = ratio(
        snap.count("power2.timing_memo.hits") as f64,
        snap.count("power2.timing_memo.lookups") as f64,
    );
    // Simulated cycles and instructions per busy second: single-thread
    // simulator rates, whatever the number of threads that measured in
    // parallel.
    let busy_s = snap.duration("power2.signature_measure").0 as f64 / 1e9;
    let cycles_rate = ratio(snap.count("power2.simulated_cycles") as f64, busy_s);
    let instructions_rate = ratio(snap.count("power2.simulated_instructions") as f64, busy_s);
    snap.append("power2.timing_memo.hit_rate", memo_rate);
    snap.append("power2.simulated_cycles_per_sec", cycles_rate);
    snap.append("power2.simulated_instructions_per_sec", instructions_rate);
}

/// Zeroes the simulator's own metrics (cache statistics are owned by
/// [`SignatureCache`] and reset via [`SignatureCache::clear`]).
pub fn reset() {
    for metric in ALL {
        metric.reset();
    }
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
            "power2.sigcache.hit_rate",
            "power2.kernel_runs",
            "power2.simulated_cycles",
            "power2.simulated_instructions",
            "power2.timing_memo.lookups",
            "power2.timing_memo.hits",
            "power2.timing_memo.hit_rate",
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
