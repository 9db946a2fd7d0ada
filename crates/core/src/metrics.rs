//! Metrics aggregation and the simulator's self-measurement report.
//!
//! The instrumented crates each expose a `metrics::collect` hook;
//! [`snapshot`] gathers them (plus the dynamic per-experiment readings)
//! in a fixed order so snapshots are deterministic in shape. The
//! snapshot renders two ways: [`to_json`] for `sp2 --metrics` artifacts
//! and [`profile_report`] — the simulator's own Table 2, printed by
//! `sp2 profile`.

use crate::json::Json;
use sp2_trace::{dynamic, MetricValue, MetricsSnapshot};

/// Identifies the metrics JSON layout for downstream tooling.
pub const SCHEMA: &str = "sp2-metrics/v1";

/// Collects every subsystem's readings into one snapshot (node
/// simulator, campaign engine, daemon, batch system, then the dynamic
/// per-experiment map).
pub fn snapshot() -> MetricsSnapshot {
    // Sized for the static subsystems plus a few dynamic experiments —
    // the recorder calls this every sampled sweep.
    let mut snap = MetricsSnapshot::with_capacity(64);
    sp2_power2::metrics::collect(&mut snap);
    sp2_cluster::metrics::collect(&mut snap);
    sp2_rs2hpm::metrics::collect(&mut snap);
    sp2_pbs::metrics::collect(&mut snap);
    dynamic::collect(&mut snap);
    snap
}

/// Zeroes every subsystem's metrics (the signature cache's contents are
/// deliberately kept — clearing it would throw away work, not
/// measurements — but its hit/miss counters restart with the next
/// campaign via [`sp2_power2::SignatureCache::clear`] if wanted).
pub fn reset() {
    sp2_power2::metrics::reset();
    sp2_cluster::metrics::reset();
    sp2_rs2hpm::metrics::reset();
    sp2_pbs::metrics::reset();
    dynamic::reset();
}

/// Renders one reading as JSON (shared with the timeline exporter).
pub(crate) fn value_to_json(value: &MetricValue) -> Json {
    match *value {
        MetricValue::Count(n) => Json::from(n),
        MetricValue::Value(v) => Json::from(v),
        MetricValue::Duration { total_ns, count } => Json::obj()
            .field("total_ms", total_ns as f64 / 1e6)
            .field("spans", count),
    }
}

/// Renders a snapshot as the `sp2-metrics/v1` JSON document: a schema
/// tag, the calling thread's enable switch, and one flat `metrics`
/// object keyed by full metric name.
pub fn to_json(snap: &MetricsSnapshot) -> Json {
    let mut metrics = Json::obj();
    for (name, value) in snap.entries() {
        metrics = metrics.field(name, value_to_json(value));
    }
    Json::obj()
        .field("schema", SCHEMA)
        .field("enabled", sp2_trace::enabled())
        .field("metrics", metrics)
}

fn count_of(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.get(name).and_then(MetricValue::as_count).unwrap_or(0)
}

fn value_of(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.get(name).map(MetricValue::as_f64).unwrap_or(0.0)
}

fn duration_of(snap: &MetricsSnapshot, name: &str) -> (f64, u64) {
    match snap.get(name) {
        Some(&MetricValue::Duration { total_ns, count }) => (total_ns as f64 / 1e6, count),
        _ => (0.0, 0),
    }
}

/// Renders the self-measurement report: what the paper's Table 2 is to
/// the SP2, this is to the simulator — where its cycles went, at what
/// rates, with what cache behavior.
pub fn profile_report(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };

    line("Self-measurement report (the simulator under its own trace layer)".into());
    line("=".repeat(66));

    let hits = count_of(snap, "power2.sigcache.hits");
    let misses = count_of(snap, "power2.sigcache.misses");
    line(format!(
        "signature cache   {hits} hits, {misses} misses ({:.1} % hit rate), \
         {} evictions, {} entries",
        value_of(snap, "power2.sigcache.hit_rate") * 100.0,
        count_of(snap, "power2.sigcache.evictions"),
        count_of(snap, "power2.sigcache.entries"),
    ));
    let (measure_ms, measure_n) = duration_of(snap, "power2.signature_measure");
    let (batch_ms, batches) = duration_of(snap, "power2.measure_batch");
    let instr_rate = value_of(snap, "power2.simulated_instructions_per_sec");
    line(format!(
        "kernel simulator  {} runs, {:.3e} simulated cycles, \
         {:.3e} simulated instructions, \
         {batch_ms:.1} ms wall over {batches} batch(es) on up to {} thread(s), \
         {measure_ms:.1} ms busy over {measure_n} misses \
         ({:.3e} cycles per busy s, {:.1} ns per simulated instruction)",
        count_of(snap, "power2.kernel_runs"),
        count_of(snap, "power2.simulated_cycles") as f64,
        count_of(snap, "power2.simulated_instructions") as f64,
        count_of(snap, "power2.measure_threads"),
        value_of(snap, "power2.simulated_cycles_per_sec"),
        if instr_rate > 0.0 {
            1e9 / instr_rate
        } else {
            0.0
        },
    ));

    line(format!(
        "timing memo       {} lookups, {} replayed ({:.1} % hit rate)",
        count_of(snap, "power2.timing_memo.lookups"),
        count_of(snap, "power2.timing_memo.hits"),
        value_of(snap, "power2.timing_memo.hit_rate") * 100.0,
    ));

    let (campaign_ms, campaigns) = duration_of(snap, "cluster.campaign");
    line(format!(
        "campaign engine   {campaigns} campaign(s), {} events, {:.1} ms wall, \
         {:.0} simulated s / wall s",
        count_of(snap, "cluster.events"),
        campaign_ms,
        value_of(snap, "cluster.sim_seconds_per_wall_second"),
    ));
    for phase in ["advance", "sample", "schedule", "faults"] {
        let (ms, n) = duration_of(snap, &format!("cluster.phase.{phase}"));
        line(format!("  phase {phase:<9} {ms:>10.1} ms over {n} passes"));
    }

    let (sweep_ms, sweeps) = duration_of(snap, "rs2hpm.sweep");
    line(format!(
        "daemon            {sweeps} sweeps, {sweep_ms:.1} ms total \
         (mean {:.1} us), {} node deltas, {} anomalies, {} baselines",
        value_of(snap, "rs2hpm.sweep_mean_us"),
        count_of(snap, "rs2hpm.nodes_sampled"),
        count_of(snap, "rs2hpm.anomalies"),
        count_of(snap, "rs2hpm.baselines"),
    ));

    line(format!(
        "batch system      {} submitted, {} started, {} requeued, \
         max queue depth {}",
        count_of(snap, "pbs.jobs_submitted"),
        count_of(snap, "pbs.jobs_started"),
        count_of(snap, "pbs.jobs_requeued"),
        count_of(snap, "pbs.queue_depth_max"),
    ));

    let experiments: Vec<(&str, &MetricValue)> = snap.with_prefix("core.experiment.").collect();
    if !experiments.is_empty() {
        line("experiments".into());
        for (name, value) in experiments {
            let id = name.trim_start_matches("core.experiment.");
            if let MetricValue::Duration { total_ns, count } = *value {
                let bytes = count_of(snap, &format!("core.dataset_bytes.{id}"));
                line(format!(
                    "  {id:<12} {:>10.1} ms over {count} run(s), {bytes} dataset bytes",
                    total_ns as f64 / 1e6,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_covers_every_subsystem() {
        let snap = snapshot();
        for key in [
            "power2.sigcache.hit_rate",
            "power2.timing_memo.hit_rate",
            "cluster.phase.advance",
            "cluster.phase.sample",
            "rs2hpm.sweep",
            "pbs.queue_depth_max",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn json_document_has_schema_and_flat_metrics() {
        let snap = snapshot();
        let doc = to_json(&snap);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SCHEMA),
            "schema tag"
        );
        let metrics = doc.get("metrics").expect("metrics object");
        assert!(metrics.get("power2.sigcache.hit_rate").is_some());
        let sweep = metrics.get("rs2hpm.sweep").expect("sweep duration");
        assert!(sweep.get("total_ms").is_some());
        assert!(sweep.get("spans").is_some());
    }

    #[test]
    fn profile_report_names_the_major_sections() {
        let report = profile_report(&snapshot());
        for needle in [
            "signature cache",
            "kernel simulator",
            "ns per simulated instruction",
            "timing memo",
            "campaign engine",
            "phase advance",
            "daemon",
            "batch system",
        ] {
            assert!(report.contains(needle), "missing {needle}: {report}");
        }
    }
}
