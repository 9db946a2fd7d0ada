//! Metrics aggregation and the simulator's self-measurement report.
//!
//! The instrumented crates each list their statics once, in a metric
//! table, and expose a `metrics::collect` hook that observes the table
//! and appends its derived readings. [`TABLES`] is what a flight
//! recording samples; [`snapshot`] gathers the hooks (plus the dynamic
//! per-experiment readings) in a fixed order so snapshots are
//! deterministic in shape. The snapshot renders two ways: [`to_json`]
//! for `sp2 --metrics` artifacts and [`profile_report`] — the
//! simulator's own Table 2, printed by `sp2 profile`.

use crate::json::Json;
use sp2_trace::{dynamic, Metric, MetricValue, MetricsSnapshot};

/// Identifies the metrics JSON layout for downstream tooling.
pub const SCHEMA: &str = "sp2-metrics/v1";

/// The instrumented crates' metric tables, in snapshot order: the
/// statics a flight recording (`sp2_trace::Recording::new(TABLES)`)
/// samples every daemon sweep.
pub static TABLES: &[&[Metric]] = &[
    &sp2_power2::metrics::ALL,
    &sp2_cluster::metrics::ALL,
    &sp2_rs2hpm::metrics::ALL,
    &sp2_pbs::metrics::ALL,
];

/// Collects every subsystem's readings into one snapshot (node
/// simulator, campaign engine, daemon, batch system, then the dynamic
/// per-experiment map).
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
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

/// A duration reading as `(total milliseconds, spans)`.
fn duration_ms(snap: &MetricsSnapshot, name: &str) -> (f64, u64) {
    let (total_ns, count) = snap.duration(name);
    (total_ns as f64 / 1e6, count)
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

    let hits = snap.count("power2.sigcache.hits");
    let misses = snap.count("power2.sigcache.misses");
    line(format!(
        "signature cache   {hits} hits, {misses} misses ({:.1} % hit rate), {} entries",
        snap.value("power2.sigcache.hit_rate") * 100.0,
        snap.count("power2.sigcache.entries"),
    ));
    let (measure_ms, measure_n) = duration_ms(snap, "power2.signature_measure");
    let (batch_ms, batches) = duration_ms(snap, "power2.measure_batch");
    let instr_rate = snap.value("power2.simulated_instructions_per_sec");
    line(format!(
        "kernel simulator  {} runs, {:.3e} simulated cycles, \
         {:.3e} simulated instructions, \
         {batch_ms:.1} ms wall over {batches} batch(es) on up to {} thread(s), \
         {measure_ms:.1} ms busy over {measure_n} misses \
         ({:.3e} cycles per busy s, {:.1} ns per simulated instruction)",
        snap.count("power2.kernel_runs"),
        snap.count("power2.simulated_cycles") as f64,
        snap.count("power2.simulated_instructions") as f64,
        snap.count("power2.measure_threads"),
        snap.value("power2.simulated_cycles_per_sec"),
        if instr_rate > 0.0 {
            1e9 / instr_rate
        } else {
            0.0
        },
    ));

    line(format!(
        "timing memo       {} lookups, {} replayed ({:.1} % hit rate)",
        snap.count("power2.timing_memo.lookups"),
        snap.count("power2.timing_memo.hits"),
        snap.value("power2.timing_memo.hit_rate") * 100.0,
    ));

    let (campaign_ms, campaigns) = duration_ms(snap, "cluster.campaign");
    line(format!(
        "campaign engine   {campaigns} campaign(s), {} events, {:.1} ms wall, \
         {:.0} simulated s / wall s",
        snap.count("cluster.events"),
        campaign_ms,
        snap.value("cluster.sim_seconds_per_wall_second"),
    ));
    for phase in ["advance", "schedule", "faults"] {
        let (ms, n) = duration_ms(snap, &format!("cluster.phase.{phase}"));
        line(format!("  phase {phase:<9} {ms:>10.1} ms over {n} passes"));
    }

    let (sweep_ms, sweeps) = duration_ms(snap, "rs2hpm.sweep");
    line(format!(
        "daemon            {sweeps} sweeps, {sweep_ms:.1} ms total \
         (mean {:.1} us), {} node deltas, {} anomalies, {} baselines",
        snap.value("rs2hpm.sweep_mean_us"),
        snap.count("rs2hpm.nodes_sampled"),
        snap.count("rs2hpm.anomalies"),
        snap.count("rs2hpm.baselines"),
    ));

    line(format!(
        "batch system      {} submitted, {} started, {} requeued, \
         max queue depth {}",
        snap.count("pbs.jobs_submitted"),
        snap.count("pbs.jobs_started"),
        snap.count("pbs.jobs_requeued"),
        snap.count("pbs.queue_depth_max"),
    ));

    let experiments: Vec<(&str, &MetricValue)> = snap.with_prefix("core.experiment.").collect();
    if !experiments.is_empty() {
        line("experiments".into());
        for (name, value) in experiments {
            let id = name.trim_start_matches("core.experiment.");
            if let MetricValue::Duration { total_ns, count } = *value {
                let bytes = snap.count(&format!("core.dataset_bytes.{id}"));
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
            "cluster.phase.schedule",
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
