//! Flight-recorder exporters: Perfetto traces, timeline JSON, and the
//! terminal's own Figure 1.
//!
//! `sp2-trace` owns the capture machinery (a `Recording` holds the
//! span-event log and the interval series); this module owns everything
//! that needs the rest of the stack — the [`Json`] writer. A recording
//! made with [`crate::metrics::TABLES`] feeds three consumers:
//!
//! - [`chrome_trace`] renders span events as Chrome trace-event JSON
//!   loadable in Perfetto or `chrome://tracing`. Wall-clock spans (the
//!   simulator's own execution) and simulated-clock spans (the PBS job
//!   lifecycle on the machine being simulated) get separate trace
//!   processes so the two clocks never share an axis.
//! - [`timeline_json`] dumps the interval time series as
//!   `sp2-timeline/v1` for external tooling.
//! - [`render_timeline`] prints per-phase/per-subsystem sparkline
//!   histories — the simulator's answer to the paper's Figure 1.

use crate::json::Json;
use sp2_trace::events::{Domain, SpanEvent};
use sp2_trace::recorder::{IntervalSample, TimeSeries};

/// Identifies the timeline JSON layout for downstream tooling.
pub const SCHEMA: &str = "sp2-timeline/v1";

/// Trace process id used for wall-clock (simulator execution) events.
const PID_WALL: u64 = 1;
/// Trace process id used for simulated-clock (modeled machine) events.
const PID_SIM: u64 = 2;

fn pid(domain: Domain) -> u64 {
    match domain {
        Domain::Wall => PID_WALL,
        Domain::Sim => PID_SIM,
    }
}

fn metadata(name: &str, pid: u64) -> Json {
    Json::obj()
        .field("name", "process_name")
        .field("ph", "M")
        .field("pid", pid as f64)
        .field("tid", 0.0)
        .field("args", Json::obj().field("name", name))
}

/// Renders span events as a Chrome trace-event document (the
/// `{"traceEvents": [...]}` object form, which Perfetto and
/// `chrome://tracing` both load). Spans become `ph:"X"` complete events,
/// instants `ph:"i"`; timestamps and durations are microseconds. The
/// `dropped_events` top-level field carries the drop-oldest counter so
/// truncation is visible in the artifact itself.
pub fn chrome_trace(events: &[SpanEvent], dropped: u64) -> Json {
    let mut trace_events = vec![
        metadata("sp2 simulator (wall clock)", PID_WALL),
        metadata("sp2 simulated machine (sim clock)", PID_SIM),
    ];
    for ev in events {
        let mut obj = Json::obj()
            .field("name", ev.name.as_ref())
            .field("cat", ev.cat)
            .field("pid", pid(ev.domain) as f64)
            .field("tid", ev.tid as f64)
            .field("ts", ev.ts_ns as f64 / 1e3);
        if ev.dur_ns > 0 {
            obj = obj.field("ph", "X").field("dur", ev.dur_ns as f64 / 1e3);
        } else {
            obj = obj.field("ph", "i").field("s", "t");
        }
        trace_events.push(obj);
    }
    Json::obj()
        .field("traceEvents", Json::Arr(trace_events))
        .field("displayTimeUnit", "ms")
        .field("schema", "sp2-trace-events/v1")
        .field("dropped_events", dropped as f64)
}

fn sample_to_json(sample: &IntervalSample) -> Json {
    let mut deltas = Json::obj();
    for (name, value) in &sample.deltas {
        deltas = deltas.field(name, crate::metrics::value_to_json(value));
    }
    Json::obj()
        .field("sweep", sample.sweep as f64)
        .field("sim_t", sample.sim_t)
        .field("discontinuity", sample.discontinuity)
        .field("deltas", deltas)
}

/// Renders the interval time series as the `sp2-timeline/v1` document:
/// schema tag, cadence (always 1: the recorder samples every daemon
/// sweep), drop counter, and one object per sampled interval (counts
/// and durations are per-interval deltas, values are instantaneous).
pub fn timeline_json(series: &TimeSeries) -> Json {
    Json::obj()
        .field("schema", SCHEMA)
        .field("cadence_sweeps", 1.0)
        .field("dropped_samples", series.dropped as f64)
        .field(
            "samples",
            Json::Arr(series.samples.iter().map(sample_to_json).collect()),
        )
}

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Maximum sparkline width in characters; longer series are bucketed
/// (bucket value = max) so spikes survive the downsample.
const SPARK_WIDTH: usize = 64;

fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let buckets: Vec<f64> = if values.len() <= SPARK_WIDTH {
        values.to_vec()
    } else {
        (0..SPARK_WIDTH)
            .map(|b| {
                let lo = b * values.len() / SPARK_WIDTH;
                let hi = ((b + 1) * values.len() / SPARK_WIDTH).max(lo + 1);
                values[lo..hi].iter().copied().fold(f64::MIN, f64::max)
            })
            .collect()
    };
    let lo = buckets.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = buckets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    buckets
        .iter()
        .map(|&v| {
            if span <= f64::EPSILON {
                SPARKS[if v.abs() <= f64::EPSILON { 0 } else { 3 }]
            } else {
                let level = ((v - lo) / span * (SPARKS.len() - 1) as f64).round() as usize;
                SPARKS[level.min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// The metrics the terminal history plots, in display order: the four
/// campaign phases (per-interval milliseconds), then throughput and
/// bottleneck readings. Every one is a static of
/// [`crate::metrics::TABLES`], so the render never depends on workload
/// specifics.
const TIMELINE_ROWS: [(&str, &str); 14] = [
    ("cluster.phase.advance", "phase advance (ms)"),
    ("cluster.phase.sample", "phase sample (ms)"),
    ("cluster.phase.schedule", "phase schedule (ms)"),
    ("cluster.phase.faults", "phase faults (ms)"),
    ("cluster.events", "engine events"),
    ("power2.kernel_runs", "kernel runs"),
    ("rs2hpm.nodes_sampled", "node deltas"),
    ("pbs.jobs_started", "jobs started"),
    ("pbs.queue_depth", "queue depth"),
    ("cluster.toplev.dispatch", "toplev dispatch (%)"),
    ("cluster.toplev.fpu", "toplev fpu (%)"),
    ("cluster.toplev.dcache_tlb", "toplev dcache+tlb (%)"),
    ("cluster.toplev.icache", "toplev icache (%)"),
    ("cluster.toplev.io_wait", "toplev io-wait (%)"),
];

/// Renders the recorded history as aligned sparkline rows — the
/// simulator's own Figure 1. One row per phase/throughput metric, each
/// labeled with its interval min/max; discontinuities and ring drops are
/// called out in the footer rather than silently absorbed.
pub fn render_timeline(series: &TimeSeries) -> String {
    let mut out = String::new();
    out.push_str("Flight-recorder timeline (per-interval deltas per daemon sweep sample)\n");
    out.push_str(&"=".repeat(70));
    out.push('\n');
    if series.samples.is_empty() {
        out.push_str("(no samples recorded)\n");
        return out;
    }
    let first = series.samples[0].sim_t;
    let last = series.samples[series.samples.len() - 1].sim_t;
    out.push_str(&format!(
        "{} samples, cadence 1 sweep(s), sim t {:.0} s .. {:.0} s ({:.1} days)\n\n",
        series.samples.len(),
        first,
        last,
        (last - first) / 86_400.0,
    ));
    let label_width = TIMELINE_ROWS
        .iter()
        .map(|(_, label)| label.len())
        .max()
        .unwrap_or(0);
    for (name, label) in TIMELINE_ROWS {
        let values: Vec<f64> = series.points(name).iter().map(|&(_, v)| v).collect();
        if values.is_empty() {
            continue;
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!(
            "{label:<label_width$}  {}  [{lo:.2} .. {hi:.2}]\n",
            sparkline(&values),
        ));
    }
    let discontinuities = series.samples.iter().filter(|s| s.discontinuity).count();
    out.push('\n');
    out.push_str(&format!(
        "{discontinuities} discontinuity(ies) re-baselined, {} sample(s) dropped by the ring\n",
        series.dropped,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_trace::MetricValue;
    use std::borrow::Cow;

    fn ev(name: &'static str, domain: Domain, ts_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name: Cow::Borrowed(name),
            cat: "test",
            tid: 7,
            domain,
            ts_ns,
            dur_ns,
        }
    }

    fn sample(sweep: u64, sim_t: f64, advance_ms: f64, started: u64) -> IntervalSample {
        IntervalSample {
            sweep,
            sim_t,
            discontinuity: false,
            deltas: vec![
                (
                    "cluster.phase.advance",
                    MetricValue::Duration {
                        total_ns: (advance_ms * 1e6) as u64,
                        count: 1,
                    },
                ),
                ("pbs.jobs_started", MetricValue::Count(started)),
            ],
        }
    }

    fn series(samples: Vec<IntervalSample>) -> TimeSeries {
        TimeSeries {
            samples,
            dropped: 0,
        }
    }

    #[test]
    fn chrome_trace_round_trips_and_separates_domains() {
        let doc = chrome_trace(
            &[
                ev("advance", Domain::Wall, 1_000, 5_000),
                ev("job 3", Domain::Sim, 900_000_000_000, 1_800_000_000_000),
                ev("requeue", Domain::Sim, 950_000_000_000, 0),
            ],
            2,
        );
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert!(parsed.bits_eq(&doc), "export must round-trip exactly");

        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Two process_name metadata records plus the three events.
        assert_eq!(events.len(), 5);
        let span = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("advance"))
            .expect("wall span present");
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(span.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(span.get("dur").and_then(Json::as_f64), Some(5.0));
        let job = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("job 3"))
            .expect("sim span present");
        assert_eq!(job.get("pid").and_then(Json::as_f64), Some(2.0));
        let instant = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("requeue"))
            .expect("instant present");
        assert_eq!(instant.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(
            parsed.get("dropped_events").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn timeline_json_carries_schema_and_deltas() {
        let doc = timeline_json(&series(vec![sample(1, 900.0, 2.5, 4)]));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let samples = doc.get("samples").and_then(Json::as_arr).expect("samples");
        assert_eq!(samples.len(), 1);
        let deltas = samples[0].get("deltas").expect("deltas object");
        assert_eq!(
            deltas.get("pbs.jobs_started").and_then(Json::as_f64),
            Some(4.0)
        );
        let parsed = Json::parse(&doc.to_string_pretty()).expect("valid JSON");
        assert!(parsed.bits_eq(&doc));
    }

    #[test]
    fn render_timeline_plots_known_rows() {
        let samples = (1..=40)
            .map(|i| sample(i, i as f64 * 900.0, (i % 7) as f64, i % 3))
            .collect();
        let text = render_timeline(&series(samples));
        assert!(text.contains("phase advance (ms)"), "{text}");
        assert!(text.contains("jobs started"), "{text}");
        assert!(text.contains("40 samples"), "{text}");
        assert!(
            text.contains('█') && text.contains('▁'),
            "sparklines span the range: {text}"
        );
        // Rows with no recorded metric are skipped, not rendered empty.
        assert!(!text.contains("queue depth"), "{text}");
    }

    #[test]
    fn render_timeline_handles_empty_and_flat_series() {
        let empty = render_timeline(&series(Vec::new()));
        assert!(empty.contains("(no samples recorded)"), "{empty}");
        let flat: Vec<IntervalSample> = (1..=5)
            .map(|i| sample(i, i as f64 * 900.0, 3.0, 0))
            .collect();
        let text = render_timeline(&series(flat));
        assert!(text.contains("phase advance"), "{text}");
        assert!(text.contains("[3.00 .. 3.00]"), "{text}");
    }

    #[test]
    fn sparkline_downsamples_keeping_spikes() {
        let mut values = vec![0.0; 1_000];
        values[987] = 100.0;
        let line = sparkline(&values);
        assert_eq!(line.chars().count(), SPARK_WIDTH);
        assert!(line.contains('█'), "spike survives bucketing: {line}");
    }
}
