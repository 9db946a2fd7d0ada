//! Flight-recorder exporters: Perfetto traces, timeline JSON, and the
//! terminal's own Figure 1.
//!
//! `sp2-trace` owns the capture machinery (a `Recording` holds the event
//! log and the interval series); this module owns everything that needs
//! the rest of the stack — the [`Json`] writer and the daemon's samples.
//! A recording made with [`crate::metrics::TABLES`] feeds three consumers:
//!
//! - [`chrome_trace`] renders span events and campaign tracks as Chrome
//!   trace-event JSON loadable in Perfetto or `chrome://tracing`. The
//!   simulator's own execution is one trace process on the wall clock,
//!   and each campaign's track a process of its own on the simulated
//!   clock, so the two clocks never share an axis.
//! - [`timeline_json`] dumps the interval time series as
//!   `sp2-timeline/v1` for external tooling.
//! - [`render_timeline`] prints per-phase/per-subsystem sparkline
//!   histories — the simulator's answer to the paper's Figure 1.

use crate::json::Json;
use sp2_cluster::CampaignResult;
use sp2_rs2hpm::BottleneckSplit;
use sp2_trace::events::{SimEntry, SimKind, SpanEvent};
use sp2_trace::recorder::{IntervalSample, TimeSeries};
use sp2_trace::MetricValue;

/// Identifies the timeline JSON layout for downstream tooling.
pub const SCHEMA: &str = "sp2-timeline/v1";

/// Trace process id of the simulator's own (wall-clock) execution; the
/// campaign tracks follow it, one process each.
const PID_WALL: u64 = 1;

fn metadata(name: &str, pid: u64) -> Json {
    Json::obj()
        .field("name", "process_name")
        .field("ph", "M")
        .field("pid", pid as f64)
        .field("tid", 0.0)
        .field("args", Json::obj().field("name", name))
}

fn trace_event(pid: u64, ev: &SpanEvent) -> Json {
    let obj = Json::obj()
        .field("name", ev.name.as_ref())
        .field("cat", ev.cat)
        .field("pid", pid as f64)
        .field("tid", ev.tid as f64)
        .field("ts", ev.ts_ns as f64 / 1e3);
    if ev.dur_ns > 0 {
        obj.field("ph", "X").field("dur", ev.dur_ns as f64 / 1e3)
    } else {
        obj.field("ph", "i").field("s", "t")
    }
}

/// A track entry as an event: its simulated seconds in nanoseconds
/// (negative times clamp to 0, an end before the begin to a mark), on
/// its job's own thread (the id + 1, so a job's spans nest), or on
/// thread 0 for node and daemon restart marks.
fn sim_event(entry: &SimEntry) -> SpanEvent {
    let id = entry.id;
    let (name, cat, tid) = match entry.kind {
        SimKind::Wait => (format!("job {id} wait"), "pbs", id + 1),
        SimKind::Run => (format!("job {id} run"), "pbs", id + 1),
        SimKind::Epilogue => (format!("job {id} epilogue"), "pbs", id + 1),
        SimKind::Requeue => (format!("job {id} requeue"), "pbs", id + 1),
        SimKind::Kill => (format!("job {id} kill"), "pbs", id + 1),
        SimKind::Horizon => (format!("job {id} horizon"), "pbs", id + 1),
        SimKind::Drain => (format!("drain for job {id}"), "pbs", id + 1),
        SimKind::NodeDown => (format!("node {id} down"), "fault", 0),
        SimKind::NodeUp => (format!("node {id} up"), "fault", 0),
        SimKind::DaemonRestart => ("daemon restart".to_owned(), "rs2hpm", 0),
    };
    let ns = |s: f64| (s.max(0.0) * 1e9) as u64;
    let ts_ns = ns(entry.start_s);
    let dur_ns = ns(entry.end_s).saturating_sub(ts_ns);
    SpanEvent {
        name: name.into(),
        cat,
        tid,
        ts_ns,
        dur_ns,
    }
}

/// Renders span events and campaign tracks as a Chrome trace-event
/// document (the `{"traceEvents": [...]}` object form, which Perfetto
/// and `chrome://tracing` both load). Spans become `ph:"X"` complete
/// events and marks `ph:"i"`; timestamps and durations are
/// microseconds. The `dropped_events` top-level field carries the log's
/// drop counter so truncation is visible in the artifact itself.
pub fn chrome_trace(events: &[SpanEvent], tracks: &[Vec<SimEntry>], dropped: u64) -> Json {
    let mut trace_events = vec![metadata("sp2 simulator (wall clock)", PID_WALL)];
    trace_events.extend(events.iter().map(|ev| trace_event(PID_WALL, ev)));
    for (pid, track) in (PID_WALL + 1..).zip(tracks) {
        let name = format!(
            "sp2 simulated machine (sim clock), campaign {}",
            pid - PID_WALL
        );
        trace_events.push(metadata(&name, pid));
        trace_events.extend(track.iter().map(|e| trace_event(pid, &sim_event(e))));
    }
    Json::obj()
        .field("traceEvents", Json::Arr(trace_events))
        .field("displayTimeUnit", "ms")
        .field("schema", "sp2-trace-events/v1")
        .field("dropped_events", dropped as f64)
}

/// The top-down readings [`with_toplev`] adds, by bottleneck category:
/// dispatch, FPU, D-cache+TLB, I-cache and I/O wait.
pub const TOPLEV: [&str; 5] = [
    "cluster.toplev.dispatch",
    "cluster.toplev.fpu",
    "cluster.toplev.dcache_tlb",
    "cluster.toplev.icache",
    "cluster.toplev.io_wait",
];

/// Adds `campaign`'s top-down split to each interval of a recording
/// that ran it, as the `cluster.toplev.*` percentages of cycles: the split
/// of the newest campaign sample at or before the interval's sweep. A
/// sample without cycles has no split, so the reading before it holds
/// (0 before the first).
pub fn with_toplev(mut series: TimeSeries, campaign: &CampaignResult) -> TimeSeries {
    let mut samples = campaign.samples.iter().peekable();
    let mut held = [0.0; 5];
    for interval in &mut series.samples {
        while let Some(sample) = samples.next_if(|s| s.t <= interval.sim_t) {
            if let Some(s) = BottleneckSplit::from_delta(&campaign.selection, &sample.total) {
                held = [s.dispatch, s.fpu, s.dcache_tlb, s.icache, s.io_wait].map(|f| f * 100.0);
            }
        }
        for (&name, v) in TOPLEV.iter().zip(held) {
            interval.deltas.push((name, MetricValue::Value(v)));
        }
    }
    series
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
/// campaign phases (per-interval milliseconds; the daemon's sweep is the
/// sample phase), then throughput and bottleneck readings. Each is a
/// static of [`crate::metrics::TABLES`] or a [`TOPLEV`] reading, so the
/// render never depends on workload specifics.
const TIMELINE_ROWS: [(&str, &str); 14] = [
    ("cluster.phase.advance", "phase advance (ms)"),
    ("rs2hpm.sweep", "phase sample (ms)"),
    ("cluster.phase.schedule", "phase schedule (ms)"),
    ("cluster.phase.faults", "phase faults (ms)"),
    ("cluster.events", "engine events"),
    ("power2.kernel_runs", "kernel runs"),
    ("rs2hpm.nodes_sampled", "node deltas"),
    ("pbs.jobs_started", "jobs started"),
    ("pbs.queue_depth", "queue depth"),
    (TOPLEV[0], "toplev dispatch (%)"),
    (TOPLEV[1], "toplev fpu (%)"),
    (TOPLEV[2], "toplev dcache+tlb (%)"),
    (TOPLEV[3], "toplev icache (%)"),
    (TOPLEV[4], "toplev io-wait (%)"),
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

    fn campaign() -> CampaignResult {
        CampaignResult::empty(
            sp2_power2::MachineConfig::nas_sp2(),
            sp2_hpm::nas_selection(),
        )
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
    fn chrome_trace_round_trips_and_gives_each_track_a_process() {
        let wall = SpanEvent {
            name: Cow::Borrowed("advance"),
            cat: "test",
            tid: 7,
            ts_ns: 1_000,
            dur_ns: 5_000,
        };
        let tracks = [
            vec![
                SimEntry::new(3, SimKind::Run, 900.0, 2_700.0),
                SimEntry::new(3, SimKind::Requeue, 2_700.0, 2_700.0),
            ],
            vec![
                SimEntry::new(5, SimKind::NodeDown, 100.0, 100.0),
                SimEntry::new(4, SimKind::Run, 50.0, 20.0),
            ],
        ];
        let doc = chrome_trace(&[wall], &tracks, 2);
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert!(parsed.bits_eq(&doc), "export must round-trip exactly");

        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // A process_name record per process plus the five events.
        assert_eq!(events.len(), 8);
        let named = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64);
        let span = named("advance");
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(field(span, "pid"), Some(1.0));
        assert_eq!(field(span, "ts"), Some(1.0));
        assert_eq!(field(span, "dur"), Some(5.0));
        let run = named("job 3 run");
        assert_eq!(field(run, "pid"), Some(2.0));
        assert_eq!(field(run, "tid"), Some(4.0), "a job's own thread");
        assert_eq!(field(run, "ts"), Some(900e6));
        assert_eq!(field(run, "dur"), Some(1_800e6));
        let requeue = named("job 3 requeue");
        assert_eq!(requeue.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(requeue.get("cat").and_then(Json::as_str), Some("pbs"));
        let down = named("node 5 down");
        assert_eq!(field(down, "pid"), Some(3.0), "the second campaign");
        assert_eq!(down.get("cat").and_then(Json::as_str), Some("fault"));
        let clamped = named("job 4 run");
        assert_eq!(
            clamped.get("ph").and_then(Json::as_str),
            Some("i"),
            "end before start clamps to a mark"
        );
        let processes = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        assert_eq!(processes, 3);
        assert_eq!(field(&parsed, "dropped_events"), Some(2.0));
    }

    #[test]
    fn timeline_json_carries_schema_and_deltas() {
        let recorded = series(vec![sample(1, 900.0, 2.5, 4)]);
        let doc = timeline_json(&with_toplev(recorded, &campaign()));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let samples = doc.get("samples").and_then(Json::as_arr).expect("samples");
        assert_eq!(samples.len(), 1);
        let deltas = samples[0].get("deltas").expect("deltas object");
        assert_eq!(
            deltas.get("pbs.jobs_started").and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            deltas.get("cluster.toplev.fpu").and_then(Json::as_f64),
            Some(0.0),
            "no sample, no split"
        );
        let parsed = Json::parse(&doc.to_string_pretty()).expect("valid JSON");
        assert!(parsed.bits_eq(&doc));
    }

    #[test]
    fn render_timeline_plots_known_rows() {
        let samples = (1..=40)
            .map(|i| sample(i, i as f64 * 900.0, (i % 7) as f64, i % 3))
            .collect();
        let text = render_timeline(&with_toplev(series(samples), &campaign()));
        assert!(text.contains("phase advance (ms)"), "{text}");
        assert!(text.contains("toplev io-wait (%)"), "{text}");
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
