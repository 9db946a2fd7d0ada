//! The flight recorder's contract, end to end: recording observes the
//! campaign without perturbing it (results bit-identical with the
//! recorder on or off), the interval time series covers a month-scale
//! campaign without ring drops and carries exactly the metric tables'
//! statics, a batch-engine campaign files each sweep's sample span, each
//! elided sweep and its advance under its own interval, and the Chrome
//! trace export round-trips through the JSON parser with the campaign
//! and job spans intact, no per-sweep span events, and zero
//! silently-dropped events.

mod common;

use common::{assert_same_campaign, small_campaign, small_campaign_on};
use sp2_repro::cluster::EngineKind;
use sp2_repro::core::{metrics, timeline, Json};
use sp2_repro::trace::recorder::IntervalSample;
use sp2_repro::trace::{MetricValue, Recording};

fn new_recording() -> Recording {
    Recording::new(metrics::TABLES)
}

/// An interval's count of `name`: a counter's delta, or the spans a
/// timer closed.
fn count(sample: &IntervalSample, name: &str) -> u64 {
    match sample.get(name) {
        Some(MetricValue::Count(n)) => *n,
        Some(MetricValue::Duration { count, .. }) => *count,
        other => panic!("{name}: {other:?}"),
    }
}

/// One test (not several): the interval series differences metric
/// readings, which are process totals, so a second recorded campaign
/// in this binary would move the deltas this one checks.
#[test]
fn recorder_is_invisible_bounded_and_exportable() {
    // --- Baseline: recording off. ---------------------------------
    let baseline = small_campaign(31, 7, true);

    // --- Recorded: recorder on. -----------------------------------
    let recording = new_recording();
    let recorded = recording.run(|| small_campaign(31, 7, true));
    let series = recording.series();

    // Recording never feeds back into the engine: the campaign is
    // bit-identical with the recorder on or off.
    assert_same_campaign(&baseline, &recorded);

    // The interval series holds a month of sweeps without recycling.
    assert_eq!(series.dropped, 0, "default ring must hold 31 days");
    // Exactly one interval per daemon sample after the shared baseline
    // pass — the recorder and the daemon miss the same fault-hit sweeps.
    assert_eq!(series.samples.len(), recorded.samples.len() - 1);
    assert!(
        series.samples.len() > 30 * 90,
        "a month-long history, got {}",
        series.samples.len()
    );
    // Every interval carries exactly the tables' statics, in order.
    let statics: Vec<&str> = metrics::TABLES
        .iter()
        .flat_map(|table| table.iter())
        .map(|metric| metric.name())
        .collect();
    assert_eq!(statics.len(), 33);
    for sample in &series.samples {
        let names: Vec<&str> = sample.deltas.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, statics, "sweep {}", sample.sweep);
    }
    // Counters were moving: the advance phase ran in every interval.
    let advance = series.points("cluster.phase.advance");
    assert_eq!(advance.len(), series.samples.len());
    assert!(
        advance.iter().filter(|&&(_, v)| v > 0.0).count() > 0,
        "advance phase never measured"
    );

    // The terminal render is the non-empty per-phase history the CLI
    // prints for `sp2 timeline`.
    let rendered = timeline::render_timeline(&series);
    for needle in [
        "phase advance",
        "phase sample",
        "phase schedule",
        "jobs started",
        "queue depth",
    ] {
        assert!(rendered.contains(needle), "missing {needle}:\n{rendered}");
    }
    assert!(
        rendered.contains('▁') || rendered.contains('█'),
        "sparklines missing:\n{rendered}"
    );

    // The timeline JSON round-trips through the parser bit-for-bit.
    let doc = timeline::timeline_json(&series);
    let parsed = Json::parse(&doc.to_string_pretty()).expect("timeline JSON parses");
    assert!(parsed.bits_eq(&doc));
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(timeline::SCHEMA)
    );
    assert_eq!(
        parsed.get("cadence_sweeps").and_then(Json::as_f64),
        Some(1.0)
    );

    // --- Batch engine with sweep elision: every sweep its interval. --
    // A replayed run counts each elided sweep in that sweep's own
    // interval, and the jump's advance lands in the run's first one. A
    // stepped sweep's sample span closes in its own interval, and an
    // elided sweep takes none.
    let recording = new_recording();
    let batch = recording.run(|| small_campaign_on(EngineKind::Batch, 8, 7, false));
    let series = recording.series();
    assert_eq!(series.dropped, 0);
    assert_eq!(series.samples.len(), batch.samples.len() - 1);
    let elided: Vec<u64> = series
        .samples
        .iter()
        .map(|s| count(s, "cluster.sweeps_elided"))
        .collect();
    assert!(
        elided.iter().sum::<u64>() > 0,
        "the batch campaign elided no sweeps"
    );
    for (i, sample) in series.samples.iter().enumerate() {
        assert_eq!(count(sample, "cluster.sweeps"), 1, "interval {i}");
        assert!(
            elided[i] <= 1,
            "interval {i} holds {} elided sweeps",
            elided[i]
        );
        assert_eq!(
            count(sample, "cluster.phase.sample"),
            1 - elided[i],
            "interval {i}: sample spans against elided sweeps"
        );
        if elided[i] == 1 && (i == 0 || elided[i - 1] == 0) {
            assert!(
                count(sample, "cluster.phase.advance") > 0,
                "elided run starting at interval {i} carries no advance"
            );
        }
    }

    // --- Chrome trace export from a short faulted campaign. -------
    // A fresh, shorter recording so the default event capacity holds
    // every span (the drop-oldest policy is exercised in unit tests).
    let recording = new_recording();
    let traced = recording.run(|| small_campaign(7, 7, true));
    assert!(traced.faults.enabled);

    assert_eq!(
        recording.dropped_events(),
        0,
        "a week-long 8-node campaign must fit the default capacity"
    );
    let drained = recording.events();
    assert!(!drained.is_empty());
    let has = |cat: &str, name_part: &str| {
        drained
            .iter()
            .any(|e| e.cat == cat && e.name.contains(name_part))
    };
    assert!(has("phase", "campaign"), "campaign span missing");
    assert!(has("pbs", "wait"), "job queue-wait spans missing");
    assert!(has("pbs", "run"), "job run spans missing");
    assert!(has("pbs", "epilogue"), "job epilogue marks missing");
    assert!(has("fault", "down"), "node-down marks missing");
    // What the interval series already holds is not logged again: no
    // per-sweep or per-scheduling-pass span events.
    for name in [
        "advance",
        "sample",
        "daemon sweep",
        "cluster fast-forward",
        "daemon fast-forward",
        "schedule",
        "fault",
    ] {
        assert!(
            drained.iter().all(|e| e.name != name),
            "a {name:?} span event was recorded"
        );
    }

    let chrome = timeline::chrome_trace(&drained, recording.dropped_events());
    let text = chrome.to_string_pretty();
    let parsed = Json::parse(&text).expect("chrome trace parses");
    assert!(parsed.bits_eq(&chrome), "export must round-trip exactly");
    assert_eq!(
        parsed.get("dropped_events").and_then(Json::as_f64),
        Some(0.0)
    );
    let trace_events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // Both clocks are present as separate trace processes, and every
    // recorded event (plus the two process_name records) made it out.
    assert_eq!(trace_events.len(), drained.len() + 2);
    let pid_of = |e: &Json| e.get("pid").and_then(Json::as_f64);
    assert!(trace_events.iter().any(|e| pid_of(e) == Some(1.0)));
    assert!(trace_events.iter().any(|e| pid_of(e) == Some(2.0)));
}
