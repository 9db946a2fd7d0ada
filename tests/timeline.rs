//! The flight recorder's contract, end to end: recording observes the
//! campaign without perturbing it (results bit-identical with the
//! recorder on or off), the interval time series covers a month-scale
//! campaign without ring drops and carries exactly the metric tables'
//! statics, its top-down readings equal what a per-sweep gauge would
//! have held, a batch-engine campaign files each sweep's daemon span,
//! each elided sweep and its advance under its own interval, and the
//! Chrome trace export round-trips through the JSON parser with one
//! simulated-machine process per campaign, a wait and a run per job
//! attempt, each daemon restart marked on its campaign's process, spans
//! that nest, no per-sweep span events, and zero silently-dropped
//! events.

mod common;

use common::{assert_same_campaign, small_campaign, small_campaign_on};
use sp2_repro::cluster::{CampaignResult, EngineKind};
use sp2_repro::core::{metrics, timeline, Json};
use sp2_repro::pbs::JobOutcome;
use sp2_repro::rs2hpm::BottleneckSplit;
use sp2_repro::trace::recorder::{IntervalSample, TimeSeries};
use sp2_repro::trace::{MetricValue, Recording};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// What per-sweep gauges of the five top-down categories held at sweep
/// time `sim_t`: the split of the newest campaign sample at or before
/// it, in percent. A sample without cycles has no split and left the
/// gauges as they were (0 before the first split).
fn gauge_toplev(campaign: &CampaignResult, sim_t: f64) -> [f64; 5] {
    let upto = campaign.samples.partition_point(|s| s.t <= sim_t);
    campaign.samples[..upto]
        .iter()
        .rev()
        .find_map(|s| BottleneckSplit::from_delta(&campaign.selection, &s.total))
        .map_or([0.0; 5], |s| {
            [s.dispatch, s.fpu, s.dcache_tlb, s.icache, s.io_wait].map(|v| v * 100.0)
        })
}

/// Every interval's `cluster.toplev.*` values in the timeline JSON equal
/// the gauges they replace, bit for bit. Returns how many intervals
/// held a split across a sample without one.
fn assert_toplev_matches_gauges(series: &TimeSeries, campaign: &CampaignResult) -> usize {
    let doc = timeline::timeline_json(&timeline::with_toplev(series.clone(), campaign));
    let samples = doc.get("samples").and_then(Json::as_arr).expect("samples");
    assert_eq!(samples.len(), series.samples.len());
    let mut held = 0;
    for (json, interval) in samples.iter().zip(&series.samples) {
        let deltas = json.get("deltas").expect("deltas");
        let read = timeline::TOPLEV.map(|key| {
            deltas
                .get(key)
                .and_then(Json::as_f64)
                .expect("toplev value")
        });
        let gauges = gauge_toplev(campaign, interval.sim_t);
        assert_eq!(
            read.map(f64::to_bits),
            gauges.map(f64::to_bits),
            "sweep {}",
            interval.sweep
        );
        let newest = campaign.samples.iter().rfind(|s| s.t <= interval.sim_t);
        if newest
            .is_some_and(|s| BottleneckSplit::from_delta(&campaign.selection, &s.total).is_none())
        {
            held += 1;
        }
    }
    held
}

/// The exported `"X"` spans of one `(pid, tid)` thread either follow
/// one another or nest. Times are microseconds rounded to `f64`, so
/// touching spans may overlap by a few ulps.
fn assert_spans_nest(trace_events: &[Json]) {
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).expect(key);
    let mut threads: HashMap<(u64, u64), Vec<(f64, f64)>> = HashMap::new();
    for e in trace_events {
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            let thread = (field(e, "pid") as u64, field(e, "tid") as u64);
            let ts = field(e, "ts");
            threads
                .entry(thread)
                .or_default()
                .push((ts, ts + field(e, "dur")));
        }
    }
    for (thread, mut spans) in threads {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut enclosing: Vec<f64> = Vec::new();
        for (begin, end) in spans {
            while enclosing
                .last()
                .is_some_and(|&e| begin >= e * (1.0 - 1e-15))
            {
                enclosing.pop();
            }
            if let Some(&outer) = enclosing.last() {
                assert!(
                    end <= outer * (1.0 + 1e-15),
                    "{thread:?}: [{begin}, {end}] overlaps a span ending at {outer}"
                );
            }
            enclosing.push(end);
        }
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
    assert_eq!(statics.len(), 27);
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

    // The top-down rows equal the gauges they replace, through the
    // fault plan's daemon restarts, whose re-baselining samples have no
    // split.
    let held = assert_toplev_matches_gauges(&series, &recorded);
    assert!(held > 0, "no interval held a split across a restart");

    // The terminal render is the non-empty per-phase history the CLI
    // prints for `sp2 timeline`.
    let series = timeline::with_toplev(series, &recorded);
    let rendered = timeline::render_timeline(&series);
    for needle in [
        "phase advance",
        "phase sample",
        "phase schedule",
        "jobs started",
        "queue depth",
        "toplev dispatch",
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
    // stepped sweep's daemon span closes in its own interval, and an
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
            count(sample, "rs2hpm.sweep"),
            1 - elided[i],
            "interval {i}: daemon sweep spans against elided sweeps"
        );
        if elided[i] == 1 && (i == 0 || elided[i - 1] == 0) {
            assert!(
                count(sample, "cluster.phase.advance") > 0,
                "elided run starting at interval {i} carries no advance"
            );
        }
    }
    // Replayed sweeps read the split of the sample they replay.
    assert_toplev_matches_gauges(&series, &batch);

    // --- Chrome trace export of two campaigns, one faulted. -------
    // A fresh, shorter recording so the default capacities hold every
    // event (the drop policies are exercised in unit tests).
    let recording = new_recording();
    let campaigns = recording.run(|| [small_campaign(7, 7, true), small_campaign(7, 9, false)]);
    assert!(campaigns[0].faults.enabled && !campaigns[1].faults.enabled);
    assert!(campaigns[0].faults.daemon_restarts > 0, "no daemon restart");

    assert_eq!(
        recording.dropped_events(),
        0,
        "two week-long 8-node campaigns must fit the default capacities"
    );
    let drained = recording.events();
    let tracks = recording.tracks();
    assert_eq!(tracks.len(), 2, "one track per campaign");
    assert!(
        drained
            .iter()
            .any(|e| e.cat == "phase" && e.name == "campaign"),
        "campaign span missing"
    );
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

    let chrome = timeline::chrome_trace(&drained, &tracks, recording.dropped_events());
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
    let str_of = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_owned);
    let pid_of = |e: &Json| e.get("pid").and_then(Json::as_f64).expect("pid") as u64;
    // The simulator's wall clock is one process, and each campaign's
    // simulated clock another.
    let machines: Vec<u64> = trace_events
        .iter()
        .filter(|e| str_of(e, "ph").as_deref() == Some("M"))
        .filter(|e| {
            let name = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str);
            name.is_some_and(|n| n.contains("simulated machine"))
        })
        .map(pid_of)
        .collect();
    assert_eq!(
        machines,
        [2, 3],
        "one simulated-machine process per campaign"
    );
    let entries: usize = tracks.iter().map(Vec::len).sum();
    assert_eq!(trace_events.len(), 3 + drained.len() + entries);
    // A daemon restart is a fact of the simulated machine, not of the
    // simulator's wall clock.
    assert!(
        trace_events
            .iter()
            .filter(|e| pid_of(e) == 1)
            .all(|e| str_of(e, "name").as_deref() != Some("daemon restart")),
        "a daemon restart on the wall clock"
    );

    // Within each process, a run per attempt and a wait per job, and
    // each attempt's end marked as its accounting record ended it.
    for (pid, campaign) in machines.into_iter().zip(&campaigns) {
        let mut runs: BTreeMap<u64, usize> = BTreeMap::new();
        let mut waits = runs.clone();
        let mut drains = runs.clone();
        let mut ends: BTreeMap<(u64, String), usize> = BTreeMap::new();
        let mut node_marks = 0;
        let mut restarts = 0;
        for e in trace_events.iter().filter(|e| pid_of(e) == pid) {
            let name = str_of(e, "name").expect("name");
            let words: Vec<&str> = name.split(' ').collect();
            match words[..] {
                ["job", id, "run"] => *runs.entry(id.parse().unwrap()).or_default() += 1,
                ["job", id, "wait"] => *waits.entry(id.parse().unwrap()).or_default() += 1,
                ["job", id, end] => {
                    *ends.entry((id.parse().unwrap(), end.into())).or_default() += 1
                }
                ["drain", "for", "job", id] => *drains.entry(id.parse().unwrap()).or_default() += 1,
                ["node", _, "down" | "up"] => node_marks += 1,
                ["daemon", "restart"] => restarts += 1,
                _ => {}
            }
        }
        let mut attempts: BTreeMap<u64, usize> = BTreeMap::new();
        let mut outcomes: BTreeMap<(u64, String), usize> = BTreeMap::new();
        for rec in &campaign.pbs_records {
            *attempts.entry(rec.id).or_default() += 1;
            let end = match rec.outcome {
                JobOutcome::Completed => "epilogue",
                JobOutcome::NodeFailure { requeued: true } => "requeue",
                JobOutcome::NodeFailure { requeued: false } => "kill",
                JobOutcome::Horizon => "horizon",
            };
            *outcomes.entry((rec.id, end.into())).or_default() += 1;
        }
        assert_eq!(runs, attempts, "pid {pid}: a run per attempt");
        assert_eq!(ends, outcomes, "pid {pid}: an end mark per record");
        let kinds: BTreeSet<&str> = outcomes.keys().map(|(_, end)| end.as_str()).collect();
        let expected: &[&str] = if campaign.faults.enabled {
            &["epilogue", "horizon", "requeue"]
        } else {
            &["epilogue", "horizon"]
        };
        assert!(
            expected.iter().all(|k| kinds.contains(k)),
            "pid {pid}: ends {kinds:?}"
        );
        assert!(
            waits.len() == attempts.len() && waits.values().all(|&n| n == 1),
            "pid {pid}: a wait per job"
        );
        assert!(waits.keys().eq(attempts.keys()));
        assert_eq!(campaign.faults.enabled, node_marks > 0, "pid {pid}");
        assert_eq!(
            restarts, campaign.faults.daemon_restarts,
            "pid {pid}: a mark per daemon restart"
        );
        if !campaign.faults.enabled {
            assert!(!drains.is_empty(), "the wide jobs drained the machine");
            assert!(
                drains.values().all(|&n| n == 1),
                "each drain is marked once"
            );
        }
    }
    assert_spans_nest(trace_events);
}
