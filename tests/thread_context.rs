//! A recording belongs to the thread it runs on: a campaign on another
//! thread neither lands in it nor switches its metric capture off.
//!
//! The interval deltas are process totals, so this test has a binary of
//! its own: no other test here captures metrics while it reads them.

mod common;

use common::{assert_same_campaign, small_campaign};
use sp2_repro::cluster::EngineConfig;
use sp2_repro::core::metrics;
use sp2_repro::trace::{self, MetricValue, Recording};

#[test]
fn a_recording_belongs_to_its_thread() {
    let recording = Recording::new(metrics::TABLES);
    let (mine, other) = recording.run(|| {
        // Another thread turns its metric capture off and runs a plain
        // campaign while this thread's recording is current.
        let other = std::thread::spawn(|| {
            EngineConfig::default().metrics(false).apply();
            assert!(!trace::recording(), "a new thread has no recording");
            small_campaign(3, 11, false)
        })
        .join()
        .expect("other thread runs its campaign");
        assert!(
            trace::enabled(),
            "the other thread's switch reached this one"
        );
        (small_campaign(3, 7, false), other)
    });
    let series = recording.series();

    // Only this thread's sweeps land in the series, and its capture
    // stayed on: the other thread's switch is its own.
    assert_eq!(series.samples.len(), mine.samples.len() - 1);
    let last = series.samples.last().expect("intervals recorded");
    match last.get("cluster.phase.advance") {
        Some(MetricValue::Duration { count, .. }) => assert!(*count > 0),
        other => panic!("advance phase missing from the last interval: {other:?}"),
    }

    // Both campaigns are bit-identical to the same campaigns run alone.
    assert_same_campaign(&mine, &small_campaign(3, 7, false));
    assert_same_campaign(&other, &small_campaign(3, 11, false));
}
