//! Bounded-memory aggregation: a multi-month campaign spills its
//! samples into an sp2-archive as it runs, so the full sample history
//! is never resident — the paper's nine-month collection shape, where
//! the archive on disk is the record and the daemon holds only the
//! current interval.

use sp2_repro::cluster::{Campaign, ClusterConfig, EngineConfig, FaultPlan, SampleSink};
use sp2_repro::core::archive::{read_archive, ArchiveWriter, CampaignMeta};
use sp2_repro::core::experiments::SelectionKind;
use sp2_repro::rs2hpm::SystemSample;
use sp2_repro::workload::WorkloadLibrary;

/// Wraps a sink and records how much was ever handed over in one call —
/// the proof that the campaign never materialized its sample history.
struct Meter<S: SampleSink> {
    inner: S,
    total: usize,
    max_batch: usize,
    drains: usize,
}

impl<S: SampleSink> SampleSink for Meter<S> {
    fn append(&mut self, samples: &[SystemSample]) -> std::io::Result<()> {
        self.total += samples.len();
        self.max_batch = self.max_batch.max(samples.len());
        self.drains += 1;
        self.inner.append(samples)
    }
}

#[test]
fn multi_month_campaign_aggregates_in_bounded_memory() {
    const DAYS: u32 = 75;
    let config = ClusterConfig::builder()
        .nodes(16)
        .drain_threshold(8)
        .build()
        .expect("valid config");
    let library = WorkloadLibrary::build(&config.machine, 42);
    let none = FaultPlan::none();

    let meta = CampaignMeta {
        kind: SelectionKind::Nas,
        days: DAYS,
        node_count: config.nodes,
        machine: config.machine,
        faults: Default::default(),
    };
    let writer = ArchiveWriter::create(Vec::new(), Some(&meta)).expect("writer opens");
    let mut meter = Meter {
        inner: writer,
        total: 0,
        max_batch: 0,
        drains: 0,
    };

    // An idle machine (empty trace) is the worst case for residency:
    // every sweep is steady, so without the spill cap the fast-forward
    // would gather the whole campaign as one run.
    let result = Campaign::new(&config, &library, &[], DAYS, &none)
        .spill(&mut meter)
        .run()
        .expect("spilling campaign runs");

    let expected = DAYS as usize * 96 + 1; // 15-minute sweeps + baseline
    assert!(result.samples.is_empty(), "the archive holds the series");
    assert_eq!(meter.total, expected, "every sample reached the sink");
    assert!(
        meter.max_batch <= 96,
        "no drain may hand over more than one day of sweeps, got {}",
        meter.max_batch
    );
    assert!(
        meter.drains >= expected / 96,
        "samples must stream out continuously, not arrive in one dump"
    );

    // The archived series is the resident series, bit for bit.
    let bytes = meter.inner.finish().expect("archive finishes");
    let loaded = read_archive(&bytes[..]).expect("archive decodes");
    let replay = loaded.campaign.expect("campaign present");
    assert_eq!(replay.samples.len(), expected);
    let resident = Campaign::new(&config, &library, &[], DAYS, &none)
        .run()
        .expect("resident campaign runs");
    assert_eq!(
        replay.samples, resident.samples,
        "spill+archive is lossless"
    );
}

#[test]
fn spill_max_run_tunes_residency_without_changing_results() {
    const DAYS: u32 = 20;
    let config = ClusterConfig::builder()
        .nodes(16)
        .drain_threshold(8)
        .build()
        .expect("valid config");
    let library = WorkloadLibrary::build(&config.machine, 42);
    let none = FaultPlan::none();

    let run = |cap: Option<usize>| {
        let mut engine = EngineConfig::default();
        if let Some(cap) = cap {
            engine = engine.spill_max_run(cap);
        }
        let mut meter = Meter {
            inner: Vec::new(),
            total: 0,
            max_batch: 0,
            drains: 0,
        };
        Campaign::new(&config, &library, &[], DAYS, &none)
            .engine(engine)
            .spill(&mut meter)
            .run()
            .expect("spilling campaign runs");
        meter
    };

    let default_cap = run(None);
    let tight = run(Some(12));
    let expected = DAYS as usize * 96 + 1;
    assert_eq!(default_cap.total, expected);
    assert_eq!(tight.total, expected);
    // The tuned cap bounds per-drain residency to the configured run
    // length, at the cost of more (shorter) elided runs.
    assert!(
        tight.max_batch <= 12,
        "tuned cap holds: {}",
        tight.max_batch
    );
    assert!(
        default_cap.max_batch > 12,
        "default cap gathers longer runs"
    );
    // Splitting steady runs is results-neutral: the spilled series is
    // identical sample for sample.
    assert_eq!(
        tight.inner, default_cap.inner,
        "spill cap never changes the samples"
    );
}

#[test]
#[should_panic(expected = "spill_max_run must be at least 2")]
fn spill_max_run_rejects_degenerate_cap() {
    let _ = EngineConfig::default().spill_max_run(1);
}
