//! A small-machine campaign shared by the recorder and thread-context
//! tests.

use sp2_repro::cluster::{
    Campaign, CampaignResult, ClusterConfig, EngineConfig, EngineKind, FaultPlan,
};
use sp2_repro::workload::{CampaignSpec, JobMix, WorkloadLibrary};

/// A mix whose widest request fits an 8-node machine.
fn small_mix() -> JobMix {
    JobMix {
        node_weights: vec![(1, 5.0), (2, 3.0), (4, 7.0), (8, 13.0)],
        ..JobMix::nas()
    }
}

/// A campaign on a small machine (tests run unoptimized; eight nodes
/// keep a month of simulated time affordable), on the reference engine.
/// `seed` picks the trace, so two threads can run different campaigns,
/// and `faulted` turns the fault plan on.
pub fn small_campaign(days: u32, seed: u64, faulted: bool) -> CampaignResult {
    small_campaign_on(EngineKind::Reference, days, seed, faulted)
}

/// [`small_campaign`] on `engine`, with the default engine settings: the
/// batch engine elides runs of steady sweeps.
pub fn small_campaign_on(
    engine: EngineKind,
    days: u32,
    seed: u64,
    faulted: bool,
) -> CampaignResult {
    let config = ClusterConfig::builder()
        .nodes(8)
        .drain_threshold(4)
        .build()
        .expect("valid config");
    let library = WorkloadLibrary::build(&config.machine, 42);
    let spec = CampaignSpec {
        days,
        seed,
        ..Default::default()
    };
    let jobs = sp2_repro::workload::trace::generate(&spec, &small_mix(), &library);
    let faults = if faulted {
        FaultPlan::generate(8, days, 1.0, 1996)
    } else {
        FaultPlan::none()
    };
    Campaign::new(&config, &library, &jobs, days, &faults)
        .engine(EngineConfig::default().engine(engine))
        .run()
        .expect("campaign runs")
}

pub fn assert_same_campaign(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x, y, "sample drifted under recording");
    }
    assert_eq!(a.job_reports, b.job_reports, "job epilogues drifted");
    assert_eq!(a.pbs_records.len(), b.pbs_records.len());
    assert_eq!(a.faults, b.faults);
}
