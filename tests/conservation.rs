//! Counter conservation across collection paths.
//!
//! The daemon trace and the per-job prologue/epilogue reports observe the
//! *same* monitors through different windows. Events cannot appear in one
//! path that the monitors never produced, so the campaign-wide daemon
//! totals must dominate the job-report totals (job windows are a subset
//! of node-time; idle/system background adds more on top).

use sp2_repro::cluster::{Campaign, ClusterConfig, EngineConfig, EngineKind, FaultPlan};
use sp2_repro::hpm::{nas_selection, Signal};
use sp2_repro::workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};

#[test]
fn daemon_totals_dominate_job_totals() {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 77);
    let spec = CampaignSpec {
        days: 6,
        seed: 3,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let r = Campaign::new(&config, &library, &jobs, spec.days, &FaultPlan::none())
        .engine(EngineConfig::default().engine(EngineKind::Reference))
        .run()
        .expect("campaign runs");

    let sel = nas_selection();
    for signal in [
        Signal::Fxu0Exec,
        Signal::Fpu0Fma,
        Signal::DcacheMiss,
        Signal::DmaRead,
    ] {
        let slot = sel.slot_of(signal).unwrap();
        let daemon_total: u64 = r.samples.iter().map(|s| s.total.user[slot]).sum();
        let job_total: u64 = r.job_reports.iter().map(|j| j.total.user[slot]).sum();
        // Job windows can extend past the last daemon sample by at most
        // one interval; allow 2 % slack for that boundary.
        assert!(
            daemon_total as f64 >= 0.98 * job_total as f64,
            "{signal:?}: daemon {daemon_total} < jobs {job_total}"
        );
    }
}

#[test]
fn system_mode_events_come_from_paging_and_background_only() {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 77);
    let spec = CampaignSpec {
        days: 4,
        seed: 9,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let r = Campaign::new(&config, &library, &jobs, spec.days, &FaultPlan::none())
        .engine(EngineConfig::default().engine(EngineKind::Reference))
        .run()
        .expect("campaign runs");

    let sel = nas_selection();
    let fpu_slot = sel.slot_of(Signal::Fpu0Fma).unwrap();
    // The page-fault handler and OS background perform no flops, so the
    // system-mode fma counter stays exactly zero machine-wide.
    let sys_fma: u64 = r.samples.iter().map(|s| s.total.system[fpu_slot]).sum();
    assert_eq!(sys_fma, 0, "system mode must not produce flops");

    // But system-mode FXU work exists (paging, daemons).
    let fxu_slot = sel.slot_of(Signal::Fxu0Exec).unwrap();
    let sys_fxu: u64 = r.samples.iter().map(|s| s.total.system[fxu_slot]).sum();
    assert!(sys_fxu > 0, "background/paging system activity must appear");
}

#[test]
fn job_walltime_never_exceeds_pbs_accounting() {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 77);
    let spec = CampaignSpec {
        days: 4,
        seed: 11,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let r = Campaign::new(&config, &library, &jobs, spec.days, &FaultPlan::none())
        .engine(EngineConfig::default().engine(EngineKind::Reference))
        .run()
        .expect("campaign runs");

    let total_job_node_seconds: f64 = r
        .pbs_records
        .iter()
        .map(|rec| (rec.end - rec.start) * rec.nodes as f64)
        .sum();
    let machine_node_seconds = 144.0 * spec.days as f64 * 86_400.0;
    assert!(
        total_job_node_seconds <= machine_node_seconds,
        "dedicated allocation cannot exceed the machine"
    );
}
