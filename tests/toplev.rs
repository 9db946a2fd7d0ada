//! Acceptance tests for the toplev subsystem: the counter-group
//! scheduler, sweep-rotated campaigns, multiplexed reconstruction, and
//! the hierarchical bottleneck tree.
//!
//! The properties pinned here are the subsystem's contract:
//!
//! - a single-pass plan degenerates to the direct campaign **bit for
//!   bit**, and its reconstruction has multiplexing error exactly zero;
//! - a rotated full-28-signal request reports a coverage fraction and a
//!   finite error bound for every signal;
//! - the bottleneck tree's percentages sum to their parent within one
//!   ulp at every level;
//! - the `toplev` experiment exports the `sp2-toplev/v1` schema with
//!   `max_error` exactly 0 (the integer form CI greps for);
//! - rotation is deterministic: two runs of the same plan agree bit
//!   for bit.

use std::sync::OnceLock;

use sp2_repro::cluster::{
    run_campaign_rotated, Campaign, ClusterConfig, EngineConfig, FaultPlan, RotatedCampaign,
};
use sp2_repro::core::toplev::{bottleneck_tree, TreeNode};
use sp2_repro::core::{experiment_or_err, Sp2System};
use sp2_repro::hpm::{io_aware_selection, SchedulePlan, Signal};
use sp2_repro::rs2hpm::BottleneckSplit;
use sp2_repro::workload::{trace, CampaignSpec, JobMix, SubmittedJob, WorkloadLibrary};

/// Shared two-day, 24-node fixture: the library measurement dominates
/// setup cost, so build it once per process.
fn fixture() -> &'static (ClusterConfig, WorkloadLibrary, Vec<SubmittedJob>, FaultPlan) {
    static FIX: OnceLock<(ClusterConfig, WorkloadLibrary, Vec<SubmittedJob>, FaultPlan)> =
        OnceLock::new();
    FIX.get_or_init(|| {
        let config = ClusterConfig::builder()
            .nodes(24)
            .drain_threshold(12)
            .build()
            .expect("valid config");
        let library = WorkloadLibrary::build(&config.machine, 42);
        let spec = CampaignSpec {
            days: 2,
            seed: 3,
            ..Default::default()
        };
        let jobs: Vec<SubmittedJob> = trace::generate(&spec, &JobMix::nas(), &library)
            .into_iter()
            .filter(|j| j.nodes as usize <= 24)
            .collect();
        let faults = FaultPlan::generate(24, 2, 1.5, 9);
        (config, library, jobs, faults)
    })
}

/// One shared rotated run of the full 28-signal space (two passes).
fn rotated_full() -> &'static RotatedCampaign {
    static ROT: OnceLock<RotatedCampaign> = OnceLock::new();
    ROT.get_or_init(|| {
        let (config, library, jobs, faults) = fixture();
        let plan = SchedulePlan::minimal(&Signal::ALL);
        run_campaign_rotated(
            config,
            library,
            jobs,
            2,
            faults,
            &EngineConfig::default(),
            &plan,
            None,
        )
        .expect("rotated campaign runs")
    })
}

#[test]
fn single_pass_rotation_is_bit_identical_with_error_exactly_zero() {
    let (config, library, jobs, faults) = fixture();
    // The io-aware selection's slot signals plan to a single pass that
    // *is* the selection, so the rotated path must literally be the
    // direct campaign.
    let wanted: Vec<Signal> = io_aware_selection()
        .slots()
        .iter()
        .map(|s| s.signal)
        .collect();
    let plan = SchedulePlan::minimal(&wanted);
    assert!(plan.is_single_pass());
    assert_eq!(plan.passes()[0], io_aware_selection());
    let mut cfg = config.clone();
    cfg.selection = io_aware_selection();
    let rotated = run_campaign_rotated(
        &cfg,
        library,
        jobs,
        2,
        faults,
        &EngineConfig::default(),
        &plan,
        None,
    )
    .expect("rotated campaign runs");
    let direct = Campaign::new(&cfg, library, jobs, 2, faults)
        .run()
        .expect("direct campaign runs");
    assert_eq!(rotated.passes.len(), 1);
    assert_eq!(rotated.passes[0].samples, direct.samples);
    assert_eq!(rotated.passes[0].job_reports, direct.job_reports);

    let recon = rotated.reconstruct().expect("reconstructs");
    assert_eq!(recon.max_error(), 0.0, "single pass sees every interval");
    assert_eq!(recon.min_coverage(), 1.0);
    for est in &recon.estimates {
        assert_eq!(
            est.estimate.to_bits(),
            (est.observed as f64).to_bits(),
            "{:?}: a full-coverage estimate must be the untouched count",
            est.signal
        );
    }
}

#[test]
fn rotated_full_space_covers_every_signal_with_bounds() {
    let rotated = rotated_full();
    assert_eq!(rotated.plan.n_passes(), 2, "28 signals need two passes");
    let recon = rotated.reconstruct().expect("reconstructs");
    assert_eq!(recon.estimates.len(), Signal::ALL.len());
    for est in &recon.estimates {
        assert!(
            est.coverage > 0.0 && est.coverage <= 1.0,
            "{:?} coverage {}",
            est.signal,
            est.coverage
        );
        assert!(
            est.lo <= est.estimate && est.estimate <= est.hi,
            "{:?}: estimate {} outside [{}, {}]",
            est.signal,
            est.estimate,
            est.lo,
            est.hi
        );
    }
    // Cycles tick in every interval, so a two-pass rotation must see a
    // genuine partial observation with a finite bound.
    let cyc = recon.estimate(Signal::Cycles).expect("cycles estimated");
    assert!(cyc.coverage < 1.0);
    assert!(cyc.error.is_finite());
}

/// Walks the tree asserting every parent's children sum to the parent's
/// percentage within one ulp.
fn assert_sums(node: &TreeNode) {
    if node.children.is_empty() {
        return;
    }
    let sum: f64 = node.children.iter().map(|c| c.percent).sum();
    let ulp = node.percent.to_bits().abs_diff(sum.to_bits());
    assert!(
        ulp <= 1,
        "{}: children sum {} vs {} ({} ulps apart)",
        node.name,
        sum,
        node.percent,
        ulp
    );
    for child in &node.children {
        assert_sums(child);
    }
}

#[test]
fn bottleneck_tree_sums_within_an_ulp_at_every_level() {
    let recon = rotated_full().reconstruct().expect("reconstructs");
    let split = BottleneckSplit::from_totals(|sig| recon.total(sig))
        .expect("a real campaign measures cycles");
    let tree = bottleneck_tree(&split);
    assert_eq!(tree.percent, 100.0);
    assert_sums(&tree);
    // Every category is a share: nothing negative, nothing above the
    // whole.
    for child in &tree.children {
        assert!(
            (0.0..=100.0).contains(&child.percent),
            "{} = {} %",
            child.name,
            child.percent
        );
    }
}

#[test]
fn toplev_experiment_exports_schema_and_exact_zero_error() {
    let mut sys = Sp2System::builder().days(2).build();
    let dataset = sys
        .dataset(experiment_or_err("toplev").expect("registered"))
        .expect("experiment runs");
    let json = dataset.json.to_string_pretty();
    assert!(json.contains("\"schema\": \"sp2-toplev/v1\""), "{json}");
    assert!(json.contains("\"plan_matches_selection\": true"), "{json}");
    // Exactly zero: the integer form the JSON writer prints for 0.0 and
    // CI greps for.
    assert!(json.contains("\"max_error\": 0"), "{json}");
    assert!(dataset.rendered.contains("dispatch-bound"));
    assert!(dataset.rendered.contains("data quality:"));
}

#[test]
fn rotation_is_deterministic_across_thread_counts() {
    let (config, library, jobs, faults) = fixture();
    let plan = SchedulePlan::minimal(&Signal::ALL);
    let run = || {
        run_campaign_rotated(
            config,
            library,
            jobs,
            2,
            faults,
            &EngineConfig::default(),
            &plan,
            None,
        )
        .expect("rotated campaign runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.passes.len(), b.passes.len());
    for (x, y) in a.passes.iter().zip(&b.passes) {
        assert_eq!(x.samples, y.samples);
        assert_eq!(x.job_reports, y.job_reports);
    }
    let ra = a.reconstruct().expect("reconstructs");
    let rb = b.reconstruct().expect("reconstructs");
    for (ea, eb) in ra.estimates.iter().zip(&rb.estimates) {
        assert_eq!(ea.estimate.to_bits(), eb.estimate.to_bits());
        assert_eq!(ea.coverage.to_bits(), eb.coverage.to_bits());
    }
}
