//! Rotated campaigns: multiplexing a counter request wider than the
//! hardware across daemon sweeps.
//!
//! The POWER2 monitor watches 22 signals at a time; a request wider than
//! one [`sp2_hpm::CounterSelection`] needs a [`SchedulePlan`] of several
//! passes, with the daemon switching pass between 15-minute sweeps. The
//! simulator exploits a property the real machine also had: which jobs
//! run where, when nodes fail, and what every node executes are all
//! independent of which counter selection the monitor happens to be
//! wired to. So instead of threading selection switches through the
//! event loop (which would invalidate the selection-shaped node banks),
//! a rotated campaign runs one *lockstep* campaign per planned pass —
//! identical trace, faults, and engine — and attributes interval `k` of
//! pass `p`'s sample series to the sweeps where the rotation
//! ([`SchedulePlan::pass_for_sweep`]) had pass `p` on the hardware. The
//! interleaved series is exactly what a selection-switching daemon would
//! have recorded, and [`RotatedCampaign::reconstruct`] scales each
//! signal's observed coverage back to the full interval with per-signal
//! error bounds.
//!
//! A single-pass plan degenerates to one [`Campaign::run`] by
//! construction, so its reconstruction is bit-identical to the direct
//! campaign with multiplexing error exactly zero — the property
//! `tests/toplev.rs` pins down.

use crate::engine::EngineConfig;
use crate::faults::FaultPlan;
use crate::result::CampaignResult;
use crate::sim::{Campaign, CampaignError, CancelToken, ClusterConfig};
use sp2_hpm::SchedulePlan;
use sp2_rs2hpm::{reconstruct, ReconstructError, Reconstruction, SystemSample};
use sp2_workload::{SubmittedJob, WorkloadLibrary};

/// A completed rotated campaign: the plan it executed and one full
/// campaign result per pass, in plan order.
#[derive(Debug, Clone)]
pub struct RotatedCampaign {
    /// The pass sequence the rotation cycled through.
    pub plan: SchedulePlan,
    /// One lockstep campaign per pass, index-aligned with
    /// `plan.passes()`.
    pub passes: Vec<CampaignResult>,
}

impl RotatedCampaign {
    /// The sweep-interleaved sample series each pass contributed.
    fn series(&self) -> Vec<&[SystemSample]> {
        self.passes.iter().map(|c| c.samples.as_slice()).collect()
    }

    /// Reconstructs full-interval estimates (with coverage fractions and
    /// multiplexing error bounds) for every requested signal.
    pub fn reconstruct(&self) -> Result<Reconstruction, ReconstructError> {
        reconstruct(&self.plan, &self.series())
    }
}

/// Runs one lockstep campaign per planned pass and bundles the results.
///
/// Every pass is one [`Campaign::run`] over the identical workload
/// trace, fault plan, engine configuration and cancel token; only
/// `config.selection` differs. Passes run under the
/// `cluster.phase.rotate` timer with one `rotate pass N` trace span
/// each. An empty plan (an empty signal request) is a typed error.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_rotated(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
    engine: &EngineConfig,
    plan: &SchedulePlan,
    cancel: Option<&CancelToken>,
) -> Result<RotatedCampaign, CampaignError> {
    if plan.n_passes() == 0 {
        return Err(CampaignError::EmptyPlan);
    }
    crate::metrics::ROTATE_PASSES.add(plan.n_passes() as u64);
    let mut passes = Vec::with_capacity(plan.n_passes());
    for (p, sel) in plan.passes().iter().enumerate() {
        let _span = crate::metrics::ROTATE.span();
        let _ev = sp2_trace::events::span(format!("rotate pass {p}"), "phase");
        let mut cfg = config.clone();
        cfg.selection = sel.clone();
        passes.push(
            Campaign::new(&cfg, library, trace, days, faults)
                .engine(*engine)
                .cancel(cancel)
                .run()?,
        );
    }
    Ok(RotatedCampaign {
        plan: plan.clone(),
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, Signal};
    use sp2_workload::{trace, CampaignSpec, JobMix};

    fn small_setup() -> (ClusterConfig, WorkloadLibrary, Vec<SubmittedJob>, FaultPlan) {
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
        let jobs: Vec<_> = trace::generate(&spec, &JobMix::nas(), &library)
            .into_iter()
            .filter(|j| j.nodes as usize <= 24)
            .collect();
        let faults = FaultPlan::generate(24, 2, 1.5, 9);
        (config, library, jobs, faults)
    }

    #[test]
    fn single_pass_rotation_is_bit_identical_with_zero_error() {
        let (config, library, jobs, faults) = small_setup();
        // A request listing nas_selection's signals in slot order plans
        // a single pass equal to nas_selection itself, so the rotated
        // path must literally be one Campaign::run.
        let wanted: Vec<Signal> = nas_selection().slots().iter().map(|s| s.signal).collect();
        let plan = SchedulePlan::minimal(&wanted);
        assert!(plan.is_single_pass());
        assert_eq!(plan.passes()[0], nas_selection());
        let rotated = run_campaign_rotated(
            &config,
            &library,
            &jobs,
            2,
            &faults,
            &EngineConfig::default(),
            &plan,
            None,
        )
        .expect("rotated runs");
        let direct = Campaign::new(&config, &library, &jobs, 2, &faults)
            .run()
            .expect("direct runs");
        assert_eq!(rotated.passes.len(), 1);
        assert_eq!(rotated.passes[0].samples, direct.samples);
        assert_eq!(rotated.passes[0].job_reports, direct.job_reports);
        let recon = rotated.reconstruct().expect("reconstructs");
        assert_eq!(recon.max_error(), 0.0, "single pass sees everything");
        assert_eq!(recon.min_coverage(), 1.0);
        for est in &recon.estimates {
            assert_eq!(
                est.estimate.to_bits(),
                (est.observed as f64).to_bits(),
                "{:?} estimate must be the untouched observation",
                est.signal
            );
        }
    }

    #[test]
    fn rotated_full_request_reports_coverage_and_bounds() {
        let (config, library, jobs, faults) = small_setup();
        let plan = SchedulePlan::minimal(&Signal::ALL);
        assert_eq!(plan.n_passes(), 2, "28 signals need two passes");
        let rotated = run_campaign_rotated(
            &config,
            &library,
            &jobs,
            2,
            &faults,
            &EngineConfig::default(),
            &plan,
            None,
        )
        .expect("rotated runs");
        let recon = rotated.reconstruct().expect("reconstructs");
        assert_eq!(recon.estimates.len(), Signal::ALL.len());
        for est in &recon.estimates {
            assert!(
                est.coverage > 0.0 && est.coverage <= 1.0,
                "{:?} coverage {}",
                est.signal,
                est.coverage
            );
            assert!(est.lo <= est.estimate && est.estimate <= est.hi);
        }
        // Cycles tick every interval, so its rotated estimate must be a
        // genuine partial observation with a finite error bound.
        let cyc = recon.estimate(Signal::Cycles).expect("cycles estimated");
        assert!(cyc.coverage < 1.0);
        assert!(cyc.error.is_finite());
    }

    #[test]
    fn empty_plan_is_a_typed_error() {
        let (config, library, jobs, faults) = small_setup();
        let plan = SchedulePlan::minimal(&[]);
        let err = run_campaign_rotated(
            &config,
            &library,
            &jobs,
            2,
            &faults,
            &EngineConfig::default(),
            &plan,
            None,
        )
        .unwrap_err();
        assert_eq!(err, CampaignError::EmptyPlan);
    }
}
