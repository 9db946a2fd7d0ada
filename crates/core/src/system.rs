//! System assembly, campaign caching, and fault configuration.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, SelectionKind};
use sp2_cluster::{
    run_campaign_rotated, Campaign, CampaignResult, CancelToken, ClusterConfig, EngineConfig,
    FaultPlan, RotatedCampaign,
};
use sp2_hpm::SchedulePlan;
use sp2_workload::{trace, CampaignSpec, JobMix, SubmittedJob, WorkloadLibrary};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Default seed for the measured workload library (the campaign year).
pub const DEFAULT_LIBRARY_SEED: u64 = 1998;

/// Default seed for the fault plan, deliberately distinct from the
/// library and trace seeds so enabling faults perturbs nothing else.
pub const DEFAULT_FAULT_SEED: u64 = 4_096;

/// The assembled NAS SP2 measurement system.
///
/// Owns the cluster configuration, the measured workload library, the
/// campaign spec, and the fault configuration; lazily runs and caches
/// one campaign per `(counter selection, faulted)` pair so all fourteen
/// experiments — including the `availability` report, which needs a
/// fault-free twin — can share simulations. Campaigns follow the NAS
/// job mix. Each campaign runs on the calling thread under the system's
/// [`EngineConfig`], and results are bit-identical under every engine
/// configuration.
///
/// The library, too, is built on first use: a replay and the
/// experiments that need no campaign measure none of its kernels.
pub struct Sp2System {
    config: ClusterConfig,
    library: OnceLock<WorkloadLibrary>,
    spec: CampaignSpec,
    engine: EngineConfig,
    fault_rate: f64,
    fault_seed: u64,
    cancel: Option<Arc<CancelToken>>,
    campaigns: HashMap<(SelectionKind, bool), CampaignResult>,
    /// Set by [`Sp2System::replay`]: the cached campaigns are all there
    /// is, and asking for another is an error, not a simulation.
    replay: bool,
}

/// Builder for [`Sp2System`]: the paper's configuration with any subset
/// of knobs overridden.
pub struct Sp2SystemBuilder {
    config: ClusterConfig,
    library: Option<WorkloadLibrary>,
    spec: CampaignSpec,
    engine: EngineConfig,
    fault_rate: f64,
    fault_seed: u64,
    cancel: Option<Arc<CancelToken>>,
}

impl Default for Sp2SystemBuilder {
    fn default() -> Self {
        Sp2SystemBuilder {
            config: ClusterConfig::default(),
            library: None,
            spec: CampaignSpec::default(),
            engine: EngineConfig::default(),
            fault_rate: 0.0,
            fault_seed: DEFAULT_FAULT_SEED,
            cancel: None,
        }
    }
}

impl Sp2SystemBuilder {
    /// Replaces the cluster configuration.
    pub fn config(mut self, config: ClusterConfig) -> Self {
        self.config = config;
        self
    }

    /// Uses a prebuilt workload library instead of building one from the
    /// machine description and [`DEFAULT_LIBRARY_SEED`] when a campaign
    /// first needs it.
    pub fn library(mut self, library: WorkloadLibrary) -> Self {
        self.library = Some(library);
        self
    }

    /// Replaces the whole campaign spec.
    pub fn spec(mut self, spec: CampaignSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Campaign length in days.
    pub fn days(mut self, days: u32) -> Self {
        self.spec.days = days;
        self
    }

    /// Campaign trace seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Replaces the engine configuration every campaign of the system
    /// runs under: engine kind and sweep elision. Results are
    /// bit-identical under every engine configuration; only speed
    /// differs. Its instrumentation switches are the process entry
    /// point's to apply, not the system's.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Fault-injection rate (0.0 = fault-free, the default; 1.0 roughly
    /// matches a troubled production month — see
    /// [`sp2_cluster::FaultPlan::generate`]).
    pub fn faults(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Seed for the fault plan (independent of the trace seed).
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Attaches a cooperative cancellation token (or none): campaign
    /// runs poll it at every event boundary and fail with
    /// [`sp2_cluster::CampaignError::Cancelled`] once raised. The serve
    /// scheduler uses this so a `cancel` request frees its campaign
    /// worker mid-campaign.
    pub fn cancel_token(mut self, cancel: Option<Arc<CancelToken>>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Assembles the system. Without a library given, none is built
    /// until [`Sp2System::library`] is first called.
    pub fn build(self) -> Sp2System {
        Sp2System {
            config: self.config,
            library: self.library.map_or_else(OnceLock::new, OnceLock::from),
            spec: self.spec,
            engine: self.engine,
            fault_rate: self.fault_rate,
            fault_seed: self.fault_seed,
            cancel: self.cancel,
            campaigns: HashMap::new(),
            replay: false,
        }
    }
}

impl Sp2System {
    /// A builder starting from the paper's configuration.
    pub fn builder() -> Sp2SystemBuilder {
        Sp2SystemBuilder::default()
    }

    /// The paper's configuration: 144 nodes, NAS counter selection, NAS
    /// job mix, with a campaign of `days` days (270 in the paper; shorter
    /// for quick runs).
    pub fn nas_1996(days: u32) -> Self {
        Sp2System::builder().days(days).build()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The measured workload library, built from the machine description
    /// and [`DEFAULT_LIBRARY_SEED`] on the first call when the builder was
    /// given none.
    pub fn library(&self) -> &WorkloadLibrary {
        self.library
            .get_or_init(|| WorkloadLibrary::build(&self.config.machine, DEFAULT_LIBRARY_SEED))
    }

    /// The campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The configured fault-injection rate (0.0 = fault-free).
    pub fn fault_rate(&self) -> f64 {
        self.fault_rate
    }

    /// The fault-plan seed.
    pub fn fault_seed(&self) -> u64 {
        self.fault_seed
    }

    /// Whether campaigns run with fault injection.
    pub fn faulted(&self) -> bool {
        self.fault_rate > 0.0
    }

    /// The fault plan the configured knobs generate (empty when the rate
    /// is zero).
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::generate(
            self.config.nodes,
            self.spec.days,
            self.fault_rate,
            self.fault_seed,
        )
    }

    /// The [`SelectionKind`] matching the system's own configuration, if
    /// any. The primary campaign is cached under this kind.
    fn own_kind(&self) -> Option<SelectionKind> {
        [SelectionKind::Nas, SelectionKind::IoAware]
            .into_iter()
            .find(|k| k.selection() == self.config.selection)
    }

    /// Runs (or returns the cached) campaign under the system's own
    /// counter selection, with the configured faults.
    pub fn campaign(&mut self) -> Result<&CampaignResult, Sp2Error> {
        let kind = self.own_kind().unwrap_or(SelectionKind::Nas);
        let faulted = self.faulted();
        self.ensure_campaign(kind, true, faulted)?;
        Ok(&self.campaigns[&(kind, faulted)])
    }

    /// Runs (or returns the cached) campaign under `kind`'s counter
    /// selection with the configured faults, re-running the simulation
    /// with the selection swapped if the system's own configuration
    /// watches different counters.
    pub fn campaign_for(&mut self, kind: SelectionKind) -> Result<&CampaignResult, Sp2Error> {
        let own = self.own_kind() == Some(kind);
        let faulted = self.faulted();
        self.ensure_campaign(kind, own, faulted)?;
        Ok(&self.campaigns[&(kind, faulted)])
    }

    /// Runs (or returns the cached) fault-free twin campaign under
    /// `kind` — the same trace and seed with an empty fault plan.
    pub fn baseline_for(&mut self, kind: SelectionKind) -> Result<&CampaignResult, Sp2Error> {
        let own = self.own_kind() == Some(kind);
        self.ensure_campaign(kind, own, false)?;
        Ok(&self.campaigns[&(kind, false)])
    }

    /// Seeds the campaign cache with an externally produced result — an
    /// archived campaign loaded from disk, typically. Experiments asked
    /// for `(kind, faulted)` will analyze `result` instead of running
    /// the simulation; the caller vouches that it matches the system's
    /// configuration (days, selection, fault knobs).
    pub fn preload_campaign(&mut self, kind: SelectionKind, faulted: bool, result: CampaignResult) {
        self.campaigns.insert((kind, faulted), result);
    }

    /// Turns the system into a replay of one archived campaign: it is
    /// preloaded under `kind` and its own fault mode, and from then on
    /// any other campaign an experiment asks for — a fault-free twin,
    /// the other counter selection, a rotated run — fails with
    /// [`Sp2Error::MissingCampaign`] instead of being simulated.
    pub fn replay(&mut self, kind: SelectionKind, campaign: CampaignResult) {
        self.preload_campaign(kind, campaign.faults.enabled, campaign);
        self.replay = true;
    }

    fn ensure_campaign(
        &mut self,
        kind: SelectionKind,
        own: bool,
        faulted: bool,
    ) -> Result<(), Sp2Error> {
        if self.campaigns.contains_key(&(kind, faulted)) {
            return Ok(());
        }
        if self.replay {
            let mode = if faulted { "faulted" } else { "fault-free" };
            return Err(Sp2Error::MissingCampaign(format!(
                "{mode} {} campaign",
                kind.name()
            )));
        }
        let mut config = self.config.clone();
        if !own {
            config.selection = kind.selection();
        }
        let jobs = self.trace();
        let faults = self.faults(faulted);
        let result = Campaign::new(&config, self.library(), &jobs, self.spec.days, &faults)
            .engine(self.engine)
            .cancel(self.cancel.as_deref())
            .run()?;
        self.campaigns.insert((kind, faulted), result);
        Ok(())
    }

    /// The job trace every campaign of the system replays: the spec's
    /// submissions under the NAS job mix.
    fn trace(&self) -> Vec<SubmittedJob> {
        trace::generate(&self.spec, &JobMix::nas(), self.library())
    }

    /// The configured fault plan for a faulted campaign, none otherwise.
    fn faults(&self, faulted: bool) -> FaultPlan {
        if faulted {
            self.fault_plan()
        } else {
            FaultPlan::none()
        }
    }

    /// Runs a rotated campaign: one lockstep campaign per pass of
    /// `plan`, with the configured trace, faults, and engine — the
    /// multiplexed path for signal requests wider than one counter
    /// selection (see [`sp2_cluster::run_campaign_rotated`]). Not
    /// cached: the plan, not the system's selection, keys the result.
    pub fn rotated_campaign(&self, plan: &SchedulePlan) -> Result<RotatedCampaign, Sp2Error> {
        if self.replay {
            return Err(Sp2Error::MissingCampaign(format!(
                "rotated {}-pass campaign",
                plan.n_passes()
            )));
        }
        Ok(run_campaign_rotated(
            &self.config,
            self.library(),
            &self.trace(),
            self.spec.days,
            &self.faults(self.faulted()),
            &self.engine,
            plan,
            self.cancel.as_deref(),
        )?)
    }

    /// Runs one experiment, providing whatever input it declares it
    /// needs (no campaign, the primary or io-aware campaign, and a
    /// fault-free twin for baseline-hungry experiments).
    ///
    /// While tracing is enabled, each experiment's analysis wall time
    /// (excluding the shared, cached campaign simulation) and dataset
    /// size land in the dynamic metrics as `core.experiment.<id>` and
    /// `core.dataset_bytes.<id>`.
    pub fn dataset(&mut self, exp: &dyn Experiment) -> Result<Dataset, Sp2Error> {
        if !exp.needs_campaign() {
            let empty = CampaignResult::empty(self.config.machine, exp.selection().selection());
            return Self::run_metered(exp, ExperimentInput::of(&empty));
        }
        let kind = exp.selection();
        let own = self.own_kind() == Some(kind);
        let faulted = self.faulted();
        self.ensure_campaign(kind, own, faulted)?;
        if exp.needs_baseline() {
            self.ensure_campaign(kind, own, false)?;
        }
        let campaign = &self.campaigns[&(kind, faulted)];
        let input = if exp.needs_baseline() {
            ExperimentInput::of(campaign).with_baseline(&self.campaigns[&(kind, false)])
        } else {
            ExperimentInput::of(campaign)
        };
        Self::run_metered(exp, input)
    }

    /// Runs the experiment's analysis, recording wall time and dataset
    /// size under the experiment's id when tracing is enabled.
    fn run_metered(exp: &dyn Experiment, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error> {
        let _ev = sp2_trace::recording()
            .then(|| sp2_trace::events::span(format!("experiment {}", exp.id()), "experiment"));
        if !sp2_trace::enabled() {
            return exp.run(input);
        }
        let start = std::time::Instant::now();
        let result = exp.run(input);
        let ns = start.elapsed().as_nanos() as u64;
        if let Ok(dataset) = &result {
            let id = exp.id();
            sp2_trace::dynamic::record_ns(&format!("core.experiment.{id}"), ns);
            let bytes = dataset.rendered.len() + dataset.json.to_string_pretty().len();
            sp2_trace::dynamic::add(&format!("core.dataset_bytes.{id}"), bytes as u64);
        }
        result
    }

    /// Runs every registered experiment in presentation order, stopping
    /// at the first failure.
    pub fn run_all(&mut self) -> Result<Vec<Dataset>, Sp2Error> {
        crate::experiments::all_experiments()
            .iter()
            .map(|e| self.dataset(*e))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_cached() {
        let mut sys = Sp2System::nas_1996(2);
        let a = sys.campaign().expect("campaign runs").samples.len();
        let b = sys.campaign().expect("campaign runs").samples.len();
        assert_eq!(a, b);
        assert_eq!(a, 2 * 96 + 1);
    }

    #[test]
    fn builder_overrides_compose() {
        let mut sys = Sp2System::builder()
            .days(1)
            .seed(11)
            .faults(0.5)
            .fault_seed(9)
            .build();
        assert_eq!(sys.spec().days, 1);
        assert_eq!(sys.spec().seed, 11);
        assert_eq!(sys.fault_rate(), 0.5);
        assert_eq!(sys.fault_seed(), 9);
        assert!(sys.faulted());
        assert_eq!(sys.campaign().expect("campaign runs").days, 1);
    }

    #[test]
    fn io_aware_campaign_cached_separately() {
        let mut sys = Sp2System::nas_1996(1);
        let nas_samples = sys.campaign().expect("campaign runs").samples.len();
        let io = sys
            .campaign_for(crate::experiments::SelectionKind::IoAware)
            .expect("campaign runs");
        assert!(io.selection.watches(sp2_hpm::Signal::IoWaitCycles));
        assert_eq!(io.samples.len(), nas_samples);
        assert!(!sys
            .campaign_for(crate::experiments::SelectionKind::Nas)
            .expect("campaign runs")
            .selection
            .watches(sp2_hpm::Signal::IoWaitCycles));
    }

    #[test]
    fn dataset_dispatches_per_experiment_needs() {
        let mut sys = Sp2System::nas_1996(1);
        let d = sys
            .dataset(crate::experiments::experiment("table1").expect("registered"))
            .expect("table1 runs");
        assert_eq!(d.id, "table1");
        assert!(d.rendered.contains("user.fxu0"));
    }

    #[test]
    fn faulted_and_baseline_campaigns_cached_separately() {
        let mut sys = Sp2System::builder()
            .days(1)
            .faults(2.0)
            .fault_seed(5)
            .build();
        assert!(!sys.fault_plan().is_empty());
        let faulted_samples = sys.campaign().expect("campaign runs").samples.len();
        let baseline_samples = sys
            .baseline_for(SelectionKind::Nas)
            .expect("twin runs")
            .samples
            .len();
        assert!(sys.campaign().expect("cached").faults.enabled);
        assert!(
            !sys.baseline_for(SelectionKind::Nas)
                .expect("cached")
                .faults
                .enabled
        );
        assert!(
            faulted_samples <= baseline_samples,
            "missed sweeps can only shrink the sample count"
        );
    }

    #[test]
    fn the_library_is_built_only_when_a_campaign_runs() {
        let table1 = crate::experiments::experiment("table1").expect("registered");
        let table2 = crate::experiments::experiment("table2").expect("registered");
        let mut live = Sp2System::nas_1996(1);
        live.campaign().expect("campaign runs");
        let campaign = live.campaigns.remove(&(SelectionKind::Nas, false));

        let mut replayed = Sp2System::nas_1996(1);
        replayed.replay(SelectionKind::Nas, campaign.expect("cached"));
        let d = replayed.dataset(table2).expect("a replay answers table2");
        assert_eq!(d.id, "table2");
        assert!(
            replayed.library.get().is_none(),
            "a replay measures no kernel"
        );

        let mut fresh = Sp2System::nas_1996(1);
        fresh.dataset(table1).expect("table1 runs");
        assert!(fresh.library.get().is_none(), "table1 runs no campaign");
        fresh.dataset(table2).expect("table2 runs");
        assert!(
            fresh.library.get().is_some(),
            "its campaign needs the library"
        );
    }

    #[test]
    fn zero_rate_baseline_is_the_campaign() {
        let mut sys = Sp2System::builder().days(1).build();
        assert!(sys.fault_plan().is_empty());
        let a = sys.campaign().expect("campaign runs").samples.len();
        let b = sys
            .baseline_for(SelectionKind::Nas)
            .expect("twin runs")
            .samples
            .len();
        assert_eq!(a, b);
        assert_eq!(sys.campaigns.len(), 1, "one cache entry serves both");
    }
}
