//! The campaign event loop.
//!
//! The loop itself is engine-agnostic: node state lives behind
//! [`Engine`], which is either the reference `Vec<NodeState>` walk or
//! the struct-of-arrays [`NodeBank`] batch engine. Both produce
//! bit-identical campaigns (the equivalence suite proves it at every
//! thread count); [`run_campaign`] pins the reference engine,
//! [`run_campaign_cfg`] selects per an explicit [`EngineConfig`].

use crate::activity::ActivityPlan;
use crate::engine::{EngineConfig, EngineKind, NodeBank};
use crate::faults::FaultPlan;
use crate::paging::PagingModel;
use crate::result::{CampaignResult, FaultSummary};
use crate::state::NodeState;
use rayon::prelude::*;
use sp2_hpm::{nas_selection, CounterSelection, CounterSnapshot};
use sp2_pbs::{JobId, JobOutcome, JobRecord, JobSpec, Pbs, PbsError};
use sp2_power2::handler::{daemon_sample_signature, page_fault_signature};
use sp2_power2::{KernelSignature, MachineConfig};
use sp2_rs2hpm::{
    BottleneckSplit, CounterSource, Daemon, JobCounterReport, SampleSink, SAMPLE_INTERVAL_S,
};
use sp2_switch::SwitchConfig;
use sp2_workload::{CampaignSpec, JobMix, SubmittedJob, WorkloadLibrary};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// How many times a job may run before PBS gives up on it: the first
/// attempt plus up to two requeues after node failures.
const MAX_JOB_ATTEMPTS: u32 = 3;

/// Machine-level configuration of the simulated SP2.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Node count (144 at NAS).
    pub nodes: usize,
    /// Per-node machine parameters.
    pub machine: MachineConfig,
    /// Switch parameters.
    pub switch: SwitchConfig,
    /// Paging model parameters.
    pub paging: PagingModel,
    /// PBS drain threshold (64 at NAS).
    pub drain_threshold: u32,
    /// Counter selection every node's monitor runs (Table 1's at NAS;
    /// swap in [`sp2_hpm::io_aware_selection`] for the §7 extension).
    pub selection: CounterSelection,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 144,
            machine: MachineConfig::nas_sp2(),
            switch: SwitchConfig::default(),
            paging: PagingModel::default(),
            drain_threshold: 64,
            selection: nas_selection(),
        }
    }
}

impl ClusterConfig {
    /// Starts a validated builder seeded with the NAS defaults. Prefer
    /// this over field-struct construction: the builder rejects machine
    /// descriptions the simulator would silently mishandle.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            config: ClusterConfig::default(),
        }
    }
}

/// A [`ClusterConfig`] that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// `nodes == 0`: a machine with no nodes can run no jobs.
    NoNodes,
    /// The drain threshold exceeds the machine size, so draining could
    /// never gather enough nodes and wide jobs would starve forever.
    DrainExceedsNodes { drain_threshold: u32, nodes: usize },
    /// An empty counter selection: the monitors would count nothing and
    /// every downstream rate would be zero.
    EmptySelection,
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::NoNodes => write!(f, "cluster must have at least one node"),
            ClusterConfigError::DrainExceedsNodes {
                drain_threshold,
                nodes,
            } => write!(
                f,
                "drain threshold {drain_threshold} exceeds machine size {nodes}"
            ),
            ClusterConfigError::EmptySelection => {
                write!(f, "counter selection must watch at least one signal")
            }
        }
    }
}

impl std::error::Error for ClusterConfigError {}

/// Validated construction for [`ClusterConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Machine size in nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Per-node machine parameters.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.config.machine = machine;
        self
    }

    /// Switch parameters.
    pub fn switch(mut self, switch: SwitchConfig) -> Self {
        self.config.switch = switch;
        self
    }

    /// Paging model parameters.
    pub fn paging(mut self, paging: PagingModel) -> Self {
        self.config.paging = paging;
        self
    }

    /// PBS drain threshold.
    pub fn drain_threshold(mut self, drain_threshold: u32) -> Self {
        self.config.drain_threshold = drain_threshold;
        self
    }

    /// Counter selection every node's monitor runs.
    pub fn selection(mut self, selection: CounterSelection) -> Self {
        self.config.selection = selection;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ClusterConfig, ClusterConfigError> {
        let c = self.config;
        if c.nodes == 0 {
            return Err(ClusterConfigError::NoNodes);
        }
        if c.drain_threshold as usize > c.nodes {
            return Err(ClusterConfigError::DrainExceedsNodes {
                drain_threshold: c.drain_threshold,
                nodes: c.nodes,
            });
        }
        if c.selection.is_empty() {
            return Err(ClusterConfigError::EmptySelection);
        }
        Ok(c)
    }
}

/// A campaign that could not run to completion.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The dedicated worker pool could not be built.
    ThreadPool(String),
    /// PBS rejected a request the simulation issued (e.g. a trace job
    /// requesting more nodes than the configured machine has).
    Pbs(PbsError),
    /// The campaign's [`CancelToken`] was raised mid-run. Partial state
    /// is discarded; the campaign produced no result.
    Cancelled,
    /// The caller's [`SampleSink`] failed while samples were being
    /// spilled out of core (e.g. the archive's disk filled up).
    Spill(String),
    /// A rotated campaign was given a plan with no passes (an empty
    /// signal request plans nothing to rotate through).
    EmptyPlan,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::ThreadPool(e) => write!(f, "building the worker pool failed: {e}"),
            CampaignError::Pbs(e) => write!(f, "batch system rejected a request: {e}"),
            CampaignError::Cancelled => write!(f, "campaign cancelled"),
            CampaignError::Spill(e) => write!(f, "spilling samples failed: {e}"),
            CampaignError::EmptyPlan => write!(f, "rotation plan has no passes"),
        }
    }
}

/// Cooperative cancellation handle for a running campaign.
///
/// The campaign service hands one of these to every job it schedules;
/// raising it makes the event loop bail out with
/// [`CampaignError::Cancelled`] at the next event boundary (one relaxed
/// atomic load per event — the check never perturbs results, it only
/// decides whether the loop keeps going). Tokens are sharable
/// (`Arc<CancelToken>`) and idempotent: cancelling twice is fine, and a
/// token raised before the run starts cancels it at the first event.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: std::sync::atomic::AtomicBool,
}

impl CancelToken {
    /// A fresh, un-raised token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the token; every campaign holding it bails at its next
    /// event boundary.
    pub fn cancel(&self) {
        self.cancelled
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether the token has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl std::error::Error for CampaignError {}

impl From<PbsError> for CampaignError {
    fn from(e: PbsError) -> Self {
        CampaignError::Pbs(e)
    }
}

/// Event kinds, ordered by time then kind for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A job submission (index into the trace).
    Submit(usize),
    /// A running job's `attempt`-th run finishes. Stale events (the
    /// attempt was killed by a node failure) are ignored on pop.
    Finish(JobId, u32),
    /// The RS2HPM daemon's 15-minute sample (1-based sweep index).
    Sample(u64),
    /// A node fails.
    NodeDown(usize),
    /// A node is repaired and rebooted.
    NodeUp(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Scheduled {
    t: f64,
    seq: u64,
    ev: Ev,
}

impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t.total_cmp(&other.t).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct RunningJob {
    spec: JobSpec,
    nodes: Vec<usize>,
    start: f64,
    attempt: u32,
    prologue: Vec<CounterSnapshot>,
}

/// Per-campaign scratch for the job prologue/epilogue path. Retired
/// snapshot buffers and emptied prologue vectors cycle through these
/// pools instead of being dropped, so after warm-up a job start or
/// finish performs no heap allocation: prologues are drawn from
/// `prologues` + `snaps`, the epilogue batch is `epilogue` reused
/// across every Finish event, and a completed (or killed) job's buffers
/// all return here.
#[derive(Default)]
struct JobScratch {
    /// Retired [`CounterSnapshot`] buffers, ready to be overwritten.
    snaps: Vec<CounterSnapshot>,
    /// Retired prologue vectors (emptied, capacity kept).
    prologues: Vec<Vec<CounterSnapshot>>,
    /// The epilogue batch, drained back into `snaps` after each report.
    epilogue: Vec<CounterSnapshot>,
}

/// The node-state engine behind the event loop: same operations, same
/// results, two implementations (see the module docs).
// One Engine exists per campaign and lives on the stack of the event
// loop, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Reference(Vec<NodeState>),
    Batch(NodeBank),
}

impl Engine {
    fn new(kind: EngineKind, selection: &CounterSelection, nodes: usize) -> Self {
        match kind {
            EngineKind::Reference => Engine::Reference(
                (0..nodes)
                    .map(|_| NodeState::new(selection.clone()))
                    .collect(),
            ),
            EngineKind::Batch => Engine::Batch(NodeBank::new(selection.clone(), nodes)),
        }
    }

    fn node_count(&self) -> usize {
        match self {
            Engine::Reference(nodes) => nodes.len(),
            Engine::Batch(bank) => bank.node_count(),
        }
    }

    fn set_activity(&mut self, node: usize, t: f64, plan: Option<ActivityPlan>) {
        match self {
            Engine::Reference(nodes) => nodes[node].set_activity(t, plan),
            Engine::Batch(bank) => bank.set_activity(node, t, plan),
        }
    }

    /// Puts every listed node on `plan` at `t` — the job start/finish
    /// path. Equivalent to [`Engine::set_activity`] per node; the batch
    /// engine interns the plan once and hands the other nodes refcount
    /// bumps instead of a deep plan comparison each.
    fn set_activity_many(&mut self, targets: &[usize], t: f64, plan: ActivityPlan) {
        match self {
            Engine::Reference(nodes) => {
                for &n in targets {
                    nodes[n].set_activity(t, Some(plan.clone()));
                }
            }
            Engine::Batch(bank) => bank.set_activity_many(targets, t, plan),
        }
    }

    fn snapshot(&self, node: usize) -> CounterSnapshot {
        match self {
            Engine::Reference(nodes) => nodes[node].hpm().snapshot(),
            Engine::Batch(bank) => bank.snapshot(node),
        }
    }

    /// [`Engine::snapshot`] into an existing snapshot, reusing its
    /// buffers (the sweep loop recycles retired daemon baselines).
    fn snapshot_into(&self, node: usize, out: &mut CounterSnapshot) {
        match self {
            Engine::Reference(nodes) => nodes[node].hpm().snapshot_into(out),
            Engine::Batch(bank) => bank.snapshot_into(node, out),
        }
    }

    /// Advances every listed node to `t`, then snapshots them all into
    /// `out` — the job prologue/epilogue path, equivalent to
    /// [`Engine::snapshot_at`] per node. The batch engine resolves the
    /// distinct `(plan, dt)` deltas once for the whole allocation and
    /// reads every node's lanes in one pass; snapshot buffers are drawn
    /// from `pool` (retired ones go back via the caller), so the path
    /// allocates nothing once the pool is warm.
    fn snapshot_many_at(
        &mut self,
        targets: &[usize],
        t: f64,
        out: &mut Vec<CounterSnapshot>,
        pool: &mut Vec<CounterSnapshot>,
    ) {
        debug_assert!(out.is_empty(), "callers drain the batch back to the pool");
        out.clear();
        match self {
            Engine::Reference(nodes) => {
                for &n in targets {
                    nodes[n].advance(t);
                    match pool.pop() {
                        Some(mut s) => {
                            nodes[n].hpm().snapshot_into(&mut s);
                            out.push(s);
                        }
                        None => out.push(nodes[n].hpm().snapshot()),
                    }
                }
            }
            Engine::Batch(bank) => {
                bank.advance_many(targets, t);
                for &n in targets {
                    match pool.pop() {
                        Some(s) => out.push(s),
                        None => out.push(bank.snapshot(n)),
                    }
                }
                bank.snapshot_many_into(targets, out);
            }
        }
    }

    fn reboot(&mut self, node: usize, t: f64) {
        match self {
            Engine::Reference(nodes) => nodes[node].reboot(t),
            Engine::Batch(bank) => bank.reboot(node, t),
        }
    }

    /// Advances every node to `t` — the sampling pass's hot path.
    fn advance_all(&mut self, t: f64, chunk: usize) {
        match self {
            Engine::Reference(nodes) => {
                if sp2_trace::enabled() {
                    // Worker-busy time is clocked per worker chunk, not
                    // per node: one Instant pair per chunk keeps the
                    // traced path inside the overhead budget while still
                    // summing all on-worker time. Chunking never changes
                    // results — nodes are independent and each advances
                    // exactly once.
                    nodes.par_chunks_mut(chunk).for_each(|chunk| {
                        let t0 = std::time::Instant::now();
                        for n in chunk.iter_mut() {
                            n.advance(t);
                        }
                        crate::metrics::ADVANCE_BUSY_NS.add(t0.elapsed().as_nanos() as u64);
                    });
                } else {
                    nodes.par_iter_mut().for_each(|n| n.advance(t));
                }
            }
            Engine::Batch(bank) => {
                if sp2_trace::enabled() {
                    let t0 = std::time::Instant::now();
                    bank.advance_all(t);
                    crate::metrics::ADVANCE_BUSY_NS.add(t0.elapsed().as_nanos() as u64);
                } else {
                    bank.advance_all(t);
                }
            }
        }
    }
}

/// Daemon adaptor over the advanced engine.
struct EngineSource<'a> {
    engine: &'a Engine,
    down: &'a [bool],
}

impl CounterSource for EngineSource<'_> {
    fn node_count(&self) -> usize {
        self.engine.node_count()
    }
    fn node_available(&self, node: usize) -> bool {
        !self.down[node]
    }
    fn snapshot(&self, node: usize) -> CounterSnapshot {
        self.engine.snapshot(node)
    }
}

/// Runs the full campaign: replays `trace` through PBS on the simulated
/// machine for `days` days, injecting `faults`, and returns every dataset
/// the paper's evaluation uses.
///
/// With [`FaultPlan::none`] the result is bit-identical to a fault-free
/// engine at any thread count; with a generated plan the result is fully
/// determined by the trace seed and the fault seed.
///
/// Runs on the reference per-node engine — the baseline the batch
/// engine's equivalence suite is proven against. Production callers go
/// through [`run_campaign_cfg`], which defaults to the (bit-identical,
/// faster) batch engine.
pub fn run_campaign(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_inner(
        config,
        library,
        trace,
        days,
        faults,
        &EngineConfig::default().engine(EngineKind::Reference),
        None,
        None,
    )
}

/// Runs the campaign under an explicit [`EngineConfig`]: applies its
/// switches, builds a dedicated worker pool if `threads` is set
/// (inheriting the caller's pool otherwise), and selects the node
/// engine. Campaign results are bit-identical under every engine,
/// thread count, and switch setting.
pub fn run_campaign_cfg(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
    engine: &EngineConfig,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_cfg_cancellable(config, library, trace, days, faults, engine, None)
}

/// [`run_campaign_cfg`] with a cooperative [`CancelToken`]: the event
/// loop polls it at every event boundary and returns
/// [`CampaignError::Cancelled`] once it is raised. `None` behaves
/// exactly like [`run_campaign_cfg`]. The campaign service uses this so
/// a `cancel` request can reclaim the shared pool mid-campaign instead
/// of waiting out a multi-month simulation.
pub fn run_campaign_cfg_cancellable(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
    engine: &EngineConfig,
    cancel: Option<&CancelToken>,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_cfg_spill(config, library, trace, days, faults, engine, cancel, None)
}

/// [`run_campaign_cfg_cancellable`] with an out-of-core sample path:
/// when `spill` is given, every finalized [`SystemSample`] is drained
/// into the sink as the campaign runs (the interval reference stays
/// resident) and the returned [`CampaignResult::samples`] is empty —
/// the sink holds the series. Year-scale campaigns thus aggregate in
/// bounded memory; an [`crate::result::CampaignResult`]-sized history
/// never exists. Sink failures abort the run with
/// [`CampaignError::Spill`]. `None` behaves exactly like
/// [`run_campaign_cfg_cancellable`].
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_cfg_spill(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
    engine: &EngineConfig,
    cancel: Option<&CancelToken>,
    spill: Option<&mut dyn SampleSink>,
) -> Result<CampaignResult, CampaignError> {
    engine.apply();
    match engine.threads {
        Some(threads) => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .map_err(|e| CampaignError::ThreadPool(e.to_string()))?;
            pool.install(|| {
                run_campaign_inner(config, library, trace, days, faults, engine, cancel, spill)
            })
        }
        None => run_campaign_inner(config, library, trace, days, faults, engine, cancel, spill),
    }
}

/// Publishes the newest sweep's top-down bottleneck split as live
/// gauges (percent of cycles per category). Gated on recording so the
/// hot loop pays nothing when tracing is off; gauges never feed back
/// into engine state, so bit-identity between engines is unaffected.
fn publish_toplev_gauges(selection: &CounterSelection, daemon: &Daemon) {
    if !sp2_trace::recording() {
        return;
    }
    let Some(sample) = daemon.samples().last() else {
        return;
    };
    let Some(split) = BottleneckSplit::from_delta(selection, &sample.total) else {
        return;
    };
    crate::metrics::TOPLEV_DISPATCH.set(split.dispatch * 100.0);
    crate::metrics::TOPLEV_FPU.set(split.fpu * 100.0);
    crate::metrics::TOPLEV_DCACHE_TLB.set(split.dcache_tlb * 100.0);
    crate::metrics::TOPLEV_ICACHE.set(split.icache * 100.0);
    crate::metrics::TOPLEV_IO_WAIT.set(split.io_wait * 100.0);
}

#[allow(clippy::too_many_arguments)]
fn run_campaign_inner(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
    engine_cfg: &EngineConfig,
    cancel: Option<&CancelToken>,
    mut spill: Option<&mut dyn SampleSink>,
) -> Result<CampaignResult, CampaignError> {
    let _campaign_span = crate::metrics::CAMPAIGN.span();
    let _campaign_ev = sp2_trace::events::span("campaign", "phase");
    crate::metrics::RAYON_THREADS.set(rayon::current_num_threads() as f64);
    let horizon = days as f64 * 86_400.0;
    let selection = config.selection.clone();
    let handler: KernelSignature = page_fault_signature(&config.machine);
    let daemon_sig = daemon_sample_signature(&config.machine);
    let idle_plan = ActivityPlan::idle(&daemon_sig, &config.paging);

    let mut engine = Engine::new(engine_cfg.engine, &selection, config.nodes);
    for n in 0..config.nodes {
        engine.set_activity(n, 0.0, Some(idle_plan.clone()));
    }

    let mut pbs = Pbs::new(config.nodes).with_drain_threshold(config.drain_threshold);
    let mut daemon = Daemon::new(selection.clone(), config.nodes);
    let mut running: HashMap<JobId, RunningJob> = HashMap::new();
    let mut job_reports: Vec<JobCounterReport> = Vec::new();
    let mut pbs_records: Vec<JobRecord> = Vec::new();
    let mut down = vec![false; config.nodes];
    let mut attempts: Vec<u32> = vec![0; trace.len()];
    let mut summary = FaultSummary {
        enabled: !faults.is_empty(),
        ..FaultSummary::default()
    };

    let mut heap: BinaryHeap<Reverse<Scheduled>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<Scheduled>>, seq: &mut u64, t: f64, ev: Ev| {
        *seq += 1;
        heap.push(Reverse(Scheduled { t, seq: *seq, ev }));
    };

    for (i, job) in trace.iter().enumerate() {
        if job.submit_s < horizon {
            push(&mut heap, &mut seq, job.submit_s, Ev::Submit(i));
        }
    }
    let mut sweep = 0u64;
    let mut t_sample = SAMPLE_INTERVAL_S;
    while t_sample <= horizon {
        sweep += 1;
        push(&mut heap, &mut seq, t_sample, Ev::Sample(sweep));
        t_sample += SAMPLE_INTERVAL_S;
    }
    for outage in faults.outages() {
        if outage.start < horizon {
            push(&mut heap, &mut seq, outage.start, Ev::NodeDown(outage.node));
            push(&mut heap, &mut seq, outage.end, Ev::NodeUp(outage.node));
            summary.outages += 1;
        }
    }
    summary.node_downtime_s = faults.node_downtime_s(horizon);

    // Baseline daemon pass at t=0 (flight-recorder sweep 0 only
    // baselines the interval series, exactly like the daemon itself).
    daemon.collect(
        &EngineSource {
            engine: &engine,
            down: &down,
        },
        0.0,
    );
    sp2_trace::recorder::on_sweep(0, 0.0);

    let mut scratch = JobScratch::default();

    // Start any jobs PBS can place at `now`.
    let start_jobs = |now: f64,
                      pbs: &mut Pbs,
                      engine: &mut Engine,
                      running: &mut HashMap<JobId, RunningJob>,
                      heap: &mut BinaryHeap<Reverse<Scheduled>>,
                      seq: &mut u64,
                      attempts: &[u32],
                      trace: &[SubmittedJob],
                      scratch: &mut JobScratch| {
        let _sched_span = crate::metrics::SCHEDULE.span();
        let _sched_ev = sp2_trace::events::span("schedule", "phase");
        for started in pbs.schedule(now) {
            let submitted = &trace[started.spec.payload as usize];
            if sp2_trace::recording() {
                // Queue wait in simulated time; a requeued attempt's wait
                // began at the kill, which the kill site records instead.
                let attempt = attempts[started.spec.payload as usize];
                if attempt == 0 {
                    sp2_trace::events::sim_span(
                        format!("job {} wait", started.spec.id.0),
                        "pbs",
                        submitted.submit_s,
                        now,
                    );
                }
            }
            let program = library.program(submitted.program);
            let plan = ActivityPlan::for_job(
                program,
                library.signature_of(submitted.program),
                &handler,
                &config.switch,
                &config.paging,
                config.machine.memory_bytes,
                started.spec.nodes,
            );
            let mut prologue = scratch.prologues.pop().unwrap_or_default();
            engine.snapshot_many_at(&started.nodes, now, &mut prologue, &mut scratch.snaps);
            engine.set_activity_many(&started.nodes, now, plan);
            // PBS enforces the walltime limit: a job that would run past
            // its request is killed at the limit (no checkpointing on
            // the SP2, so killed means gone).
            let attempt = attempts[started.spec.payload as usize];
            let finish_t = now + submitted.residency_s();
            push(heap, seq, finish_t, Ev::Finish(started.spec.id, attempt));
            running.insert(
                started.spec.id,
                RunningJob {
                    spec: started.spec,
                    nodes: started.nodes,
                    start: now,
                    attempt,
                    prologue,
                },
            );
        }
    };

    // Advance-tick chunk size, hoisted out of the event loop: the node
    // count is fixed for the whole campaign, so deriving it (and
    // allocating a chunk list) on every sample tick was pure waste.
    let advance_chunk = config
        .nodes
        .div_ceil(rayon::current_num_threads().max(1))
        .max(1);

    // The sweep batch, reused across samples: `collect_batch` moves each
    // fresh snapshot in as a node's new baseline and leaves the retired
    // one behind, so after the first two sweeps the sampling pass
    // recycles the same buffers and allocates nothing.
    let mut sweep_batch: Vec<Option<CounterSnapshot>> = vec![None; config.nodes];

    // Cluster-interval fast-forward: the batch engine may elide runs of
    // steady sweeps (see the Sample arm). The reference engine never
    // does — it is the baseline the elision is proven against — and
    // `--no-fast-forward` forces full stepping for A/B runs. The switch
    // is read from the config when set (one read per campaign, immune to
    // other threads flipping the process global mid-run) and from the
    // global otherwise.
    let steady_ff = engine_cfg.engine == EngineKind::Batch
        && engine_cfg
            .fast_forward
            .unwrap_or_else(sp2_power2::fast_forward_enabled);

    while let Some(Reverse(Scheduled { t, ev, .. })) = heap.pop() {
        if t > horizon {
            break;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(CampaignError::Cancelled);
        }
        crate::metrics::EVENTS.inc();
        match ev {
            Ev::Submit(i) => {
                let job = &trace[i];
                pbs.submit(JobSpec {
                    id: JobId(i as u64),
                    nodes: job.nodes,
                    requested_walltime_s: job.requested_walltime_s,
                    payload: i as u64,
                })?;
                start_jobs(
                    t,
                    &mut pbs,
                    &mut engine,
                    &mut running,
                    &mut heap,
                    &mut seq,
                    &attempts,
                    trace,
                    &mut scratch,
                );
            }
            Ev::Finish(id, attempt) => {
                if running.get(&id).map(|j| j.attempt) != Some(attempt) {
                    // Stale: this attempt was killed by a node failure.
                    continue;
                }
                let Some(mut job) = running.remove(&id) else {
                    continue;
                };
                engine.snapshot_many_at(&job.nodes, t, &mut scratch.epilogue, &mut scratch.snaps);
                engine.set_activity_many(&job.nodes, t, idle_plan.clone());
                job_reports.push(JobCounterReport::from_snapshots(
                    &selection,
                    job.spec.id.0,
                    job.start,
                    t,
                    &job.prologue,
                    &scratch.epilogue,
                ));
                scratch.snaps.append(&mut job.prologue);
                scratch.prologues.push(job.prologue);
                let epilogue_drain = scratch.epilogue.drain(..);
                scratch.snaps.extend(epilogue_drain);
                pbs.finish(id, t)?;
                if sp2_trace::recording() {
                    sp2_trace::events::sim_span(format!("job {} run", id.0), "pbs", job.start, t);
                    sp2_trace::events::sim_instant(format!("job {} epilogue", id.0), "pbs", t);
                }
                pbs_records.push(JobRecord {
                    id: job.spec.id.0,
                    nodes: job.spec.nodes,
                    start: job.start,
                    end: t,
                    outcome: JobOutcome::Completed,
                });
                start_jobs(
                    t,
                    &mut pbs,
                    &mut engine,
                    &mut running,
                    &mut heap,
                    &mut seq,
                    &attempts,
                    trace,
                    &mut scratch,
                );
            }
            Ev::Sample(k) => {
                if faults.sweep_missed(k) {
                    summary.missed_sweeps += 1;
                    continue;
                }
                if faults.restart_before_sweep(k) {
                    daemon.restart();
                    summary.daemon_restarts += 1;
                }
                // Gather the steady run: this sweep plus every Sample
                // event ahead of it on the heap that keeps the cadence
                // (next index, no fault interaction of its own), peeking
                // *past* events that provably leave node state alone.
                // Non-mutating events are executed here at their correct
                // timestamps — PBS bookkeeping, metrics, fault
                // accounting all happen exactly as they would stepping —
                // so between two gathered sweeps no job, outage, or
                // glitch touches any node, which is the precondition for
                // the cluster-interval fast-forward below. The
                // classification (see DESIGN §4c):
                //   - Submit that only queues (`Pbs::would_start` is
                //     false): submitted here; starts nothing.
                //   - Finish for a superseded attempt: dropped here,
                //     exactly as the stale check in the Finish arm would.
                //   - NodeDown for an already-down node / NodeUp for an
                //     already-up node: dropped, as their arms would.
                // A Submit that *would* start a job still ends the run,
                // but the submit itself is absorbed and the schedule
                // deferred to after the gathered window is applied —
                // the gathered sweeps all precede it in heap order, so
                // this reproduces the reference event order exactly.
                let mut run: Vec<(u64, f64)> = vec![(k, t)];
                let max_run = if spill.is_some() {
                    engine_cfg.spill_max_run
                } else {
                    usize::MAX
                };
                let mut deferred_submit: Option<f64> = None;
                if steady_ff {
                    while run.len() < max_run {
                        let Some(&Reverse(next)) = heap.peek() else {
                            break;
                        };
                        if next.t > horizon {
                            break;
                        }
                        match next.ev {
                            Ev::Sample(kk) => {
                                let prev_k = run[run.len() - 1].0;
                                if kk != prev_k + 1
                                    || faults.sweep_missed(kk)
                                    || faults.restart_before_sweep(kk)
                                    || !faults.glitched_nodes(kk).is_empty()
                                {
                                    break;
                                }
                                crate::metrics::EVENTS.inc();
                                run.push((kk, next.t));
                                heap.pop();
                            }
                            Ev::Finish(id, attempt) => {
                                if running.get(&id).map(|j| j.attempt) == Some(attempt) {
                                    break; // live finish: real node-state mutation
                                }
                                crate::metrics::EVENTS.inc();
                                heap.pop();
                            }
                            Ev::NodeDown(node) => {
                                if !down[node] {
                                    break; // real outage
                                }
                                crate::metrics::EVENTS.inc();
                                heap.pop();
                            }
                            Ev::NodeUp(node) => {
                                if down[node] {
                                    break; // real recovery
                                }
                                crate::metrics::EVENTS.inc();
                                heap.pop();
                            }
                            Ev::Submit(i) => {
                                crate::metrics::EVENTS.inc();
                                heap.pop();
                                let job = &trace[i];
                                pbs.submit(JobSpec {
                                    id: JobId(i as u64),
                                    nodes: job.nodes,
                                    requested_walltime_s: job.requested_walltime_s,
                                    payload: i as u64,
                                })?;
                                if pbs.would_start() {
                                    // Starting now would advance nodes
                                    // past the gathered sweep times;
                                    // apply the window first, then
                                    // schedule at the submit's own
                                    // timestamp.
                                    deferred_submit = Some(next.t);
                                    break;
                                }
                                start_jobs(
                                    next.t,
                                    &mut pbs,
                                    &mut engine,
                                    &mut running,
                                    &mut heap,
                                    &mut seq,
                                    &attempts,
                                    trace,
                                    &mut scratch,
                                );
                            }
                        }
                    }
                }
                let active = down.iter().filter(|&&d| !d).count();
                // A glitched first sweep may leave truncated baselines
                // behind without tripping the plausibility check (early
                // in a campaign the truncated delta can still be under
                // PLAUSIBLE_DELTA_MAX), which would poison the template
                // below — push the clone point one sweep further out so
                // the template's baselines come from an untruncated
                // snapshot.
                let min_template = if faults.glitched_nodes(k).is_empty() {
                    2
                } else {
                    3
                };
                let mut i = 0;
                while i < run.len() {
                    let (kk, tt) = run[i];
                    // A run sweep at i >= 2 can clone run[i-1]'s sample:
                    // run[i-1] sits one clean, exactly-900 s interval
                    // after run[i-2], which advanced every node — so its
                    // per-node deltas are pure one-interval deltas, and
                    // every later sweep in the run repeats them exactly.
                    // Full coverage (no anomalies, no re-baselining
                    // nodes) makes the daemon side a pure replay too.
                    // Scale-apply the lane deltas, replay the sample
                    // with only the timestamp changed: bit-identical to
                    // stepping (the equivalence suite runs with this
                    // path on).
                    let steady = i >= min_template
                        && daemon
                            .samples()
                            .last()
                            .is_some_and(|s| s.anomalies == 0 && s.nodes_sampled == active);
                    if steady && run.len() - i >= 2 {
                        let Engine::Batch(bank) = &mut engine else {
                            break; // unreachable: runs are only gathered for the batch engine
                        };
                        let _ff_span = crate::metrics::ADVANCE.span();
                        let _ff_ev = sp2_trace::events::span("cluster fast-forward", "phase");
                        let steps = (run.len() - i) as u64;
                        crate::metrics::SWEEPS.add(steps);
                        crate::metrics::SWEEPS_ELIDED.add(steps);
                        let t_final = run[run.len() - 1].1;
                        bank.advance_steady(SAMPLE_INTERVAL_S, steps, t_final);
                        for (n, slot) in sweep_batch.iter_mut().enumerate() {
                            if down[n] {
                                *slot = None;
                                continue;
                            }
                            match slot.take() {
                                Some(mut s) => {
                                    bank.snapshot_into(n, &mut s);
                                    *slot = Some(s);
                                }
                                None => *slot = Some(bank.snapshot(n)),
                            }
                        }
                        let times: Vec<f64> = run[i..].iter().map(|&(_, t2)| t2).collect();
                        daemon.fast_forward_steady(&times, &mut sweep_batch);
                        // Replayed sweeps share one steady-state delta,
                        // so a single gauge update covers the whole run.
                        publish_toplev_gauges(&selection, &daemon);
                        for &(k2, t2) in &run[i..] {
                            sp2_trace::recorder::on_sweep(k2, t2);
                        }
                        break;
                    }
                    // Batched sampling pass: advance every node's
                    // counters to `tt` (the engine parallelizes over its
                    // pool when the bank is big enough), then snapshot
                    // serially in index order. Down nodes are skipped
                    // exactly as the real cron script skipped
                    // unavailable nodes; glitched nodes return their
                    // raw 32-bit registers. The daemon folds the batch
                    // in index order, so the sample is bit-identical at
                    // any thread count and under either engine.
                    {
                        let advance_span = crate::metrics::ADVANCE.span();
                        let _advance_ev = sp2_trace::events::span("advance", "phase");
                        engine.advance_all(tt, advance_chunk);
                        drop(advance_span);
                    }
                    let _sample_span = crate::metrics::SAMPLE.span();
                    let _sample_ev = sp2_trace::events::span("sample", "phase");
                    let glitched = faults.glitched_nodes(kk);
                    for (n, slot) in sweep_batch.iter_mut().enumerate() {
                        if down[n] {
                            *slot = None;
                            continue;
                        }
                        let mut snap = match slot.take() {
                            Some(mut s) => {
                                engine.snapshot_into(n, &mut s);
                                s
                            }
                            None => engine.snapshot(n),
                        };
                        if glitched.contains(&n) {
                            snap = snap.truncate_to_hardware();
                        }
                        *slot = Some(snap);
                    }
                    summary.glitches += glitched.iter().filter(|&&g| !down[g]).count();
                    daemon.collect_batch(&mut sweep_batch, tt);
                    crate::metrics::SWEEPS.inc();
                    publish_toplev_gauges(&selection, &daemon);
                    sp2_trace::recorder::on_sweep(kk, tt);
                    i += 1;
                }
                // Out-of-core path: everything before the newest sample
                // is final (samples only ever append), so it can leave
                // the process now. The newest one stays — it is the
                // interval reference for the next sweep and the
                // fast-forward's replay template.
                if let Some(sink) = spill.as_mut() {
                    daemon
                        .drain_samples(&mut **sink, 1)
                        .map_err(|e| CampaignError::Spill(e.to_string()))?;
                }
                // A gather-absorbed Submit whose job fits runs its
                // schedule pass now, after the window it trailed on the
                // heap has been applied — same order the reference loop
                // would process it in.
                if let Some(t_sub) = deferred_submit {
                    start_jobs(
                        t_sub,
                        &mut pbs,
                        &mut engine,
                        &mut running,
                        &mut heap,
                        &mut seq,
                        &attempts,
                        trace,
                        &mut scratch,
                    );
                }
            }
            Ev::NodeDown(node) => {
                if down[node] {
                    continue;
                }
                let fault_span = crate::metrics::FAULT_SWEEP.span();
                let fault_ev = sp2_trace::events::span("fault", "phase");
                if sp2_trace::recording() {
                    sp2_trace::events::sim_instant(format!("node {node} down"), "fault", t);
                }
                down[node] = true;
                // The node crashes: counters freeze at `t` (they advanced
                // while the job computed up to the crash).
                engine.set_activity(node, t, None);
                let victim = pbs.take_node_offline(node);
                if let Some(id) = victim {
                    let killed = pbs.kill(id, t)?;
                    if let Some(mut job) = running.remove(&id) {
                        // Surviving siblings drop back to idle; no
                        // epilogue runs for a killed job — its prologue
                        // buffers go straight back to the scratch pool.
                        scratch.snaps.append(&mut job.prologue);
                        scratch.prologues.push(job.prologue);
                        for &n in &job.nodes {
                            if n != node && !down[n] {
                                engine.set_activity(n, t, Some(idle_plan.clone()));
                            }
                        }
                        let requeued = job.attempt + 1 < MAX_JOB_ATTEMPTS;
                        if sp2_trace::recording() {
                            sp2_trace::events::sim_span(
                                format!("job {} run", id.0),
                                "pbs",
                                job.start,
                                t,
                            );
                            let marker = if requeued { "requeue" } else { "kill" };
                            sp2_trace::events::sim_instant(
                                format!("job {} {marker}", id.0),
                                "pbs",
                                t,
                            );
                        }
                        summary.jobs_killed += 1;
                        pbs_records.push(JobRecord {
                            id: job.spec.id.0,
                            nodes: job.spec.nodes,
                            start: job.start,
                            end: t,
                            outcome: JobOutcome::NodeFailure { requeued },
                        });
                        if requeued {
                            attempts[id.0 as usize] += 1;
                            summary.jobs_requeued += 1;
                            pbs.requeue(killed.spec);
                        }
                    }
                }
                drop(fault_ev);
                drop(fault_span);
                start_jobs(
                    t,
                    &mut pbs,
                    &mut engine,
                    &mut running,
                    &mut heap,
                    &mut seq,
                    &attempts,
                    trace,
                    &mut scratch,
                );
            }
            Ev::NodeUp(node) => {
                if !down[node] {
                    continue;
                }
                let fault_span = crate::metrics::FAULT_SWEEP.span();
                let fault_ev = sp2_trace::events::span("fault", "phase");
                if sp2_trace::recording() {
                    sp2_trace::events::sim_instant(format!("node {node} up"), "fault", t);
                }
                down[node] = false;
                // Repair and reboot: the monitor state did not survive,
                // so the daemon will re-baseline this node.
                engine.reboot(node, t);
                engine.set_activity(node, t, Some(idle_plan.clone()));
                pbs.bring_node_online(node);
                drop(fault_ev);
                drop(fault_span);
                start_jobs(
                    t,
                    &mut pbs,
                    &mut engine,
                    &mut running,
                    &mut heap,
                    &mut seq,
                    &attempts,
                    trace,
                    &mut scratch,
                );
            }
        }
    }

    // Close out still-running jobs at the horizon (partial records for
    // utilization accounting; no epilogue report — the epilogue never
    // ran, exactly as on a machine powered down mid-job).
    let mut ids: Vec<JobId> = running.keys().copied().collect();
    ids.sort(); // HashMap iteration order is nondeterministic
    for id in ids {
        let Some(job) = running.remove(&id) else {
            continue;
        };
        pbs.finish(id, horizon)?;
        if sp2_trace::recording() {
            sp2_trace::events::sim_span(format!("job {} run", id.0), "pbs", job.start, horizon);
            sp2_trace::events::sim_instant(format!("job {} horizon", id.0), "pbs", horizon);
        }
        pbs_records.push(JobRecord {
            id: job.spec.id.0,
            nodes: job.spec.nodes,
            start: job.start,
            end: horizon,
            outcome: JobOutcome::Horizon,
        });
    }

    crate::metrics::SIMULATED_S.add(horizon as u64);
    let samples = match spill {
        Some(sink) => {
            // Flush the tail (including the resident interval
            // reference); the sink holds the whole series, the result
            // carries none of it.
            daemon
                .drain_samples(sink, 0)
                .map_err(|e| CampaignError::Spill(e.to_string()))?;
            Vec::new()
        }
        None => daemon.samples().to_vec(),
    };
    Ok(CampaignResult {
        days,
        node_count: config.nodes,
        machine: config.machine,
        selection,
        samples,
        job_reports,
        pbs_records,
        faults: summary,
    })
}

/// Runs the campaign on a dedicated pool of `threads` worker threads
/// (`0` means one thread per available core).
///
/// The event loop itself is inherently serial — events are causally
/// ordered. Each 15-minute sampling pass may advance the nodes across
/// the pool: the reference engine always does, the default batch engine
/// only for banks of at least 16384 counter lanes (the paper's 144-node
/// machine, 3168 lanes, advances serially). The result is bit-identical
/// to [`run_campaign`] at any thread count.
pub fn run_campaign_with_threads(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    threads: usize,
    faults: &FaultPlan,
) -> Result<CampaignResult, CampaignError> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| CampaignError::ThreadPool(e.to_string()))?;
    pool.install(|| run_campaign(config, library, trace, days, faults))
}

/// Runs `replications` independent campaigns whose traces derive from
/// `base_spec` with per-replication seeds (`seed + index`), sharded
/// across the rayon pool. Every replication replays the same `faults`
/// plan, so replication spread isolates workload variance from fault
/// variance.
///
/// Replications are embarrassingly parallel: each generates its own
/// submission trace and replays it on its own simulated machine. The
/// merge is deterministic — results come back ordered by replication
/// index regardless of how the shards were scheduled — so serial and
/// parallel runs produce bit-identical result vectors.
pub fn run_replications(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    mix: &JobMix,
    base_spec: &CampaignSpec,
    replications: usize,
    faults: &FaultPlan,
) -> Result<Vec<CampaignResult>, CampaignError> {
    (0..replications as u64)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|rep| {
            let spec = CampaignSpec {
                seed: base_spec.seed.wrapping_add(rep),
                ..*base_spec
            };
            let jobs = sp2_workload::trace::generate(&spec, mix, library);
            // The default (batch) engine: bit-identical to the reference
            // and much faster, which compounds across replications.
            run_campaign_inner(
                config,
                library,
                &jobs,
                spec.days,
                faults,
                &EngineConfig::default(),
                None,
                None,
            )
        })
        .collect::<Vec<Result<CampaignResult, CampaignError>>>()
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_workload::{trace, CampaignSpec, JobMix};

    /// A small but real campaign used by several tests.
    fn small_campaign() -> CampaignResult {
        small_campaign_with(&FaultPlan::none())
    }

    fn small_campaign_with(faults: &FaultPlan) -> CampaignResult {
        let config = ClusterConfig::default();
        let library = WorkloadLibrary::build(&config.machine, 42);
        let spec = CampaignSpec {
            days: 7,
            seed: 7,
            ..Default::default()
        };
        let jobs = trace::generate(&spec, &JobMix::nas(), &library);
        run_campaign(&config, &library, &jobs, spec.days, faults).expect("campaign runs")
    }

    #[test]
    fn campaign_produces_all_datasets() {
        let r = small_campaign();
        assert_eq!(r.days, 7);
        assert_eq!(r.node_count, 144);
        // 7 days of 15-minute samples plus the baseline pass.
        assert_eq!(r.samples.len(), 7 * 96 + 1);
        assert!(!r.job_reports.is_empty(), "jobs must have completed");
        assert!(r.pbs_records.len() >= r.job_reports.len());
        assert!(!r.faults.enabled, "no faults were injected");
        assert!(r.pbs_records.iter().all(|rec| rec.outcome
            != JobOutcome::NodeFailure { requeued: true }
            && rec.outcome != JobOutcome::NodeFailure { requeued: false }));
    }

    #[test]
    fn sampled_rates_are_plausible() {
        let r = small_campaign();
        // Machine-wide Mflops per sample: 0 ≤ x ≤ 144 x peak.
        let peak = 144.0 * MachineConfig::nas_sp2().peak_mflops();
        for s in &r.samples {
            assert!(s.rates.mflops >= 0.0);
            assert!(s.rates.mflops < peak, "sample exceeds machine peak");
        }
        let busy_samples = r.samples.iter().filter(|s| s.rates.mflops > 100.0).count();
        assert!(busy_samples > 50, "the machine must actually compute");
    }

    #[test]
    fn job_reports_match_pbs_records() {
        let r = small_campaign();
        for report in &r.job_reports {
            let rec = r
                .pbs_records
                .iter()
                .find(|rec| rec.id == report.job_id)
                .expect("every epilogue has an accounting record");
            assert_eq!(rec.nodes, report.nodes);
            assert!((rec.start - report.start).abs() < 1e-6);
            assert!((rec.end - report.end).abs() < 1e-6);
        }
    }

    #[test]
    fn determinism() {
        let a = small_campaign();
        let b = small_campaign();
        assert_eq!(a.samples.len(), b.samples.len());
        assert_eq!(a.job_reports.len(), b.job_reports.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.total, y.total);
        }
    }

    #[test]
    fn dedicated_nodes_never_double_booked() {
        // Indirectly verified: PBS enforces it; here we check that no
        // report ever spans more nodes than requested.
        let r = small_campaign();
        for report in &r.job_reports {
            assert!(report.nodes >= 1 && report.nodes <= 144);
        }
    }

    #[test]
    fn faulted_campaign_is_deterministic_and_degraded() {
        let plan = FaultPlan::generate(144, 7, 1.0, 1996);
        let a = small_campaign_with(&plan);
        let b = small_campaign_with(&plan);
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.total, y.total);
            assert_eq!(x.nodes_sampled, y.nodes_sampled);
        }
        assert!(a.faults.enabled);
        assert_eq!(a.faults, b.faults);
        // The plan injected real degradation.
        assert!(a.faults.outages > 0);
        assert!(a.samples.len() < 7 * 96 + 1, "missed sweeps drop samples");
        assert!(
            a.samples.iter().any(|s| s.has_gap()),
            "outages must leave coverage gaps"
        );
    }

    #[test]
    fn node_failures_kill_and_requeue_jobs() {
        let plan = FaultPlan::generate(144, 7, 2.0, 11);
        let r = small_campaign_with(&plan);
        assert!(r.faults.jobs_killed > 0, "a 2x fault rate must hit jobs");
        assert!(r.faults.jobs_requeued > 0);
        assert!(r.faults.jobs_requeued <= r.faults.jobs_killed);
        let killed = r
            .pbs_records
            .iter()
            .filter(|rec| matches!(rec.outcome, JobOutcome::NodeFailure { .. }))
            .count();
        assert_eq!(killed, r.faults.jobs_killed);
        // A requeued job eventually reappears: some id has both a
        // NodeFailure record and a later Completed/Horizon record.
        let reran = r.pbs_records.iter().any(|rec| {
            matches!(rec.outcome, JobOutcome::NodeFailure { requeued: true })
                && r.pbs_records
                    .iter()
                    .any(|r2| r2.id == rec.id && r2.start >= rec.end && r2.outcome != rec.outcome)
        });
        assert!(reran, "requeued jobs must get another attempt");
    }

    #[test]
    fn batch_engine_matches_reference_bitwise() {
        // The full equivalence suite (tests/engine_equivalence.rs) runs
        // larger campaigns across thread counts; this is the fast smoke
        // version: one small faulted campaign, both engines, every
        // dataset compared with `==` (u64 counters and exact f64s).
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
        // The NAS mix includes jobs wider than this scaled-down machine;
        // keep the ones that fit (PBS rejects oversized requests).
        let jobs: Vec<_> = trace::generate(&spec, &JobMix::nas(), &library)
            .into_iter()
            .filter(|j| j.nodes as usize <= 24)
            .collect();
        let plan = FaultPlan::generate(24, 2, 1.5, 9);
        let reference =
            run_campaign(&config, &library, &jobs, spec.days, &plan).expect("reference runs");
        let batch = run_campaign_cfg(
            &config,
            &library,
            &jobs,
            spec.days,
            &plan,
            &EngineConfig::default(),
        )
        .expect("batch runs");
        assert_eq!(reference.samples, batch.samples);
        assert_eq!(reference.job_reports, batch.job_reports);
        assert_eq!(reference.pbs_records, batch.pbs_records);
        assert_eq!(reference.faults, batch.faults);
    }

    #[test]
    fn spilled_campaign_matches_resident_samples_bitwise() {
        let config = ClusterConfig::builder()
            .nodes(16)
            .drain_threshold(8)
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
            .filter(|j| j.nodes as usize <= 16)
            .collect();
        let resident = run_campaign_cfg(
            &config,
            &library,
            &jobs,
            spec.days,
            &FaultPlan::none(),
            &EngineConfig::default(),
        )
        .expect("resident runs");
        let mut spilled: Vec<sp2_rs2hpm::SystemSample> = Vec::new();
        let r = run_campaign_cfg_spill(
            &config,
            &library,
            &jobs,
            spec.days,
            &FaultPlan::none(),
            &EngineConfig::default(),
            None,
            Some(&mut spilled),
        )
        .expect("spilling run succeeds");
        assert!(r.samples.is_empty(), "the sink holds the series");
        assert_eq!(spilled, resident.samples, "spill is bit-identical");
        assert_eq!(r.job_reports, resident.job_reports);
        assert_eq!(r.pbs_records, resident.pbs_records);
    }

    #[test]
    fn glitches_surface_as_anomalies_not_garbage_rates() {
        let plan = FaultPlan::generate(144, 7, 2.0, 5);
        assert!(plan.glitch_count() > 0);
        let r = small_campaign_with(&plan);
        let anomalies: usize = r.samples.iter().map(|s| s.anomalies).sum();
        assert!(anomalies > 0, "glitches must be detected");
        let peak = 144.0 * MachineConfig::nas_sp2().peak_mflops();
        for s in &r.samples {
            assert!(
                s.rates.mflops < peak,
                "a wrapped delta leaked into the rates"
            );
        }
    }
}
