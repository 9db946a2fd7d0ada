//! The campaign event loop.
//!
//! [`Campaign`] is the one way to run a campaign: five inputs decide its
//! result, and [`Campaign::run`] runs it. The loop itself is
//! engine-agnostic: node state lives behind [`Engine`], which is either
//! the reference `Vec<NodeState>` walk or the struct-of-arrays
//! [`NodeBank`] batch engine, as the campaign's [`EngineConfig`]
//! selects. Both produce bit-identical campaigns (the equivalence suite
//! proves it). A campaign runs on the thread that calls it: the events
//! are causally ordered, and the paper's 144-node machine is too small a
//! bank for splitting a sweep's advance across threads to pay.

use crate::activity::ActivityPlan;
use crate::engine::{EngineConfig, EngineKind, NodeBank};
use crate::faults::FaultPlan;
use crate::paging::PagingModel;
use crate::result::{CampaignResult, FaultSummary};
use crate::state::NodeState;
use sp2_hpm::{nas_selection, CounterSelection};
use sp2_pbs::{JobId, JobOutcome, JobRecord, JobSpec, Pbs, PbsError};
use sp2_power2::handler::{daemon_sample_signature, page_fault_signature};
use sp2_power2::{CounterBatch, KernelSignature, MachineConfig};
use sp2_rs2hpm::{Daemon, JobCounterReport, SAMPLE_INTERVAL_S};
use sp2_trace::events::{SimEntry, SimKind};
use sp2_workload::{SubmittedJob, WorkloadLibrary};
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
    /// PBS rejected a request the simulation issued (e.g. a trace job
    /// requesting more nodes than the configured machine has).
    Pbs(PbsError),
    /// The campaign's [`CancelToken`] was raised mid-run. Partial state
    /// is discarded; the campaign produced no result.
    Cancelled,
    /// A rotated campaign was given a plan with no passes (an empty
    /// signal request plans nothing to rotate through).
    EmptyPlan,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Pbs(e) => write!(f, "batch system rejected a request: {e}"),
            CampaignError::Cancelled => write!(f, "campaign cancelled"),
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

/// What the campaign keeps of a running job beside PBS's own record of
/// it (spec, nodes, start).
struct RunningJob {
    attempt: u32,
    /// The job's nodes' counter lanes at job start, node after node in
    /// allocation order; the epilogue diffs the live lanes against it.
    prologue: Vec<u64>,
}

/// The node-state engine behind the event loop: same operations, same
/// results, two implementations (see the module docs). Both hand their
/// counters to the daemon and the job reports as one lane buffer (layout
/// on [`CounterSelection::lanes_per_node`]).
// One Engine exists per campaign and lives on the stack of the event
// loop, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Engine {
    /// The per-node loop, plus a lane buffer its monitors are copied
    /// into whenever the counters are read.
    Reference {
        nodes: Vec<NodeState>,
        lanes: CounterBatch,
    },
    Batch(NodeBank),
}

impl Engine {
    fn new(kind: EngineKind, selection: &CounterSelection, nodes: usize) -> Self {
        match kind {
            EngineKind::Reference => Engine::Reference {
                nodes: (0..nodes)
                    .map(|_| NodeState::new(selection.clone()))
                    .collect(),
                lanes: CounterBatch::new(selection.clone(), nodes),
            },
            EngineKind::Batch => Engine::Batch(NodeBank::new(selection.clone(), nodes)),
        }
    }

    fn set_activity(&mut self, node: usize, t: f64, plan: Option<ActivityPlan>) {
        match self {
            Engine::Reference { nodes, .. } => nodes[node].set_activity(t, plan),
            Engine::Batch(bank) => bank.set_activity(node, t, plan),
        }
    }

    /// Puts every listed node on `plan` at `t` — the job start/finish
    /// path. Equivalent to [`Engine::set_activity`] per node; the batch
    /// engine interns the plan once and hands the other nodes refcount
    /// bumps instead of a deep plan comparison each.
    fn set_activity_many(&mut self, targets: &[usize], t: f64, plan: ActivityPlan) {
        match self {
            Engine::Reference { nodes, .. } => {
                for &n in targets {
                    nodes[n].set_activity(t, Some(plan.clone()));
                }
            }
            Engine::Batch(bank) => bank.set_activity_many(targets, t, plan),
        }
    }

    /// Every node's counters as of its last advance — the daemon sweep's
    /// input. The batch engine lends its bank's lanes; the reference
    /// engine copies every monitor into its lane buffer first.
    fn lanes(&mut self) -> &[u64] {
        match self {
            Engine::Reference { nodes, lanes } => {
                for (n, node) in nodes.iter().enumerate() {
                    node.hpm().read_lanes(lanes.node_lanes_mut(n));
                }
                lanes.lanes()
            }
            Engine::Batch(bank) => bank.lanes(),
        }
    }

    /// Advances every listed node to `t` and returns the lane buffer, in
    /// which those nodes' lanes are current — the job prologue/epilogue
    /// path.
    fn lanes_at(&mut self, targets: &[usize], t: f64) -> &[u64] {
        match self {
            Engine::Reference { nodes, lanes } => {
                for &n in targets {
                    nodes[n].advance(t);
                    nodes[n].hpm().read_lanes(lanes.node_lanes_mut(n));
                }
                lanes.lanes()
            }
            Engine::Batch(bank) => {
                for &n in targets {
                    bank.advance_node(n, t);
                }
                bank.lanes()
            }
        }
    }

    fn reboot(&mut self, node: usize, t: f64) {
        match self {
            Engine::Reference { nodes, .. } => nodes[node].reboot(t),
            Engine::Batch(bank) => bank.reboot(node, t),
        }
    }

    /// Advances every node to `t` — the sampling pass's hot path.
    fn advance_all(&mut self, t: f64) {
        match self {
            Engine::Reference { nodes, .. } => {
                for node in nodes.iter_mut() {
                    node.advance(t);
                }
            }
            Engine::Batch(bank) => bank.advance_all(t),
        }
    }
}

/// One campaign: the five inputs that decide its result, plus settings
/// that decide only how it runs.
///
/// [`Campaign::new`] takes the inputs: the machine, the measured workload
/// library, the submission trace, the horizon in days and the fault
/// plan. With [`FaultPlan::none`] the result is bit-identical to a
/// fault-free engine; with a generated plan it is fully determined by the
/// trace seed and the fault seed. The settings never change the result:
///
/// - [`Campaign::engine`]: the node engine and its sweep elision
///   (default: the batch engine, eliding);
/// - [`Campaign::cancel`]: a [`CancelToken`] the event loop polls.
///
/// [`Campaign::run`] runs the campaign on the calling thread and writes
/// no process global: two campaigns in one process cannot change each
/// other's configuration. Under a flight recording it files the
/// campaign's simulated-clock track when it closes.
pub struct Campaign<'a> {
    config: &'a ClusterConfig,
    library: &'a WorkloadLibrary,
    trace: &'a [SubmittedJob],
    days: u32,
    faults: &'a FaultPlan,
    engine: EngineConfig,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Campaign<'a> {
    /// A campaign that replays `trace` through PBS on the machine
    /// `config` describes for `days` days, injecting `faults`.
    pub fn new(
        config: &'a ClusterConfig,
        library: &'a WorkloadLibrary,
        trace: &'a [SubmittedJob],
        days: u32,
        faults: &'a FaultPlan,
    ) -> Self {
        Campaign {
            config,
            library,
            trace,
            days,
            faults,
            engine: EngineConfig::default(),
            cancel: None,
        }
    }

    /// Runs under `engine`: which node engine, and whether the batch
    /// engine elides steady sweeps.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Polls `cancel` at every event boundary; once it is raised,
    /// [`Campaign::run`] returns [`CampaignError::Cancelled`]. `None`
    /// never cancels. The campaign service uses this so a `cancel`
    /// request frees its campaign worker mid-campaign instead of waiting
    /// out a multi-month simulation.
    pub fn cancel(mut self, cancel: Option<&'a CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Runs the campaign on the calling thread and returns every dataset
    /// the paper's evaluation uses.
    pub fn run(self) -> Result<CampaignResult, CampaignError> {
        let _campaign_span = crate::metrics::CAMPAIGN.span();
        let _campaign_ev = sp2_trace::events::span("campaign", "phase");
        let mut run = CampaignRun::new(&self);
        while let Some(Reverse(Scheduled { t, ev, .. })) = run.heap.pop() {
            if t > run.horizon {
                break;
            }
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(CampaignError::Cancelled);
            }
            crate::metrics::EVENTS.inc();
            if run.is_stale(ev) {
                continue;
            }
            match ev {
                Ev::Submit(i) => run.on_submit(i, t)?,
                Ev::Finish(id, _) => run.on_finish(id, t)?,
                Ev::Sample(k) => run.on_sample(k, t)?,
                Ev::NodeDown(node) => run.on_node_down(node, t)?,
                Ev::NodeUp(node) => run.on_node_up(node, t)?,
            }
        }
        run.close()
    }
}

/// The state of one running campaign. [`Campaign::run`] pops each event
/// off `heap` and hands it to its handler; every handler works on this
/// state alone.
struct CampaignRun<'a> {
    config: &'a ClusterConfig,
    library: &'a WorkloadLibrary,
    trace: &'a [SubmittedJob],
    faults: &'a FaultPlan,
    days: u32,
    horizon: f64,
    selection: CounterSelection,
    /// The measured page-fault handler every job's plan pages through.
    handler: KernelSignature,
    /// What a node runs between jobs.
    idle_plan: ActivityPlan,
    engine: Engine,
    /// Cluster-interval fast-forward: the batch engine may elide runs of
    /// steady sweeps (see [`CampaignRun::on_sample`]). The reference
    /// engine never does — it is the baseline the elision is proven
    /// against — and `--no-fast-forward` forces full stepping for A/B
    /// runs.
    steady_ff: bool,
    pbs: Pbs,
    daemon: Daemon,
    running: HashMap<JobId, RunningJob>,
    job_reports: Vec<JobCounterReport>,
    pbs_records: Vec<JobRecord>,
    down: Vec<bool>,
    /// Attempts so far per trace job (requeues after node failures).
    attempts: Vec<u32>,
    summary: FaultSummary,
    heap: BinaryHeap<Reverse<Scheduled>>,
    /// Push counter: events at equal times pop in push order.
    seq: u64,
    /// Prologue buffers of finished or killed jobs, reused by the next
    /// job starts so the prologue/epilogue path allocates nothing once
    /// warm.
    spare_prologues: Vec<Vec<u64>>,
    /// The gathered run of Sample events, reused across samples.
    gathered: Vec<(u64, f64)>,
    /// Node failure, node repair and daemon restart marks for the
    /// campaign's track; `None` unless a flight recording was current
    /// when the campaign began.
    marks: Option<Vec<SimEntry>>,
}

impl<'a> CampaignRun<'a> {
    /// Puts every node on the idle plan, queues every event the inputs
    /// fix up front (submits, sweeps, outages, in that order) and takes
    /// the daemon's baseline pass at t = 0.
    fn new(c: &Campaign<'a>) -> Self {
        let config = c.config;
        let horizon = c.days as f64 * 86_400.0;
        let selection = config.selection.clone();
        let handler = page_fault_signature(&config.machine);
        let daemon_sig = daemon_sample_signature(&config.machine);
        let idle_plan = ActivityPlan::idle(&daemon_sig, &config.paging);

        let mut engine = Engine::new(c.engine.engine, &selection, config.nodes);
        for n in 0..config.nodes {
            engine.set_activity(n, 0.0, Some(idle_plan.clone()));
        }
        let pbs = Pbs::new(config.nodes).with_drain_threshold(config.drain_threshold);
        let daemon = Daemon::new(selection.clone(), config.nodes);
        let mut run = CampaignRun {
            config,
            library: c.library,
            trace: c.trace,
            faults: c.faults,
            days: c.days,
            horizon,
            selection,
            handler,
            idle_plan,
            engine,
            steady_ff: c.engine.engine == EngineKind::Batch && c.engine.fast_forward,
            pbs,
            daemon,
            running: HashMap::new(),
            job_reports: Vec::new(),
            pbs_records: Vec::new(),
            down: vec![false; config.nodes],
            attempts: vec![0; c.trace.len()],
            summary: FaultSummary {
                enabled: !c.faults.is_empty(),
                ..FaultSummary::default()
            },
            heap: BinaryHeap::new(),
            seq: 0,
            spare_prologues: Vec::new(),
            gathered: Vec::new(),
            marks: sp2_trace::recording().then(Vec::new),
        };

        for (i, job) in c.trace.iter().enumerate() {
            if job.submit_s < horizon {
                run.push(job.submit_s, Ev::Submit(i));
            }
        }
        let mut sweep = 0u64;
        let mut t_sample = SAMPLE_INTERVAL_S;
        while t_sample <= horizon {
            sweep += 1;
            run.push(t_sample, Ev::Sample(sweep));
            t_sample += SAMPLE_INTERVAL_S;
        }
        for outage in c.faults.outages() {
            if outage.start < horizon {
                run.push(outage.start, Ev::NodeDown(outage.node));
                run.push(outage.end, Ev::NodeUp(outage.node));
                run.summary.outages += 1;
            }
        }
        run.summary.node_downtime_s = c.faults.node_downtime_s(horizon);

        // Baseline daemon pass at t=0 (flight-recorder sweep 0 only
        // baselines the interval series, exactly like the daemon itself).
        run.daemon.sweep(run.engine.lanes(), &run.down, &[], 0.0);
        sp2_trace::recorder::on_sweep(0, 0.0);
        run
    }

    fn push(&mut self, t: f64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            t,
            seq: self.seq,
            ev,
        }));
    }

    /// Whether handling `ev` now would change nothing: a Finish for an
    /// attempt a node failure killed, a NodeDown for a node already down
    /// (overlapping outage windows) or a NodeUp for a node already up.
    /// The event loop drops such events on pop, and the steady-run
    /// gatherer peeks past them.
    fn is_stale(&self, ev: Ev) -> bool {
        match ev {
            Ev::Finish(id, attempt) => self.running.get(&id).map(|j| j.attempt) != Some(attempt),
            Ev::NodeDown(node) => self.down[node],
            Ev::NodeUp(node) => !self.down[node],
            Ev::Submit(_) | Ev::Sample(_) => false,
        }
    }

    /// The PBS request for trace job `i`.
    fn job_spec(&self, i: usize) -> JobSpec {
        let job = &self.trace[i];
        JobSpec {
            id: JobId(i as u64),
            nodes: job.nodes,
            requested_walltime_s: job.requested_walltime_s,
            payload: i as u64,
        }
    }

    /// Starts every job PBS can place at `now`: the job's nodes take
    /// their prologue reading and switch to its plan, and its finish is
    /// queued.
    fn start_jobs(&mut self, now: f64) {
        let _sched_span = crate::metrics::SCHEDULE.span();
        let (config, library, trace) = (self.config, self.library, self.trace);
        for started in self.pbs.schedule(now) {
            let payload = started.spec.payload as usize;
            let submitted = &trace[payload];
            let attempt = self.attempts[payload];
            let plan = ActivityPlan::for_job(
                library.program(submitted.program),
                library.signature_of(submitted.program),
                &self.handler,
                &config.paging,
                config.machine.memory_bytes,
                started.spec.nodes,
            );
            let mut prologue = self.spare_prologues.pop().unwrap_or_default();
            prologue.clear();
            let lanes = self.engine.lanes_at(&started.nodes, now);
            for &n in &started.nodes {
                prologue.extend_from_slice(self.selection.node_lanes(lanes, n));
            }
            self.engine.set_activity_many(&started.nodes, now, plan);
            // PBS enforces the walltime limit: a job that would run past
            // its request is killed at the limit (no checkpointing on
            // the SP2, so killed means gone).
            self.push(
                now + submitted.residency_s(),
                Ev::Finish(started.spec.id, attempt),
            );
            let job = RunningJob { attempt, prologue };
            self.running.insert(started.spec.id, job);
        }
    }

    fn on_submit(&mut self, i: usize, t: f64) -> Result<(), CampaignError> {
        self.pbs.submit(self.job_spec(i))?;
        self.start_jobs(t);
        Ok(())
    }

    /// A live job's epilogue: its nodes' counters since the prologue
    /// become its report, and the nodes go back to idle.
    fn on_finish(&mut self, id: JobId, t: f64) -> Result<(), CampaignError> {
        let Some(job) = self.running.remove(&id) else {
            return Ok(());
        };
        let ran = self.pbs.release(id)?;
        let lanes = self.engine.lanes_at(&ran.nodes, t);
        self.job_reports.push(JobCounterReport::from_lanes(
            &self.selection,
            id.0,
            ran.start,
            t,
            &job.prologue,
            ran.nodes
                .iter()
                .map(|&n| self.selection.node_lanes(lanes, n)),
        ));
        self.engine
            .set_activity_many(&ran.nodes, t, self.idle_plan.clone());
        self.spare_prologues.push(job.prologue);
        self.pbs_records.push(ran.record(t, JobOutcome::Completed));
        self.start_jobs(t);
        Ok(())
    }

    /// Daemon sweep `k`, plus the steady sweeps after it that the batch
    /// engine elides in one jump.
    fn on_sample(&mut self, k: u64, t: f64) -> Result<(), CampaignError> {
        if self.faults.sweep_missed(k) {
            self.summary.missed_sweeps += 1;
            return Ok(());
        }
        if self.faults.restart_before_sweep(k) {
            self.daemon.restart();
            self.summary.daemon_restarts += 1;
            if let Some(marks) = &mut self.marks {
                marks.push(SimEntry::new(0, SimKind::DaemonRestart, t, t));
            }
        }
        self.gathered.clear();
        self.gathered.push((k, t));
        let deferred_submit = if self.steady_ff {
            self.gather_steady_run()?
        } else {
            None
        };
        let active = self.down.iter().filter(|&&d| !d).count();
        // A glitched first sweep may leave truncated baselines behind
        // without tripping the plausibility check (early in a campaign
        // the truncated delta can still be under PLAUSIBLE_DELTA_MAX),
        // which would poison the template below — push the clone point
        // one sweep further out so the template's baselines come from an
        // untruncated snapshot.
        let min_template = if self.faults.glitched_nodes(k).is_empty() {
            2
        } else {
            3
        };
        let mut i = 0;
        while i < self.gathered.len() {
            let (kk, tt) = self.gathered[i];
            // A run sweep at i >= 2 can clone run[i-1]'s sample: run[i-1]
            // sits one clean, exactly-900 s interval after run[i-2], which
            // advanced every node — so its per-node deltas are pure
            // one-interval deltas, and every later sweep in the run
            // repeats them exactly. Full coverage (no anomalies, no
            // re-baselining nodes) makes the daemon side a pure replay
            // too. Scale-apply the lane deltas, replay the sample with
            // only the timestamp changed: bit-identical to stepping (the
            // equivalence suite runs with this path on).
            let steady = i >= min_template
                && self
                    .daemon
                    .samples()
                    .last()
                    .is_some_and(|s| s.anomalies == 0 && s.nodes_sampled == active);
            if steady && self.gathered.len() - i >= 2 {
                let Engine::Batch(bank) = &mut self.engine else {
                    break; // unreachable: runs are only gathered for the batch engine
                };
                let run = &self.gathered[i..];
                {
                    // The jump ends before the first replayed sweep is
                    // recorded, so its interval carries the advance.
                    let _ff_span = crate::metrics::ADVANCE.span();
                    let steps = run.len() as u64;
                    bank.advance_steady(SAMPLE_INTERVAL_S, steps, run[run.len() - 1].1);
                    let times = run.iter().map(|&(_, t2)| t2);
                    self.daemon
                        .fast_forward_steady(times, bank.lanes(), &self.down);
                }
                // Each replayed sweep counts in its own interval, as a
                // stepped sweep does.
                for &(k2, t2) in run {
                    crate::metrics::SWEEPS.inc();
                    crate::metrics::SWEEPS_ELIDED.inc();
                    sp2_trace::recorder::on_sweep(k2, t2);
                }
                break;
            }
            // Stepped sampling pass: advance every node's counters to
            // `tt`, then the daemon sweeps the engine's lanes in index
            // order. Down nodes are skipped exactly as the real cron
            // script skipped unavailable nodes; glitched nodes return
            // their raw 32-bit registers. The sample is bit-identical
            // under either engine. The reference engine's copy of its
            // monitors into the lane buffer is timed with the advance.
            let lanes = {
                let _advance_span = crate::metrics::ADVANCE.span();
                self.engine.advance_all(tt);
                self.engine.lanes()
            };
            // The daemon's sweep span closes before the sweep is recorded,
            // so its time lands in this sweep's interval.
            let glitched = self.faults.glitched_nodes(kk);
            self.summary.glitches += glitched.iter().filter(|&&g| !self.down[g]).count();
            self.daemon.sweep(lanes, &self.down, glitched, tt);
            crate::metrics::SWEEPS.inc();
            sp2_trace::recorder::on_sweep(kk, tt);
            i += 1;
        }
        // A gather-absorbed Submit whose job fits runs its schedule pass
        // now, after the window it trailed on the heap has been applied —
        // same order the reference loop would process it in.
        if let Some(t_sub) = deferred_submit {
            self.start_jobs(t_sub);
        }
        Ok(())
    }

    /// Extends the run in `gathered` with every Sample event ahead of it
    /// on the heap that keeps the cadence (next index, no fault
    /// interaction of its own), peeking *past* events that provably leave
    /// node state alone. Those are handled here at their own timestamps,
    /// exactly as their handlers would, so between two gathered sweeps no
    /// job, outage or glitch touches any node — the precondition for the
    /// cluster-interval fast-forward. The classification (DESIGN §4c):
    ///
    /// - a stale event ([`CampaignRun::is_stale`]): dropped;
    /// - a Submit that only queues (`Pbs::would_start` is false):
    ///   submitted, with its (empty) schedule pass.
    ///
    /// A Submit that *would* start a job ends the run, but the submit
    /// itself is absorbed and its time returned: its schedule pass runs
    /// after the gathered window is applied. Every gathered sweep precedes
    /// it in heap order, so this reproduces the reference event order.
    fn gather_steady_run(&mut self) -> Result<Option<f64>, CampaignError> {
        while let Some(&Reverse(next)) = self.heap.peek() {
            if next.t > self.horizon {
                break;
            }
            match next.ev {
                Ev::Sample(k) => {
                    let prev_k = self.gathered[self.gathered.len() - 1].0;
                    if k != prev_k + 1
                        || self.faults.sweep_missed(k)
                        || self.faults.restart_before_sweep(k)
                        || !self.faults.glitched_nodes(k).is_empty()
                    {
                        break;
                    }
                    crate::metrics::EVENTS.inc();
                    self.gathered.push((k, next.t));
                    self.heap.pop();
                }
                Ev::Submit(i) => {
                    crate::metrics::EVENTS.inc();
                    self.heap.pop();
                    self.pbs.submit(self.job_spec(i))?;
                    if self.pbs.would_start() {
                        // Starting now would advance nodes past the
                        // gathered sweep times.
                        return Ok(Some(next.t));
                    }
                    self.start_jobs(next.t);
                }
                ev if self.is_stale(ev) => {
                    crate::metrics::EVENTS.inc();
                    self.heap.pop();
                }
                // A live Finish, a real outage or a real recovery.
                _ => break,
            }
        }
        Ok(None)
    }

    /// Node `node` crashes: its counters freeze, and the job on it is
    /// killed and, within its attempt budget, requeued.
    fn on_node_down(&mut self, node: usize, t: f64) -> Result<(), CampaignError> {
        let fault_span = crate::metrics::FAULT_SWEEP.span();
        if let Some(marks) = &mut self.marks {
            marks.push(SimEntry::new(node as u64, SimKind::NodeDown, t, t));
        }
        self.down[node] = true;
        // The node crashes: counters freeze at `t` (they advanced while
        // the job computed up to the crash).
        self.engine.set_activity(node, t, None);
        if let Some(id) = self.pbs.take_node_offline(node) {
            let killed = self.pbs.release(id)?;
            if let Some(job) = self.running.remove(&id) {
                // Surviving siblings drop back to idle; no epilogue runs
                // for a killed job — its prologue buffer goes straight
                // back for reuse.
                self.spare_prologues.push(job.prologue);
                for &n in &killed.nodes {
                    if n != node && !self.down[n] {
                        self.engine.set_activity(n, t, Some(self.idle_plan.clone()));
                    }
                }
                let requeued = job.attempt + 1 < MAX_JOB_ATTEMPTS;
                self.summary.jobs_killed += 1;
                let outcome = JobOutcome::NodeFailure { requeued };
                self.pbs_records.push(killed.record(t, outcome));
                if requeued {
                    self.attempts[id.0 as usize] += 1;
                    self.summary.jobs_requeued += 1;
                    self.pbs.requeue(killed.spec);
                }
            }
        }
        drop(fault_span);
        self.start_jobs(t);
        Ok(())
    }

    /// Node `node` is repaired and rebooted.
    fn on_node_up(&mut self, node: usize, t: f64) -> Result<(), CampaignError> {
        let fault_span = crate::metrics::FAULT_SWEEP.span();
        if let Some(marks) = &mut self.marks {
            marks.push(SimEntry::new(node as u64, SimKind::NodeUp, t, t));
        }
        self.down[node] = false;
        // The monitor state did not survive, so the daemon will
        // re-baseline this node.
        self.engine.reboot(node, t);
        self.engine
            .set_activity(node, t, Some(self.idle_plan.clone()));
        self.pbs.bring_node_online(node);
        drop(fault_span);
        self.start_jobs(t);
        Ok(())
    }

    /// Closes out still-running jobs at the horizon (partial records for
    /// utilization accounting; no epilogue report — the epilogue never
    /// ran, exactly as on a machine powered down mid-job), files the
    /// campaign's track under a recording and hands over every dataset.
    fn close(mut self) -> Result<CampaignResult, CampaignError> {
        let horizon = self.horizon;
        let mut ids: Vec<JobId> = self.running.keys().copied().collect();
        ids.sort(); // HashMap iteration order is nondeterministic
        for id in ids {
            let ran = self.pbs.release(id)?;
            self.pbs_records
                .push(ran.record(horizon, JobOutcome::Horizon));
        }
        crate::metrics::SIMULATED_S.add(horizon as u64);
        if let Some(marks) = self.marks.take() {
            sp2_trace::events::file_track(self.track(marks));
        }
        Ok(CampaignResult {
            days: self.days,
            node_count: self.config.nodes,
            machine: self.config.machine,
            selection: self.selection,
            samples: self.daemon.into_samples(),
            job_reports: self.job_reports,
            pbs_records: self.pbs_records,
            faults: self.summary,
        })
    }

    /// The campaign's simulated-clock track: the node and restart
    /// `marks`, PBS's drains, and per accounting record the attempt's run
    /// and how it ended, after the queue wait of each job's first attempt.
    fn track(&self, mut track: Vec<SimEntry>) -> Vec<SimEntry> {
        let drains = self.pbs.drains().iter();
        track.extend(drains.map(|&(id, t)| SimEntry::new(id.0, SimKind::Drain, t, t)));
        let mut waited = vec![false; self.trace.len()];
        for rec in &self.pbs_records {
            let (id, job) = (rec.id, rec.id as usize);
            if !std::mem::replace(&mut waited[job], true) {
                let submit_s = self.trace[job].submit_s;
                track.push(SimEntry::new(id, SimKind::Wait, submit_s, rec.start));
            }
            track.push(SimEntry::new(id, SimKind::Run, rec.start, rec.end));
            let ended = match rec.outcome {
                JobOutcome::Completed => SimKind::Epilogue,
                JobOutcome::NodeFailure { requeued: true } => SimKind::Requeue,
                JobOutcome::NodeFailure { requeued: false } => SimKind::Kill,
                JobOutcome::Horizon => SimKind::Horizon,
            };
            track.push(SimEntry::new(id, ended, rec.end, rec.end));
        }
        track
    }
}

/// Runs one campaign, with an optional cancel token, under `engine`: a
/// forwarding shim for [`Campaign::run`]. Its one caller is the
/// end-to-end benchmark in `perfbench/`, which `BENCHMARK.json` freezes;
/// the next change to that benchmark should call [`Campaign::run`] and
/// then delete this function.
pub fn run_campaign_cfg_cancellable(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
    engine: &EngineConfig,
    cancel: Option<&CancelToken>,
) -> Result<CampaignResult, CampaignError> {
    Campaign::new(config, library, trace, days, faults)
        .engine(*engine)
        .cancel(cancel)
        .run()
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
        Campaign::new(&config, &library, &jobs, spec.days, faults)
            .engine(EngineConfig::default().engine(EngineKind::Reference))
            .run()
            .expect("campaign runs")
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
        // larger campaigns and adversarial traces; this is the fast smoke
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
        let reference = Campaign::new(&config, &library, &jobs, spec.days, &plan)
            .engine(EngineConfig::default().engine(EngineKind::Reference))
            .run()
            .expect("reference runs");
        let batch = Campaign::new(&config, &library, &jobs, spec.days, &plan)
            .run()
            .expect("batch runs");
        assert_eq!(reference.samples, batch.samples);
        assert_eq!(reference.job_reports, batch.job_reports);
        assert_eq!(reference.pbs_records, batch.pbs_records);
        assert_eq!(reference.faults, batch.faults);
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
