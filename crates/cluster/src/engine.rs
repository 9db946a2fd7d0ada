//! The batch node engine and its configuration.
//!
//! The campaign's hot path is the 15-minute sampling sweep: advance every
//! node's counters to the sweep time, then snapshot. The reference
//! engine ([`crate::state::NodeState`]) does this by walking a
//! `Vec<NodeState>`, each advance re-deriving the interval's event sets
//! from the node's [`ActivityPlan`] and folding them through the
//! selection — per node, per sweep, even though a quiet machine has 144
//! nodes running the *same* idle plan over the *same* 900-second
//! interval.
//!
//! [`NodeBank`] restructures this as struct-of-arrays batches:
//!
//! - **Counter lanes** live in one contiguous [`CounterBatch`] buffer
//!   (per node: user lanes then system lanes), so the advance inner loop
//!   is a cache-friendly streaming add instead of pointer chasing.
//! - **Plans are interned.** Installing a plan stores it once and gives
//!   the node a small id; the 50 nodes of a wide job share one entry, as
//!   do all idle nodes.
//! - **Deltas are cached per `(plan, dt)`.** Event generation is a pure
//!   function of the plan and the elapsed interval, and the monitor's
//!   `absorb` is a wrapping per-slot add — so the whole advance of a
//!   node over `dt` is "add a precomputed lane vector". The sweep
//!   cadence makes `dt` repeat exactly (times accumulate as exact
//!   multiples of 900.0), so steady intervals — idle nights, long jobs —
//!   hit the cache and cost one vectorizable add per node. The result is
//!   bit-identical to the reference path by construction.
//!
//! [`EngineConfig`] is the explicit configuration the engine runs under:
//! which engine, how many worker threads, and the switches that used to
//! be reachable only as process globals (sweep elision, metrics capture,
//! flight-recorder cadence). `None` fields inherit whatever the process
//! globals currently say, so a default config changes nothing.

use crate::activity::ActivityPlan;
use rayon::prelude::*;
use sp2_hpm::{CounterSelection, CounterSnapshot};
use sp2_power2::{BatchDelta, CounterBatch};

/// Which node engine a campaign runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The struct-of-arrays batch engine ([`NodeBank`]): interned plans,
    /// cached `(plan, dt)` deltas, contiguous counter lanes. The
    /// default; bit-identical to [`EngineKind::Reference`] (the
    /// equivalence suite proves it at every thread count).
    #[default]
    Batch,
    /// The original per-node loop over `Vec<NodeState>` — the reference
    /// the batch engine is proven against.
    Reference,
}

/// Explicit engine configuration, replacing scattered process-global
/// switches.
///
/// Every `Option` field means "`None` = leave the process-wide setting
/// alone", so `EngineConfig::default()` is behavior-preserving. CLI
/// flags translate into one of these; [`EngineConfig::apply`] pushes the
/// explicit choices into the globals the lower layers consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Node engine to run campaigns on.
    pub engine: EngineKind,
    /// Dedicated worker-pool size for the campaign: `None` inherits the
    /// caller's current pool; `Some(0)` builds one thread per core;
    /// `Some(n)` builds an `n`-thread pool.
    pub threads: Option<usize>,
    /// The batch engine's cluster-interval fast-forward: eliding runs of
    /// steady sampling sweeps (`--no-fast-forward` sets `Some(false)`).
    /// Results are bit-identical either way.
    pub fast_forward: Option<bool>,
    /// Self-metering metric capture (`--metrics` / `profile`).
    pub metrics: Option<bool>,
    /// Flight-recorder cadence in daemon sweeps (`--trace-out` /
    /// `timeline`). Applied by the layer that owns the recorder's
    /// collector (`sp2-core`'s timeline module), not by
    /// [`EngineConfig::apply`].
    pub recording_cadence: Option<u64>,
    /// Longest steady-sweep run the cluster-interval fast-forward may
    /// gather when samples spill to a `SampleSink` (out-of-core
    /// campaigns). The cap is what bounds sample residency between sink
    /// drains: an idle multi-month campaign would otherwise gather its
    /// whole history as one run before anything could leave the
    /// process. Without a sink the run is unbounded (the samples are
    /// resident anyway) and this field is ignored. Splitting a steady
    /// run never changes results — the first sweeps of the next run are
    /// stepped, and stepping is bit-identical to fast-forwarding — so
    /// this knob trades residency against elision length only. Default
    /// 96 (one day of 15-minute sweeps); must be at least 2 (a run of
    /// one can never elide).
    pub spill_max_run: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            engine: EngineKind::default(),
            threads: None,
            fast_forward: None,
            metrics: None,
            recording_cadence: None,
            spill_max_run: 96,
        }
    }
}

impl EngineConfig {
    /// Selects the engine kind.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Requests a dedicated worker pool (see the field docs).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the fast-forward switch explicitly.
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = Some(on);
        self
    }

    /// Sets metric capture explicitly.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = Some(on);
        self
    }

    /// Sets the flight-recorder cadence explicitly.
    pub fn recording_cadence(mut self, cadence: u64) -> Self {
        self.recording_cadence = Some(cadence);
        self
    }

    /// Sets the spill-mode steady-run cap (see the field docs).
    ///
    /// # Panics
    /// Panics when `cap < 2`: a cap of 1 would forbid gathering even a
    /// template sweep and silently disable the fast-forward, which is
    /// what [`EngineConfig::fast_forward`] is for.
    pub fn spill_max_run(mut self, cap: usize) -> Self {
        assert!(cap >= 2, "spill_max_run must be at least 2, got {cap}");
        self.spill_max_run = cap;
        self
    }

    /// Pushes the explicit switches into the process-wide settings the
    /// measurement layers consult. `None` fields are untouched;
    /// `recording_cadence` is applied by `sp2-core` (the recorder's
    /// collector lives there).
    pub fn apply(&self) {
        if let Some(on) = self.fast_forward {
            sp2_power2::set_fast_forward_enabled(on);
        }
        if let Some(on) = self.metrics {
            sp2_trace::set_enabled(on);
        }
    }
}

/// Bound on cached `(plan, dt)` deltas per plan entry. Sweep-aligned
/// intervals reuse a handful of exact `dt` values; job boundaries add
/// stragglers that are each used once — when the cache fills, the
/// least-recently-used tail entry is dropped.
const DT_CACHE_CAP: usize = 16;

/// Smallest lane buffer worth distributing over the worker pool. A
/// node's advance is a handful of wrapping adds — far below the cost of
/// dispatching a stolen task — so small banks (the paper's 144-node
/// machine included) apply serially even when a pool is attached, and
/// the pool earns its keep only on banks thousands of nodes wide.
/// Scheduling never changes results: each node's lanes are written
/// exactly once either way.
const MIN_PAR_LANES: usize = 1 << 14;

/// One interned activity plan shared by every node running it.
#[derive(Debug, Clone)]
struct PlanEntry {
    plan: ActivityPlan,
    /// Nodes currently pointing at this entry; 0 marks a free slot.
    refs: usize,
    /// `(dt_bits, delta)` cache, most-recently-used first.
    deltas: Vec<(u64, BatchDelta)>,
}

impl PlanEntry {
    /// The pre-folded delta for advancing `dt` seconds under this plan,
    /// computing and caching it on first use.
    fn delta(&mut self, dt: f64, selection: &CounterSelection) -> &BatchDelta {
        let bits = dt.to_bits();
        if let Some(pos) = self.deltas.iter().position(|(b, _)| *b == bits) {
            // Keep the hot dt at the front so steady sweeps scan one entry.
            self.deltas.swap(0, pos);
            return &self.deltas[0].1;
        }
        let user = self.plan.user_events(dt) + self.plan.dma_events(dt);
        let system = self.plan.system_events(dt) + self.plan.io_wait_events(dt);
        let delta = BatchDelta::fold(selection, &user, &system, true);
        if self.deltas.len() == DT_CACHE_CAP {
            self.deltas.pop();
        }
        self.deltas.insert(0, (bits, delta));
        &self.deltas[0].1
    }
}

/// Reusable temporaries for the advance passes: the distinct
/// `(plan, dt_bits)` keys seen this pass, their resolved deltas, the
/// per-node delta index (dense, for whole-bank passes), and the
/// `(node, delta index)` list (sparse, for job-sized node lists). Held
/// by the bank and cleared per pass so steady-state advancing allocates
/// nothing once the vectors have grown to their working size.
#[derive(Debug, Clone, Default)]
struct ResolveScratch {
    keys: Vec<(u32, u64)>,
    deltas: Vec<BatchDelta>,
    which: Vec<u32>,
    targets: Vec<(u32, u32)>,
}

/// The batch node engine: every node's counters, activity, and clock in
/// struct-of-arrays layout.
///
/// Semantically a `Vec<NodeState>` — same operations, same panics, and
/// bit-identical counter values — advanced in batch. See the module docs
/// for why that is faster.
#[derive(Debug, Clone)]
pub struct NodeBank {
    selection: CounterSelection,
    batch: CounterBatch,
    /// Interned plan id per node; `None` = no activity (crashed node).
    plan_of: Vec<Option<u32>>,
    /// Last time each node's counters were advanced.
    last_advance: Vec<f64>,
    plans: Vec<PlanEntry>,
    /// Plan slots whose refcount dropped to zero, reused on intern.
    free: Vec<u32>,
    scratch: ResolveScratch,
}

impl NodeBank {
    /// Creates `nodes` idle nodes at time 0 with the given selection.
    pub fn new(selection: CounterSelection, nodes: usize) -> Self {
        NodeBank {
            batch: CounterBatch::new(selection.clone(), nodes),
            selection,
            plan_of: vec![None; nodes],
            last_advance: vec![0.0; nodes],
            plans: Vec::new(),
            free: Vec::new(),
            scratch: ResolveScratch::default(),
        }
    }

    /// Number of nodes in the bank.
    pub fn node_count(&self) -> usize {
        self.plan_of.len()
    }

    fn intern(&mut self, plan: ActivityPlan) -> u32 {
        if let Some(id) = self.plans.iter().position(|e| e.refs > 0 && e.plan == plan) {
            self.plans[id].refs += 1;
            return id as u32;
        }
        let entry = PlanEntry {
            plan,
            refs: 1,
            deltas: Vec::new(),
        };
        if let Some(id) = self.free.pop() {
            self.plans[id as usize] = entry;
            id
        } else {
            self.plans.push(entry);
            (self.plans.len() - 1) as u32
        }
    }

    fn release(&mut self, id: u32) {
        let entry = &mut self.plans[id as usize];
        entry.refs -= 1;
        if entry.refs == 0 {
            entry.deltas = Vec::new();
            self.free.push(id);
        }
    }

    /// Advances one node's counters to `t` — the batch equivalent of
    /// [`crate::state::NodeState::advance`], with the same monotonicity
    /// contract.
    pub fn advance_node(&mut self, node: usize, t: f64) {
        let last = self.last_advance[node];
        assert!(t >= last - 1e-9, "time went backwards: {t} < {last}");
        let dt = t - last;
        if dt <= 0.0 {
            return;
        }
        if let Some(p) = self.plan_of[node] {
            let delta = self.plans[p as usize].delta(dt, &self.selection);
            delta.apply_to(self.batch.node_lanes_mut(node));
        }
        self.last_advance[node] = t;
    }

    /// Advances every node to `t` in one batched pass: resolve the
    /// distinct `(plan, dt)` deltas once (serial, almost always cached),
    /// then stream the lane adds — in parallel over the worker pool when
    /// the bank is large enough to pay for it, serially otherwise.
    /// Scheduling cannot matter: each node's lanes are written exactly
    /// once.
    pub fn advance_all(&mut self, t: f64) {
        let n = self.node_count();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.keys.clear();
        scratch.deltas.clear();
        scratch.which.clear();
        scratch.which.resize(n, u32::MAX);
        for (i, w) in scratch.which.iter_mut().enumerate() {
            let last = self.last_advance[i];
            assert!(t >= last - 1e-9, "time went backwards: {t} < {last}");
            let dt = t - last;
            if dt <= 0.0 {
                continue;
            }
            self.last_advance[i] = t;
            let Some(p) = self.plan_of[i] else { continue };
            let bits = dt.to_bits();
            let idx = match scratch.keys.iter().position(|&k| k == (p, bits)) {
                Some(idx) => idx,
                None => {
                    let d = self.plans[p as usize].delta(dt, &self.selection).clone();
                    scratch.keys.push((p, bits));
                    scratch.deltas.push(d);
                    scratch.deltas.len() - 1
                }
            };
            *w = idx as u32;
        }
        self.apply_resolved(&scratch.which, &scratch.deltas, 1);
        self.scratch = scratch;
    }

    /// Advances just the listed nodes to `t` — the job prologue/epilogue
    /// path, where a whole allocation is read at once. Exactly
    /// equivalent to [`NodeBank::advance_node`] per node (each node must
    /// appear at most once), but the distinct `(plan, dt)` deltas are
    /// resolved once for the list instead of once per node, and each
    /// resolved delta is applied straight from the plan's cache — no
    /// clone, no allocation beyond the bank's reusable scratch.
    pub fn advance_many(&mut self, nodes: &[usize], t: f64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.keys.clear();
        scratch.targets.clear();
        for &i in nodes {
            let last = self.last_advance[i];
            assert!(t >= last - 1e-9, "time went backwards: {t} < {last}");
            let dt = t - last;
            if dt <= 0.0 {
                continue;
            }
            self.last_advance[i] = t;
            let Some(p) = self.plan_of[i] else { continue };
            let bits = dt.to_bits();
            let idx = match scratch.keys.iter().position(|&k| k == (p, bits)) {
                Some(idx) => idx,
                None => {
                    scratch.keys.push((p, bits));
                    scratch.keys.len() - 1
                }
            };
            scratch.targets.push((i as u32, idx as u32));
        }
        for (gi, &(p, bits)) in scratch.keys.iter().enumerate() {
            let dt = f64::from_bits(bits);
            let delta = self.plans[p as usize].delta(dt, &self.selection);
            for &(i, w) in &scratch.targets {
                if w as usize == gi {
                    delta.apply_to(self.batch.node_lanes_mut(i as usize));
                }
            }
        }
        self.scratch = scratch;
    }

    /// Fast-forwards every node through `steps` sweeps of exactly `dt`
    /// seconds each, landing on `t_final`, in one application per node:
    /// the plan's `dt` delta scaled by `steps` ([`BatchDelta::apply_scaled`])
    /// is bit-identical to `steps` repeated [`NodeBank::advance_all`]
    /// calls because the per-sweep delta is a pure function of
    /// `(plan, dt)` and lane application is wrapping addition.
    ///
    /// Callers must guarantee the steadiness: every node's plan is
    /// unchanged across the whole run and every node was last advanced
    /// exactly `steps × dt` before `t_final` (the sweep cadence makes
    /// those times exact f64 multiples of the interval).
    pub fn advance_steady(&mut self, dt: f64, steps: u64, t_final: f64) {
        let n = self.node_count();
        let bits = dt.to_bits();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.keys.clear();
        scratch.deltas.clear();
        scratch.which.clear();
        scratch.which.resize(n, u32::MAX);
        for (i, w) in scratch.which.iter_mut().enumerate() {
            let last = self.last_advance[i];
            assert!(
                t_final >= last - 1e-9,
                "time went backwards: {t_final} < {last}"
            );
            self.last_advance[i] = t_final;
            let Some(p) = self.plan_of[i] else { continue };
            let idx = match scratch.keys.iter().position(|&k| k == (p, bits)) {
                Some(idx) => idx,
                None => {
                    let d = self.plans[p as usize].delta(dt, &self.selection).clone();
                    scratch.keys.push((p, bits));
                    scratch.deltas.push(d);
                    scratch.deltas.len() - 1
                }
            };
            *w = idx as u32;
        }
        self.apply_resolved(&scratch.which, &scratch.deltas, steps);
        self.scratch = scratch;
    }

    /// Applies the resolved per-node deltas (scaled by `steps`) onto the
    /// lane buffer — in worker-pool chunks when the bank is big enough
    /// ([`MIN_PAR_LANES`]), serially otherwise.
    fn apply_resolved(&mut self, which: &[u32], deltas: &[BatchDelta], steps: u64) {
        let n = self.node_count();
        let stride = self.batch.stride();
        let lanes = self.batch.lanes_mut();
        let threads = rayon::current_num_threads();
        if threads > 1 && n > 1 && lanes.len() >= MIN_PAR_LANES {
            // One worker-sized chunk per thread, not one per node: the
            // per-node add is a handful of lane additions, far below the
            // cost of a stolen task, so finer chunks would drown in pool
            // overhead.
            let per_chunk = n.div_ceil(threads);
            let base = lanes.as_ptr() as usize;
            lanes.par_chunks_mut(stride * per_chunk).for_each(|chunk| {
                let first =
                    (chunk.as_ptr() as usize - base) / (std::mem::size_of::<u64>() * stride);
                for (j, node_lanes) in chunk.chunks_mut(stride).enumerate() {
                    let w = which[first + j];
                    if w != u32::MAX {
                        match steps {
                            1 => deltas[w as usize].apply_to(node_lanes),
                            _ => deltas[w as usize].apply_scaled(node_lanes, steps),
                        }
                    }
                }
            });
        } else {
            for (i, chunk) in lanes.chunks_mut(stride).enumerate() {
                let w = which[i];
                if w != u32::MAX {
                    match steps {
                        1 => deltas[w as usize].apply_to(chunk),
                        _ => deltas[w as usize].apply_scaled(chunk, steps),
                    }
                }
            }
        }
    }

    /// Installs a new activity on one node (advancing it to `t` first).
    pub fn set_activity(&mut self, node: usize, t: f64, plan: Option<ActivityPlan>) {
        self.advance_node(node, t);
        if let Some(old) = self.plan_of[node].take() {
            self.release(old);
        }
        self.plan_of[node] = plan.map(|p| self.intern(p));
    }

    /// Puts every listed node on `plan` at `t`, exactly as
    /// [`NodeBank::set_activity`] per node would — but the plan is
    /// interned once and the remaining nodes take refcount bumps, so a
    /// 128-wide job start costs one deep plan comparison instead of 128.
    pub fn set_activity_many(&mut self, nodes: &[usize], t: f64, plan: ActivityPlan) {
        if nodes.is_empty() {
            return;
        }
        for &n in nodes {
            self.advance_node(n, t);
            if let Some(old) = self.plan_of[n].take() {
                self.release(old);
            }
        }
        let id = self.intern(plan);
        self.plans[id as usize].refs += nodes.len() - 1;
        for &n in nodes {
            self.plan_of[n] = Some(id);
        }
    }

    /// Reboots one node at `t`: activity dropped, counters cleared.
    pub fn reboot(&mut self, node: usize, t: f64) {
        self.advance_node(node, t);
        if let Some(old) = self.plan_of[node].take() {
            self.release(old);
        }
        self.batch.reset(node);
    }

    /// Snapshots one node's monitor as of time `t`.
    pub fn snapshot_at(&mut self, node: usize, t: f64) -> CounterSnapshot {
        self.advance_node(node, t);
        self.batch.snapshot(node)
    }

    /// Reads one node's monitor without advancing (daemon sampling after
    /// an explicit [`NodeBank::advance_all`]).
    pub fn snapshot(&self, node: usize) -> CounterSnapshot {
        self.batch.snapshot(node)
    }

    /// [`NodeBank::snapshot`] into an existing snapshot, reusing its
    /// buffers — the sweep loop's allocation-free read.
    pub fn snapshot_into(&self, node: usize, out: &mut CounterSnapshot) {
        self.batch.snapshot_into(node, out);
    }

    /// [`NodeBank::snapshot_into`] over a node list in one pass over the
    /// lane buffer — `outs[i]` receives `nodes[i]`'s reading. Pair with
    /// [`NodeBank::advance_many`] for the job prologue/epilogue path.
    pub fn snapshot_many_into(&self, nodes: &[usize], outs: &mut [CounterSnapshot]) {
        self.batch.snapshot_many_into(nodes, outs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::PagingModel;
    use crate::state::NodeState;
    use sp2_hpm::nas_selection;
    use sp2_power2::handler::{daemon_sample_signature, page_fault_signature};
    use sp2_power2::MachineConfig;
    use sp2_switch::SwitchConfig;

    fn idle_plan() -> ActivityPlan {
        let cfg = MachineConfig::nas_sp2();
        ActivityPlan::idle(&daemon_sample_signature(&cfg), &PagingModel::default())
    }

    fn job_plan(seed: u64) -> ActivityPlan {
        let cfg = MachineConfig::nas_sp2();
        let library = sp2_workload::WorkloadLibrary::build(&cfg, seed);
        let program = &library.programs()[0];
        ActivityPlan::for_job(
            program,
            library.signature_of(program.id),
            &page_fault_signature(&cfg),
            &SwitchConfig::default(),
            &PagingModel::default(),
            cfg.memory_bytes,
            4,
        )
    }

    /// Drives a NodeBank and a Vec<NodeState> through the same scripted
    /// history and asserts bit-identical snapshots throughout.
    #[test]
    fn bank_matches_reference_nodes_through_a_scripted_history() {
        let sel = nas_selection();
        let n = 8;
        let mut bank = NodeBank::new(sel.clone(), n);
        let mut refs: Vec<NodeState> = (0..n).map(|_| NodeState::new(sel.clone())).collect();

        let idle = idle_plan();
        let job = job_plan(42);
        for (i, r) in refs.iter_mut().enumerate() {
            bank.set_activity(i, 0.0, Some(idle.clone()));
            r.set_activity(0.0, Some(idle.clone()));
        }
        // Sweep, start a job on half the nodes mid-interval, sweep again,
        // finish the job off-cadence, crash and reboot one node.
        bank.advance_all(900.0);
        refs.iter_mut().for_each(|r| r.advance(900.0));
        for (i, r) in refs.iter_mut().enumerate().take(4) {
            bank.set_activity(i, 1_130.5, Some(job.clone()));
            r.set_activity(1_130.5, Some(job.clone()));
        }
        bank.advance_all(1_800.0);
        refs.iter_mut().for_each(|r| r.advance(1_800.0));
        for (i, r) in refs.iter_mut().enumerate().take(4) {
            assert_eq!(bank.snapshot_at(i, 2_345.25), r.snapshot_at(2_345.25));
            bank.set_activity(i, 2_345.25, Some(idle.clone()));
            r.set_activity(2_345.25, Some(idle.clone()));
        }
        bank.set_activity(7, 2_400.0, None);
        refs[7].set_activity(2_400.0, None);
        bank.advance_all(2_700.0);
        refs.iter_mut().for_each(|r| r.advance(2_700.0));
        bank.reboot(7, 2_800.0);
        refs[7].reboot(2_800.0);
        bank.set_activity(7, 2_800.0, Some(idle.clone()));
        refs[7].set_activity(2_800.0, Some(idle.clone()));
        bank.advance_all(3_600.0);
        refs.iter_mut().for_each(|r| r.advance(3_600.0));

        for (i, r) in refs.iter().enumerate() {
            assert_eq!(bank.snapshot(i), r.hpm().snapshot(), "node {i}");
        }
    }

    #[test]
    fn plan_interning_shares_entries_and_reclaims_slots() {
        let sel = nas_selection();
        let mut bank = NodeBank::new(sel, 4);
        let idle = idle_plan();
        for i in 0..4 {
            bank.set_activity(i, 0.0, Some(idle.clone()));
        }
        assert_eq!(bank.plans.len(), 1, "equal plans intern to one entry");
        assert_eq!(bank.plans[0].refs, 4);
        let job = job_plan(7);
        bank.set_activity(0, 10.0, Some(job.clone()));
        assert_eq!(bank.plans.len(), 2);
        bank.set_activity(0, 20.0, Some(idle.clone()));
        assert_eq!(bank.plans[0].refs, 4);
        assert_eq!(bank.free, vec![1], "dropped plan slot is reclaimable");
        bank.set_activity(1, 30.0, Some(job));
        assert_eq!(bank.plans.len(), 2, "free slot reused, no growth");
    }

    #[test]
    fn steady_sweeps_hit_the_delta_cache() {
        let sel = nas_selection();
        let mut bank = NodeBank::new(sel, 16);
        let idle = idle_plan();
        for i in 0..16 {
            bank.set_activity(i, 0.0, Some(idle.clone()));
        }
        let mut t = 0.0;
        for _ in 0..100 {
            t += 900.0;
            bank.advance_all(t);
        }
        // 100 uniform sweeps resolve to a single cached (plan, dt) delta.
        assert_eq!(bank.plans[0].deltas.len(), 1);
    }

    #[test]
    fn steady_fast_forward_matches_stepped_sweeps_bitwise() {
        let sel = nas_selection();
        let n = 6;
        let mut stepped = NodeBank::new(sel.clone(), n);
        let mut jumped = NodeBank::new(sel, n);
        let idle = idle_plan();
        let job = job_plan(11);
        for i in 0..n {
            let plan = if i % 2 == 0 {
                idle.clone()
            } else {
                job.clone()
            };
            stepped.set_activity(i, 0.0, Some(plan.clone()));
            jumped.set_activity(i, 0.0, Some(plan));
        }
        // Leave one node mid-interval and one crashed, as a real run
        // boundary would.
        stepped.advance_node(3, 120.25);
        jumped.advance_node(3, 120.25);
        stepped.set_activity(5, 200.0, None);
        jumped.set_activity(5, 200.0, None);
        // One normal sweep aligns everyone; then 40 steady sweeps.
        stepped.advance_all(900.0);
        jumped.advance_all(900.0);
        let mut t = 900.0;
        for _ in 0..40 {
            t += 900.0;
            stepped.advance_all(t);
        }
        jumped.advance_steady(900.0, 40, t);
        for i in 0..n {
            assert_eq!(jumped.snapshot(i), stepped.snapshot(i), "node {i}");
        }
    }

    #[test]
    fn dt_cache_stays_bounded_under_job_churn() {
        let sel = nas_selection();
        let mut bank = NodeBank::new(sel, 1);
        bank.set_activity(0, 0.0, Some(idle_plan()));
        let mut t = 0.0;
        for i in 0..200 {
            t += 1.0 + (i as f64) * 0.001; // every dt distinct
            bank.advance_node(0, t);
        }
        assert!(bank.plans[0].deltas.len() <= DT_CACHE_CAP);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_reversal_rejected() {
        let mut bank = NodeBank::new(nas_selection(), 1);
        bank.advance_all(100.0);
        bank.advance_all(50.0);
    }

    #[test]
    fn default_engine_config_is_inert() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.engine, EngineKind::Batch);
        assert!(cfg.threads.is_none());
        assert!(cfg.fast_forward.is_none());
        assert!(cfg.metrics.is_none());
        assert!(cfg.recording_cadence.is_none());
        // apply() must not disturb process globals.
        let ff = sp2_power2::fast_forward_enabled();
        let tr = sp2_trace::enabled();
        cfg.apply();
        assert_eq!(sp2_power2::fast_forward_enabled(), ff);
        assert_eq!(sp2_trace::enabled(), tr);
    }
}
