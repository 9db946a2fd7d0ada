//! The batch node engine and its configuration.
//!
//! The campaign's hot path is the 15-minute sampling sweep: advance every
//! node's counters to the sweep time, then read them. The reference
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
//!   hit the cache and cost one vectorizable add per node, applied
//!   straight from the cache. The result is bit-identical to the
//!   reference path by construction.
//! - **Readers take the lanes as they are.** The daemon's sweep and the
//!   job prologue/epilogue read [`NodeBank::lanes`] directly, so the
//!   sampling path builds no per-node snapshot.
//!
//! [`EngineConfig`] is the explicit configuration the engine runs under:
//! which engine, whether the batch engine elides steady sweeps, and the
//! metrics capture a process entry point switches on. A campaign reads
//! the engine kind and sweep elision from it once per run and writes no
//! process global.

use crate::activity::ActivityPlan;
use sp2_hpm::CounterSelection;
use sp2_power2::{BatchDelta, CounterBatch};

/// Which node engine a campaign runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The struct-of-arrays batch engine ([`NodeBank`]): interned plans,
    /// cached `(plan, dt)` deltas, contiguous counter lanes. The
    /// default; bit-identical to [`EngineKind::Reference`] (the
    /// equivalence suite proves it).
    #[default]
    Batch,
    /// The original per-node loop over `Vec<NodeState>` — the reference
    /// the batch engine is proven against.
    Reference,
}

/// Explicit engine configuration.
///
/// `engine` and `fast_forward` belong to the campaign that runs under
/// the config: each run reads them once and nothing else sees them.
/// Results are bit-identical under every setting. `metrics` is the
/// instrumentation switch of the thread that applies the config; `None`
/// leaves it as it is, and only a process entry point (the `sp2` CLI,
/// `sp2 serve`) applies it, through [`EngineConfig::apply`]. The flight
/// recorder is not a setting: a caller makes an `sp2_trace::Recording`
/// and runs its work inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Node engine to run campaigns on.
    pub engine: EngineKind,
    /// The batch engine's cluster-interval fast-forward: eliding runs of
    /// steady sampling sweeps. On by default; `--no-fast-forward` turns
    /// it off for the run's campaigns. Results are bit-identical either
    /// way, and the reference engine never elides.
    pub fast_forward: bool,
    /// Self-metering metric capture (`--metrics` / `profile`).
    pub metrics: Option<bool>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            engine: EngineKind::default(),
            fast_forward: true,
            metrics: None,
        }
    }
}

impl EngineConfig {
    /// Selects the engine kind.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Returns `self` unchanged: a campaign runs on the thread that
    /// calls it, so there is no pool to size. Its one caller is the
    /// end-to-end benchmark in `perfbench/`, which `BENCHMARK.json`
    /// freezes; nothing in the workspace calls it, and the next change
    /// to that benchmark should drop the call and then this method.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Turns the batch engine's sweep elision on or off.
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Sets metric capture explicitly.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = Some(on);
        self
    }

    /// Pushes an explicit metric-capture switch into the calling
    /// thread's trace context; `None` leaves it untouched. Process entry
    /// points call this; a campaign never does.
    pub fn apply(&self) {
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
        let Some((dt, _)) = step_of(&mut self.last_advance[node], t, None) else {
            return;
        };
        if let Some(p) = self.plan_of[node] {
            let delta = self.plans[p as usize].delta(dt, &self.selection);
            delta.apply_to(self.batch.node_lanes_mut(node));
        }
    }

    /// Advances every node to `t` in one pass over the lane buffer: each
    /// node adds its plan's `(plan, dt)` delta straight from the plan's
    /// cache — no copy of the delta, no allocation once the cache is warm.
    pub fn advance_all(&mut self, t: f64) {
        self.advance_every_node(t, None);
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
        self.advance_every_node(t_final, Some((dt, steps)));
    }

    /// Moves every node's clock to `t`, adding its plan's delta over its
    /// own elapsed `t − last` once (`steady = None`), or its plan's `dt`
    /// delta `steps` times (`steady = Some((dt, steps))`).
    fn advance_every_node(&mut self, t: f64, steady: Option<(f64, u64)>) {
        let per_node = self.selection.lanes_per_node();
        let nodes = self.batch.lanes_mut().chunks_exact_mut(per_node);
        for (i, node_lanes) in nodes.enumerate() {
            let Some((dt, steps)) = step_of(&mut self.last_advance[i], t, steady) else {
                continue;
            };
            let Some(p) = self.plan_of[i] else { continue };
            let delta = self.plans[p as usize].delta(dt, &self.selection);
            match steps {
                1 => delta.apply_to(node_lanes),
                _ => delta.apply_scaled(node_lanes, steps),
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

    /// Every node's counters as of its last advance, in the layout of
    /// [`CounterSelection::lanes_per_node`].
    pub fn lanes(&self) -> &[u64] {
        self.batch.lanes()
    }
}

/// One node's step to `t`: its clock moves to `t`, and the result is the
/// `(dt, steps)` to add — the node's own elapsed `t − last` once, or the
/// steady run's `dt` `steps` times. `None` when no time has passed.
///
/// # Panics
/// Panics when `t` is earlier than the node's clock.
fn step_of(last: &mut f64, t: f64, steady: Option<(f64, u64)>) -> Option<(f64, u64)> {
    assert!(t >= *last - 1e-9, "time went backwards: {t} < {last}");
    let step = steady.unwrap_or((t - *last, 1));
    if step.0 <= 0.0 {
        return None;
    }
    *last = t;
    Some(step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::PagingModel;
    use crate::state::NodeState;
    use sp2_hpm::nas_selection;
    use sp2_power2::handler::{daemon_sample_signature, page_fault_signature};
    use sp2_power2::MachineConfig;

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
            &PagingModel::default(),
            cfg.memory_bytes,
            4,
        )
    }

    /// One reference node's counters as lanes.
    fn reference_lanes(r: &NodeState) -> Vec<u64> {
        let mut lanes = vec![0; r.hpm().selection().lanes_per_node()];
        r.hpm().read_lanes(&mut lanes);
        lanes
    }

    /// Drives a NodeBank and a Vec<NodeState> through the same scripted
    /// history and asserts bit-identical counters throughout.
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
            bank.advance_node(i, 2_345.25);
            r.advance(2_345.25);
            assert_eq!(sel.node_lanes(bank.lanes(), i), reference_lanes(r));
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
            assert_eq!(
                sel.node_lanes(bank.lanes(), i),
                reference_lanes(r),
                "node {i}"
            );
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
        let mut jumped = NodeBank::new(sel.clone(), n);
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
        assert_eq!(jumped.lanes(), stepped.lanes());
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
        assert!(cfg.fast_forward, "sweep elision is on by default");
        assert!(cfg.metrics.is_none());
        // apply() must not disturb the thread's switch.
        let tr = sp2_trace::enabled();
        cfg.apply();
        assert_eq!(sp2_trace::enabled(), tr);
    }
}
