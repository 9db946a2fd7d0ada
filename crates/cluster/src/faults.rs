//! Seeded fault injection: the degraded-machine scenarios the real
//! 9-month trace contained.
//!
//! The paper's daemon sampled "the SP2 nodes which are available for user
//! jobs" — an availability qualifier that only matters because nodes
//! *weren't* always available. This module generates a deterministic
//! [`FaultPlan`] from a single rate knob and a seed:
//!
//! - **node outages** — per-node windows drawn from exponential
//!   MTBF/MTTR distributions; a down node runs no jobs and is skipped by
//!   the daemon, and any job caught on it is killed (and usually
//!   requeued) by PBS;
//! - **missed sweeps** — cron passes that never ran (loaded frontend,
//!   NFS hiccup); the virtualized counters keep counting, so the next
//!   sweep's delta simply covers a longer interval;
//! - **daemon restarts** — the collector loses its in-memory `prev`
//!   snapshots and the next sweep only re-baselines;
//! - **counter glitches** — a single collection read returns the raw
//!   32-bit hardware registers instead of the 64-bit virtualized view,
//!   producing a wrap anomaly the daemon must detect and discard.
//!
//! An empty plan injects nothing and leaves the simulation bit-identical
//! to a fault-free run; a non-empty plan is fully determined by
//! `(nodes, days, rate, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// One node-outage window: the node is out of service over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// The failing node.
    pub node: usize,
    /// Failure time, seconds.
    pub start: f64,
    /// Repair time, seconds (may exceed the campaign horizon).
    pub end: f64,
}

/// A deterministic schedule of faults for one campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    outages: Vec<Outage>,
    /// 1-based daemon sweep indices that never run.
    missed_sweeps: HashSet<u64>,
    /// 1-based sweep indices immediately preceded by a daemon restart.
    restart_sweeps: HashSet<u64>,
    /// Glitched reads: sweep index → nodes whose snapshot is truncated
    /// to the 32-bit hardware registers on that sweep.
    glitches: HashMap<u64, Vec<usize>>,
}

/// Mean time between failures per node at `rate = 1.0`, seconds (30 days
/// — roughly one failure per node per month, scaled down by the rate).
const MTBF_BASE_S: f64 = 30.0 * 86_400.0;
/// Mean time to repair, seconds (4 hours).
const MTTR_S: f64 = 4.0 * 3_600.0;
/// Probability a given sweep is missed at `rate = 1.0`.
const MISSED_SWEEP_BASE_P: f64 = 0.02;
/// Expected daemon restarts per campaign day at `rate = 1.0`.
const RESTARTS_PER_DAY_BASE: f64 = 0.2;
/// Expected glitched node-reads per campaign day at `rate = 1.0`.
const GLITCHES_PER_DAY_BASE: f64 = 0.5;

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.missed_sweeps.is_empty()
            && self.restart_sweeps.is_empty()
            && self.glitches.is_empty()
    }

    /// Generates the plan for a `nodes`-node machine over `days` days.
    ///
    /// `rate` scales every fault class together; `0.0` (or a degenerate
    /// machine/horizon) yields the empty plan, `1.0` roughly matches a
    /// troubled production month (one outage per node per month, 2 % of
    /// sweeps missed). The result depends only on the arguments.
    pub fn generate(nodes: usize, days: u32, rate: f64, seed: u64) -> Self {
        if rate <= 0.0 || nodes == 0 || days == 0 {
            return FaultPlan::none();
        }
        let horizon = days as f64 * 86_400.0;
        let sweeps = (horizon / 900.0).floor() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = |rng: &mut StdRng, mean: f64| -> f64 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            -mean * u.ln()
        };

        // Outage windows, node by node (deterministic draw order).
        let mtbf = MTBF_BASE_S / rate;
        let mut outages = Vec::new();
        for node in 0..nodes {
            let mut t = exp(&mut rng, mtbf);
            while t < horizon {
                let repair = t + exp(&mut rng, MTTR_S);
                outages.push(Outage {
                    node,
                    start: t,
                    end: repair,
                });
                t = repair + exp(&mut rng, mtbf);
            }
        }

        // Missed cron sweeps.
        let p_missed = (MISSED_SWEEP_BASE_P * rate).min(0.5);
        let mut missed_sweeps = HashSet::new();
        for k in 1..=sweeps {
            if rng.gen_bool(p_missed) {
                missed_sweeps.insert(k);
            }
        }

        // Daemon restarts: each lands before a uniformly-drawn sweep.
        let n_restarts = (RESTARTS_PER_DAY_BASE * rate * days as f64).round() as usize;
        let mut restart_sweeps = HashSet::new();
        for _ in 0..n_restarts {
            restart_sweeps.insert(rng.gen_range(1..=sweeps));
        }

        // Counter glitches: a (sweep, node) pair per draw.
        let n_glitches = (GLITCHES_PER_DAY_BASE * rate * days as f64).round() as usize;
        let mut glitches: HashMap<u64, Vec<usize>> = HashMap::new();
        for _ in 0..n_glitches {
            let sweep = rng.gen_range(1..=sweeps);
            let node = rng.gen_range(0..nodes);
            let nodes_at = glitches.entry(sweep).or_default();
            if !nodes_at.contains(&node) {
                nodes_at.push(node);
            }
        }

        FaultPlan {
            outages,
            missed_sweeps,
            restart_sweeps,
            glitches,
        }
    }

    /// Adds one hand-written outage window (ablations and stress tests;
    /// [`FaultPlan::generate`] is the production path). Windows for the
    /// same node must not overlap — the engine tracks up/down as a
    /// toggle, exactly like the generator's non-overlapping draws.
    pub fn add_outage(&mut self, node: usize, start: f64, end: f64) {
        self.outages.push(Outage { node, start, end });
    }

    /// All outage windows, grouped by node in draw order.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Whether the `k`-th sweep (1-based) never runs.
    pub fn sweep_missed(&self, k: u64) -> bool {
        self.missed_sweeps.contains(&k)
    }

    /// Whether the daemon restarts just before the `k`-th sweep.
    pub fn restart_before_sweep(&self, k: u64) -> bool {
        self.restart_sweeps.contains(&k)
    }

    /// Nodes whose read is glitched (32-bit truncated) on sweep `k`.
    pub fn glitched_nodes(&self, k: u64) -> &[usize] {
        self.glitches.get(&k).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of missed sweeps in the plan.
    pub fn missed_sweep_count(&self) -> usize {
        self.missed_sweeps.len()
    }

    /// Number of daemon restarts in the plan.
    pub fn restart_count(&self) -> usize {
        self.restart_sweeps.len()
    }

    /// Number of planned glitched node-reads.
    pub fn glitch_count(&self) -> usize {
        self.glitches.values().map(Vec::len).sum()
    }

    /// Total planned node downtime, clipped to the horizon, in seconds.
    pub fn node_downtime_s(&self, horizon: f64) -> f64 {
        self.outages
            .iter()
            .map(|o| (o.end.min(horizon) - o.start.min(horizon)).max(0.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_empty() {
        assert!(FaultPlan::generate(144, 60, 0.0, 1).is_empty());
        assert!(FaultPlan::generate(144, 0, 1.0, 1).is_empty());
        assert!(FaultPlan::generate(0, 60, 1.0, 1).is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = FaultPlan::generate(144, 60, 0.05, 1996);
        let b = FaultPlan::generate(144, 60, 0.05, 1996);
        assert_eq!(a, b);
        let c = FaultPlan::generate(144, 60, 0.05, 1997);
        assert_ne!(a, c, "different seed must shuffle the plan");
    }

    #[test]
    fn moderate_rate_produces_every_fault_class() {
        let p = FaultPlan::generate(144, 60, 1.0, 7);
        assert!(!p.outages().is_empty());
        assert!(p.missed_sweep_count() > 0);
        assert!(p.restart_count() > 0);
        assert!(p.glitch_count() > 0);
        for o in p.outages() {
            assert!(o.end > o.start);
            assert!(o.node < 144);
            assert!(o.start < 60.0 * 86_400.0);
        }
    }

    #[test]
    fn rate_scales_fault_volume() {
        let lo = FaultPlan::generate(144, 120, 0.1, 3);
        let hi = FaultPlan::generate(144, 120, 2.0, 3);
        assert!(hi.outages().len() > lo.outages().len());
        assert!(hi.missed_sweep_count() > lo.missed_sweep_count());
    }

    #[test]
    fn downtime_clips_to_horizon() {
        let mut p = FaultPlan::none();
        p.outages.push(Outage {
            node: 0,
            start: 100.0,
            end: 1_000_000.0,
        });
        assert!((p.node_downtime_s(200.0) - 100.0).abs() < 1e-9);
        assert!((p.node_downtime_s(2_000_000.0) - 999_900.0).abs() < 1e-9);
    }

    #[test]
    fn glitched_nodes_lookup() {
        let p = FaultPlan::generate(144, 60, 1.0, 7);
        let with_glitch: Vec<u64> = (1..=(60 * 96))
            .filter(|&k| !p.glitched_nodes(k).is_empty())
            .collect();
        assert_eq!(
            with_glitch
                .iter()
                .map(|&k| p.glitched_nodes(k).len())
                .sum::<usize>(),
            p.glitch_count()
        );
    }
}
