//! The system-wide collection daemon.
//!
//! "The RS2HPM daemon, executing on all nodes of the SP2, allows
//! automatic sampling and data access over the network via TCP. At
//! 15-minute intervals, the cron daemon runs a script to collect data
//! from all the SP2 nodes which are available for user jobs … whether or
//! not user processes are executing" (§3). Figure 1 is the daily
//! aggregation of this trace; the "maximum 15-minute rate" statistic is
//! its per-sample maximum.

use crate::rates::RateReport;
use sp2_hpm::{CounterDelta, CounterSelection};

/// The cron cadence: 15 minutes.
pub const SAMPLE_INTERVAL_S: f64 = 900.0;

/// Largest per-interval count a 66 MHz node could plausibly produce.
///
/// A POWER2 node generates well under 2^35 events in 15 minutes; a delta
/// above 2^48 can only come from a corrupted read (e.g. a reading
/// truncated to the 32-bit hardware registers, whose wrap-corrected delta
/// lands near 2^64). The real collection scripts applied the same kind of
/// sanity filter before archiving.
pub const PLAUSIBLE_DELTA_MAX: u64 = 1 << 48;

/// One 15-minute, machine-wide sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSample {
    /// Sample time, seconds since campaign start.
    pub t: f64,
    /// Nodes that contributed.
    pub nodes_sampled: usize,
    /// Nodes in the machine (the denominator of coverage).
    pub nodes_total: usize,
    /// Per-node deltas discarded this pass as implausible (counter
    /// glitches; see [`PLAUSIBLE_DELTA_MAX`]).
    pub anomalies: usize,
    /// Sum of all contributing nodes' deltas since the previous sample.
    pub total: CounterDelta,
    /// Machine-wide rates over the interval (sum over nodes).
    pub rates: RateReport,
}

impl SystemSample {
    /// Fraction of the machine that contributed to this sample, in
    /// `[0, 1]`. Exactly `1.0` when every node was sampled.
    pub fn coverage(&self) -> f64 {
        if self.nodes_total == 0 {
            0.0
        } else {
            self.nodes_sampled as f64 / self.nodes_total as f64
        }
    }

    /// Whether any node failed to contribute (outage, fresh baseline, or
    /// discarded anomaly).
    pub fn has_gap(&self) -> bool {
        self.nodes_sampled < self.nodes_total
    }
}

/// The collection daemon: holds every node's previous reading.
///
/// Readings arrive as one lane buffer for the whole machine, in the
/// layout of [`CounterSelection::lanes_per_node`] that the batch
/// engine's counter bank keeps.
#[derive(Debug, Clone)]
pub struct Daemon {
    selection: CounterSelection,
    /// Previous readings, in the input's lane layout. A node's lanes
    /// mean something only while its `has_baseline` flag is set.
    baselines: Vec<u64>,
    has_baseline: Vec<bool>,
    samples: Vec<SystemSample>,
    /// One node's delta, reused across nodes and sweeps.
    delta: Vec<u64>,
    /// The sweep's running machine-wide sum, reused across sweeps.
    sum: Vec<u64>,
}

impl Daemon {
    /// Creates the daemon for a machine of `nodes` nodes.
    pub fn new(selection: CounterSelection, nodes: usize) -> Self {
        let per_node = selection.lanes_per_node();
        Daemon {
            selection,
            baselines: vec![0; nodes * per_node],
            has_baseline: vec![false; nodes],
            samples: Vec::new(),
            delta: vec![0; per_node],
            sum: vec![0; per_node],
        }
    }

    fn check_input(&self, lanes: &[u64], down: &[bool]) {
        assert_eq!(
            lanes.len(),
            self.baselines.len(),
            "lanes must cover every node of the machine"
        );
        assert_eq!(
            down.len(),
            self.has_baseline.len(),
            "availability must cover every node of the machine"
        );
    }

    /// Runs one collection pass at time `t` over every node's counters
    /// (`lanes`, in the layout described on [`Daemon`]) and appends a
    /// [`SystemSample`].
    ///
    /// Nodes marked in `down` are skipped, as the real cron script
    /// skipped unavailable nodes, and lose their baseline. The read of
    /// every node listed in `glitched` returns its raw 32-bit hardware
    /// registers instead of the virtualized 64-bit counters. A node seen
    /// for the first time, back from an outage or after a discarded
    /// delta only establishes a baseline (no delta can be formed),
    /// matching how the real script behaved after node reboots.
    ///
    /// Each available node costs one pass over its lanes: form the
    /// wrapping delta against the baseline while copying the new
    /// baseline, then check it against [`PLAUSIBLE_DELTA_MAX`] and add it
    /// to the sample total. A node with any implausible lane contributes
    /// nothing and re-baselines next pass. Nodes fold in index order.
    ///
    /// # Panics
    /// Panics unless `lanes` and `down` cover every node of the machine.
    pub fn sweep(
        &mut self,
        lanes: &[u64],
        down: &[bool],
        glitched: &[usize],
        t: f64,
    ) -> &SystemSample {
        self.check_input(lanes, down);
        let _sweep = crate::metrics::SWEEP.span();
        let per_node = self.selection.lanes_per_node();
        self.sum.fill(0);
        let mut nodes_sampled = 0;
        let mut anomalies = 0;
        let mut baselines = 0u64;
        let nodes = lanes
            .chunks_exact(per_node)
            .zip(self.baselines.chunks_exact_mut(per_node))
            .zip(&mut self.has_baseline);
        for (node, ((reading, baseline), has_baseline)) in nodes.enumerate() {
            if down[node] {
                *has_baseline = false;
                continue;
            }
            // A glitched read sees only the low 32 bits of each counter.
            let mask = if glitched.contains(&node) {
                u64::from(u32::MAX)
            } else {
                u64::MAX
            };
            if !*has_baseline {
                baselines += 1;
                *has_baseline = true;
                for (b, &r) in baseline.iter_mut().zip(reading) {
                    *b = r & mask;
                }
                continue;
            }
            // The new baseline is written even when the delta turns out
            // implausible: the flag, not the lanes, then marks it void.
            let mut high = 0u64;
            for ((d, b), &r) in self.delta.iter_mut().zip(baseline.iter_mut()).zip(reading) {
                let r = r & mask;
                *d = r.wrapping_sub(*b);
                *b = r;
                high |= *d;
            }
            // No lane reaches the bound when their OR stays below it;
            // otherwise check each lane, since the bound itself passes.
            if high < PLAUSIBLE_DELTA_MAX || self.delta.iter().all(|&d| d <= PLAUSIBLE_DELTA_MAX) {
                for (sum, &d) in self.sum.iter_mut().zip(&self.delta) {
                    *sum += d;
                }
                nodes_sampled += 1;
            } else {
                // A corrupted read: drop the delta, count the anomaly,
                // and re-baseline from a clean reading next pass.
                anomalies += 1;
                *has_baseline = false;
            }
        }
        crate::metrics::NODES_SAMPLED.add(nodes_sampled as u64);
        crate::metrics::ANOMALIES.add(anomalies as u64);
        crate::metrics::BASELINES.add(baselines);
        let interval = self
            .samples
            .last()
            .map(|s| t - s.t)
            .unwrap_or(SAMPLE_INTERVAL_S)
            .max(1e-9);
        let (user, system) = self.selection.split_lanes(&self.sum);
        let total = CounterDelta {
            user: user.to_vec(),
            system: system.to_vec(),
        };
        let rates = RateReport::from_delta(&self.selection, &total, interval);
        let idx = self.samples.len();
        self.samples.push(SystemSample {
            t,
            nodes_sampled,
            nodes_total: self.has_baseline.len(),
            anomalies,
            total,
            rates,
        });
        &self.samples[idx]
    }

    /// Fast-forwards a run of steady sweeps: one appended sample per
    /// entry of `times`, each a clone of the most recent sample with
    /// only its timestamp replaced.
    ///
    /// The *caller* proves the steadiness — this method just replays it.
    /// The guarantee required: between the previous sample and every
    /// time in `times`, no node changed activity, availability, or
    /// baseline state; the previous sample had no anomalies and no
    /// re-baselining nodes (every available node contributed); and the
    /// spacing of `times` equals the previous sample's interval. Under
    /// those conditions each elided sweep's per-node delta is exactly
    /// the previous sample's — same totals, same rates — so the clone is
    /// bit-identical to what stepping would have produced.
    ///
    /// The window may still have *contained* events, as long as none of
    /// them touched node state: the campaign loop discharges the
    /// obligation for queue-only job submissions, superseded job
    /// finishes, and redundant outage notices by executing their
    /// bookkeeping at the correct timestamps while the sweeps between
    /// them are gathered (DESIGN §4c's mutating/non-mutating
    /// classification). Whether the window was empty or merely
    /// non-mutating is invisible here — only node state matters.
    ///
    /// `lanes` must hold every node's counters as of the *last* time,
    /// and `down` the nodes unavailable then; they become the per-node
    /// baselines exactly as stepping would have left them.
    ///
    /// # Panics
    /// Panics unless `lanes` and `down` cover every node of the machine,
    /// or when there is no sample to replay.
    pub fn fast_forward_steady(
        &mut self,
        times: impl IntoIterator<Item = f64>,
        lanes: &[u64],
        down: &[bool],
    ) {
        self.check_input(lanes, down);
        assert!(
            !self.samples.is_empty(),
            "fast-forward requires a preceding sample to replay"
        );
        let template = self.samples[self.samples.len() - 1].clone();
        let before = self.samples.len();
        self.samples.extend(times.into_iter().map(|t| SystemSample {
            t,
            ..template.clone()
        }));
        let replayed = (self.samples.len() - before) as u64;
        crate::metrics::NODES_SAMPLED.add(template.nodes_sampled as u64 * replayed);
        self.baselines.copy_from_slice(lanes);
        for (has_baseline, &d) in self.has_baseline.iter_mut().zip(down) {
            *has_baseline = !d;
        }
    }

    /// Simulates a daemon restart: every per-node baseline is lost, so
    /// the next pass only re-baselines (contributing no deltas), exactly
    /// like the first pass after boot.
    pub fn restart(&mut self) {
        self.has_baseline.fill(false);
    }

    /// All samples collected so far.
    pub fn samples(&self) -> &[SystemSample] {
        &self.samples
    }

    /// Consumes the daemon, handing over every sample it collected.
    pub fn into_samples(self) -> Vec<SystemSample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, EventSet, Hpm, Mode, Signal};

    /// A toy 3-node machine.
    #[derive(Clone)]
    struct Toy {
        hpms: Vec<Hpm>,
        down: Vec<bool>,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                hpms: (0..3).map(|_| Hpm::new(nas_selection())).collect(),
                down: vec![false; 3],
            }
        }
        fn work(&mut self, node: usize, fxu0: u64) {
            let mut e = EventSet::new();
            e.bump(Signal::Fxu0Exec, fxu0);
            self.hpms[node].absorb(&e, Mode::User);
        }
        /// Every node's counters in the daemon's lane layout.
        fn lanes(&self) -> Vec<u64> {
            let sel = nas_selection();
            let mut lanes = vec![0; sel.lanes_per_node() * self.hpms.len()];
            for (n, hpm) in self.hpms.iter().enumerate() {
                hpm.read_lanes(sel.node_lanes_mut(&mut lanes, n));
            }
            lanes
        }
        fn sweep(&self, d: &mut Daemon, t: f64) -> SystemSample {
            self.sweep_glitched(d, &[], t)
        }
        fn sweep_glitched(&self, d: &mut Daemon, glitched: &[usize], t: f64) -> SystemSample {
            d.sweep(&self.lanes(), &self.down, glitched, t).clone()
        }
    }

    fn fxu0_slot() -> usize {
        nas_selection().slot_of(Signal::Fxu0Exec).unwrap()
    }

    #[test]
    fn first_pass_only_baselines() {
        let mut toy = Toy::new();
        toy.work(0, 100);
        let mut d = Daemon::new(nas_selection(), 3);
        let s = toy.sweep(&mut d, 0.0);
        assert_eq!(s.nodes_sampled, 0, "no prior reading, no delta");
    }

    #[test]
    fn second_pass_sums_all_nodes() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        toy.work(0, 1_000);
        toy.work(1, 500);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(s.total.user[fxu0_slot()], 1_500);
    }

    #[test]
    fn unavailable_node_skipped_and_rebaselined() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        toy.down[2] = true;
        toy.work(2, 999);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!(s.nodes_sampled, 2, "down node skipped");
        // Node comes back: first pass after return only baselines it.
        toy.down[2] = false;
        let s = toy.sweep(&mut d, 1800.0);
        assert_eq!(s.nodes_sampled, 2);
        assert_eq!(s.total.user[fxu0_slot()], 0);
        // Next pass it contributes again.
        toy.work(2, 10);
        let s = toy.sweep(&mut d, 2700.0);
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(s.total.user[fxu0_slot()], 10);
    }

    #[test]
    #[should_panic(expected = "every node")]
    fn sweep_rejects_short_lane_buffers() {
        let mut d = Daemon::new(nas_selection(), 3);
        d.sweep(&[0; 2], &[false; 3], &[], 0.0);
    }

    #[test]
    #[should_panic(expected = "every node")]
    fn sweep_rejects_short_availability() {
        let mut d = Daemon::new(nas_selection(), 3);
        let lanes = Toy::new().lanes();
        d.sweep(&lanes, &[false; 2], &[], 0.0);
    }

    #[test]
    fn fast_forward_steady_matches_stepped_collection() {
        // A steady machine: node 2 down, nodes 0 and 1 doing the same
        // work every interval. Step one daemon sweep by sweep and
        // fast-forward the other; samples and baselines must agree.
        let mut stepped = Daemon::new(nas_selection(), 3);
        let mut jumped = Daemon::new(nas_selection(), 3);
        let mut toy = Toy::new();
        toy.down[2] = true;
        let step = |toy: &mut Toy| {
            toy.work(0, 1_000);
            toy.work(1, 250);
        };
        // Baseline pass + one full pass so every available node has
        // contributed (the steadiness precondition).
        for t in [0.0, 900.0] {
            step(&mut toy);
            toy.sweep(&mut stepped, t);
            toy.sweep(&mut jumped, t);
        }
        let times: Vec<f64> = (2..7).map(|k| 900.0 * k as f64).collect();
        let mut toy2 = toy.clone();
        for &t in &times {
            step(&mut toy2);
            toy2.sweep(&mut stepped, t);
        }
        // The fast-forwarded daemon sees only the final readings.
        for _ in &times {
            step(&mut toy);
        }
        jumped.fast_forward_steady(times.iter().copied(), &toy.lanes(), &toy.down);
        assert_eq!(stepped.samples(), jumped.samples());
        // Baselines advanced identically: the next real sweep agrees.
        toy.work(0, 77);
        assert_eq!(
            toy.sweep(&mut stepped, 6_300.0),
            toy.sweep(&mut jumped, 6_300.0)
        );
    }

    #[test]
    fn coverage_and_gap_flags() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!(s.nodes_total, 3);
        assert_eq!(s.coverage(), 1.0);
        assert!(!s.has_gap());
        toy.down[1] = true;
        let s = toy.sweep(&mut d, 1800.0);
        assert_eq!(s.nodes_sampled, 2);
        assert!(s.has_gap());
        assert!((s.coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn glitched_read_detected_and_rebaselined() {
        let mut toy = Toy::new();
        // Push node 0 past u32::MAX so truncation wraps the delta.
        toy.work(0, 5_000_000_000);
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        // Glitch: node 0's read loses its high 32 bits this pass.
        let s = toy.sweep_glitched(&mut d, &[0], 900.0);
        assert_eq!(s.anomalies, 1, "wrapped delta discarded");
        assert_eq!(s.nodes_sampled, 2, "glitched node does not contribute");
        assert_eq!(
            s.total.user[fxu0_slot()],
            0,
            "garbage never reaches the total"
        );
        // Recovery: one clean pass re-baselines, the next contributes.
        let s = toy.sweep(&mut d, 1800.0);
        assert_eq!(s.nodes_sampled, 2);
        toy.work(0, 25);
        let s = toy.sweep(&mut d, 2700.0);
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(s.total.user[fxu0_slot()], 25);
        assert_eq!(d.samples().iter().map(|s| s.anomalies).sum::<usize>(), 1);
    }

    #[test]
    fn glitched_first_read_keeps_the_truncated_baseline() {
        // A node first seen through a glitched read baselines on its
        // 32-bit registers; the next clean read diffs against those.
        let mut toy = Toy::new();
        toy.work(0, (1 << 32) + 7);
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep_glitched(&mut d, &[0], 0.0);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!(s.anomalies, 0);
        assert_eq!(s.total.user[fxu0_slot()], 1 << 32);
    }

    #[test]
    fn plausibility_boundary_at_exactly_max_is_kept() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        toy.work(0, PLAUSIBLE_DELTA_MAX);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!(s.anomalies, 0, "a delta of exactly the bound is plausible");
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(s.total.user[fxu0_slot()], PLAUSIBLE_DELTA_MAX);
    }

    #[test]
    fn plausibility_boundary_just_below_is_kept() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        toy.work(0, PLAUSIBLE_DELTA_MAX - 1);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!(s.anomalies, 0);
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(s.total.user[fxu0_slot()], PLAUSIBLE_DELTA_MAX - 1);
    }

    #[test]
    fn plausibility_boundary_just_above_is_discarded() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        toy.work(0, PLAUSIBLE_DELTA_MAX + 1);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!(s.anomalies, 1, "one past the bound must be discarded");
        assert_eq!(s.nodes_sampled, 2);
        assert_eq!(
            s.total.user[fxu0_slot()],
            0,
            "the implausible delta never lands"
        );
    }

    #[test]
    fn discarded_sample_rebaselines_without_double_counting() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        // Interval 1: an implausible burst is discarded and the node's
        // baseline is dropped.
        toy.work(0, PLAUSIBLE_DELTA_MAX + 1);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!((s.anomalies, s.nodes_sampled), (1, 2));
        // Interval 2: the node re-baselines from a reading that already
        // contains the burst — it contributes no delta this pass.
        let s = toy.sweep(&mut d, 1800.0);
        assert_eq!(s.anomalies, 0);
        assert_eq!(s.nodes_sampled, 2, "re-baselining node contributes nothing");
        // Interval 3: only work done *after* the re-baseline counts; the
        // burst absorbed before it must never reappear.
        toy.work(0, 10);
        let s = toy.sweep(&mut d, 2700.0);
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(
            s.total.user[fxu0_slot()],
            10,
            "pre-baseline burst must not be double-counted"
        );
        assert_eq!(d.samples().iter().map(|s| s.anomalies).sum::<usize>(), 1);
    }

    #[test]
    fn restart_loses_all_baselines() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        toy.sweep(&mut d, 0.0);
        d.restart();
        toy.work(0, 50);
        let s = toy.sweep(&mut d, 900.0);
        assert_eq!(s.nodes_sampled, 0, "restart lost every baseline");
        toy.work(1, 30);
        let s = toy.sweep(&mut d, 1800.0);
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(
            s.total.user[fxu0_slot()],
            30,
            "pre-restart work on node 0 lost"
        );
    }
}
