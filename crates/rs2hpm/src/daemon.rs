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
use sp2_hpm::{CounterDelta, CounterSelection, CounterSnapshot};

/// The cron cadence: 15 minutes.
pub const SAMPLE_INTERVAL_S: f64 = 900.0;

/// Largest per-interval count a 66 MHz node could plausibly produce.
///
/// A POWER2 node generates well under 2^35 events in 15 minutes; a delta
/// above 2^48 can only come from a corrupted read (e.g. a snapshot
/// truncated to the 32-bit hardware registers, whose wrap-corrected delta
/// lands near 2^64). The real collection scripts applied the same kind of
/// sanity filter before archiving.
pub const PLAUSIBLE_DELTA_MAX: u64 = 1 << 48;

/// Where drained samples go when a campaign runs out-of-core.
///
/// The daemon normally accumulates every [`SystemSample`] in memory; a
/// year-scale campaign instead registers a sink (an archive writer, a
/// network stream) and periodically calls [`Daemon::drain_samples`],
/// which hands finished samples over in collection order and frees
/// them. Sinks see each sample exactly once.
pub trait SampleSink {
    /// Receives the next run of finished samples, in collection order.
    fn append(&mut self, samples: &[SystemSample]) -> std::io::Result<()>;
}

/// A trivial sink: collects drained samples into a `Vec`.
impl SampleSink for Vec<SystemSample> {
    fn append(&mut self, samples: &[SystemSample]) -> std::io::Result<()> {
        self.extend_from_slice(samples);
        Ok(())
    }
}

/// Where the daemon reads counters from (the cluster implements this).
pub trait CounterSource {
    /// Number of nodes in the machine.
    fn node_count(&self) -> usize;
    /// Whether a node is currently available for sampling (powered,
    /// reachable). Unavailable nodes are skipped, as on the real system.
    fn node_available(&self, node: usize) -> bool;
    /// Snapshot of a node's monitor.
    fn snapshot(&self, node: usize) -> CounterSnapshot;
}

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

/// The collection daemon: holds the previous snapshot per node.
#[derive(Debug, Clone)]
pub struct Daemon {
    selection: CounterSelection,
    prev: Vec<Option<CounterSnapshot>>,
    samples: Vec<SystemSample>,
    /// Per-node delta scratch, reused across nodes and passes so the
    /// collection loop never allocates.
    scratch: CounterDelta,
}

impl Daemon {
    /// Creates the daemon for a machine of `nodes` nodes.
    pub fn new(selection: CounterSelection, nodes: usize) -> Self {
        let slots = selection.len();
        Daemon {
            selection,
            prev: vec![None; nodes],
            samples: Vec::new(),
            scratch: CounterDelta::zero(slots),
        }
    }

    /// Runs one collection pass at time `t`, appending a [`SystemSample`].
    ///
    /// Nodes seen for the first time only establish a baseline (no delta
    /// can be formed), matching how the real script behaved after node
    /// reboots.
    pub fn collect<S: CounterSource>(&mut self, source: &S, t: f64) -> &SystemSample {
        let mut snapshots: Vec<Option<CounterSnapshot>> = (0..source.node_count())
            .map(|node| source.node_available(node).then(|| source.snapshot(node)))
            .collect();
        self.collect_batch(&mut snapshots, t)
    }

    /// Ingests one machine-wide batch of snapshots taken at time `t`
    /// (`None` marks a node that was unavailable this pass).
    ///
    /// This is the bulk entry point for callers that already snapshot
    /// every node in a single pass — the cluster simulator advances all
    /// nodes (possibly in parallel) and hands the whole batch over. The
    /// delta/baseline bookkeeping is identical to [`Daemon::collect`];
    /// nodes are always folded in index order, so the resulting sample is
    /// bit-identical however the snapshots were produced.
    ///
    /// The batch is taken by `&mut`: snapshots that become the new
    /// per-node baselines are *moved* into the daemon, and each retired
    /// baseline is left behind in the corresponding slot. A sweep loop
    /// that re-fills the same batch every pass therefore recycles the
    /// retired buffers and allocates nothing in steady state.
    pub fn collect_batch(
        &mut self,
        snapshots: &mut [Option<CounterSnapshot>],
        t: f64,
    ) -> &SystemSample {
        assert_eq!(
            snapshots.len(),
            self.prev.len(),
            "batch must cover every node of the machine"
        );
        let _sweep = crate::metrics::SWEEP.span();
        let _sweep_ev = sp2_trace::events::span("daemon sweep", "rs2hpm");
        let n_slots = self.selection.len();
        let mut total = CounterDelta::zero(n_slots);
        let mut nodes_sampled = 0;
        let mut anomalies = 0;
        let mut baselines = 0u64;
        for (node, slot) in snapshots.iter_mut().enumerate() {
            let Some(snap) = slot.as_ref() else {
                self.prev[node] = None;
                continue;
            };
            if let Some(prev) = &self.prev[node] {
                CounterDelta::between_into(prev, snap, &mut self.scratch);
                if delta_plausible(&self.scratch) {
                    total.accumulate(&self.scratch);
                    nodes_sampled += 1;
                    // The fresh snapshot becomes the baseline; the
                    // retired one stays in the batch slot for the caller
                    // to reuse as a buffer.
                    std::mem::swap(&mut self.prev[node], slot);
                } else {
                    // A corrupted read: drop the delta, count the anomaly,
                    // and discard the baseline so the node re-baselines
                    // from a clean snapshot next pass.
                    anomalies += 1;
                    self.prev[node] = None;
                }
            } else {
                baselines += 1;
                self.prev[node] = slot.take();
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
        let rates = RateReport::from_delta(&self.selection, &total, interval);
        let idx = self.samples.len();
        self.samples.push(SystemSample {
            t,
            nodes_sampled,
            nodes_total: self.prev.len(),
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
    /// `snapshots` must hold every node's counters as of the *last* time
    /// (`None` for unavailable nodes); they replace the per-node
    /// baselines exactly as stepping would have left them. Like
    /// [`Daemon::collect_batch`], the batch is taken by `&mut` and
    /// retired baselines are left in the slots for buffer reuse.
    pub fn fast_forward_steady(
        &mut self,
        times: &[f64],
        snapshots: &mut [Option<CounterSnapshot>],
    ) {
        assert_eq!(
            snapshots.len(),
            self.prev.len(),
            "batch must cover every node of the machine"
        );
        assert!(
            !self.samples.is_empty(),
            "fast-forward requires a preceding sample to replay"
        );
        let _sweep_ev = sp2_trace::events::span("daemon fast-forward", "rs2hpm");
        let template = self.samples[self.samples.len() - 1].clone();
        for &t in times {
            let mut s = template.clone();
            s.t = t;
            self.samples.push(s);
        }
        crate::metrics::NODES_SAMPLED.add(template.nodes_sampled as u64 * times.len() as u64);
        for (node, slot) in snapshots.iter_mut().enumerate() {
            match slot.take() {
                Some(snap) => *slot = self.prev[node].replace(snap),
                None => self.prev[node] = None,
            }
        }
    }

    /// Simulates a daemon restart: every per-node baseline is lost, so
    /// the next pass only re-baselines (contributing no deltas), exactly
    /// like the first pass after boot.
    pub fn restart(&mut self) {
        sp2_trace::events::instant("daemon restart", "rs2hpm");
        for p in &mut self.prev {
            *p = None;
        }
    }

    /// All samples collected so far and not yet drained to a sink.
    pub fn samples(&self) -> &[SystemSample] {
        &self.samples
    }

    /// Hands all but the last `keep_last` resident samples to `sink`
    /// (in collection order) and drops them from memory. Returns how
    /// many were drained.
    ///
    /// Callers that keep collecting must pass `keep_last >= 1`: the
    /// most recent sample is the interval reference for the next
    /// [`Daemon::collect_batch`] and the template
    /// [`Daemon::fast_forward_steady`] clones, so it has to stay
    /// resident until the campaign ends. Samples already handed over
    /// are never re-sent; if the sink fails, nothing is dropped and the
    /// drain can be retried.
    pub fn drain_samples(
        &mut self,
        sink: &mut dyn SampleSink,
        keep_last: usize,
    ) -> std::io::Result<usize> {
        let cut = self.samples.len().saturating_sub(keep_last);
        if cut == 0 {
            return Ok(0);
        }
        sink.append(&self.samples[..cut])?;
        self.samples.drain(..cut);
        Ok(cut)
    }

    /// Total anomalous (discarded) per-node deltas across all samples.
    pub fn total_anomalies(&self) -> usize {
        self.samples.iter().map(|s| s.anomalies).sum()
    }

    /// The maximum per-sample machine Mflops — the paper's "maximum
    /// 15-minute rate" (5.7 Gflops).
    pub fn max_sample_mflops(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.rates.mflops)
            .fold(0.0, f64::max)
    }
}

/// Whether every slot of a wrap-corrected delta is below the plausibility
/// bound. Clean campaigns sit many orders of magnitude under the limit,
/// so this filter is behavior-neutral for fault-free data.
fn delta_plausible(d: &CounterDelta) -> bool {
    d.user
        .iter()
        .chain(d.system.iter())
        .all(|&v| v <= PLAUSIBLE_DELTA_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, EventSet, Hpm, Mode, Signal};

    /// A toy 3-node machine.
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
    }

    impl CounterSource for Toy {
        fn node_count(&self) -> usize {
            3
        }
        fn node_available(&self, node: usize) -> bool {
            !self.down[node]
        }
        fn snapshot(&self, node: usize) -> CounterSnapshot {
            self.hpms[node].snapshot()
        }
    }

    #[test]
    fn first_pass_only_baselines() {
        let mut toy = Toy::new();
        toy.work(0, 100);
        let mut d = Daemon::new(nas_selection(), 3);
        let s = d.collect(&toy, 0.0);
        assert_eq!(s.nodes_sampled, 0, "no prior snapshot, no delta");
    }

    #[test]
    fn second_pass_sums_all_nodes() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        toy.work(0, 1_000);
        toy.work(1, 500);
        let s = d.collect(&toy, 900.0);
        assert_eq!(s.nodes_sampled, 3);
        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.total.user[slot], 1_500);
    }

    #[test]
    fn unavailable_node_skipped_and_rebaselined() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        toy.down[2] = true;
        toy.work(2, 999);
        let s = d.collect(&toy, 900.0);
        assert_eq!(s.nodes_sampled, 2, "down node skipped");
        // Node comes back: first pass after return only baselines it.
        toy.down[2] = false;
        let s = d.collect(&toy, 1800.0);
        assert_eq!(s.nodes_sampled, 2);
        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.total.user[slot], 0);
        // Next pass it contributes again.
        toy.work(2, 10);
        let s = d.collect(&toy, 2700.0);
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(s.total.user[slot], 10);
    }

    #[test]
    fn collect_batch_matches_per_node_collect() {
        let mut toy = Toy::new();
        let mut a = Daemon::new(nas_selection(), 3);
        let mut b = Daemon::new(nas_selection(), 3);
        for (t, down2) in [(0.0, false), (900.0, true), (1800.0, false)] {
            toy.down[2] = down2;
            toy.work(0, 250);
            toy.work(2, 40);
            let sa = a.collect(&toy, t).clone();
            let mut snaps: Vec<_> = (0..3)
                .map(|n| toy.node_available(n).then(|| toy.snapshot(n)))
                .collect();
            let sb = b.collect_batch(&mut snaps, t).clone();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    #[should_panic(expected = "every node")]
    fn collect_batch_rejects_short_batches() {
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect_batch(&mut [None], 0.0);
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
            stepped.collect(&toy, t);
            jumped.collect(&toy, t);
        }
        let times: Vec<f64> = (2..7).map(|k| 900.0 * k as f64).collect();
        let mut toy2 = Toy {
            hpms: toy.hpms.clone(),
            down: toy.down.clone(),
        };
        for &t in &times {
            step(&mut toy2);
            stepped.collect(&toy2, t);
        }
        // The fast-forwarded daemon sees only the final snapshots.
        for _ in &times {
            step(&mut toy);
        }
        let mut finals: Vec<_> = (0..3)
            .map(|n| toy.node_available(n).then(|| toy.snapshot(n)))
            .collect();
        jumped.fast_forward_steady(&times, &mut finals);
        assert_eq!(stepped.samples(), jumped.samples());
        // Baselines advanced identically: the next real sweep agrees.
        toy.work(0, 77);
        let sa = stepped.collect(&toy, 6_300.0).clone();
        let sb = jumped.collect(&toy, 6_300.0).clone();
        assert_eq!(sa, sb);
    }

    #[test]
    fn coverage_and_gap_flags() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        let s = d.collect(&toy, 900.0).clone();
        assert_eq!(s.nodes_total, 3);
        assert_eq!(s.coverage(), 1.0);
        assert!(!s.has_gap());
        toy.down[1] = true;
        let s = d.collect(&toy, 1800.0).clone();
        assert_eq!(s.nodes_sampled, 2);
        assert!(s.has_gap());
        assert!((s.coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn glitched_snapshot_detected_and_rebaselined() {
        let mut toy = Toy::new();
        // Push node 0 past u32::MAX so truncation wraps the delta.
        toy.work(0, 5_000_000_000);
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        // Glitch: node 0's snapshot loses its high 32 bits this pass.
        let mut snaps: Vec<Option<CounterSnapshot>> = (0..3)
            .map(|n| {
                let s = toy.snapshot(n);
                Some(if n == 0 { s.truncate_to_hardware() } else { s })
            })
            .collect();
        let s = d.collect_batch(&mut snaps, 900.0).clone();
        assert_eq!(s.anomalies, 1, "wrapped delta discarded");
        assert_eq!(s.nodes_sampled, 2, "glitched node does not contribute");
        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.total.user[slot], 0, "garbage never reaches the total");
        // Recovery: one clean pass re-baselines, the next contributes.
        let s = d.collect(&toy, 1800.0).clone();
        assert_eq!(s.nodes_sampled, 2);
        toy.work(0, 25);
        let s = d.collect(&toy, 2700.0).clone();
        assert_eq!(s.nodes_sampled, 3);
        assert_eq!(s.total.user[slot], 25);
        assert_eq!(d.total_anomalies(), 1);
    }

    #[test]
    fn plausibility_boundary_at_exactly_max_is_kept() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        toy.work(0, PLAUSIBLE_DELTA_MAX);
        let s = d.collect(&toy, 900.0).clone();
        assert_eq!(s.anomalies, 0, "a delta of exactly the bound is plausible");
        assert_eq!(s.nodes_sampled, 3);
        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.total.user[slot], PLAUSIBLE_DELTA_MAX);
    }

    #[test]
    fn plausibility_boundary_just_below_is_kept() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        toy.work(0, PLAUSIBLE_DELTA_MAX - 1);
        let s = d.collect(&toy, 900.0).clone();
        assert_eq!(s.anomalies, 0);
        assert_eq!(s.nodes_sampled, 3);
        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.total.user[slot], PLAUSIBLE_DELTA_MAX - 1);
    }

    #[test]
    fn plausibility_boundary_just_above_is_discarded() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        toy.work(0, PLAUSIBLE_DELTA_MAX + 1);
        let s = d.collect(&toy, 900.0).clone();
        assert_eq!(s.anomalies, 1, "one past the bound must be discarded");
        assert_eq!(s.nodes_sampled, 2);
        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.total.user[slot], 0, "the implausible delta never lands");
    }

    #[test]
    fn discarded_sample_rebaselines_without_double_counting() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        // Interval 1: an implausible burst is discarded and the node's
        // baseline is dropped.
        toy.work(0, PLAUSIBLE_DELTA_MAX + 1);
        let s = d.collect(&toy, 900.0).clone();
        assert_eq!((s.anomalies, s.nodes_sampled), (1, 2));
        // Interval 2: the node re-baselines from a snapshot that already
        // contains the burst — it contributes no delta this pass.
        let s = d.collect(&toy, 1800.0).clone();
        assert_eq!(s.anomalies, 0);
        assert_eq!(s.nodes_sampled, 2, "re-baselining node contributes nothing");
        // Interval 3: only work done *after* the re-baseline counts; the
        // burst absorbed before it must never reappear.
        toy.work(0, 10);
        let s = d.collect(&toy, 2700.0).clone();
        assert_eq!(s.nodes_sampled, 3);
        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(
            s.total.user[slot], 10,
            "pre-baseline burst must not be double-counted"
        );
        assert_eq!(d.total_anomalies(), 1);
    }

    #[test]
    fn restart_loses_all_baselines() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        d.restart();
        toy.work(0, 50);
        let s = d.collect(&toy, 900.0).clone();
        assert_eq!(s.nodes_sampled, 0, "restart lost every baseline");
        toy.work(1, 30);
        let s = d.collect(&toy, 1800.0).clone();
        assert_eq!(s.nodes_sampled, 3);
        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.total.user[slot], 30, "pre-restart work on node 0 lost");
    }

    #[test]
    fn drain_keeps_the_interval_reference_and_never_resends() {
        let mut toy = Toy::new();
        let mut stepped = Daemon::new(nas_selection(), 3);
        let mut drained = Daemon::new(nas_selection(), 3);
        let mut sink: Vec<SystemSample> = Vec::new();
        for k in 0..6 {
            toy.work(0, 100);
            let t = 900.0 * k as f64;
            stepped.collect(&toy, t);
            drained.collect(&toy, t);
            // Drain after every sweep: at most one sample stays resident.
            drained.drain_samples(&mut sink, 1).unwrap();
            assert!(drained.samples().len() <= 1);
        }
        let n = drained.drain_samples(&mut sink, 0).unwrap();
        assert_eq!(n, 1);
        assert!(drained.samples().is_empty());
        // The sink saw every sample exactly once, bit-identical to the
        // undrained daemon's record (same interval math throughout).
        assert_eq!(sink, stepped.samples());
        // Draining an empty daemon is a no-op.
        assert_eq!(drained.drain_samples(&mut sink, 1).unwrap(), 0);
    }

    #[test]
    fn max_sample_mflops_tracks_peak_interval() {
        let mut toy = Toy::new();
        let mut d = Daemon::new(nas_selection(), 3);
        d.collect(&toy, 0.0);
        // Interval 1: one node does fma work.
        let mut e = EventSet::new();
        e.bump(Signal::Fpu0Fma, 900_000_000);
        e.bump(Signal::Fpu0Add, 900_000_000);
        toy.hpms[0].absorb(&e, Mode::User);
        d.collect(&toy, 900.0);
        // Interval 2: idle.
        d.collect(&toy, 1800.0);
        // Peak: 1.8e9 flops / 900 s = 2 Mflops machine-wide.
        assert!((d.max_sample_mflops() - 2.0).abs() < 1e-9);
        assert_eq!(d.samples().len(), 3);
    }
}
