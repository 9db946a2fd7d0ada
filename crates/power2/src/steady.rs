//! Steady-state detection and closed-form fast-forward for kernel runs.
//!
//! Paper-style loop kernels reach a *periodic* steady state within a few
//! hundred iterations: once the caches hold the working set and the
//! pipeline's unit-occupancy pattern repeats, every further iteration is
//! the same iteration shifted in time. Cycle-simulating the remaining
//! tens of thousands of iterations buys no new information — the ROADMAP
//! north star ("as fast as the hardware allows") says the measurement hot
//! path should not pay for them.
//!
//! The [`Detector`] fingerprints the architectural state after each loop
//! iteration and runs Brent's cycle-finding algorithm over the sequence:
//! one *anchor* snapshot is kept at exponentially growing positions, and
//! each new iteration is compared against it. When the state repeats with
//! period `p`, the remaining `n = remaining / p` whole periods are applied
//! algebraically — every per-signal event delta, the cycle advance, the
//! stall and instruction tallies are multiplied by `n`, and every
//! absolute cycle-valued component of the pipeline state is shifted by
//! `n · Δcycle` — after which the ordinary cycle-by-cycle loop resumes
//! for the tail. Kernels whose state never stabilizes (random address
//! patterns, TLB-missing streams whose penalty draws advance the RNG,
//! conflict-miss or fault-perturbed kernels) simply never match and fall
//! back to full simulation; the detector gives up once its search window
//! exceeds what could profitably be skipped, so the steady overhead on
//! non-periodic kernels is a handful of comparisons per iteration.
//!
//! # Why the extrapolation is exact
//!
//! The iteration function is *shift-invariant*: the simulator only ever
//! compares cycle values against each other, takes maxima, and adds
//! constants — absolute magnitudes never matter. States are therefore
//! compared canonically, relative to the current dispatch cycle:
//!
//! - Timing values (`ready` scoreboard, unit-free times, the stall/issue
//!   horizons) are compared as offsets from the dispatch cycle, with
//!   values at-or-below it clamped to zero: a *stale* value can never win
//!   a `max` against a quantity that is at least the dispatch cycle, so
//!   any two stale values behave identically forever. The one place the
//!   simulator compares two such values directly — unit selection between
//!   FXU0/FXU1 and FPU0/FPU1 — is covered by also recording the pair's
//!   ordering.
//! - Cache and TLB contents are compared per set as *LRU ranks*: the same
//!   resident lines, with the same dirty bits, in the same
//!   recency order. Absolute `stamp`/`tick` values grow monotonically and
//!   never repeat, but only the order within a set decides future hits
//!   and victims ([`crate::cache::Cache::equivalent`]).
//! - Address-generator cursors, the TLB-penalty RNG, the dispatch-slot
//!   phase, and the routine-switch phase (`iter % routine_period`, which
//!   gates I-cache reload events) are compared exactly.
//!
//! Two canonically equal states produce canonically equal successors and
//! identical observable deltas, so each further period contributes
//! exactly the deltas measured over the detected one, and the shifted
//! state re-enters the simulation loop indistinguishable (to every future
//! comparison) from the state full simulation would have reached. The
//! result is bit-identical — `tests/fastforward.rs` asserts this over the
//! whole kernel corpus plus adversarial kernels.

use crate::cache::Cache;
use crate::node::{LoopState, Node};
use crate::tlb::Tlb;
use serde::{Deserialize, Serialize};
use sp2_hpm::{EventSet, Signal};
use sp2_isa::reg::SCOREBOARD_SLOTS;
use sp2_isa::{AddrGen, Kernel};
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-global fast-forward switch (the `--no-fast-forward` escape
/// hatch). On by default; results are bit-identical either way, so the
/// switch exists for A/B timing and for distrust.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables steady-state fast-forward for subsequent
/// [`Node::run_kernel`] calls process-wide.
pub fn set_fast_forward_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether [`Node::run_kernel`] currently attempts fast-forward.
pub fn fast_forward_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Below this iteration count [`Node::run_kernel`] does not bother
/// engaging the detector: the run is too short for extrapolation to pay
/// for the snapshot bookkeeping.
pub const MIN_ITERS: u64 = 64;

/// Never grow the search window beyond this many iterations; a kernel
/// whose period is longer is effectively aperiodic at measurement scale.
const MAX_WINDOW_CAP: u64 = 1 << 22;

/// What one kernel run's fast-forward machinery did (returned by
/// [`Node::run_kernel`] at [`crate::node::Detail::Full`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastForwardReport {
    /// Whether the detector ran at all (false for forced-full runs and
    /// for runs below [`MIN_ITERS`]).
    pub engaged: bool,
    /// Detected steady-state period in iterations; 0 = never stabilized
    /// (the run fell back to full simulation).
    pub period: u64,
    /// Iteration (0-based) after which periodicity was confirmed.
    pub detected_at_iter: u64,
    /// Iterations stepped through the cycle simulator.
    pub simulated_iters: u64,
    /// Iterations accounted for algebraically.
    pub extrapolated_iters: u64,
}

impl FastForwardReport {
    /// Whether a steady state was found and applied.
    pub fn detected(&self) -> bool {
        self.period > 0
    }

    /// Fraction of all iterations that were extrapolated (0.0 when the
    /// run fell back or was too short to engage).
    pub fn extrapolated_fraction(&self) -> f64 {
        let total = self.simulated_iters + self.extrapolated_iters;
        if total == 0 {
            0.0
        } else {
            self.extrapolated_iters as f64 / total as f64
        }
    }
}

/// Outcome of one [`Detector::observe`] call.
pub(crate) enum Verdict {
    /// No repeat yet; keep simulating.
    Continue,
    /// The state matched the anchor: steady state with this period.
    Periodic(u64),
    /// The window outgrew what could profitably be skipped; drop the
    /// detector and simulate the rest plainly.
    GiveUp,
}

/// Pipeline timing state in canonical (dispatch-cycle-relative) form.
///
/// Field order is cheapest-reject-first: the scalars differ long before
/// the 64-slot scoreboard needs scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TimingCanon {
    disp_in_cycle: u64,
    rr_toggle: bool,
    stall_until: u64,
    last_issue: u64,
    end_of_work: u64,
    fxu0: u64,
    fxu1: u64,
    /// Unit selection compares the pair directly (`fxu0_free <=
    /// fxu1_free`), which two stale-clamped values cannot reconstruct.
    fxu_order: CmpOrdering,
    fpu0: u64,
    fpu1: u64,
    fpu_order: CmpOrdering,
    ready: [u64; SCOREBOARD_SLOTS],
}

impl TimingCanon {
    fn of(st: &LoopState) -> Self {
        let base = st.cycle;
        let rel = |v: u64| v.saturating_sub(base);
        TimingCanon {
            disp_in_cycle: st.disp_in_cycle,
            rr_toggle: st.fpu_rr_toggle,
            stall_until: rel(st.stall_until),
            last_issue: rel(st.last_issue),
            end_of_work: rel(st.end_of_work),
            fxu0: rel(st.fxu0_free),
            fxu1: rel(st.fxu1_free),
            fxu_order: st.fxu0_free.cmp(&st.fxu1_free),
            fpu0: rel(st.fpu0_free),
            fpu1: rel(st.fpu1_free),
            fpu_order: st.fpu0_free.cmp(&st.fpu1_free),
            ready: std::array::from_fn(|i| rel(st.ready[i])),
        }
    }
}

/// Brent-anchor periodicity detector over canonical machine state.
pub(crate) struct Detector {
    /// Iterations between routine switches when switching actually emits
    /// I-cache reloads; a detected period must be a multiple so every
    /// extrapolated period carries the same reload events. 0 = phase-free.
    phase_period: u64,
    /// Search-window ceiling; beyond it the detector gives up.
    max_window: u64,
    /// Current Brent window (a power of two).
    window: u64,
    anchor_iter: u64,
    have_anchor: bool,
    // --- anchor snapshot (behavioral state) ---------------------------
    gens: Vec<AddrGen>,
    rng: u64,
    dcache: Cache,
    tlb: Tlb,
    timing: TimingCanon,
    // --- anchor accumulators (for the per-period delta) ---------------
    events: EventSet,
    cycle: u64,
    stall_cycles: u64,
    instructions: u64,
}

impl Detector {
    /// Builds a detector for one run. `st` must be the freshly
    /// initialized loop state (iteration 0 not yet stepped).
    pub(crate) fn new(node: &Node, st: &LoopState, kernel: &Kernel, icache_lines: u32) -> Self {
        // Routine switching only perturbs events when the switch path in
        // the iteration actually fires (footprint exceeds the I-cache);
        // otherwise the phase is behaviorally inert and need not align.
        let phase_matters = kernel.routine_period > 0
            && kernel.code_lines > 0
            && kernel.code_lines.saturating_mul(2) > icache_lines;
        let (dcache, tlb, rng) = node.steady_view();
        Detector {
            phase_period: if phase_matters {
                u64::from(kernel.routine_period)
            } else {
                0
            },
            max_window: (kernel.iters / 2).clamp(1, MAX_WINDOW_CAP),
            window: 1,
            anchor_iter: 0,
            have_anchor: false,
            gens: st.gens.clone(),
            rng,
            dcache: dcache.clone(),
            tlb: tlb.clone(),
            timing: TimingCanon::of(st),
            events: st.events,
            cycle: st.cycle,
            stall_cycles: st.stall_cycles,
            instructions: st.instructions,
        }
    }

    /// Feeds the state after iteration `iter` to the detector.
    pub(crate) fn observe(&mut self, node: &Node, st: &LoopState, iter: u64) -> Verdict {
        if !self.have_anchor {
            self.reanchor(node, st, iter);
            self.have_anchor = true;
            return Verdict::Continue;
        }
        let lam = iter - self.anchor_iter;
        if (self.phase_period == 0 || lam.is_multiple_of(self.phase_period))
            && self.matches(node, st)
        {
            return Verdict::Periodic(lam);
        }
        if lam >= self.window {
            if self.window > self.max_window {
                return Verdict::GiveUp;
            }
            self.window *= 2;
            self.reanchor(node, st, iter);
        }
        Verdict::Continue
    }

    /// Applies `whole_periods × period` iterations algebraically to `st`
    /// after [`Verdict::Periodic`] at iteration `iter`. Returns the
    /// number of iterations skipped.
    pub(crate) fn fast_forward(
        &self,
        st: &mut LoopState,
        iter: u64,
        total_iters: u64,
        period: u64,
    ) -> u64 {
        let remaining = total_iters - 1 - iter;
        let whole_periods = remaining / period;
        if whole_periods == 0 {
            return 0;
        }
        for signal in Signal::ALL {
            let delta = st.events.get(signal) - self.events.get(signal);
            if delta > 0 {
                st.events.bump(signal, whole_periods * delta);
            }
        }
        let shift = whole_periods * (st.cycle - self.cycle);
        st.cycle += shift;
        st.stall_until += shift;
        st.last_issue += shift;
        st.end_of_work += shift;
        st.fxu0_free += shift;
        st.fxu1_free += shift;
        st.fpu0_free += shift;
        st.fpu1_free += shift;
        for r in &mut st.ready[..SCOREBOARD_SLOTS] {
            *r += shift;
        }
        st.stall_cycles += whole_periods * (st.stall_cycles - self.stall_cycles);
        st.instructions += whole_periods * (st.instructions - self.instructions);
        whole_periods * period
    }

    fn matches(&self, node: &Node, st: &LoopState) -> bool {
        let (dcache, tlb, rng) = node.steady_view();
        // Cheapest rejections first: the RNG diverges after any TLB miss,
        // a generator cursor after any address advance — both O(1).
        rng == self.rng
            && st.gens == self.gens
            && TimingCanon::of(st) == self.timing
            && dcache.equivalent(&self.dcache)
            && tlb.equivalent(&self.tlb)
    }

    fn reanchor(&mut self, node: &Node, st: &LoopState, iter: u64) {
        let (dcache, tlb, rng) = node.steady_view();
        self.anchor_iter = iter;
        self.gens.clone_from(&st.gens);
        self.rng = rng;
        self.dcache.clone_from(dcache);
        self.tlb.clone_from(tlb);
        self.timing = TimingCanon::of(st);
        self.events = st.events;
        self.cycle = st.cycle;
        self.stall_cycles = st.stall_cycles;
        self.instructions = st.instructions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::node::{Detail, FastForward, KernelRun};
    use sp2_isa::KernelBuilder;

    fn register_kernel(iters: u64) -> Kernel {
        let mut b = KernelBuilder::new("steady-reg");
        let accs: Vec<_> = (0..4).map(|_| b.fresh_fpr()).collect();
        let x = b.fresh_fpr();
        for &acc in &accs {
            b.fma_acc(acc, x, x);
        }
        b.loop_back();
        b.build(iters)
    }

    #[test]
    fn register_kernel_detects_quickly_and_matches_full() {
        let k = register_kernel(50_000);
        let cfg = MachineConfig::nas_sp2();
        let full = Node::with_seed(cfg, 3)
            .run_kernel(KernelRun::new(&k).fast_forward(FastForward::Off))
            .stats;
        let reported = Node::with_seed(cfg, 3).run_kernel(
            KernelRun::new(&k)
                .fast_forward(FastForward::On)
                .detail(Detail::Full),
        );
        let (fast, report) = (
            reported.stats,
            reported.fast_forward.expect("Detail::Full requested"),
        );
        assert_eq!(full, fast);
        assert!(report.engaged);
        assert!(report.detected(), "register kernel must reach steady state");
        assert!(
            report.detected_at_iter < 256,
            "detection latency {} too high for a register kernel",
            report.detected_at_iter
        );
        assert!(report.extrapolated_fraction() > 0.9);
        assert_eq!(
            report.simulated_iters + report.extrapolated_iters,
            k.iters,
            "every iteration is either simulated or extrapolated"
        );
    }

    #[test]
    fn random_pattern_falls_back() {
        let mut b = KernelBuilder::new("steady-rand");
        let a = b.random_array(32 << 20, 8);
        let x = b.load_double(a);
        let acc = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        let k = b.build(5_000);
        let cfg = MachineConfig::nas_sp2();
        let full = Node::with_seed(cfg, 3)
            .run_kernel(KernelRun::new(&k).fast_forward(FastForward::Off))
            .stats;
        let reported = Node::with_seed(cfg, 3).run_kernel(
            KernelRun::new(&k)
                .fast_forward(FastForward::On)
                .detail(Detail::Full),
        );
        let (fast, report) = (
            reported.stats,
            reported.fast_forward.expect("Detail::Full requested"),
        );
        assert_eq!(full, fast);
        assert!(report.engaged && !report.detected());
        assert_eq!(report.simulated_iters, k.iters);
    }

    #[test]
    fn enable_flag_gates_run_kernel() {
        // Serialized with other flag users by running in one test.
        assert!(fast_forward_enabled());
        set_fast_forward_enabled(false);
        assert!(!fast_forward_enabled());
        set_fast_forward_enabled(true);
        assert!(fast_forward_enabled());
    }
}
