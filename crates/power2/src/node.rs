//! The node pipeline model.
//!
//! An in-order, dual-FXU / dual-FPU machine with a 4-wide dispatching ICU.
//! The simulator decodes a kernel's loop body once per run into a flat
//! micro-op table and replays it iteration by iteration, tracking
//! per-register readiness (a scoreboard), per-unit occupancy, the global
//! halt a D-cache or TLB miss imposes (paper §5: "execution may halt for
//! 8 cycles"), and the FPU0-first dispatch policy the paper uses to
//! explain the 1.7 FPU0/FPU1 asymmetry.
//!
//! Each iteration runs in two parts. The memory pass walks the body's
//! storage references in program order through the address generators,
//! TLB and D-cache, with the TLB-penalty draws; each generator's
//! reference checks first the TLB entry and D-cache slot its last one
//! used. None of that depends on timing. The timing routine then
//! dispatches and issues the body with each reference's outcome given.
//! In front of the routine sits the run's timing memo (`memo`), which
//! replays the effect of an iteration whose timing it has seen before in
//! the same run; a body too short for the memo to pay calls the routine
//! directly. The interleaved loop these replaced is kept as a test
//! oracle (`oracle`).

use crate::cache::Cache;
use crate::config::{FpuDispatch, MachineConfig};
use crate::tlb::{Tlb, TlbConfig};
use sp2_hpm::{EventSet, Signal};
use sp2_isa::inst::MAX_SRCS;
use sp2_isa::op::{BrKind, FpOp, FxOp, Op};
use sp2_isa::reg::{RegId, SCOREBOARD_SLOTS};
use sp2_isa::{AddrGen, Inst, Kernel};

mod memo;
#[cfg(test)]
mod oracle;

use memo::TimingMemo;

/// How many cycles of already-dispatched work the ICU's buffering lets
/// dispatch run ahead of issue (dispatch queue elasticity).
const DISPATCH_LEAD: u64 = 4;

/// The argument of [`Node::run_kernel`]; `&Kernel` converts into it, so
/// calls read `node.run_kernel(&kernel)`. Kept because the end-to-end
/// benchmark in `perfbench/` builds one with [`KernelRun::new`].
#[derive(Debug, Clone, Copy)]
pub struct KernelRun<'k> {
    /// The kernel to replay.
    pub kernel: &'k Kernel,
}

impl<'k> KernelRun<'k> {
    /// A run of `kernel`.
    pub fn new(kernel: &'k Kernel) -> Self {
        KernelRun { kernel }
    }
}

impl<'k> From<&'k Kernel> for KernelRun<'k> {
    fn from(kernel: &'k Kernel) -> Self {
        KernelRun::new(kernel)
    }
}

/// Outcome of a [`Node::run_kernel`] call. Derefs to [`RunStats`], so
/// `report.events` and `report.mflops(..)` read straight through; the
/// end-to-end benchmark in `perfbench/` reads the `stats` field.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Events and timing of the run.
    pub stats: RunStats,
}

impl std::ops::Deref for KernelReport {
    type Target = RunStats;
    fn deref(&self) -> &RunStats {
        &self.stats
    }
}

/// Outcome of running one kernel on a node.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Raw monitor events produced by the run.
    pub events: EventSet,
    /// Total cycles from first dispatch to last completion.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Cycles lost to D-cache / TLB halts.
    pub stall_cycles: u64,
}

impl RunStats {
    /// Achieved Mflops at the given clock.
    pub fn mflops(&self, config: &MachineConfig) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.events.flops_total() as f64 / 1e6 / config.cycles_to_seconds(self.cycles)
    }

    /// Achieved instructions-per-cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// One POWER2 node: units, caches, TLB, and the RNG used for the TLB
/// penalty draw (36–54 cycles, uniform).
#[derive(Debug, Clone)]
pub struct Node {
    config: MachineConfig,
    dcache: Cache,
    icache: Cache,
    tlb: Tlb,
    rng: u64,
}

/// One address generator of a run with its hints: the TLB entry and
/// D-cache slot its last reference used, which its next reference checks
/// first ([`Tlb::access_hinted`], [`Cache::access_hinted`]).
#[derive(Debug, Clone)]
struct Stream {
    gen: AddrGen,
    page: usize,
    line: usize,
}

/// Scoreboard slot no instruction writes: absent sources read it, and
/// its 0 never wins a `max` against the dispatch cycle.
const ZERO_SLOT: u8 = SCOREBOARD_SLOTS as u8;
/// Scoreboard slot no instruction reads: absent destinations write it.
const DISCARD_SLOT: u8 = SCOREBOARD_SLOTS as u8 + 1;
/// The architectural registers plus [`ZERO_SLOT`] and [`DISCARD_SLOT`].
const READY_SLOTS: usize = SCOREBOARD_SLOTS + 2;

/// What a decoded instruction executes on, with its per-op constants.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// Integer arithmetic on the FXU free earlier (ties to FXU0), or on
    /// FXU1 alone for the addressing multiply/divide.
    Alu { fxu1_only: bool },
    /// Storage reference through address generator `slot`.
    Mem { slot: u16, store: bool },
    /// FPU op whose result is ready `latency` cycles after issue.
    Fp { op: FpOp, latency: u64 },
    /// ICU op (branch or condition-register op) counted on `signal`,
    /// done `latency` cycles after its operands are ready.
    Icu { signal: Signal, latency: u64 },
}

/// One body instruction decoded for the dispatch loop: everything the
/// loop would otherwise work out from an [`Inst`] per dynamic
/// instruction is resolved once per run.
#[derive(Debug, Clone, Copy)]
struct MicroOp {
    class: Class,
    /// Cycles the executing unit stays busy after issue.
    occupancy: u64,
    /// Cycles a resolving conditional branch holds up issue behind it.
    bubble: u64,
    /// Scoreboard slots read, padded with [`ZERO_SLOT`].
    srcs: [u8; MAX_SRCS],
    /// Scoreboard slots written, padded with [`DISCARD_SLOT`].
    dsts: [u8; 2],
}

impl MicroOp {
    fn decode(inst: &Inst, config: &MachineConfig) -> Self {
        let (class, occupancy, bubble) = match inst.op {
            Op::Fx(fx) if fx.is_memory() => {
                // Validation guarantees memory ops carry a slot; degrade
                // to slot 0 rather than aborting a campaign mid-flight.
                let slot = inst.mem_slot.unwrap_or_else(|| {
                    debug_assert!(false, "validated kernel: memory op carries a slot");
                    0
                });
                let store = fx.is_store();
                (Class::Mem { slot, store }, 1, 0)
            }
            Op::Fx(fx) => {
                let occupancy = match fx {
                    FxOp::IntMul => config.imul_cycles,
                    FxOp::IntDiv => config.idiv_cycles,
                    _ => 1,
                };
                let fxu1_only = fx.fxu1_only();
                (Class::Alu { fxu1_only }, occupancy, 0)
            }
            Op::Fp(op) => {
                let (occupancy, latency) = match op {
                    FpOp::Add | FpOp::Mul | FpOp::Fma => (1, config.fpu_latency),
                    FpOp::Div => (config.fdiv_cycles, config.fdiv_cycles),
                    FpOp::Sqrt => (config.fsqrt_cycles, config.fsqrt_cycles),
                    FpOp::Move | FpOp::Cmp => (1, 1),
                };
                (Class::Fp { op, latency }, occupancy, 0)
            }
            // Loop-back branches are effectively free (the ICU refetches
            // the loop top); data-dependent conditional branches (flux
            // limiters) stall the in-order front end until resolved.
            Op::Br(kind) => {
                let signal = Signal::IcuType1;
                let bubble = if kind == BrKind::Cond { 3 } else { 0 };
                (Class::Icu { signal, latency: 0 }, 0, bubble)
            }
            Op::CondReg => {
                let signal = Signal::IcuType2;
                (Class::Icu { signal, latency: 1 }, 0, 0)
            }
        };
        let mut srcs = [ZERO_SLOT; MAX_SRCS];
        for (slot, reg) in srcs.iter_mut().zip(inst.sources()) {
            *slot = scoreboard_slot(reg);
        }
        let mut dsts = [DISCARD_SLOT; 2];
        for (slot, reg) in dsts.iter_mut().zip(inst.dst.into_iter().chain(inst.dst2)) {
            *slot = scoreboard_slot(reg);
        }
        MicroOp {
            class,
            occupancy,
            bubble,
            srcs,
            dsts,
        }
    }
}

/// The register's scoreboard slot; never one of the padding slots.
fn scoreboard_slot(reg: RegId) -> u8 {
    let i = reg.flat_index();
    assert!(
        i < SCOREBOARD_SLOTS,
        "register {reg:?} is off the scoreboard"
    );
    i as u8
}

/// The signals of the unit that takes work first in each twin pair
/// (FXU0, then FPU0's six), in [`Pipeline::unit0`]'s order.
const UNIT0_SIGNALS: [Signal; UNIT0_TALLIES] = [
    Signal::Fxu0Exec,
    Signal::Fpu0Exec,
    Signal::Fpu0Add,
    Signal::Fpu0Mul,
    Signal::Fpu0Div,
    Signal::Fpu0Fma,
    Signal::Fpu0Sqrt,
];
/// The twins of [`UNIT0_SIGNALS`]: what a pair does not count on its
/// first unit lands here.
const UNIT1_SIGNALS: [Signal; UNIT0_TALLIES] = [
    Signal::Fxu1Exec,
    Signal::Fpu1Exec,
    Signal::Fpu1Add,
    Signal::Fpu1Mul,
    Signal::Fpu1Div,
    Signal::Fpu1Fma,
    Signal::Fpu1Sqrt,
];
/// Tallies in [`Pipeline::unit0`]: ops on FXU0, then FPU0's exec, add,
/// mul, div, fma and sqrt counts.
const UNIT0_TALLIES: usize = 7;
/// [`Pipeline::unit0`] index of FXU0's ops and of FPU0's exec count.
const FXU0_OPS: usize = 0;
const FPU0_EXEC: usize = 1;

/// Counts an FPU op in `tallies` ([`Pipeline::unit0`]'s layout): exec,
/// and its arithmetic. HPM accounting: the fma multiply lands in the fma
/// count, the fma add in the add count (paper §5).
#[inline(always)]
fn tally_fp(tallies: &mut [u64; UNIT0_TALLIES], op: FpOp) {
    tallies[FPU0_EXEC] += 1;
    match op {
        FpOp::Add => tallies[2] += 1,
        FpOp::Mul => tallies[3] += 1,
        FpOp::Div => tallies[4] += 1,
        FpOp::Fma => {
            tallies[5] += 1;
            tallies[2] += 1;
        }
        FpOp::Sqrt => tallies[6] += 1,
        FpOp::Move | FpOp::Cmp => {}
    }
}

/// A kernel's loop body decoded for one run, with what the timing memo
/// needs to know about it.
#[derive(Debug)]
struct Body {
    ops: Vec<MicroOp>,
    /// Each storage reference's generator slot and store flag, in
    /// program order.
    refs: Vec<(u16, bool)>,
    /// Scoreboard slots the body reads before it writes them, in first
    /// read order: the only scoreboard state an iteration's timing reads.
    live_ins: Vec<u8>,
    /// Scoreboard slots the body writes, each once.
    writes: Vec<u8>,
    /// Work per iteration on each twin-unit tally, both units together.
    unit_work: [u64; UNIT0_TALLIES],
    /// Events every iteration counts whatever its timing: fetch groups,
    /// storage references and ICU ops.
    per_iter: EventSet,
}

impl Body {
    fn decode(kernel: &Kernel, config: &MachineConfig) -> Self {
        let ops: Vec<MicroOp> = kernel
            .body
            .iter()
            .map(|inst| MicroOp::decode(inst, config))
            .collect();
        let mut refs = Vec::new();
        let mut live_ins = Vec::new();
        let mut writes = Vec::new();
        let mut unit_work = [0; UNIT0_TALLIES];
        let mut per_iter = EventSet::new();
        per_iter.bump(Signal::InstFetches, (ops.len() as u64).div_ceil(8));
        for op in &ops {
            for &src in &op.srcs {
                if src != ZERO_SLOT && !writes.contains(&src) && !live_ins.contains(&src) {
                    live_ins.push(src);
                }
            }
            for &dst in &op.dsts {
                if dst != DISCARD_SLOT && !writes.contains(&dst) {
                    writes.push(dst);
                }
            }
            match op.class {
                Class::Alu { .. } => unit_work[FXU0_OPS] += 1,
                Class::Mem { slot, store } => {
                    unit_work[FXU0_OPS] += 1;
                    refs.push((slot, store));
                    per_iter.bump(Signal::StorageRefs, 1);
                }
                Class::Fp { op, .. } => tally_fp(&mut unit_work, op),
                Class::Icu { signal, .. } => per_iter.bump(signal, 1),
            }
        }
        Body {
            ops,
            refs,
            live_ins,
            writes,
            unit_work,
            per_iter,
        }
    }
}

/// How many times [`Pipeline::horizons`] lists.
const HORIZONS: usize = 6;

/// The pipeline state the timing routine reads and writes: the register
/// scoreboard, unit occupancy, dispatch bookkeeping, and the work split
/// between twin units.
#[derive(Debug)]
struct Pipeline {
    /// Per-register readiness (cycle at which the value is available):
    /// the architectural registers first, then [`ZERO_SLOT`] and
    /// [`DISCARD_SLOT`], which carry no machine state.
    ready: [u64; READY_SLOTS],
    // Unit availability (cycle at which the unit can accept work).
    fxu0_free: u64,
    fxu1_free: u64,
    fpu0_free: u64,
    fpu1_free: u64,
    /// Global memory halt.
    stall_until: u64,
    /// In-order issue horizon.
    last_issue: u64,
    fpu_rr_toggle: bool,
    /// Current dispatch cycle.
    cycle: u64,
    /// Instructions dispatched in the current cycle (the dispatch slot).
    disp_in_cycle: u64,
    /// Completion horizon.
    end_of_work: u64,
    stall_cycles: u64,
    /// Work counted on the first unit of each twin pair
    /// ([`UNIT0_SIGNALS`]).
    unit0: [u64; UNIT0_TALLIES],
}

impl Pipeline {
    fn new() -> Self {
        Pipeline {
            ready: [0; READY_SLOTS],
            fxu0_free: 0,
            fxu1_free: 0,
            fpu0_free: 0,
            fpu1_free: 0,
            stall_until: 0,
            last_issue: 0,
            fpu_rr_toggle: false,
            cycle: 0,
            disp_in_cycle: 0,
            end_of_work: 0,
            stall_cycles: 0,
            unit0: [0; UNIT0_TALLIES],
        }
    }

    /// The unit-free times, the memory halt and the issue horizon. None
    /// of them ever moves backwards.
    fn horizons(&self) -> [u64; HORIZONS] {
        [
            self.fxu0_free,
            self.fxu1_free,
            self.fpu0_free,
            self.fpu1_free,
            self.stall_until,
            self.last_issue,
        ]
    }

    /// [`Pipeline::horizons`], to write.
    fn horizons_mut(&mut self) -> [&mut u64; HORIZONS] {
        [
            &mut self.fxu0_free,
            &mut self.fxu1_free,
            &mut self.fpu0_free,
            &mut self.fpu1_free,
            &mut self.stall_until,
            &mut self.last_issue,
        ]
    }

    /// Issues a fixed-point op on FXU0 (`fxu0`) or FXU1 once its operands
    /// are ready at `ready_at`, keeping the unit busy for `occupancy`
    /// cycles; returns the issue cycle.
    #[inline(always)]
    fn issue_fx(&mut self, fxu0: bool, ready_at: u64, occupancy: u64) -> u64 {
        let unit_free = if fxu0 {
            &mut self.fxu0_free
        } else {
            &mut self.fxu1_free
        };
        let issue = ready_at.max(*unit_free);
        *unit_free = issue + occupancy;
        self.unit0[FXU0_OPS] += u64::from(fxu0);
        issue
    }

    /// Issues an FPU op once its operands are ready at `ready_at`,
    /// keeping the unit busy for `occupancy` cycles; returns the issue
    /// cycle.
    #[inline(always)]
    fn issue_fp(&mut self, dispatch: FpuDispatch, op: FpOp, ready_at: u64, occupancy: u64) -> u64 {
        // FPU0-first policy (paper §5): instructions go to FPU0 until it
        // is tied up (a dependency is keeping it busy or a multicycle op
        // occupies it), then fall over to FPU1. The round-robin ablation
        // alternates strictly.
        let fpu0 = match dispatch {
            FpuDispatch::RoundRobin => {
                self.fpu_rr_toggle = !self.fpu_rr_toggle;
                self.fpu_rr_toggle
            }
            FpuDispatch::Fpu0First => {
                self.fpu0_free <= ready_at
                    || (self.fpu1_free > ready_at && self.fpu0_free <= self.fpu1_free)
            }
        };
        let unit_free = if fpu0 {
            &mut self.fpu0_free
        } else {
            &mut self.fpu1_free
        };
        let issue = ready_at.max(*unit_free);
        *unit_free = issue + occupancy;
        if fpu0 {
            tally_fp(&mut self.unit0, op);
        }
        issue
    }

    /// The timing routine: dispatches and issues one iteration of `ops`,
    /// each storage reference taking the next of the outcome codes the
    /// memory pass wrote (`outcomes`, see [`Node::reference`]).
    /// Returns the iteration's latest completion; the caller folds it
    /// into [`Pipeline::end_of_work`].
    #[inline(always)]
    fn time_iteration(&mut self, ops: &[MicroOp], outcomes: &[u64], config: &MachineConfig) -> u64 {
        let mut outcomes = outcomes.iter();
        let mut last_done = 0;
        for op in ops {
            // --- dispatch ------------------------------------------
            if self.disp_in_cycle >= config.dispatch_width {
                self.cycle += 1;
                self.disp_in_cycle = 0;
            }
            if self.stall_until > self.cycle {
                self.stall_cycles += self.stall_until - self.cycle;
                self.cycle = self.stall_until;
                self.disp_in_cycle = 0;
            }
            // Dispatch cannot run unboundedly ahead of issue.
            if self.last_issue > self.cycle + DISPATCH_LEAD {
                self.cycle = self.last_issue - DISPATCH_LEAD;
                self.disp_in_cycle = 0;
            }
            let d = self.cycle;
            self.disp_in_cycle += 1;

            // --- operand readiness ---------------------------------
            let mut r = d;
            for &src in &op.srcs {
                r = r.max(self.ready[src as usize]);
            }

            // --- issue & execute ------------------------------------
            let (issue, done) = match op.class {
                Class::Alu { fxu1_only } => {
                    // The unit free earlier takes the op; ties go to FXU0,
                    // which also explains why FXU0 retires more
                    // instructions once miss handling is added.
                    let fxu0 = !fxu1_only && self.fxu0_free <= self.fxu1_free;
                    let issue = self.issue_fx(fxu0, r, op.occupancy);
                    (issue, issue + op.occupancy)
                }
                Class::Mem { store, .. } => {
                    let fxu0 = self.fxu0_free <= self.fxu1_free;
                    let issue = self.issue_fx(fxu0, r, op.occupancy);
                    let outcome = outcomes.next().copied().unwrap_or(0);
                    let penalty = outcome >> 1;
                    if outcome != 0 {
                        if outcome & 1 != 0 {
                            // FXU0 administers the reload regardless of
                            // which unit issued the reference (paper §5:
                            // FXU0 "has additional responsibility in
                            // handling cache misses").
                            let reload = issue + config.fxu0_miss_occupancy;
                            self.fxu0_free = self.fxu0_free.max(reload);
                        }
                        if penalty > 0 {
                            // The reference halts execution until satisfied.
                            self.stall_until = self.stall_until.max(issue + penalty);
                        }
                    }
                    // Stores complete into the (now-resident) line; the
                    // FPU store-overlap hardware hides their latency.
                    let done = if store {
                        issue + 1
                    } else {
                        issue + penalty + config.load_hit_latency
                    };
                    (issue, done)
                }
                Class::Fp { op: fp, latency } => {
                    let issue = self.issue_fp(config.fpu_dispatch, fp, r, op.occupancy);
                    (issue, issue + latency)
                }
                Class::Icu { latency, .. } => (r, r + latency),
            };

            // In-order issue: never issue before a predecessor; a
            // resolving conditional branch additionally holds up
            // everything behind it.
            self.last_issue = issue.max(self.last_issue) + op.bubble;
            last_done = last_done.max(done);
            for &dst in &op.dsts {
                self.ready[dst as usize] = done;
            }
        }
        last_done
    }
}

impl Node {
    /// Creates a node with cold caches.
    pub fn new(config: MachineConfig) -> Self {
        Node {
            config,
            dcache: Cache::with_policy(config.dcache, config.dcache_policy),
            icache: Cache::new(config.icache),
            tlb: Tlb::new(TlbConfig {
                entries: config.tlb_entries,
                ways: config.tlb_ways,
                page_bytes: config.page_bytes,
            }),
            rng: 0x5851_F42D_4C95_7F2D,
        }
    }

    /// Creates a node whose TLB-penalty draw uses `seed` (determinism
    /// across replicated nodes while decorrelating their draws).
    pub fn with_seed(config: MachineConfig, seed: u64) -> Self {
        let mut n = Self::new(config);
        n.rng ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        n
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Flushes caches and TLB (fresh address space, dedicated node).
    pub fn reset_memory_state(&mut self) {
        self.dcache.flush();
        self.icache.flush();
        self.tlb.flush();
    }

    fn draw_tlb_penalty(&mut self) -> u64 {
        // xorshift64*; uniform in [min, max].
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let span = self.config.tlb_penalty_max - self.config.tlb_penalty_min + 1;
        self.config.tlb_penalty_min + (self.rng >> 33) % span
    }

    /// Replays `kernel` through the pipeline, returning events and timing.
    ///
    /// The kernel's address-generator state is cloned, so repeated runs of
    /// the same kernel are bit-identical. Cache/TLB contents persist
    /// across calls; call [`Node::reset_memory_state`] for a cold start.
    ///
    /// ```
    /// use sp2_power2::{MachineConfig, Node};
    /// use sp2_isa::KernelBuilder;
    ///
    /// // A register-resident fma loop runs near the 267 Mflops peak.
    /// let mut b = KernelBuilder::new("doc");
    /// let accs: Vec<_> = (0..8).map(|_| b.fresh_fpr()).collect();
    /// let x = b.fresh_fpr();
    /// for &acc in &accs {
    ///     b.fma_acc(acc, x, x);
    /// }
    /// b.loop_back();
    /// let kernel = b.build(10_000);
    ///
    /// let config = MachineConfig::nas_sp2();
    /// let mut node = Node::new(config);
    /// let stats = node.run_kernel(&kernel);
    /// assert!(stats.mflops(&config) > 0.85 * config.peak_mflops());
    /// ```
    pub fn run_kernel<'k>(&mut self, run: impl Into<KernelRun<'k>>) -> KernelReport {
        self.run(run.into().kernel)
    }

    /// [`Node::run_kernel`]'s body, not generic, so the loop is compiled
    /// once, in this crate, whatever the caller passes.
    fn run(&mut self, kernel: &Kernel) -> KernelReport {
        let (stats, memo) = self.simulate(kernel);
        crate::metrics::KERNEL_RUNS.inc();
        crate::metrics::SIMULATED_CYCLES.add(stats.cycles);
        crate::metrics::SIMULATED_INSTRUCTIONS.add(stats.instructions);
        if let Some(memo) = memo {
            crate::metrics::TIMING_MEMO_LOOKUPS.add(memo.lookups);
            crate::metrics::TIMING_MEMO_HITS.add(memo.hits);
        }
        KernelReport { stats }
    }

    /// Simulates `kernel`: each iteration runs its memory pass, then its
    /// timing, through the memo when the body has one. Returns the run's
    /// stats and its memo.
    fn simulate(&mut self, kernel: &Kernel) -> (RunStats, Option<TimingMemo>) {
        let body = Body::decode(kernel, &self.config);
        let mut events = EventSet::new();
        let mut pipe = Pipeline::new();
        let mut memo = TimingMemo::for_body(&body);
        let config = self.config;
        let mut streams: Vec<Stream> = kernel
            .addr_gens
            .iter()
            .map(|gen| Stream {
                gen: gen.clone(),
                page: 0,
                line: 0,
            })
            .collect();
        let mut outcomes = vec![0; body.refs.len()];
        for _ in 0..kernel.iters {
            self.memory_pass(&body.refs, &mut streams, &mut events, &mut outcomes);
            let last_done = match memo.as_mut() {
                Some(memo) => memo.time(&body, &outcomes, &mut pipe, &config),
                None => pipe.time_iteration(&body.ops, &outcomes, &config),
            };
            pipe.end_of_work = pipe.end_of_work.max(last_done);
        }

        let iters = kernel.iters;
        let icache_lines = (self.config.icache.bytes / self.config.icache.line_bytes) as u32;
        events.bump(Signal::IcacheReload, icache_reloads(kernel, icache_lines));
        events += body.per_iter.scaled(iters, 1);
        for (i, &work) in body.unit_work.iter().enumerate() {
            events.bump(UNIT0_SIGNALS[i], pipe.unit0[i]);
            events.bump(UNIT1_SIGNALS[i], work * iters - pipe.unit0[i]);
        }
        let cycles = pipe.end_of_work.max(pipe.cycle) + 1;
        events.bump(Signal::Cycles, cycles);
        events.bump(Signal::FxuStallCycles, pipe.stall_cycles);
        let stats = RunStats {
            events,
            cycles,
            instructions: body.ops.len() as u64 * iters,
            stall_cycles: pipe.stall_cycles,
        };
        (stats, memo)
    }

    /// The memory pass: runs one iteration's storage references `refs`
    /// in program order (see [`Node::reference`]), writing each one's
    /// outcome code to `outcomes`.
    #[inline(always)]
    fn memory_pass(
        &mut self,
        refs: &[(u16, bool)],
        streams: &mut [Stream],
        events: &mut EventSet,
        outcomes: &mut [u64],
    ) {
        for (&(slot, store), outcome) in refs.iter().zip(outcomes) {
            *outcome = self.reference(&mut streams[slot as usize], events, store);
        }
    }

    /// One storage reference of the memory pass: the next address of
    /// `stream`, through the TLB and the D-cache, each checking first the
    /// entry the stream's last reference used, counting its events. None
    /// of it depends on timing. Returns the reference's outcome code: the
    /// cycles it halts execution for, shifted left once, with the low bit
    /// set on a D-cache miss (FXU0 then administers the reload). A code
    /// of 0 times like a double hit.
    #[inline(always)]
    fn reference(&mut self, stream: &mut Stream, events: &mut EventSet, store: bool) -> u64 {
        let addr = stream.gen.next_addr();
        let mut penalty = 0;
        if !self.tlb.access_hinted(addr, &mut stream.page) {
            events.bump(Signal::TlbMiss, 1);
            penalty += self.draw_tlb_penalty();
        }
        let access = self.dcache.access_hinted(addr, store, &mut stream.line);
        if !access.hit {
            events.bump(Signal::DcacheMiss, 1);
            events.bump(Signal::DcacheReload, 1);
            penalty += self.config.dcache_miss_penalty;
        }
        if access.memory_write {
            events.bump(Signal::DcacheStore, 1);
        }
        penalty << 1 | u64::from(!access.hit)
    }
}

/// I-cache lines a run of `kernel` reloads: its whole routine footprint
/// streams in cold on the first iteration, and each switch to another
/// routine of the same code (every `routine_period` iterations) refetches
/// it when the total footprint exceeds the I-cache's `icache_lines`.
fn icache_reloads(kernel: &Kernel, icache_lines: u32) -> u64 {
    if kernel.iters == 0 {
        return 0;
    }
    let period = u64::from(kernel.routine_period);
    let switches = if period > 0 && kernel.code_lines.saturating_mul(2) > icache_lines {
        (kernel.iters - 1) / period
    } else {
        0
    };
    u64::from(kernel.code_lines) * (1 + switches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_isa::KernelBuilder;

    fn node() -> Node {
        Node::new(MachineConfig::nas_sp2())
    }

    /// A register-resident fma-saturation kernel: 8 independent fma
    /// accumulator chains, no memory traffic.
    fn fma_burst(iters: u64) -> Kernel {
        let mut b = KernelBuilder::new("fma-burst");
        let accs: Vec<_> = (0..8).map(|_| b.fresh_fpr()).collect();
        let x = b.fresh_fpr();
        let y = b.fresh_fpr();
        for &acc in &accs {
            b.fma_acc(acc, x, y);
        }
        b.loop_back();
        b.build(iters)
    }

    #[test]
    fn fma_burst_approaches_peak() {
        let mut n = node();
        let stats = n.run_kernel(&fma_burst(20_000));
        let mflops = stats.mflops(n.config());
        let peak = n.config().peak_mflops();
        // Dual FPUs, independent chains: ≥ 85 % of 267 Mflops peak.
        assert!(
            mflops > 0.85 * peak,
            "fma burst reached only {mflops:.1} of {peak:.1} Mflops"
        );
    }

    #[test]
    fn fpu_units_balance_on_independent_chains() {
        let mut n = node();
        let stats = n.run_kernel(&fma_burst(10_000));
        let f0 = stats.events.get(Signal::Fpu0Exec) as f64;
        let f1 = stats.events.get(Signal::Fpu1Exec) as f64;
        let ratio = f0 / f1;
        assert!(
            (0.7..1.5).contains(&ratio),
            "independent chains should balance FPUs, ratio {ratio:.2}"
        );
    }

    #[test]
    fn dependent_chain_prefers_fpu0() {
        // One serial dependency chain: every fma waits on the previous.
        let mut b = KernelBuilder::new("serial");
        let acc = b.fresh_fpr();
        let x = b.fresh_fpr();
        for _ in 0..8 {
            b.fma_acc(acc, x, acc);
        }
        b.loop_back();
        let k = b.build(5_000);
        let mut n = node();
        let stats = n.run_kernel(&k);
        let f0 = stats.events.get(Signal::Fpu0Exec) as f64;
        let f1 = stats.events.get(Signal::Fpu1Exec).max(1) as f64;
        assert!(
            f0 / f1 > 3.0,
            "a serial chain should land almost entirely on FPU0 ({})",
            f0 / f1
        );
    }

    #[test]
    fn streaming_load_misses_every_32_elements() {
        let mut b = KernelBuilder::new("stream");
        let a = b.seq_array(8, 32 << 20);
        let x = b.load_double(a);
        let acc = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        let iters = 64_000;
        let k = b.build(iters);
        let mut n = node();
        let stats = n.run_kernel(&k);
        let misses = stats.events.get(Signal::DcacheMiss);
        let expected = iters / 32;
        assert!(
            (misses as f64 - expected as f64).abs() / (expected as f64) < 0.05,
            "expected ≈{expected} misses, got {misses}"
        );
        // TLB: one miss per 512 elements.
        let tlb = stats.events.get(Signal::TlbMiss);
        let expected_tlb = iters / 512;
        assert!(
            (tlb as f64 - expected_tlb as f64).abs() / (expected_tlb as f64) < 0.1,
            "expected ≈{expected_tlb} TLB misses, got {tlb}"
        );
    }

    #[test]
    fn cache_resident_tile_stops_missing_once_warm() {
        let mut b = KernelBuilder::new("tile");
        let a = b.tile_array(8, 128 * 1024); // fits in 256 kB
        let x = b.load_double(a);
        let acc = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        let k = b.build(100_000);
        let mut n = node();
        let stats = n.run_kernel(&k);
        let misses = stats.events.get(Signal::DcacheMiss);
        // Cold misses only: 128 kB / 256 B = 512 lines.
        assert!(
            misses <= 600,
            "tile should only cold-miss (≤600), got {misses}"
        );
    }

    #[test]
    fn castouts_reported_for_streaming_stores() {
        let mut b = KernelBuilder::new("store-stream");
        let a = b.seq_array(8, 16 << 20);
        let x = b.fresh_fpr();
        b.store_double(a, x);
        b.loop_back();
        let k = b.build(64_000);
        let mut n = node();
        let stats = n.run_kernel(&k);
        let castouts = stats.events.get(Signal::DcacheStore);
        // 64 000 stores × 8 B touch 2048 lines, all dirtied; the 1024
        // resident lines stay, the rest are evicted dirty.
        assert!(
            (900..1100).contains(&castouts),
            "expected ≈1024 castouts, got {castouts}"
        );
    }

    #[test]
    fn divide_occupies_fpu_for_ten_cycles() {
        use sp2_isa::op::{BrKind, FpOp, Op};
        use sp2_isa::reg::RegId;
        // Hand-built in-place divide (v = v / x) so the dependence is
        // carried across iterations: steady state is one divide latency
        // (10 cycles) per iteration.
        let v = RegId::Fpr(0);
        let x = RegId::Fpr(1);
        let k = Kernel {
            name: "div-loop".into(),
            body: vec![
                Inst::new(Op::Fp(FpOp::Div), Some(v), &[v, x]),
                Inst::new(Op::Br(BrKind::LoopBack), None, &[]),
            ],
            iters: 1_000,
            addr_gens: vec![],
            code_lines: 1,
            routine_period: 0,
        };
        let mut n = node();
        let stats = n.run_kernel(&k);
        let cpi = stats.cycles as f64 / 1_000.0;
        assert!(
            (9.5..12.0).contains(&cpi),
            "loop-carried divide should cost ≈10 cycles/iter, got {cpi:.1}"
        );
    }

    #[test]
    fn branches_counted_as_icu_type1() {
        let mut b = KernelBuilder::new("br");
        b.int_alu();
        b.cond_reg();
        b.loop_back();
        let k = b.build(500);
        let mut n = node();
        let stats = n.run_kernel(&k);
        assert_eq!(stats.events.get(Signal::IcuType1), 500);
        assert_eq!(stats.events.get(Signal::IcuType2), 500);
    }

    #[test]
    fn intmul_and_intdiv_only_on_fxu1() {
        let mut b = KernelBuilder::new("imuldiv");
        b.int_mul();
        b.int_div();
        b.loop_back();
        let k = b.build(300);
        let mut n = node();
        let stats = n.run_kernel(&k);
        assert_eq!(stats.events.get(Signal::Fxu1Exec), 600);
        assert_eq!(stats.events.get(Signal::Fxu0Exec), 0);
    }

    #[test]
    fn quad_load_readies_both_destinations() {
        let mut b = KernelBuilder::new("quad");
        let a = b.tile_array(16, 4096);
        let (d0, d1) = b.load_quad(a);
        let s = b.fadd(d0, d1);
        let _ = b.fmul(s, d1);
        b.loop_back();
        let k = b.build(100);
        let mut n = node();
        let stats = n.run_kernel(&k);
        // One memory instruction per iteration, not two.
        assert_eq!(stats.events.get(Signal::StorageRefs), 100);
        assert_eq!(stats.events.fxu_total(), 100);
    }

    #[test]
    fn determinism_across_identical_nodes() {
        let k = fma_burst(2_000);
        let mut n1 = Node::with_seed(MachineConfig::nas_sp2(), 7);
        let mut n2 = Node::with_seed(MachineConfig::nas_sp2(), 7);
        assert_eq!(n1.run_kernel(&k), n2.run_kernel(&k));
    }

    #[test]
    fn run_does_not_mutate_kernel_generators() {
        let mut b = KernelBuilder::new("imm");
        let a = b.seq_array(8, 1 << 16);
        let x = b.load_double(a);
        let acc = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        let k = b.build(1_000);
        let mut n = node();
        let s1 = n.run_kernel(&k);
        n.reset_memory_state();
        let s2 = n.run_kernel(&k);
        assert_eq!(
            s1.events.get(Signal::DcacheMiss),
            s2.events.get(Signal::DcacheMiss)
        );
    }

    #[test]
    fn stall_cycles_accounted() {
        let mut b = KernelBuilder::new("stalls");
        let a = b.seq_array(256, 32 << 20); // one miss per access
        let x = b.load_double(a);
        let acc = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        let k = b.build(10_000);
        let mut n = node();
        let stats = n.run_kernel(&k);
        assert!(stats.stall_cycles > 0);
        assert!(stats.events.get(Signal::FxuStallCycles) == stats.stall_cycles);
        // Every access misses: the stall share should dominate.
        assert!(
            stats.stall_cycles as f64 / stats.cycles as f64 > 0.5,
            "line-stride streaming should be stall-dominated"
        );
    }

    #[test]
    fn icache_cold_fetch_counted_once_for_tight_loops() {
        let k = fma_burst(1_000);
        let mut n = node();
        let stats = n.run_kernel(&k);
        assert_eq!(
            stats.events.get(Signal::IcacheReload),
            k.code_lines as u64,
            "tight loop refetches only its cold footprint"
        );
        assert!(stats.events.get(Signal::InstFetches) >= 1_000);
    }

    #[test]
    fn routine_switching_reloads_icache_when_footprint_exceeds_cache() {
        let mut b = KernelBuilder::new("bigcode");
        // Footprint 300 lines vs 256-line I-cache; switch every 10 iters.
        b.code_footprint(300, 10);
        let acc = b.fresh_fpr();
        let x = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        let k = b.build(1_000);
        let mut n = node();
        let stats = n.run_kernel(&k);
        let reloads = stats.events.get(Signal::IcacheReload);
        // Cold (300) + 99 switches x 300.
        assert_eq!(reloads, 300 + 99 * 300);
    }
}
