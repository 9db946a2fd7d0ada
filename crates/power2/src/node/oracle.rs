//! The interleaved loop the memory pass, the timing routine and the
//! timing memo replaced, kept as the oracle they are checked against:
//! each storage reference runs inside the dispatch loop, at its issue.
//! A property test runs random kernels through both on several machines
//! and compares the full `RunStats`.

use super::{Class, MicroOp, Node, RunStats, DISPATCH_LEAD, READY_SLOTS};
use crate::config::FpuDispatch;
use sp2_hpm::{EventSet, Signal};
use sp2_isa::op::FpOp;
use sp2_isa::{AddrGen, Kernel};

/// The signals one FPU's work lands on.
struct FpuSignals {
    exec: Signal,
    add: Signal,
    mul: Signal,
    div: Signal,
    fma: Signal,
    sqrt: Signal,
}

/// FPU0's signals, then FPU1's.
const FPU_SIGNALS: [FpuSignals; 2] = [
    FpuSignals {
        exec: Signal::Fpu0Exec,
        add: Signal::Fpu0Add,
        mul: Signal::Fpu0Mul,
        div: Signal::Fpu0Div,
        fma: Signal::Fpu0Fma,
        sqrt: Signal::Fpu0Sqrt,
    },
    FpuSignals {
        exec: Signal::Fpu1Exec,
        add: Signal::Fpu1Add,
        mul: Signal::Fpu1Mul,
        div: Signal::Fpu1Div,
        fma: Signal::Fpu1Fma,
        sqrt: Signal::Fpu1Sqrt,
    },
];

/// Everything one loop iteration reads or writes besides the node's own
/// caches/TLB/RNG: address generators, event accumulators, the register
/// scoreboard, unit occupancy, and dispatch bookkeeping.
#[derive(Debug)]
struct LoopState {
    gens: Vec<AddrGen>,
    events: EventSet,
    /// Per-register readiness (cycle at which the value is available):
    /// the architectural registers first, then [`ZERO_SLOT`] and
    /// [`DISCARD_SLOT`], which carry no machine state.
    ready: [u64; READY_SLOTS],
    // Unit availability (cycle at which the unit can accept work).
    fxu0_free: u64,
    fxu1_free: u64,
    fpu0_free: u64,
    fpu1_free: u64,
    fpu_rr_toggle: bool,
    // Dispatch bookkeeping.
    /// Current dispatch cycle.
    cycle: u64,
    disp_in_cycle: u64,
    /// Global memory halt.
    stall_until: u64,
    /// In-order issue horizon.
    last_issue: u64,
    /// Completion horizon.
    end_of_work: u64,
    stall_cycles: u64,
    instructions: u64,
}

impl LoopState {
    fn new(kernel: &Kernel) -> Self {
        LoopState {
            gens: kernel.addr_gens.clone(),
            events: EventSet::new(),
            ready: [0; READY_SLOTS],
            fxu0_free: 0,
            fxu1_free: 0,
            fpu0_free: 0,
            fpu1_free: 0,
            fpu_rr_toggle: false,
            cycle: 0,
            disp_in_cycle: 0,
            stall_until: 0,
            last_issue: 0,
            end_of_work: 0,
            stall_cycles: 0,
            instructions: 0,
        }
    }

    /// Issues a fixed-point op on FXU0 (`fxu0`) or FXU1 once its operands
    /// are ready at `ready_at`, keeping the unit busy for `occupancy`
    /// cycles; returns the issue cycle.
    #[inline]
    fn issue_fx(&mut self, fxu0: bool, ready_at: u64, occupancy: u64) -> u64 {
        let (unit_free, signal) = if fxu0 {
            (&mut self.fxu0_free, Signal::Fxu0Exec)
        } else {
            (&mut self.fxu1_free, Signal::Fxu1Exec)
        };
        let issue = ready_at.max(*unit_free);
        *unit_free = issue + occupancy;
        self.events.bump(signal, 1);
        issue
    }

    /// Issues an FPU op once its operands are ready at `ready_at`,
    /// keeping the unit busy for `occupancy` cycles and counting the op
    /// on that unit's signals; returns the issue cycle.
    #[inline]
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
        let (unit_free, sig) = if fpu0 {
            (&mut self.fpu0_free, &FPU_SIGNALS[0])
        } else {
            (&mut self.fpu1_free, &FPU_SIGNALS[1])
        };
        let issue = ready_at.max(*unit_free);
        *unit_free = issue + occupancy;
        self.events.bump(sig.exec, 1);
        match op {
            FpOp::Add => self.events.bump(sig.add, 1),
            FpOp::Mul => self.events.bump(sig.mul, 1),
            // HPM accounting: the fma multiply lands in the fma count, the
            // fma add in the add count (paper §5).
            FpOp::Fma => {
                self.events.bump(sig.fma, 1);
                self.events.bump(sig.add, 1);
            }
            FpOp::Div => self.events.bump(sig.div, 1),
            FpOp::Sqrt => self.events.bump(sig.sqrt, 1),
            FpOp::Move | FpOp::Cmp => {}
        }
        issue
    }
}

impl Node {
    /// Replays `kernel` through the interleaved loop, as
    /// [`Node::run_kernel`] did before the memory pass and the timing
    /// routine were split. Counts nothing in the metrics.
    pub(super) fn run_interleaved(&mut self, kernel: &Kernel) -> RunStats {
        let ops: Vec<MicroOp> = kernel
            .body
            .iter()
            .map(|inst| MicroOp::decode(inst, &self.config))
            .collect();
        let mut st = LoopState::new(kernel);
        let fetch_groups_per_iter = (kernel.body.len() as u64).div_ceil(8);
        let icache_lines = (self.config.icache.bytes / self.config.icache.line_bytes) as u32;
        for iter in 0..kernel.iters {
            self.step_iteration(
                kernel,
                &ops,
                &mut st,
                iter,
                fetch_groups_per_iter,
                icache_lines,
            );
        }

        let cycles = st.end_of_work.max(st.cycle) + 1;
        st.events.bump(Signal::Cycles, cycles);
        st.events.bump(Signal::FxuStallCycles, st.stall_cycles);
        RunStats {
            events: st.events,
            cycles,
            instructions: st.instructions,
            stall_cycles: st.stall_cycles,
        }
    }

    /// Steps one loop iteration through fetch, dispatch, and execute.
    fn step_iteration(
        &mut self,
        kernel: &Kernel,
        ops: &[MicroOp],
        st: &mut LoopState,
        iter: u64,
        fetch_groups_per_iter: u64,
        icache_lines: u32,
    ) {
        // --- instruction fetch & I-cache ---------------------------
        st.events.bump(Signal::InstFetches, fetch_groups_per_iter);
        if iter == 0 {
            // Cold code fetch: the whole routine footprint streams in.
            st.events
                .bump(Signal::IcacheReload, kernel.code_lines as u64);
        } else if kernel.routine_period > 0
            && iter.is_multiple_of(kernel.routine_period as u64)
            && kernel.code_lines > 0
        {
            // Switching to another routine of the same code. Only a
            // footprint larger than the I-cache actually refetches.
            let total_footprint = kernel.code_lines.saturating_mul(2);
            if total_footprint > icache_lines {
                st.events
                    .bump(Signal::IcacheReload, kernel.code_lines as u64);
            }
        }
        st.instructions += ops.len() as u64;

        for op in ops {
            // --- dispatch ------------------------------------------
            if st.disp_in_cycle >= self.config.dispatch_width {
                st.cycle += 1;
                st.disp_in_cycle = 0;
            }
            if st.stall_until > st.cycle {
                st.stall_cycles += st.stall_until - st.cycle;
                st.cycle = st.stall_until;
                st.disp_in_cycle = 0;
            }
            // Dispatch cannot run unboundedly ahead of issue.
            if st.last_issue > st.cycle + DISPATCH_LEAD {
                st.cycle = st.last_issue - DISPATCH_LEAD;
                st.disp_in_cycle = 0;
            }
            let d = st.cycle;
            st.disp_in_cycle += 1;

            // --- operand readiness ---------------------------------
            let mut r = d;
            for &src in &op.srcs {
                r = r.max(st.ready[src as usize]);
            }

            // --- issue & execute ------------------------------------
            let (issue, done) = match op.class {
                Class::Alu { fxu1_only } => {
                    // The unit free earlier takes the op; ties go to FXU0,
                    // which also explains why FXU0 retires more
                    // instructions once miss handling is added.
                    let fxu0 = !fxu1_only && st.fxu0_free <= st.fxu1_free;
                    let issue = st.issue_fx(fxu0, r, op.occupancy);
                    (issue, issue + op.occupancy)
                }
                Class::Mem { slot, store } => {
                    let fxu0 = st.fxu0_free <= st.fxu1_free;
                    let issue = st.issue_fx(fxu0, r, op.occupancy);
                    let penalty = self.interleaved_reference(st, slot, store, issue);
                    // Stores complete into the (now-resident) line; the
                    // FPU store-overlap hardware hides their latency.
                    let done = if store {
                        issue + 1
                    } else {
                        issue + penalty + self.config.load_hit_latency
                    };
                    (issue, done)
                }
                Class::Fp { op: fp, latency } => {
                    let issue = st.issue_fp(self.config.fpu_dispatch, fp, r, op.occupancy);
                    (issue, issue + latency)
                }
                Class::Icu { signal, latency } => {
                    st.events.bump(signal, 1);
                    (r, r + latency)
                }
            };

            // In-order issue: never issue before a predecessor; a
            // resolving conditional branch additionally holds up
            // everything behind it.
            st.last_issue = issue.max(st.last_issue) + op.bubble;
            st.end_of_work = st.end_of_work.max(done);
            for &dst in &op.dsts {
                st.ready[dst as usize] = done;
            }
        }
    }

    /// Performs the storage reference of a memory op issued at `issue`
    /// through generator `slot`: TLB, then D-cache. Returns the cycles
    /// the reference halts execution for (0 on a double hit).
    #[inline]
    fn interleaved_reference(
        &mut self,
        st: &mut LoopState,
        slot: u16,
        store: bool,
        issue: u64,
    ) -> u64 {
        st.events.bump(Signal::StorageRefs, 1);
        let addr = st.gens[slot as usize].next_addr();
        let mut penalty = 0;
        if !self.tlb.access(addr) {
            st.events.bump(Signal::TlbMiss, 1);
            penalty += self.draw_tlb_penalty();
        }
        let out = self.dcache.access(addr, store);
        if !out.hit {
            st.events.bump(Signal::DcacheMiss, 1);
            st.events.bump(Signal::DcacheReload, 1);
            penalty += self.config.dcache_miss_penalty;
            // FXU0 administers the reload regardless of which unit
            // issued the reference (paper §5: FXU0 "has additional
            // responsibility in handling cache misses").
            st.fxu0_free = st.fxu0_free.max(issue + self.config.fxu0_miss_occupancy);
        }
        if out.memory_write {
            st.events.bump(Signal::DcacheStore, 1);
        }
        if penalty > 0 {
            // The reference halts execution until satisfied.
            st.stall_until = st.stall_until.max(issue + penalty);
        }
        penalty
    }
}

mod tests {
    use super::super::memo::TimingMemo;
    use super::*;
    use crate::cache::WritePolicy;
    use crate::config::MachineConfig;
    use proptest::prelude::*;
    use sp2_isa::{AddrPattern, BrKind, FxOp, Inst, Op, RegId};

    /// SplitMix64: the kernel and machine generator's random source.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// Every address pattern, over spans from one line to far beyond the
    /// D-cache and the TLB's reach.
    fn pattern(d: &mut Draw) -> AddrPattern {
        let base = d.below(1 << 20) * 8;
        let stride = d.pick(&[8, 16, 64, 256, 4096, 8200]);
        let span = d.pick(&[256, 64 << 10, 1 << 20, 32 << 20]);
        match d.below(5) {
            0 => AddrPattern::Fixed { addr: base },
            1 => AddrPattern::Seq { base, stride, span },
            2 => AddrPattern::Tile {
                base,
                stride,
                tile: span.min(256 << 10),
            },
            3 => AddrPattern::Strided2D {
                base,
                stride,
                inner: 1 + d.below(64) as u32,
                outer: d.pick(&[4096, 65_536, 1 << 20]),
                span,
            },
            _ => AddrPattern::Random {
                base,
                span,
                align: d.pick(&[8, 256]),
            },
        }
    }

    /// A register from a small pool, so ops depend on each other within
    /// and across iterations.
    fn reg(d: &mut Draw) -> RegId {
        if d.below(2) == 0 {
            RegId::Gpr(d.below(6) as u8)
        } else {
            RegId::Fpr(d.below(10) as u8)
        }
    }

    /// A kernel of `len` ops drawn from every op class, over one to four
    /// address generators of every pattern.
    fn kernel(seed: u64, len: usize, iters: u64) -> Kernel {
        let mut d = Draw(seed);
        let gens = 1 + d.below(4) as u16;
        let addr_gens = (0..gens).map(|_| AddrGen::new(pattern(&mut d))).collect();
        let fx = [
            FxOp::LoadSingle,
            FxOp::LoadDouble,
            FxOp::LoadQuad,
            FxOp::StoreSingle,
            FxOp::StoreDouble,
            FxOp::StoreQuad,
            FxOp::IntAlu,
            FxOp::IntMul,
            FxOp::IntDiv,
        ];
        let fp = [
            FpOp::Add,
            FpOp::Mul,
            FpOp::Div,
            FpOp::Sqrt,
            FpOp::Fma,
            FpOp::Move,
            FpOp::Cmp,
        ];
        let body = (0..len)
            .map(|_| {
                let srcs: Vec<RegId> = (0..d.below(4)).map(|_| reg(&mut d)).collect();
                let dst = (d.below(4) > 0).then(|| reg(&mut d));
                match d.below(4) {
                    0 | 1 => {
                        let op = d.pick(&fx);
                        if op.is_memory() {
                            let slot = d.below(u64::from(gens)) as u16;
                            let mut inst = Inst::memory(op, slot, dst, &srcs);
                            if op == FxOp::LoadQuad {
                                inst.dst2 = Some(reg(&mut d));
                            }
                            inst
                        } else {
                            Inst::new(Op::Fx(op), dst, &srcs)
                        }
                    }
                    2 => Inst::new(Op::Fp(d.pick(&fp)), dst, &srcs),
                    _ => match d.below(4) {
                        0 => Inst::new(Op::CondReg, dst, &srcs),
                        k => {
                            let kind =
                                [BrKind::LoopBack, BrKind::Cond, BrKind::Uncond][k as usize - 1];
                            Inst::new(Op::Br(kind), None, &srcs)
                        }
                    },
                }
            })
            .collect();
        Kernel {
            name: format!("random-{seed:x}"),
            body,
            iters,
            addr_gens,
            code_lines: d.below(300) as u32,
            routine_period: d.below(60) as u32,
        }
    }

    /// The NAS node, the three ablation machines of
    /// `tests/simulator_digest.rs`, a machine whose penalties and
    /// latencies overflow the memo's one-byte key times (so its
    /// iterations take the direct fallback), and one machine with timing
    /// parameters drawn from `seed`, zero occupancies and latencies
    /// included.
    fn machines(seed: u64) -> Vec<MachineConfig> {
        let nas = MachineConfig::nas_sp2();
        let mut round_robin = nas;
        round_robin.fpu_dispatch = FpuDispatch::RoundRobin;
        let mut short_lines = nas;
        short_lines.dcache.line_bytes = 128;
        let mut write_through = nas;
        write_through.dcache_policy = WritePolicy::WriteThrough;
        let mut oversized = nas;
        oversized.tlb_penalty_min = 200;
        oversized.tlb_penalty_max = 400;
        oversized.dcache_miss_penalty = 150;
        oversized.fdiv_cycles = 300;
        oversized.fsqrt_cycles = 280;
        oversized.idiv_cycles = 270;
        let mut d = Draw(seed ^ 0x5EED);
        let mut drawn = nas;
        drawn.dispatch_width = 1 + d.below(6);
        drawn.fpu_latency = d.below(4);
        drawn.fdiv_cycles = d.below(20);
        drawn.fsqrt_cycles = d.below(20);
        drawn.load_hit_latency = d.below(3);
        drawn.imul_cycles = d.below(4);
        drawn.idiv_cycles = d.below(16);
        drawn.fxu0_miss_occupancy = d.below(4);
        drawn.dcache_miss_penalty = d.below(12);
        drawn.tlb_penalty_min = d.below(40);
        drawn.tlb_penalty_max = drawn.tlb_penalty_min + d.below(30);
        drawn.fpu_dispatch = d.pick(&[FpuDispatch::Fpu0First, FpuDispatch::RoundRobin]);
        vec![
            nas,
            round_robin,
            short_lines,
            write_through,
            oversized,
            drawn,
        ]
    }

    /// Runs `kernels` back to back on two identical nodes, one through
    /// [`Node::run_kernel`]'s path and one through the oracle, and
    /// returns the first disagreement. The second kernel starts on the
    /// caches, TLB and penalty draws the first one left.
    fn disagreement(machine: MachineConfig, kernels: &[Kernel]) -> Option<String> {
        let mut fast = Node::with_seed(machine, 1998);
        let mut oracle = fast.clone();
        for k in kernels {
            let (got, _) = fast.simulate(k);
            let want = oracle.run_interleaved(k);
            if got != want {
                return Some(format!("{} on {machine:?}:\n{got:?}\n{want:?}", k.name));
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The memory pass, the timing routine and the memo together give
        /// the oracle's full `RunStats` on every machine, for bodies on
        /// both sides of the memo's length rule and runs long enough to
        /// fill its table.
        #[test]
        fn memoized_runs_match_the_interleaved_oracle(
            seed in 0u64..u64::MAX,
            len in 1usize..64,
            iters in 1u64..6_000,
        ) {
            let kernels = [kernel(seed, len, iters), kernel(seed ^ 1, 64 - len, 1 + iters / 3)];
            for machine in machines(seed) {
                let wrong = disagreement(machine, &kernels);
                prop_assert!(wrong.is_none(), "{}", wrong.unwrap_or_default());
            }
        }
    }

    /// A 32-op body with four loads from random addresses far beyond the
    /// TLB's reach: each iteration draws four TLB penalties, so its key
    /// rarely repeats. The table fills and, as lookups keep missing, the
    /// memo turns itself off; the stats still match.
    #[test]
    fn a_full_table_that_keeps_missing_turns_the_memo_off() {
        let mut b = sp2_isa::KernelBuilder::new("scatter");
        for _ in 0..4 {
            let slot = b.random_array(64 << 20, 8);
            let x = b.load_double(slot);
            let y = b.fadd(x, x);
            let z = b.fmul(y, x);
            b.store_double(slot, z);
            for _ in 0..4 {
                let _ = b.int_alu();
            }
        }
        let k = b.build(40_000);
        let machine = MachineConfig::nas_sp2();
        let (stats, memo) = Node::with_seed(machine, 7).simulate(&k);
        let memo: TimingMemo = memo.expect("a 32-op body gets a memo");
        assert!(memo.is_full() && memo.is_off(), "{memo:?}");
        assert!(memo.lookups < k.iters, "the memo stopped looking up");
        assert_eq!(stats, Node::with_seed(machine, 7).run_interleaved(&k));
    }

    /// A regular 32-op stream replays nearly every iteration.
    #[test]
    fn a_regular_body_replays_nearly_every_iteration() {
        let mut b = sp2_isa::KernelBuilder::new("stream");
        let accs: Vec<_> = (0..4).map(|_| b.fresh_fpr()).collect();
        for i in 0..8 {
            let slot = b.seq_array(8, 32 << 20);
            let x = b.load_double(slot);
            b.fma_acc(accs[i % 4], x, x);
            let _ = b.int_alu();
            let _ = b.fadd(x, x);
        }
        b.loop_back();
        let k = b.build(40_000);
        let machine = MachineConfig::nas_sp2();
        let (stats, memo) = Node::with_seed(machine, 7).simulate(&k);
        let memo = memo.expect("a 33-op body gets a memo");
        assert_eq!(memo.lookups, k.iters);
        assert!(memo.hits * 100 > memo.lookups * 95, "{memo:?}");
        assert_eq!(stats, Node::with_seed(machine, 7).run_interleaved(&k));
    }

    /// Bodies under the length rule get no memo.
    #[test]
    fn short_bodies_are_timed_directly() {
        let mut b = sp2_isa::KernelBuilder::new("short");
        let slot = b.seq_array(8, 1 << 20);
        let x = b.load_double(slot);
        let acc = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        let k = b.build(1_000);
        let machine = MachineConfig::nas_sp2();
        let (stats, memo) = Node::new(machine).simulate(&k);
        assert!(memo.is_none());
        assert_eq!(stats, Node::new(machine).run_interleaved(&k));
    }
}
