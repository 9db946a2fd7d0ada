//! Rate rules: counter deltas → the paper's reported numbers.

use sp2_hpm::{CounterDelta, CounterSelection, Signal};

/// All per-node rates the paper's Tables 2–3 report, in millions per
/// second, plus the derived ratios of §5.
///
/// ```
/// use sp2_hpm::{nas_selection, EventSet, Hpm, Mode, Signal};
/// use sp2_rs2hpm::{CounterSession, RateReport};
///
/// let mut hpm = Hpm::new(nas_selection());
/// let session = CounterSession::open(&hpm, 0.0);
/// let mut e = EventSet::new();
/// e.bump(Signal::Fpu0Fma, 4_700_000); // one second at Table 3's rates
/// e.bump(Signal::Fpu0Add, 9_500_000);
/// e.bump(Signal::Fpu0Mul, 3_200_000);
/// hpm.absorb(&e, Mode::User);
/// let (_delta, report) = session.close(&hpm, 1.0);
/// assert!((report.mflops - 17.4).abs() < 0.01);
/// assert!((report.fma_flop_fraction() - 0.54).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RateReport {
    /// Elapsed seconds of the measurement window.
    pub seconds: f64,

    // Table 2 -----------------------------------------------------------
    /// Instructions across all units, M/s.
    pub mips: f64,
    /// Operations: instructions counting the compound fma as two, M/s.
    pub mops: f64,
    /// Floating point operations, M/s (divide flops lost to the erratum).
    pub mflops: f64,

    // Table 3: OPS ------------------------------------------------------
    /// Floating adds (plain adds + fma adds), M/s.
    pub mflops_add: f64,
    /// Floating divides, M/s — 0.0 under the monitor erratum.
    pub mflops_div: f64,
    /// Floating multiplies (plain), M/s.
    pub mflops_mul: f64,
    /// fma multiplies, M/s.
    pub mflops_fma: f64,

    // Table 3: INST -----------------------------------------------------
    /// FPU instructions total / unit 0 / unit 1, M/s.
    pub mips_fpu: f64,
    /// FPU0 instructions, M/s.
    pub mips_fpu0: f64,
    /// FPU1 instructions, M/s.
    pub mips_fpu1: f64,
    /// FXU instructions total, M/s.
    pub mips_fxu: f64,
    /// FXU0 instructions, M/s.
    pub mips_fxu0: f64,
    /// FXU1 instructions, M/s.
    pub mips_fxu1: f64,
    /// ICU instructions, M/s.
    pub mips_icu: f64,

    // Table 3: CACHE ----------------------------------------------------
    /// Data cache misses, M/s.
    pub dcache_miss: f64,
    /// TLB misses, M/s.
    pub tlb_miss: f64,
    /// Instruction cache misses (reloads), M/s.
    pub icache_miss: f64,

    // Table 3: I/O ------------------------------------------------------
    /// DMA read transfers, M/s.
    pub dma_read: f64,
    /// DMA write transfers, M/s.
    pub dma_write: f64,

    // §5/§6 derived -----------------------------------------------------
    /// System-mode FXU instructions / user-mode FXU instructions
    /// (Figure 5's x-axis).
    pub system_user_fxu_ratio: f64,

    /// I/O-wait cycles, M/s — nonzero only under the §7 io-aware counter
    /// selection ([`sp2_hpm::io_aware_selection`]); always 0 under the
    /// NAS selection, which is exactly the paper's complaint.
    pub io_wait_cycles: f64,
}

impl RateReport {
    /// Computes a report from a wrap-corrected delta.
    ///
    /// Rates cover **user-mode** events (the paper's tables are user
    /// rates); the system/user FXU ratio additionally uses system-mode
    /// counts. A selection without some signal yields 0 for its rates —
    /// exactly what the real tools printed for unconfigured counters.
    pub fn from_delta(selection: &CounterSelection, delta: &CounterDelta, seconds: f64) -> Self {
        assert!(seconds > 0.0, "measurement window must be positive");
        let user = |s: Signal| -> f64 {
            selection
                .slot_of(s)
                .map(|i| delta.user[i] as f64)
                .unwrap_or(0.0)
        };
        let system = |s: Signal| -> f64 {
            selection
                .slot_of(s)
                .map(|i| delta.system[i] as f64)
                .unwrap_or(0.0)
        };
        let m = 1e6 * seconds;

        let fpu0 = user(Signal::Fpu0Exec);
        let fpu1 = user(Signal::Fpu1Exec);
        let fxu0 = user(Signal::Fxu0Exec);
        let fxu1 = user(Signal::Fxu1Exec);
        let icu = user(Signal::IcuType1) + user(Signal::IcuType2);
        let adds = user(Signal::Fpu0Add) + user(Signal::Fpu1Add);
        let muls = user(Signal::Fpu0Mul) + user(Signal::Fpu1Mul);
        let divs = user(Signal::Fpu0Div) + user(Signal::Fpu1Div);
        let fmas = user(Signal::Fpu0Fma) + user(Signal::Fpu1Fma);
        let instructions = fpu0 + fpu1 + fxu0 + fxu1 + icu;

        let sys_fxu = system(Signal::Fxu0Exec) + system(Signal::Fxu1Exec);
        let usr_fxu = fxu0 + fxu1;

        RateReport {
            seconds,
            mips: instructions / m,
            // "Ops" counts the compound fma as two operations.
            mops: (instructions + fmas) / m,
            mflops: (adds + muls + divs + fmas) / m,
            mflops_add: adds / m,
            mflops_div: divs / m,
            mflops_mul: muls / m,
            mflops_fma: fmas / m,
            mips_fpu: (fpu0 + fpu1) / m,
            mips_fpu0: fpu0 / m,
            mips_fpu1: fpu1 / m,
            mips_fxu: (fxu0 + fxu1) / m,
            mips_fxu0: fxu0 / m,
            mips_fxu1: fxu1 / m,
            mips_icu: icu / m,
            dcache_miss: user(Signal::DcacheMiss) / m,
            tlb_miss: user(Signal::TlbMiss) / m,
            icache_miss: user(Signal::IcacheReload) / m,
            dma_read: user(Signal::DmaRead) / m,
            dma_write: user(Signal::DmaWrite) / m,
            system_user_fxu_ratio: if usr_fxu > 0.0 {
                sys_fxu / usr_fxu
            } else {
                0.0
            },
            io_wait_cycles: (user(Signal::IoWaitCycles) + system(Signal::IoWaitCycles)) / m,
        }
    }

    /// Fraction of wall time spent waiting on I/O, per node, at the given
    /// clock — the quantity the paper wished it had (§7). Only meaningful
    /// under the io-aware selection; 0 otherwise.
    pub fn io_wait_fraction(&self, clock_hz: f64, nodes: f64) -> f64 {
        if clock_hz <= 0.0 || nodes <= 0.0 {
            0.0
        } else {
            self.io_wait_cycles * 1e6 / clock_hz / nodes
        }
    }

    /// §5's cache-miss-ratio lower bound: misses / (FXU0 + FXU1).
    pub fn cache_miss_ratio(&self) -> f64 {
        if self.mips_fxu > 0.0 {
            self.dcache_miss / self.mips_fxu
        } else {
            0.0
        }
    }

    /// §5's TLB-miss-ratio lower bound: TLB misses / (FXU0 + FXU1).
    pub fn tlb_miss_ratio(&self) -> f64 {
        if self.mips_fxu > 0.0 {
            self.tlb_miss / self.mips_fxu
        } else {
            0.0
        }
    }

    /// §5's register-reuse measure: flops / (FXU0 + FXU1).
    pub fn flops_per_memref(&self) -> f64 {
        if self.mips_fxu > 0.0 {
            self.mflops / self.mips_fxu
        } else {
            0.0
        }
    }

    /// The FPU instruction asymmetry (≈ 1.7 for the NAS workload).
    pub fn fpu0_fpu1_ratio(&self) -> f64 {
        if self.mips_fpu1 > 0.0 {
            self.mips_fpu0 / self.mips_fpu1
        } else {
            f64::INFINITY
        }
    }

    /// Fraction of flops produced by the fma instruction (≈ 54 %).
    pub fn fma_flop_fraction(&self) -> f64 {
        if self.mflops > 0.0 {
            2.0 * self.mflops_fma / self.mflops
        } else {
            0.0
        }
    }

    /// §5's memory-delay estimate: stall cycles per memory instruction,
    /// computed from the miss ratios and the architectural penalties —
    /// ≈ 0.12 cycles per reference for the workload.
    pub fn delay_per_memref(&self, dcache_penalty: f64, tlb_penalty: f64) -> f64 {
        self.cache_miss_ratio() * dcache_penalty + self.tlb_miss_ratio() * tlb_penalty
    }

    /// Extrapolates machine-wide rates from a partial-coverage sample:
    /// with `coverage` ∈ (0, 1) the observed sums cover only that
    /// fraction of the nodes, so rates scale by `1 / coverage` under the
    /// assumption that unsampled nodes behaved like sampled ones.
    ///
    /// At full coverage (or degenerate coverage ≤ 0) the report is
    /// returned unchanged — bit-identical, so fault-free campaigns are
    /// unaffected by the correction.
    pub fn extrapolated(&self, coverage: f64) -> RateReport {
        if coverage > 0.0 && coverage < 1.0 {
            self.scaled(1.0 / coverage)
        } else {
            *self
        }
    }

    /// Scales every rate by a constant (e.g. 144 nodes → system rates).
    pub fn scaled(&self, k: f64) -> RateReport {
        RateReport {
            seconds: self.seconds,
            mips: self.mips * k,
            mops: self.mops * k,
            mflops: self.mflops * k,
            mflops_add: self.mflops_add * k,
            mflops_div: self.mflops_div * k,
            mflops_mul: self.mflops_mul * k,
            mflops_fma: self.mflops_fma * k,
            mips_fpu: self.mips_fpu * k,
            mips_fpu0: self.mips_fpu0 * k,
            mips_fpu1: self.mips_fpu1 * k,
            mips_fxu: self.mips_fxu * k,
            mips_fxu0: self.mips_fxu0 * k,
            mips_fxu1: self.mips_fxu1 * k,
            mips_icu: self.mips_icu * k,
            dcache_miss: self.dcache_miss * k,
            tlb_miss: self.tlb_miss * k,
            icache_miss: self.icache_miss * k,
            dma_read: self.dma_read * k,
            dma_write: self.dma_write * k,
            system_user_fxu_ratio: self.system_user_fxu_ratio,
            io_wait_cycles: self.io_wait_cycles * k,
        }
    }
}

/// D-cache reload penalty, cycles per miss (§5 uses 8 cycles).
pub const DCACHE_MISS_PENALTY_CYCLES: f64 = 8.0;
/// TLB reload penalty, cycles per miss (§5 uses 45 cycles).
pub const TLB_MISS_PENALTY_CYCLES: f64 = 45.0;
/// I-cache reload penalty, cycles per reload (same cache-line reload
/// machinery as the D-cache).
pub const ICACHE_RELOAD_PENALTY_CYCLES: f64 = 8.0;

/// Top-down cycle accounting: one measurement window's cycles attributed
/// to bottleneck categories, pmu-tools/toplev style.
///
/// Categories are charged in a fixed order against the remaining cycle
/// budget — I/O wait first (directly counted), then D-cache/TLB stalls
/// (miss counts × §5's architectural penalties), then I-cache stalls,
/// then FPU occupancy (one cycle per FPU instruction; divide latency is
/// invisible because the erratum suppresses divide counts) — and
/// whatever is left is **dispatch-bound**: cycles the fixed-point and
/// dispatch machinery spent issuing, stalling, or idling. Each category
/// is clamped so the split never exceeds the measured cycles; fractions
/// are of total cycles. Totals combine user and system mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottleneckSplit {
    /// Total cycles in the window.
    pub cycles: f64,
    /// Fraction of cycles waiting on I/O (0 when the selection lacks the
    /// I/O-wait signal — the paper's §7 complaint).
    pub io_wait: f64,
    /// Fraction stalled on D-cache and TLB reloads.
    pub dcache_tlb: f64,
    /// Fraction stalled on I-cache reloads.
    pub icache: f64,
    /// Fraction occupied by floating-point execution.
    pub fpu: f64,
    /// Residual fraction: dispatch/fixed-point bound.
    pub dispatch: f64,
    /// Unclamped D-cache stall cycles (child split of `dcache_tlb`).
    pub dcache_cycles: f64,
    /// Unclamped TLB stall cycles (child split of `dcache_tlb`).
    pub tlb_cycles: f64,
    /// FPU0 instruction cycles (child split of `fpu`).
    pub fpu0_cycles: f64,
    /// FPU1 instruction cycles (child split of `fpu`).
    pub fpu1_cycles: f64,
}

impl BottleneckSplit {
    /// Builds the split from any signal-total lookup (counter deltas,
    /// multiplexed reconstructions, archived aggregates). Signals the
    /// lookup reports as 0 simply contribute nothing. Returns `None`
    /// when no cycles were measured.
    pub fn from_totals<F: Fn(Signal) -> f64>(lookup: F) -> Option<BottleneckSplit> {
        let cycles = lookup(Signal::Cycles);
        if cycles <= 0.0 || cycles.is_nan() {
            return None;
        }
        let io_cycles = lookup(Signal::IoWaitCycles).max(0.0);
        let dcache_cycles = lookup(Signal::DcacheMiss).max(0.0) * DCACHE_MISS_PENALTY_CYCLES;
        let tlb_cycles = lookup(Signal::TlbMiss).max(0.0) * TLB_MISS_PENALTY_CYCLES;
        let icache_cycles = lookup(Signal::IcacheReload).max(0.0) * ICACHE_RELOAD_PENALTY_CYCLES;
        let fpu0_cycles = lookup(Signal::Fpu0Exec).max(0.0);
        let fpu1_cycles = lookup(Signal::Fpu1Exec).max(0.0);

        let mut remaining = cycles;
        let io = io_cycles.min(remaining);
        remaining -= io;
        let dctlb = (dcache_cycles + tlb_cycles).min(remaining);
        remaining -= dctlb;
        let ic = icache_cycles.min(remaining);
        remaining -= ic;
        let fpu = (fpu0_cycles + fpu1_cycles).min(remaining);
        remaining -= fpu;

        Some(BottleneckSplit {
            cycles,
            io_wait: io / cycles,
            dcache_tlb: dctlb / cycles,
            icache: ic / cycles,
            fpu: fpu / cycles,
            dispatch: remaining / cycles,
            dcache_cycles,
            tlb_cycles,
            fpu0_cycles,
            fpu1_cycles,
        })
    }

    /// Builds the split from one wrap-corrected delta under a selection.
    /// Unwatched signals contribute 0, exactly like [`RateReport`].
    pub fn from_delta(
        selection: &CounterSelection,
        delta: &CounterDelta,
    ) -> Option<BottleneckSplit> {
        BottleneckSplit::from_totals(|s| {
            selection
                .slot_of(s)
                .map(|i| (delta.user[i] + delta.system[i]) as f64)
                .unwrap_or(0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, EventSet, Hpm, Mode};

    /// Builds a delta by absorbing a constructed event set for 1 second.
    fn delta_of(user: &EventSet, system: &EventSet) -> (CounterSelection, CounterDelta) {
        let sel = nas_selection();
        let mut hpm = Hpm::new(sel.clone());
        let before = hpm.snapshot();
        hpm.absorb(user, Mode::User);
        hpm.absorb(system, Mode::System);
        let after = hpm.snapshot();
        (sel, CounterDelta::between(&before, &after))
    }

    fn table3_like_events() -> EventSet {
        // One second at the paper's average rates (in events).
        let mut e = EventSet::new();
        e.set(Signal::Fxu0Exec, 16_500_000);
        e.set(Signal::Fxu1Exec, 11_100_000);
        e.set(Signal::Fpu0Exec, 9_400_000);
        e.set(Signal::Fpu1Exec, 5_400_000);
        e.set(Signal::IcuType1, 2_800_000);
        e.set(Signal::IcuType2, 500_000);
        e.set(Signal::Fpu0Add, 6_000_000);
        e.set(Signal::Fpu1Add, 3_500_000);
        e.set(Signal::Fpu0Mul, 2_000_000);
        e.set(Signal::Fpu1Mul, 1_200_000);
        e.set(Signal::Fpu0Fma, 3_000_000);
        e.set(Signal::Fpu1Fma, 1_700_000);
        e.set(Signal::DcacheMiss, 300_000);
        e.set(Signal::TlbMiss, 40_000);
        e.set(Signal::IcacheReload, 14_000);
        e.set(Signal::DmaRead, 24_000);
        e.set(Signal::DmaWrite, 17_000);
        e
    }

    #[test]
    fn reproduces_table2_aggregates() {
        let (sel, d) = delta_of(&table3_like_events(), &EventSet::new());
        let r = RateReport::from_delta(&sel, &d, 1.0);
        assert!((r.mips - 45.7).abs() < 0.1, "mips {}", r.mips);
        assert!((r.mflops - 17.4).abs() < 0.1, "mflops {}", r.mflops);
        assert!(r.mops > r.mips, "ops count fma twice");
    }

    #[test]
    fn table3_breakdown_and_ratios() {
        let (sel, d) = delta_of(&table3_like_events(), &EventSet::new());
        let r = RateReport::from_delta(&sel, &d, 1.0);
        assert!((r.mflops_add - 9.5).abs() < 0.01);
        assert!((r.mflops_mul - 3.2).abs() < 0.01);
        assert!((r.mflops_fma - 4.7).abs() < 0.01);
        assert_eq!(r.mflops_div, 0.0, "erratum: no div events reach the bank");
        assert!((r.fma_flop_fraction() - 0.54).abs() < 0.01);
        assert!((r.fpu0_fpu1_ratio() - 1.74).abs() < 0.05);
        assert!((r.cache_miss_ratio() - 0.0109).abs() < 0.001);
        assert!((r.tlb_miss_ratio() - 0.00145).abs() < 0.0002);
    }

    #[test]
    fn delay_per_memref_matches_paper_arithmetic() {
        let (sel, d) = delta_of(&table3_like_events(), &EventSet::new());
        let r = RateReport::from_delta(&sel, &d, 1.0);
        // ≈ 1.1 % x 8 cycles + 0.15 % x 45 cycles ≈ 0.15 cycles/ref —
        // the paper rounds its own estimate to 0.12.
        let delay = r.delay_per_memref(8.0, 45.0);
        assert!((0.08..0.2).contains(&delay), "delay {delay}");
    }

    #[test]
    fn erratum_suppresses_divides_end_to_end() {
        let mut e = table3_like_events();
        e.set(Signal::Fpu0Div, 500_000);
        let (sel, d) = delta_of(&e, &EventSet::new());
        let r = RateReport::from_delta(&sel, &d, 1.0);
        assert_eq!(r.mflops_div, 0.0);
    }

    #[test]
    fn system_user_fxu_ratio() {
        let mut sys = EventSet::new();
        sys.set(Signal::Fxu0Exec, 30_000_000);
        sys.set(Signal::Fxu1Exec, 25_200_000);
        let (sel, d) = delta_of(&table3_like_events(), &sys);
        let r = RateReport::from_delta(&sel, &d, 1.0);
        assert!((r.system_user_fxu_ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn rates_scale_with_window_length() {
        let (sel, d) = delta_of(&table3_like_events(), &EventSet::new());
        let r1 = RateReport::from_delta(&sel, &d, 1.0);
        let r2 = RateReport::from_delta(&sel, &d, 2.0);
        assert!((r1.mips / 2.0 - r2.mips).abs() < 1e-9);
    }

    #[test]
    fn node_to_system_scaling() {
        let (sel, d) = delta_of(&table3_like_events(), &EventSet::new());
        let r = RateReport::from_delta(&sel, &d, 1.0).scaled(144.0);
        // 17.4 Mflops x 144 ≈ 2.5 Gflops (the paper's good-day average).
        assert!((r.mflops / 1000.0 - 2.5).abs() < 0.05);
    }

    #[test]
    fn extrapolation_corrects_partial_coverage() {
        let (sel, d) = delta_of(&table3_like_events(), &EventSet::new());
        let r = RateReport::from_delta(&sel, &d, 1.0);
        let half = r.extrapolated(0.5);
        assert!((half.mflops - 2.0 * r.mflops).abs() < 1e-12);
        // Full coverage must be bit-identical, not just approximately equal.
        assert_eq!(r.extrapolated(1.0).mflops.to_bits(), r.mflops.to_bits());
        assert_eq!(r.extrapolated(0.0).mips.to_bits(), r.mips.to_bits());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let (sel, d) = delta_of(&EventSet::new(), &EventSet::new());
        RateReport::from_delta(&sel, &d, 0.0);
    }

    #[test]
    fn empty_delta_is_all_zero() {
        let (sel, d) = delta_of(&EventSet::new(), &EventSet::new());
        let r = RateReport::from_delta(&sel, &d, 900.0);
        assert_eq!(r.mips, 0.0);
        assert_eq!(r.mflops, 0.0);
        assert_eq!(r.cache_miss_ratio(), 0.0);
        assert_eq!(r.fma_flop_fraction(), 0.0);
        assert_eq!(r.fpu0_fpu1_ratio(), f64::INFINITY);
    }

    #[test]
    fn bottleneck_split_partitions_cycles() {
        let split = BottleneckSplit::from_totals(|s| match s {
            Signal::Cycles => 1_000_000.0,
            Signal::DcacheMiss => 10_000.0,  // x8  =  80_000 cycles
            Signal::TlbMiss => 1_000.0,      // x45 =  45_000 cycles
            Signal::IcacheReload => 2_000.0, // x8  =  16_000 cycles
            Signal::Fpu0Exec => 200_000.0,
            Signal::Fpu1Exec => 100_000.0,
            Signal::IoWaitCycles => 50_000.0,
            _ => 0.0,
        })
        .expect("cycles present");
        assert!((split.io_wait - 0.05).abs() < 1e-12);
        assert!((split.dcache_tlb - 0.125).abs() < 1e-12);
        assert!((split.icache - 0.016).abs() < 1e-12);
        assert!((split.fpu - 0.3).abs() < 1e-12);
        let sum = split.io_wait + split.dcache_tlb + split.icache + split.fpu + split.dispatch;
        assert!((sum - 1.0).abs() < 1e-12, "fractions partition cycles");
        assert!(split.dispatch > 0.0);
    }

    #[test]
    fn bottleneck_split_clamps_to_measured_cycles() {
        // Penalty model exceeds the cycle budget: every category clamps
        // and dispatch hits exactly zero, never negative.
        let split = BottleneckSplit::from_totals(|s| match s {
            Signal::Cycles => 1_000.0,
            Signal::DcacheMiss => 1_000.0, // x8 would be 8x the budget
            Signal::Fpu0Exec => 500.0,
            _ => 0.0,
        })
        .expect("cycles present");
        assert_eq!(split.dcache_tlb, 1.0);
        assert_eq!(split.fpu, 0.0, "no budget left after the stalls");
        assert_eq!(split.dispatch, 0.0);
    }

    #[test]
    fn bottleneck_split_requires_cycles() {
        assert!(BottleneckSplit::from_totals(|_| 0.0).is_none());
        // A NAS-selection delta with no cycle events is equally useless.
        let (sel, d) = delta_of(&EventSet::new(), &EventSet::new());
        assert!(BottleneckSplit::from_delta(&sel, &d).is_none());
    }

    #[test]
    fn bottleneck_split_from_delta_reads_both_modes() {
        let mut user = EventSet::new();
        user.set(Signal::Cycles, 800);
        let mut sys = EventSet::new();
        sys.set(Signal::Cycles, 200);
        sys.set(Signal::Fxu0Exec, 10);
        let (sel, d) = delta_of(&user, &sys);
        let split = BottleneckSplit::from_delta(&sel, &d).expect("cycles present");
        assert_eq!(split.cycles, 1_000.0, "user + system cycles combined");
        assert_eq!(split.dispatch, 1.0);
    }
}
