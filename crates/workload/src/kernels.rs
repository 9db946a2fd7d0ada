//! Kernel generators for the workload's code families.
//!
//! Four families, matching the reference points the paper measures:
//!
//! 1. [`blocked_matmul_kernel`] — the single-processor calibration: "a
//!    matrix multiply, fitting entirely in the 256 kB cache and fully
//!    blocked with the central loop unrolled, performs at approximately
//!    240 Mflops" with a flops/memref ratio of 3.0 (§5).
//! 2. [`cfd_kernel`] — the parameterized multi-block flow-solver sweep
//!    that dominates the workload: metric-indexed loads (serializing
//!    addressing chains), a loop-carried recurrence, poor register reuse,
//!    mostly cache-resident with a streaming fraction.
//! 3. [`seqaccess_kernel`] — Table 4's "Sequential Access" column: a pure
//!    stride-8 pass over a large array (3 % cache misses, 0.2 % TLB).
//! 4. [`naive_matmul_kernel`] — the unblocked baseline for the blocking
//!    ablation (what the 240 Mflops kernel would do without tiling).

use sp2_isa::{Kernel, KernelBuilder};

/// Bytes of a `real*8`.
const R8: u64 = 8;

/// The tuned, cache-resident, unrolled matrix multiply (paper §5).
///
/// Per iteration: 8 independent fma accumulator chains fed by 4 quad
/// loads from cache-resident tiles, one quad store of results, and loop
/// overhead — 16 flops against 5 storage references (ratio 3.2; the paper
/// reports 3.0 for its tuned matmul).
pub fn blocked_matmul_kernel(iters: u64) -> Kernel {
    let mut b = KernelBuilder::new("blocked-matmul");
    // Three tiles, all resident: A (64 kB), B (64 kB), C (32 kB) —
    // 160 kB in a 256 kB 4-way cache, at most 3 ways deep in any set.
    let a = b.tile_array(16, 64 * 1024);
    let bb = b.tile_array(16, 64 * 1024);
    let c = b.tile_array(16, 32 * 1024);
    let accs: Vec<_> = (0..8).map(|_| b.fresh_fpr()).collect();
    let (a0, a1) = b.load_quad(a);
    let (b0, b1) = b.load_quad(bb);
    let (a2, a3) = b.load_quad(a);
    let (b2, b3) = b.load_quad(bb);
    b.fma_acc(accs[0], a0, b0);
    b.fma_acc(accs[1], a1, b1);
    b.fma_acc(accs[2], a2, b2);
    b.fma_acc(accs[3], a3, b3);
    b.fma_acc(accs[4], a0, b1);
    b.fma_acc(accs[5], a1, b0);
    b.fma_acc(accs[6], a2, b3);
    b.fma_acc(accs[7], a3, b2);
    b.store_quad(c, accs[0], accs[1]);
    b.int_alu();
    b.int_alu();
    b.cond_reg();
    b.loop_back();
    b.build(iters)
}

/// The naive (unblocked) matmul baseline: same arithmetic, but the B
/// operand streams with a large stride (column walk of a big matrix), so
/// every B access misses — the memory-bound regime blocking avoids.
pub fn naive_matmul_kernel(iters: u64) -> Kernel {
    let mut b = KernelBuilder::new("naive-matmul");
    let a = b.tile_array(16, 64 * 1024);
    // Column-major walk of a 1024x1024 real*8 matrix: 8 kB stride.
    let bb = b.strided_array(8192, 1024, 8, 8 << 20);
    let c = b.tile_array(16, 32 * 1024);
    let accs: Vec<_> = (0..4).map(|_| b.fresh_fpr()).collect();
    let (a0, a1) = b.load_quad(a);
    let x0 = b.load_double(bb);
    let x1 = b.load_double(bb);
    let (a2, a3) = b.load_quad(a);
    let x2 = b.load_double(bb);
    let x3 = b.load_double(bb);
    b.fma_acc(accs[0], a0, x0);
    b.fma_acc(accs[1], a1, x1);
    b.fma_acc(accs[2], a2, x2);
    b.fma_acc(accs[3], a3, x3);
    b.store_quad(c, accs[0], accs[1]);
    b.int_alu();
    b.int_alu();
    b.cond_reg();
    b.loop_back();
    b.build(iters)
}

/// Table 4's sequential-access reference: one streaming stride-8 load per
/// element with a trivial sum — a miss every 32 elements, a TLB miss
/// every 512.
pub fn seqaccess_kernel(iters: u64) -> Kernel {
    let mut b = KernelBuilder::new("seq-access");
    let arr = b.seq_array(R8, 32 << 20);
    let acc = b.fresh_fpr();
    let x = b.load_double(arr);
    b.fma_acc(acc, x, x);
    b.int_alu();
    b.loop_back();
    b.build(iters)
}

/// The BLAS3-heavy electromagnetic-scattering style kernel (§5 cites a
/// code that "relied heavily upon matrix (BLAS3) operations" [Farhat] as
/// the machine's fastest multinode application). Structured like the
/// blocked matmul but as a *ported* production code: register blocking is
/// partial (6 accumulators, some redundant loads), so it lands between
/// the tuned matmul and the CFD workload.
pub fn blas3_kernel(iters: u64) -> Kernel {
    let mut b = KernelBuilder::new("blas3-scatter");
    let a = b.tile_array(16, 64 * 1024);
    let bb = b.tile_array(16, 64 * 1024);
    let c = b.seq_array(16, 8 << 20);
    let idx = b.tile_array(4, 16 * 1024);
    let accs: Vec<_> = (0..3).map(|_| b.fresh_fpr()).collect();
    // Ported code: an index table drives the panel addressing (a real
    // out-of-core solver looks up block offsets), serializing the sweep.
    let m = b.load_word(idx);
    let mut g = b.int_alu_from(m);
    for _ in 0..4 {
        let m2 = b.load_word_at(idx, g);
        g = b.int_alu_from(m2);
    }
    let (a0, a1) = b.load_quad(a);
    let (b0, b1) = b.load_quad(bb);
    let x = b.load_double(a);
    let y = b.load_double(bb);
    // Three accumulators hit twice each: half the register blocking of
    // the tuned matmul.
    b.fma_acc(accs[0], a0, b0);
    b.fma_acc(accs[1], a1, b1);
    b.fma_acc(accs[2], x, y);
    b.fma_acc(accs[0], a0, b1);
    b.fma_acc(accs[1], a1, b0);
    b.fma_acc(accs[2], x, b0);
    b.store_quad(c, accs[0], accs[1]);
    b.int_alu();
    b.int_alu();
    b.cond_reg();
    b.cond_branch();
    b.loop_back();
    b.code_footprint(64, 0);
    b.build(iters)
}

/// A spectral (FFT-style) butterfly sweep: paired loads at a large
/// power-of-two stride, complex twiddle arithmetic, paired stores. The
/// page-crossing stride is the classic "large memory strides" TLB hazard
/// the paper warns about (§5).
pub fn spectral_kernel(name: &str, stride_bytes: u64, iters: u64) -> Kernel {
    let mut b = KernelBuilder::new(name);
    // Butterfly partners `stride_bytes` apart, sweeping a large array.
    let lo = b.strided_array(8, 32, stride_bytes, 16 << 20);
    let hi = b.strided_array(8, 32, stride_bytes, 16 << 20);
    let tw = b.tile_array(8, 32 * 1024);
    let out = b.seq_array(8, 16 << 20);
    // Complex butterfly: (re, im) each side, twiddle multiply, add/sub.
    let xr = b.load_double(lo);
    let xi = b.load_double(lo);
    let yr = b.load_double(hi);
    let yi = b.load_double(hi);
    let wr = b.load_double(tw);
    let wi = b.load_double(tw);
    let t1 = b.fmul(yr, wr);
    let t2 = b.fma(yi, wi, t1);
    let t3 = b.fmul(yi, wr);
    let t4 = b.fma(yr, wi, t3);
    let s1 = b.fadd(xr, t2);
    let s2 = b.fadd(xi, t4);
    b.store_double(out, s1);
    b.store_double(out, s2);
    b.int_alu();
    b.int_alu();
    b.cond_reg();
    b.loop_back();
    b.code_footprint(96, 0);
    b.build(iters)
}

/// Parameters of the CFD flow-solver kernel family.
///
/// The defaults are calibrated so the *workload average* matches Table 3;
/// variants jitter these counts to reproduce the spread of Figures 3/4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfdKernelParams {
    /// Metric-indexed load chains per cell update (word load → index
    /// arithmetic → dependent fp load → fma into the recurrence). The
    /// main serialization knob.
    pub links: u32,
    /// Of the `links`, how many end in a flux-limiter *compare* instead
    /// of an fma — an FPU instruction and a serialization point, but no
    /// flops (the paper's poor flops/instruction ratio).
    pub link_cmps: u32,
    /// Index-arithmetic ops per link (multi-term subscript computation).
    pub link_alus: u32,
    /// Pure addressing chains (word load → index op) that feed later
    /// iterations' bookkeeping but no arithmetic — block tables,
    /// boundary-condition lookups. Serialize without producing flops.
    pub dead_links: u32,
    /// Additional chained adds after the recurrence (residual smoothing).
    pub chained_adds: u32,
    /// Additional chained fmas after the adds (smoothing coefficients) —
    /// raises the fma share of flops without adding parallelism.
    pub chained_fmas: u32,
    /// Independent multiplies (flux factors — can fall over to FPU1).
    pub indep_muls: u32,
    /// Independent adds (can fall over to FPU1).
    pub indep_adds: u32,
    /// FPU register moves / format fiddling.
    pub moves: u32,
    /// Cache-resident doubleword loads (coefficients, local block data).
    pub resident_loads: u32,
    /// Streaming stride-8 loads (sweeping the solution array).
    pub streaming_loads: u32,
    /// Plane-strided loads (k-direction sweeps: page-sized jumps; the
    /// TLB-miss source the paper attributes to "large memory strides").
    pub plane_loads: u32,
    /// Streaming stores of updated cells.
    pub stores: u32,
    /// Loop/index integer ops.
    pub alus: u32,
    /// Divides per iteration (pressure/metric division; ~3 % of flops).
    pub divs: u32,
    /// Square roots per iteration (speed of sound etc.), usually 0.
    pub sqrts: u32,
    /// Conditional branches (limiter logic) per iteration.
    pub cond_branches: u32,
    /// I-cache footprint in lines the solver sweep stands for.
    pub code_lines: u32,
    /// Iterations between solver-stage switches (I-cache revisits).
    pub routine_period: u32,
}

impl Default for CfdKernelParams {
    fn default() -> Self {
        CfdKernelParams {
            links: 8,
            link_cmps: 3,
            link_alus: 2,
            dead_links: 8,
            chained_adds: 4,
            chained_fmas: 2,
            indep_muls: 3,
            indep_adds: 3,
            moves: 2,
            resident_loads: 12,
            streaming_loads: 6,
            plane_loads: 1,
            stores: 4,
            alus: 2,
            divs: 1,
            sqrts: 0,
            cond_branches: 2,
            code_lines: 320,
            // Solver stages switch once per grid sweep — tens of
            // thousands of cell updates, not every few iterations.
            routine_period: 20_000,
        }
    }
}

impl CfdKernelParams {
    /// The NPB-BT-like tuned variant for Table 4: loop nests rearranged
    /// for cache reuse (fewer streaming accesses, shallower addressing
    /// chains, wider independent fma parallelism → ≈ 2.5× the workload
    /// rate with *lower* miss ratios).
    pub fn npb_bt() -> Self {
        CfdKernelParams {
            links: 4,
            link_cmps: 0,
            link_alus: 1,
            dead_links: 4,
            chained_adds: 2,
            chained_fmas: 3,
            indep_muls: 6,
            indep_adds: 6,
            moves: 1,
            resident_loads: 14,
            streaming_loads: 4,
            plane_loads: 0,
            stores: 3,
            alus: 2,
            divs: 1,
            sqrts: 0,
            cond_branches: 1,
            code_lines: 200,
            routine_period: 40_000,
        }
    }

    /// Total storage references per iteration.
    pub fn memory_refs(&self) -> u32 {
        // Each link performs a word load and a dependent fp load; each
        // dead link performs a word load.
        2 * self.links
            + self.dead_links
            + self.resident_loads
            + self.streaming_loads
            + self.plane_loads
            + self.stores
    }
}

/// Builds a CFD flow-solver sweep kernel from its parameters.
pub fn cfd_kernel(name: &str, p: &CfdKernelParams, iters: u64) -> Kernel {
    let mut b = KernelBuilder::new(name);
    b.code_footprint(p.code_lines, p.routine_period);

    // Arrays: block-local data is cache-resident; the swept solution
    // streams; metrics live in a resident table; the k-sweep jumps pages.
    let metrics = b.tile_array(4, 48 * 1024);
    let coeffs = b.tile_array(R8, 64 * 1024);
    let sweep = b.seq_array(R8, 48 << 20);
    let plane = b.strided_array(R8, 32, 8192, 16 << 20);
    let out = b.seq_array(R8, 48 << 20);

    // Loop-carried recurrence accumulator (the implicit line solve).
    let acc = b.fresh_fpr();

    // Metric-indexed addressing chains feeding the recurrence; the last
    // `link_cmps` of them end in limiter compares rather than fmas.
    for i in 0..p.links {
        let m = b.load_word(metrics);
        let mut g = b.int_alu_from(m);
        for _ in 1..p.link_alus.max(1) {
            g = b.int_alu_from(g);
        }
        let v = b.load_double_at(sweep, g);
        if i + p.link_cmps < p.links {
            b.fma_acc(acc, v, v);
        } else {
            b.fcmp(v, acc);
        }
    }
    // Pure addressing chains: pointer-chased block-table bookkeeping —
    // each lookup's address depends on the previous result, and the tail
    // feeds the next iteration's head (loop-carried), serializing without
    // producing flops.
    if p.dead_links > 0 {
        let mut dead = b.int_alu();
        for _ in 0..p.dead_links {
            let m = b.load_word_at(metrics, dead);
            dead = b.int_alu_from(m);
        }
    }
    // Resident coefficient loads are rationed across the chained and
    // independent sections so the emitted count equals `resident_loads`.
    let mut resident_left = p.resident_loads;
    let mut next_resident = |b: &mut KernelBuilder, fallback: sp2_isa::RegId| {
        if resident_left > 0 {
            resident_left -= 1;
            b.load_double(coeffs)
        } else {
            fallback
        }
    };

    // Chained residual adds, then chained smoothing fmas.
    let mut t = acc;
    for _ in 0..p.chained_adds {
        let c = next_resident(&mut b, t);
        t = b.fadd(t, c);
    }
    for _ in 0..p.chained_fmas {
        let c = next_resident(&mut b, t);
        t = b.fma(t, c, t);
    }
    // Divide(s) in the chain (pressure / Jacobian).
    for _ in 0..p.divs {
        t = b.fdiv(t, acc);
    }
    for _ in 0..p.sqrts {
        t = b.fsqrt(t);
    }
    // Independent work that can use FPU1.
    let mut indep = Vec::new();
    for i in 0..p.indep_muls.max(p.indep_adds) {
        let r = next_resident(&mut b, t);
        if i < p.indep_muls {
            indep.push(b.fmul(r, r));
        }
        if i < p.indep_adds {
            indep.push(b.fadd(r, r));
        }
    }
    for _ in 0..p.moves {
        let _ = b.fmove(t);
    }
    // Any remaining resident traffic (coefficients read but reused late).
    while resident_left > 0 {
        resident_left -= 1;
        let _ = b.load_double(coeffs);
    }
    // Remaining streaming/plane traffic.
    for _ in 0..p.streaming_loads {
        let x = b.load_double(sweep);
        indep.push(x);
    }
    for _ in 0..p.plane_loads {
        let _ = b.load_double(plane);
    }
    // Stores of updated cells.
    for i in 0..p.stores {
        let v = *indep.get(i as usize % indep.len().max(1)).unwrap_or(&t);
        b.store_double(out, v);
    }
    // Loop overhead.
    for _ in 0..p.alus {
        b.int_alu();
    }
    b.cond_reg();
    for _ in 0..p.cond_branches {
        b.cond_branch();
    }
    b.loop_back();
    b.build(iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::Signal;
    use sp2_power2::{MachineConfig, Node};

    fn run(k: &Kernel) -> sp2_power2::RunStats {
        let mut n = Node::with_seed(MachineConfig::nas_sp2(), 42);
        n.run_kernel(k).stats
    }

    #[test]
    fn blocked_matmul_near_240_mflops() {
        let cfg = MachineConfig::nas_sp2();
        let stats = run(&blocked_matmul_kernel(30_000));
        let mflops = stats.mflops(&cfg);
        assert!(
            (210.0..268.0).contains(&mflops),
            "blocked matmul should run near the paper's 240 Mflops, got {mflops:.0}"
        );
    }

    #[test]
    fn blocked_matmul_flops_per_memref_near_3() {
        let k = blocked_matmul_kernel(1);
        let s = k.statics();
        let ratio = s.flops_per_memref();
        assert!(
            (2.5..3.5).contains(&ratio),
            "paper reports 3.0 for the tuned matmul, got {ratio:.2}"
        );
    }

    #[test]
    fn naive_matmul_much_slower_than_blocked() {
        let cfg = MachineConfig::nas_sp2();
        let blocked = run(&blocked_matmul_kernel(20_000)).mflops(&cfg);
        let naive = run(&naive_matmul_kernel(20_000)).mflops(&cfg);
        assert!(
            blocked > 3.0 * naive,
            "blocking must win big: {blocked:.0} vs {naive:.0} Mflops"
        );
    }

    #[test]
    fn seqaccess_matches_table4_ratios() {
        let stats = run(&seqaccess_kernel(100_000));
        let memrefs = stats.events.get(Signal::StorageRefs) as f64;
        let miss = stats.events.get(Signal::DcacheMiss) as f64 / memrefs;
        let tlb = stats.events.get(Signal::TlbMiss) as f64 / memrefs;
        assert!(
            (0.025..0.04).contains(&miss),
            "Table 4 sequential-access cache miss ratio ≈ 3 %, got {:.2} %",
            miss * 100.0
        );
        assert!(
            (0.0015..0.0025).contains(&tlb),
            "Table 4 sequential-access TLB miss ratio ≈ 0.2 %, got {:.3} %",
            tlb * 100.0
        );
    }

    #[test]
    fn cfd_default_lands_in_workload_band() {
        let cfg = MachineConfig::nas_sp2();
        let k = cfd_kernel("cfd-avg", &CfdKernelParams::default(), 20_000);
        let stats = run(&k);
        let mflops = stats.mflops(&cfg);
        assert!(
            (10.0..30.0).contains(&mflops),
            "workload kernel should land near the paper's ~17 Mflops, got {mflops:.1}"
        );
    }

    #[test]
    fn cfd_fma_flop_share_near_54_percent() {
        let k = cfd_kernel("cfd-share", &CfdKernelParams::default(), 5_000);
        let stats = run(&k);
        let fma = (stats.events.get(Signal::Fpu0Fma) + stats.events.get(Signal::Fpu1Fma)) as f64;
        let share = 2.0 * fma / stats.events.flops_total() as f64;
        assert!(
            (0.40..0.70).contains(&share),
            "paper: fma produces ≈54 % of workload flops, got {:.0} %",
            share * 100.0
        );
    }

    #[test]
    fn cfd_fpu_asymmetry_like_paper() {
        let k = cfd_kernel("cfd-asym", &CfdKernelParams::default(), 10_000);
        let stats = run(&k);
        let r = stats.events.get(Signal::Fpu0Exec) as f64
            / stats.events.get(Signal::Fpu1Exec).max(1) as f64;
        assert!(
            (1.2..3.0).contains(&r),
            "paper reports FPU0/FPU1 ≈ 1.7 for the workload, got {r:.2}"
        );
    }

    #[test]
    fn cfd_miss_ratios_near_table3() {
        let k = cfd_kernel("cfd-miss", &CfdKernelParams::default(), 50_000);
        let stats = run(&k);
        let fxu = stats.events.fxu_total() as f64;
        let miss = stats.events.get(Signal::DcacheMiss) as f64 / fxu;
        let tlb = stats.events.get(Signal::TlbMiss) as f64 / fxu;
        assert!(
            (0.004..0.02).contains(&miss),
            "workload cache-miss ratio ≈ 1 %, got {:.2} %",
            miss * 100.0
        );
        assert!(
            (0.0003..0.003).contains(&tlb),
            "workload TLB-miss ratio ≈ 0.1 %, got {:.3} %",
            tlb * 100.0
        );
    }

    #[test]
    fn bt_variant_faster_with_lower_tlb() {
        let cfg = MachineConfig::nas_sp2();
        let avg = run(&cfd_kernel("avg", &CfdKernelParams::default(), 20_000));
        let bt = run(&cfd_kernel("bt", &CfdKernelParams::npb_bt(), 20_000));
        let avg_mf = avg.mflops(&cfg);
        let bt_mf = bt.mflops(&cfg);
        assert!(
            bt_mf > 1.5 * avg_mf,
            "BT (44 Mflops) outruns the workload (17): got {bt_mf:.1} vs {avg_mf:.1}"
        );
        let tlb_avg = avg.events.get(Signal::TlbMiss) as f64 / avg.events.fxu_total() as f64;
        let tlb_bt = bt.events.get(Signal::TlbMiss) as f64 / bt.events.fxu_total() as f64;
        assert!(
            tlb_bt < tlb_avg,
            "BT's rearranged loops have the lower TLB ratio ({tlb_bt:.5} vs {tlb_avg:.5})"
        );
    }

    #[test]
    fn cfd_flops_per_memref_below_one() {
        let k = cfd_kernel("ratio", &CfdKernelParams::default(), 1);
        let s = k.statics();
        let r = s.flops_per_memref();
        assert!(
            (0.3..1.2).contains(&r),
            "untuned workload codes: flops/memref ≈ 0.5–1.0, got {r:.2}"
        );
    }

    #[test]
    fn blas3_sits_between_matmul_and_workload() {
        let cfg = MachineConfig::nas_sp2();
        let blas3 = run(&blas3_kernel(30_000)).mflops(&cfg);
        let matmul = run(&blocked_matmul_kernel(30_000)).mflops(&cfg);
        let cfd = run(&cfd_kernel("mid", &CfdKernelParams::default(), 20_000)).mflops(&cfg);
        assert!(
            blas3 > 2.0 * cfd && blas3 < matmul,
            "blas3 {blas3:.0} should sit between cfd {cfd:.0} and matmul {matmul:.0}"
        );
    }

    #[test]
    fn spectral_stride_drives_tlb_misses() {
        // A page-crossing butterfly stride that cycles more pages than
        // the 512-entry TLB holds incurs far more misses than a
        // contiguous stage — the paper's §5 warning about "programs
        // accessing data with large memory strides".
        let near = run(&spectral_kernel("spec-near", 256, 40_000));
        let far = run(&spectral_kernel("spec-far", 8_192, 40_000));
        let ratio = |s: &sp2_power2::RunStats| {
            s.events.get(Signal::TlbMiss) as f64 / s.events.fxu_total() as f64
        };
        assert!(
            ratio(&far) > 3.0 * ratio(&near),
            "large strides must hurt the TLB: {:.5} vs {:.5}",
            ratio(&far),
            ratio(&near)
        );
    }

    #[test]
    fn memory_refs_accounting_matches_statics() {
        let p = CfdKernelParams::default();
        let k = cfd_kernel("memrefs", &p, 1);
        let s = k.statics();
        assert_eq!(s.memory_instructions as u32, p.memory_refs());
    }
}
