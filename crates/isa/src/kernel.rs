//! Kernels: a loop body, an iteration count, and its address generators.

use crate::inst::Inst;
use crate::mem::AddrGen;
use crate::op::{FpOp, FxOp, Op};

/// A compute kernel: one loop body replayed `iters` times.
///
/// This mirrors how the paper reasons about its workload — "branches at
/// the end of DO-loops seem to dominate the number of instructions executed
/// by the ICU" — i.e. the unit of modeling is an inner loop nest with a
/// characteristic instruction mix and address pattern.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Kernel {
    /// Human-readable kernel name (appears in reports and signatures).
    pub name: String,
    /// Instructions of one loop iteration, in program order.
    pub body: Vec<Inst>,
    /// Number of iterations to replay.
    pub iters: u64,
    /// Address generators referenced by the body's `mem_slot`s.
    pub addr_gens: Vec<AddrGen>,
    /// I-cache footprint of the code this body stands for, in I-cache
    /// lines. A body often abstracts a much larger routine (a full solver
    /// sweep), so the footprint is declared, not derived.
    pub code_lines: u32,
    /// Iterations between switches to a different routine of the same
    /// code (another solver stage, another grid block). Each switch
    /// refetches `code_lines` when the total footprint exceeds the
    /// I-cache. `0` means a single tight loop that never switches.
    pub routine_period: u32,
}

/// Static (pre-simulation) per-iteration instruction mix of a kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStatics {
    /// Total instructions per iteration.
    pub instructions: u64,
    /// Floating point *operations* (fma = 2) per iteration.
    pub flops: u64,
    /// FPU instructions per iteration.
    pub fp_instructions: u64,
    /// fma instructions per iteration.
    pub fma_instructions: u64,
    /// FXU instructions per iteration.
    pub fx_instructions: u64,
    /// Storage-reference instructions per iteration.
    pub memory_instructions: u64,
    /// Doublewords moved per iteration (quad = 2).
    pub doublewords: u64,
    /// ICU instructions (branches + condition-register ops) per iteration.
    pub icu_instructions: u64,
    /// Branch instructions per iteration.
    pub branches: u64,
}

impl KernelStatics {
    /// Fraction of flops produced by fma instructions (the paper's
    /// "the fma instruction produces about 54 % of the floating-point
    /// operations" statistic). 0 when the kernel has no flops.
    pub fn fma_flop_fraction(&self) -> f64 {
        if self.flops == 0 {
            0.0
        } else {
            (2 * self.fma_instructions) as f64 / self.flops as f64
        }
    }

    /// Flops per memory instruction (the paper's register-reuse measure:
    /// 3.0 for the tuned matmul, ~0.5 for the workload). `f64::INFINITY`
    /// when there are flops but no memory references.
    pub fn flops_per_memref(&self) -> f64 {
        if self.memory_instructions == 0 {
            if self.flops == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.flops as f64 / self.memory_instructions as f64
        }
    }

    /// Branch fraction of all instructions (paper: ≈ 11 % for the
    /// workload). 0 for an empty kernel.
    pub fn branch_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branches as f64 / self.instructions as f64
        }
    }
}

impl Kernel {
    /// Validates internal consistency: every `mem_slot` names an existing
    /// address generator, every register is architecturally valid, and
    /// every storage op carries a slot.
    pub fn validate(&self) -> Result<(), String> {
        for (i, inst) in self.body.iter().enumerate() {
            if !inst.registers_valid() {
                return Err(format!(
                    "{}: instruction {i} names an invalid register",
                    self.name
                ));
            }
            match (inst.op.is_memory(), inst.mem_slot) {
                (true, None) => {
                    return Err(format!(
                        "{}: instruction {i} is a storage op without a slot",
                        self.name
                    ))
                }
                (false, Some(_)) => {
                    return Err(format!(
                        "{}: instruction {i} carries a slot but is not a storage op",
                        self.name
                    ))
                }
                (true, Some(s)) if s as usize >= self.addr_gens.len() => {
                    return Err(format!(
                        "{}: instruction {i} names slot {s} but only {} generators exist",
                        self.name,
                        self.addr_gens.len()
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Computes the static per-iteration instruction mix.
    pub fn statics(&self) -> KernelStatics {
        let mut s = KernelStatics::default();
        for inst in &self.body {
            s.instructions += 1;
            match inst.op {
                Op::Fp(f) => {
                    s.fp_instructions += 1;
                    s.flops += f.flops();
                    if f == FpOp::Fma {
                        s.fma_instructions += 1;
                    }
                }
                Op::Fx(f) => {
                    s.fx_instructions += 1;
                    if f.is_memory() {
                        s.memory_instructions += 1;
                        s.doublewords += f.doublewords();
                    }
                }
                Op::Br(_) => {
                    s.icu_instructions += 1;
                    s.branches += 1;
                }
                Op::CondReg => {
                    s.icu_instructions += 1;
                }
            }
        }
        s
    }

    /// Total dynamic instruction count of the whole kernel.
    pub fn dynamic_instructions(&self) -> u64 {
        self.statics().instructions * self.iters
    }

    /// Total dynamic flops of the whole kernel.
    pub fn dynamic_flops(&self) -> u64 {
        self.statics().flops * self.iters
    }

    /// Returns a copy with a different iteration count (same body/gens).
    pub fn with_iters(&self, iters: u64) -> Kernel {
        let mut k = self.clone();
        k.iters = iters;
        k
    }

    /// Convenience check used by tests: does the body end with a loop-back
    /// branch, as every DO-loop body should?
    pub fn ends_with_loop_branch(&self) -> bool {
        matches!(
            self.body.last().map(|i| i.op),
            Some(Op::Br(crate::op::BrKind::LoopBack))
        )
    }
}

/// Helper: per-iteration count of a specific fixed-point op.
pub fn count_fx(kernel: &Kernel, op: FxOp) -> u64 {
    kernel.body.iter().filter(|i| i.op == Op::Fx(op)).count() as u64
}

/// Helper: per-iteration count of a specific floating-point op.
pub fn count_fp(kernel: &Kernel, op: FpOp) -> u64 {
    kernel.body.iter().filter(|i| i.op == Op::Fp(op)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::mem::AddrPattern;

    fn small_kernel() -> Kernel {
        let mut b = KernelBuilder::new("test");
        let a = b.seq_array(8, 1 << 20);
        let x = b.load_double(a);
        let y = b.fma(x, x, x);
        b.store_double(a, y);
        b.int_alu();
        b.loop_back();
        b.build(100)
    }

    #[test]
    fn statics_counts() {
        let k = small_kernel();
        let s = k.statics();
        assert_eq!(s.instructions, 5);
        assert_eq!(s.fp_instructions, 1);
        assert_eq!(s.fma_instructions, 1);
        assert_eq!(s.flops, 2);
        assert_eq!(s.fx_instructions, 3); // load, store, int alu
        assert_eq!(s.memory_instructions, 2);
        assert_eq!(s.branches, 1);
        assert_eq!(s.icu_instructions, 1);
    }

    #[test]
    fn derived_ratios() {
        let k = small_kernel();
        let s = k.statics();
        assert!((s.fma_flop_fraction() - 1.0).abs() < 1e-12);
        assert!((s.flops_per_memref() - 1.0).abs() < 1e-12);
        assert!((s.branch_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_statics_are_zero() {
        let s = KernelStatics::default();
        assert_eq!(s.fma_flop_fraction(), 0.0);
        assert_eq!(s.flops_per_memref(), 0.0);
        assert_eq!(s.branch_fraction(), 0.0);
    }

    #[test]
    fn flops_no_memrefs_is_infinite() {
        let s = KernelStatics {
            flops: 4,
            ..Default::default()
        };
        assert!(s.flops_per_memref().is_infinite());
    }

    #[test]
    fn dynamic_totals_scale_with_iters() {
        let k = small_kernel();
        assert_eq!(k.dynamic_instructions(), 500);
        assert_eq!(k.dynamic_flops(), 200);
        assert_eq!(k.with_iters(7).dynamic_flops(), 14);
    }

    #[test]
    fn validate_catches_bad_slot() {
        let mut k = small_kernel();
        k.addr_gens.clear();
        assert!(k.validate().is_err());
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(small_kernel().validate().is_ok());
        assert!(small_kernel().ends_with_loop_branch());
    }

    #[test]
    fn op_counters() {
        let k = small_kernel();
        assert_eq!(count_fp(&k, FpOp::Fma), 1);
        assert_eq!(count_fp(&k, FpOp::Add), 0);
        assert_eq!(count_fx(&k, FxOp::LoadDouble), 1);
        assert_eq!(count_fx(&k, FxOp::StoreDouble), 1);
        assert_eq!(count_fx(&k, FxOp::IntAlu), 1);
    }

    #[test]
    fn addr_gen_patterns_preserved() {
        let k = small_kernel();
        assert_eq!(k.addr_gens.len(), 1);
        assert!(matches!(
            k.addr_gens[0].pattern(),
            AddrPattern::Seq { stride: 8, .. }
        ));
    }
}
