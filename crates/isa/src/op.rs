//! Operation kinds and their unit affinities.

/// Fixed-point (FXU) operations.
///
/// On POWER2 the FXUs process *all storage references* plus integer
/// arithmetic; FXU1 alone owns the integer multiply/divide used for
/// addressing (White & Dhawan 1994, reproduced in the paper's §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FxOp {
    /// Load of a single word (4 bytes).
    LoadSingle,
    /// Load of a doubleword (8 bytes) — one `real*8` element.
    LoadDouble,
    /// Quad load (16 bytes): two doublewords in *one* instruction. The
    /// HPM counts it once, which is why FXU0+FXU1 only lower-bounds the
    /// memory reference count (paper §5).
    LoadQuad,
    /// Store of a single word.
    StoreSingle,
    /// Store of a doubleword.
    StoreDouble,
    /// Quad store (16 bytes, one instruction).
    StoreQuad,
    /// Integer ALU op (add/sub/logic/shift) — either FXU.
    IntAlu,
    /// Integer multiply (addressing arithmetic) — FXU1 only.
    IntMul,
    /// Integer divide (addressing arithmetic) — FXU1 only.
    IntDiv,
}

impl FxOp {
    /// Whether this op references storage.
    pub fn is_memory(self) -> bool {
        !matches!(self, FxOp::IntAlu | FxOp::IntMul | FxOp::IntDiv)
    }

    /// Whether this op writes to storage.
    pub fn is_store(self) -> bool {
        matches!(
            self,
            FxOp::StoreSingle | FxOp::StoreDouble | FxOp::StoreQuad
        )
    }

    /// Bytes moved by a storage reference; 0 for non-memory ops.
    pub fn access_bytes(self) -> u64 {
        match self {
            FxOp::LoadSingle | FxOp::StoreSingle => 4,
            FxOp::LoadDouble | FxOp::StoreDouble => 8,
            FxOp::LoadQuad | FxOp::StoreQuad => 16,
            _ => 0,
        }
    }

    /// Whether only FXU1 may execute this op.
    pub fn fxu1_only(self) -> bool {
        matches!(self, FxOp::IntMul | FxOp::IntDiv)
    }

    /// Doublewords moved (the "ops" a quad access performs beyond its
    /// single counted instruction): 2 for quad, 1 otherwise for memory.
    pub fn doublewords(self) -> u64 {
        match self {
            FxOp::LoadQuad | FxOp::StoreQuad => 2,
            op if op.is_memory() => 1,
            _ => 0,
        }
    }
}

/// Floating-point (FPU) operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Floating add/subtract: 1 flop.
    Add,
    /// Floating multiply: 1 flop.
    Mul,
    /// Floating divide: 1 flop, 10-cycle multicycle op (paper §5).
    Div,
    /// Square root: 1 flop, 15-cycle multicycle op (paper §5).
    Sqrt,
    /// Compound multiply-add: 2 flops per instruction. For HPM flop
    /// accounting the multiply lands in the fma count and the add lands
    /// in the add count (paper §5, Table 3 discussion).
    Fma,
    /// Register move / convert / negate: an FPU instruction, 0 flops.
    Move,
    /// Floating compare: an FPU instruction, 0 flops.
    Cmp,
}

impl FpOp {
    /// Floating point operations performed by one instruction.
    pub fn flops(self) -> u64 {
        match self {
            FpOp::Fma => 2,
            FpOp::Add | FpOp::Mul | FpOp::Div | FpOp::Sqrt => 1,
            FpOp::Move | FpOp::Cmp => 0,
        }
    }

    /// Whether this is one of the multicycle operations that block an FPU
    /// pipeline (divide, square root).
    pub fn is_multicycle(self) -> bool {
        matches!(self, FpOp::Div | FpOp::Sqrt)
    }
}

/// Branch kinds executed by the ICU ("type I" instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrKind {
    /// Backward loop-closing branch (the DO-loop branch the paper says
    /// dominates ICU counts); always taken until the trip count expires.
    LoopBack,
    /// Conditional branch within the body.
    Cond,
    /// Unconditional branch / call.
    Uncond,
}

/// An abstract POWER2 operation with its executing unit implied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Fixed-point / storage op (FXU0 or FXU1).
    Fx(FxOp),
    /// Floating-point op (FPU0 or FPU1).
    Fp(FpOp),
    /// Branch (ICU, type I).
    Br(BrKind),
    /// Condition-register op (ICU, type II).
    CondReg,
}

impl Op {
    /// Flops performed by this operation.
    pub fn flops(self) -> u64 {
        match self {
            Op::Fp(f) => f.flops(),
            _ => 0,
        }
    }

    /// Whether the op references storage.
    pub fn is_memory(self) -> bool {
        matches!(self, Op::Fx(f) if f.is_memory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_counts_one_instruction_two_doublewords() {
        assert_eq!(FxOp::LoadQuad.access_bytes(), 16);
        assert_eq!(FxOp::LoadQuad.doublewords(), 2);
        assert_eq!(FxOp::LoadDouble.doublewords(), 1);
        assert_eq!(FxOp::IntAlu.doublewords(), 0);
    }

    #[test]
    fn store_classification() {
        assert!(FxOp::StoreQuad.is_store());
        assert!(FxOp::StoreQuad.is_memory());
        assert!(!FxOp::LoadQuad.is_store());
        assert!(!FxOp::IntMul.is_memory());
    }

    #[test]
    fn fxu1_affinity() {
        assert!(FxOp::IntMul.fxu1_only());
        assert!(FxOp::IntDiv.fxu1_only());
        assert!(!FxOp::IntAlu.fxu1_only());
        assert!(!FxOp::LoadQuad.fxu1_only());
    }

    #[test]
    fn fma_is_two_flops() {
        assert_eq!(FpOp::Fma.flops(), 2);
        assert_eq!(FpOp::Add.flops(), 1);
        assert_eq!(FpOp::Move.flops(), 0);
        assert_eq!(Op::Fp(FpOp::Fma).flops(), 2);
        assert_eq!(Op::Br(BrKind::LoopBack).flops(), 0);
    }

    #[test]
    fn multicycle_ops() {
        assert!(FpOp::Div.is_multicycle());
        assert!(FpOp::Sqrt.is_multicycle());
        assert!(!FpOp::Fma.is_multicycle());
    }
}
