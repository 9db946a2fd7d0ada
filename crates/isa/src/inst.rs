//! Instruction encoding.

use crate::op::{FxOp, Op};
use crate::reg::RegId;

/// Maximum source operands an instruction can name (fma has three).
pub const MAX_SRCS: usize = 3;

/// One abstract POWER2 instruction.
///
/// Storage references additionally name an address-generator slot
/// (`mem_slot`) in the enclosing kernel; the simulator resolves the slot to
/// a virtual address at replay time, so the same body can walk arbitrarily
/// large arrays without materializing a trace.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Destination register, if any.
    pub dst: Option<RegId>,
    /// Second destination register — only quad loads, which fill two FPRs
    /// with one instruction, use this.
    pub dst2: Option<RegId>,
    /// Source registers (`None`-padded).
    pub srcs: [Option<RegId>; MAX_SRCS],
    /// Address-generator slot for storage references.
    pub mem_slot: Option<u16>,
}

impl Inst {
    /// Creates a non-memory instruction.
    pub fn new(op: Op, dst: Option<RegId>, srcs: &[RegId]) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "too many source operands");
        assert!(
            !op.is_memory(),
            "storage references must use Inst::memory so they carry a slot"
        );
        let mut s = [None; MAX_SRCS];
        for (i, &r) in srcs.iter().enumerate() {
            s[i] = Some(r);
        }
        Inst {
            op,
            dst,
            dst2: None,
            srcs: s,
            mem_slot: None,
        }
    }

    /// Creates a storage-reference instruction bound to `slot`.
    pub fn memory(op: FxOp, slot: u16, dst: Option<RegId>, srcs: &[RegId]) -> Self {
        assert!(op.is_memory(), "Inst::memory requires a storage op");
        assert!(srcs.len() <= MAX_SRCS, "too many source operands");
        let mut s = [None; MAX_SRCS];
        for (i, &r) in srcs.iter().enumerate() {
            s[i] = Some(r);
        }
        Inst {
            op: Op::Fx(op),
            dst,
            dst2: None,
            srcs: s,
            mem_slot: Some(slot),
        }
    }

    /// Iterates the present source operands.
    pub fn sources(&self) -> impl Iterator<Item = RegId> + '_ {
        self.srcs.iter().filter_map(|s| *s)
    }

    /// Whether every named register is architecturally valid.
    pub fn registers_valid(&self) -> bool {
        self.dst.is_none_or(RegId::is_valid)
            && self.dst2.is_none_or(RegId::is_valid)
            && self.sources().all(RegId::is_valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BrKind, FpOp};

    #[test]
    fn build_fma() {
        let i = Inst::new(
            Op::Fp(FpOp::Fma),
            Some(RegId::Fpr(0)),
            &[RegId::Fpr(1), RegId::Fpr(2), RegId::Fpr(0)],
        );
        assert_eq!(i.sources().count(), 3);
        assert!(i.registers_valid());
        assert_eq!(i.mem_slot, None);
    }

    #[test]
    fn build_memory_op() {
        let i = Inst::memory(FxOp::LoadQuad, 3, Some(RegId::Fpr(4)), &[]);
        assert_eq!(i.mem_slot, Some(3));
        assert!(i.op.is_memory());
    }

    #[test]
    #[should_panic(expected = "storage references must use Inst::memory")]
    fn plain_new_rejects_memory_ops() {
        Inst::new(Op::Fx(FxOp::LoadDouble), None, &[]);
    }

    #[test]
    #[should_panic(expected = "Inst::memory requires a storage op")]
    fn memory_rejects_alu_ops() {
        Inst::memory(FxOp::IntAlu, 0, None, &[]);
    }

    #[test]
    fn invalid_register_detected() {
        let i = Inst::new(Op::Fp(FpOp::Add), Some(RegId::Fpr(40)), &[RegId::Fpr(1)]);
        assert!(!i.registers_valid());
    }

    #[test]
    fn branch_has_no_operands() {
        let i = Inst::new(Op::Br(BrKind::LoopBack), None, &[]);
        assert_eq!(i.sources().count(), 0);
        assert!(i.registers_valid());
    }
}
