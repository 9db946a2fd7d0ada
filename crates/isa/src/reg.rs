//! Architectural registers.
//!
//! POWER2 has 32 general purpose registers (GPRs, held in the FXU) and 32
//! floating point registers (FPRs, held in the FPU). The simulator's
//! scoreboard tracks readiness per register, so instruction operands name
//! registers through [`RegId`].

/// Number of general purpose registers.
pub const NUM_GPRS: u8 = 32;
/// Number of floating point registers.
pub const NUM_FPRS: u8 = 32;

/// A register identifier in one of the two architectural files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegId {
    /// General purpose register `0..32` (fixed-point / addressing).
    Gpr(u8),
    /// Floating point register `0..32`.
    Fpr(u8),
}

impl RegId {
    /// Validates the register index against the file size.
    pub fn is_valid(self) -> bool {
        match self {
            RegId::Gpr(i) => i < NUM_GPRS,
            RegId::Fpr(i) => i < NUM_FPRS,
        }
    }

    /// Flat index into a combined scoreboard array of size
    /// `NUM_GPRS + NUM_FPRS`: GPRs first, then FPRs.
    pub fn flat_index(self) -> usize {
        match self {
            RegId::Gpr(i) => i as usize,
            RegId::Fpr(i) => NUM_GPRS as usize + i as usize,
        }
    }
}

/// Total scoreboard slots needed for all registers.
pub const SCOREBOARD_SLOTS: usize = (NUM_GPRS + NUM_FPRS) as usize;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_bounds() {
        assert!(RegId::Gpr(0).is_valid());
        assert!(RegId::Gpr(31).is_valid());
        assert!(!RegId::Gpr(32).is_valid());
        assert!(RegId::Fpr(31).is_valid());
        assert!(!RegId::Fpr(32).is_valid());
    }

    #[test]
    fn flat_indices_disjoint() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..NUM_GPRS {
            assert!(seen.insert(RegId::Gpr(i).flat_index()));
        }
        for i in 0..NUM_FPRS {
            assert!(seen.insert(RegId::Fpr(i).flat_index()));
        }
        assert_eq!(seen.len(), SCOREBOARD_SLOTS);
        assert!(seen.iter().all(|&x| x < SCOREBOARD_SLOTS));
    }
}
