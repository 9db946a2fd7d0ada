//! Reportable monitor signals and their unit groups.

/// The unit group a signal (and a counter slot) belongs to.
///
/// The POWER2 monitor provides five counters each for the FXU, FPU0, FPU1,
/// and SCU and two for the ICU — 22 in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalGroup {
    /// Fixed point unit group (both FXUs plus storage-related FXU events).
    Fxu,
    /// Floating point unit 0 group.
    Fpu0,
    /// Floating point unit 1 group.
    Fpu1,
    /// Instruction cache / decode unit group.
    Icu,
    /// Storage control unit group (reloads, castouts, DMA).
    Scu,
}

impl SignalGroup {
    /// Counter slots the hardware provides for this group.
    pub fn slots(self) -> usize {
        match self {
            SignalGroup::Icu => 2,
            _ => 5,
        }
    }

    /// Position of this group in [`SignalGroup::ALL`] (canonical order).
    pub fn ordinal(self) -> usize {
        match self {
            SignalGroup::Fxu => 0,
            SignalGroup::Fpu0 => 1,
            SignalGroup::Fpu1 => 2,
            SignalGroup::Icu => 3,
            SignalGroup::Scu => 4,
        }
    }

    /// All groups in canonical (Table 1) order.
    pub const ALL: [SignalGroup; 5] = [
        SignalGroup::Fxu,
        SignalGroup::Fpu0,
        SignalGroup::Fpu1,
        SignalGroup::Icu,
        SignalGroup::Scu,
    ];

    /// Total counter slots across all groups (the famous 22).
    pub fn total_slots() -> usize {
        Self::ALL.iter().map(|g| g.slots()).sum()
    }
}

/// A reportable signal — the modeled subset of the POWER2's 320.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Signal {
    // --- FXU group ----------------------------------------------------
    /// Instructions executed by FXU0.
    Fxu0Exec,
    /// Instructions executed by FXU1.
    Fxu1Exec,
    /// FPU and FXU requests for data not in the D-cache.
    DcacheMiss,
    /// FPU and FXU requests for data not covered by the TLB.
    TlbMiss,
    /// Processor cycles.
    Cycles,
    /// Storage-reference instructions executed (extra signal; not in the
    /// NAS selection — motivates multipass sampling).
    StorageRefs,
    /// Cycles the FXUs were stalled on storage (extra signal).
    FxuStallCycles,

    // --- FPU0 group -----------------------------------------------------
    /// Arithmetic instructions executed by FPU0.
    Fpu0Exec,
    /// Floating point adds executed by FPU0 (includes fma adds).
    Fpu0Add,
    /// Floating point multiplies executed by FPU0.
    Fpu0Mul,
    /// Floating point divides executed by FPU0.
    Fpu0Div,
    /// Floating point multiply-adds executed by FPU0.
    Fpu0Fma,
    /// Square roots executed by FPU0 (extra signal).
    Fpu0Sqrt,

    // --- FPU1 group -----------------------------------------------------
    /// Arithmetic instructions executed by FPU1.
    Fpu1Exec,
    /// Floating point adds executed by FPU1 (includes fma adds).
    Fpu1Add,
    /// Floating point multiplies executed by FPU1.
    Fpu1Mul,
    /// Floating point divides executed by FPU1.
    Fpu1Div,
    /// Floating point multiply-adds executed by FPU1.
    Fpu1Fma,
    /// Square roots executed by FPU1 (extra signal).
    Fpu1Sqrt,

    // --- ICU group ------------------------------------------------------
    /// Type I instructions executed (branches).
    IcuType1,
    /// Type II instructions executed (condition-register ops).
    IcuType2,
    /// Instruction fetches issued (extra signal).
    InstFetches,

    // --- SCU group ------------------------------------------------------
    /// Data transfers from memory to the I-cache.
    IcacheReload,
    /// Data transfers from memory to the D-cache.
    DcacheReload,
    /// Castouts: modified D-cache lines written back to memory.
    DcacheStore,
    /// DMA transfers from memory to an I/O device.
    DmaRead,
    /// DMA transfers from an I/O device to memory.
    DmaWrite,
    /// Cycles the processor idled waiting on I/O (paging disk, NFS).
    /// Not in the NAS selection — the paper's §7 recommendation that
    /// "other sites … consider selecting counter options which could
    /// also report I/O wait time" is exactly choosing to watch this.
    IoWaitCycles,
}

impl Signal {
    /// The unit group whose counter slots can watch this signal.
    pub fn group(self) -> SignalGroup {
        use Signal::*;
        match self {
            Fxu0Exec | Fxu1Exec | DcacheMiss | TlbMiss | Cycles | StorageRefs | FxuStallCycles => {
                SignalGroup::Fxu
            }
            Fpu0Exec | Fpu0Add | Fpu0Mul | Fpu0Div | Fpu0Fma | Fpu0Sqrt => SignalGroup::Fpu0,
            Fpu1Exec | Fpu1Add | Fpu1Mul | Fpu1Div | Fpu1Fma | Fpu1Sqrt => SignalGroup::Fpu1,
            IcuType1 | IcuType2 | InstFetches => SignalGroup::Icu,
            IcacheReload | DcacheReload | DcacheStore | DmaRead | DmaWrite | IoWaitCycles => {
                SignalGroup::Scu
            }
        }
    }

    /// Every modeled signal, in declaration order.
    pub const ALL: [Signal; 28] = [
        Signal::Fxu0Exec,
        Signal::Fxu1Exec,
        Signal::DcacheMiss,
        Signal::TlbMiss,
        Signal::Cycles,
        Signal::StorageRefs,
        Signal::FxuStallCycles,
        Signal::Fpu0Exec,
        Signal::Fpu0Add,
        Signal::Fpu0Mul,
        Signal::Fpu0Div,
        Signal::Fpu0Fma,
        Signal::Fpu0Sqrt,
        Signal::Fpu1Exec,
        Signal::Fpu1Add,
        Signal::Fpu1Mul,
        Signal::Fpu1Div,
        Signal::Fpu1Fma,
        Signal::Fpu1Sqrt,
        Signal::IcuType1,
        Signal::IcuType2,
        Signal::InstFetches,
        Signal::IcacheReload,
        Signal::DcacheReload,
        Signal::DcacheStore,
        Signal::DmaRead,
        Signal::DmaWrite,
        Signal::IoWaitCycles,
    ];

    /// Whether this signal is affected by the divide-count erratum the
    /// paper reports ("an implementation error in the hardware monitor
    /// prevented the proper reporting of the division operations").
    pub fn has_div_erratum(self) -> bool {
        matches!(self, Signal::Fpu0Div | Signal::Fpu1Div)
    }

    /// The `user.<name>` / `fpop.<name>` label RS2HPM uses for this signal
    /// (Table 1's "Counter" column), where one exists.
    pub fn rs2hpm_label(self) -> &'static str {
        use Signal::*;
        match self {
            Fxu0Exec => "user.fxu0",
            Fxu1Exec => "user.fxu1",
            DcacheMiss => "user.dcache_mis",
            TlbMiss => "user.tlb_mis",
            Cycles => "user.cycles",
            StorageRefs => "user.storage_refs",
            FxuStallCycles => "user.fxu_stall",
            Fpu0Exec => "user.fpu0",
            Fpu0Add | Fpu1Add => "fpop.fp_add",
            Fpu0Mul | Fpu1Mul => "fpop.fp_mul",
            Fpu0Div | Fpu1Div => "fpop.fp_div",
            Fpu0Fma | Fpu1Fma => "fpop.fp_muladd",
            Fpu0Sqrt | Fpu1Sqrt => "fpop.fp_sqrt",
            Fpu1Exec => "user.fpu1",
            IcuType1 => "user.icu0",
            IcuType2 => "user.icu1",
            InstFetches => "user.inst_fetch",
            IcacheReload => "user.icache_reload",
            DcacheReload => "user.dcache_reload",
            DcacheStore => "user.dcache_store",
            DmaRead => "user.dma_read",
            DmaWrite => "user.dma_write",
            IoWaitCycles => "user.io_wait",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_slots_is_twenty_two() {
        assert_eq!(SignalGroup::total_slots(), 22);
    }

    #[test]
    fn every_group_has_enough_signals_to_fill_its_slots() {
        for g in SignalGroup::ALL {
            let n = Signal::ALL.iter().filter(|s| s.group() == g).count();
            assert!(
                n >= g.slots(),
                "{g:?} has {n} signals but {} slots",
                g.slots()
            );
        }
    }

    #[test]
    fn all_list_is_exhaustive_and_unique() {
        let set: std::collections::HashSet<_> = Signal::ALL.iter().collect();
        assert_eq!(set.len(), Signal::ALL.len());
    }

    #[test]
    fn div_erratum_signals() {
        assert!(Signal::Fpu0Div.has_div_erratum());
        assert!(Signal::Fpu1Div.has_div_erratum());
        assert!(!Signal::Fpu0Fma.has_div_erratum());
    }

    #[test]
    fn labels_match_table_1() {
        assert_eq!(Signal::Fxu0Exec.rs2hpm_label(), "user.fxu0");
        assert_eq!(Signal::Fpu0Fma.rs2hpm_label(), "fpop.fp_muladd");
        assert_eq!(Signal::DmaWrite.rs2hpm_label(), "user.dma_write");
        assert_eq!(Signal::DcacheStore.rs2hpm_label(), "user.dcache_store");
    }
}
