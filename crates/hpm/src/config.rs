//! Counter selections — which signal each of the 22 slots watches.
//!
//! "The hardware monitor allows many possible combinations of events, but
//! each combination must be implemented and verified in the monitoring
//! software" (paper §3). A [`CounterSelection`] is one such combination;
//! [`nas_selection`] is the Table-1 combination NAS ran for nine months.

use crate::signal::{Signal, SignalGroup};

/// One counter slot: the unit group's slot index and the signal it watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSpec {
    /// Unit group of the slot.
    pub group: SignalGroup,
    /// Slot index within the group (0-based, `< group.slots()`).
    pub index: usize,
    /// The watched signal.
    pub signal: Signal,
}

impl SlotSpec {
    /// Table-1 style label, e.g. `FXU[2]` or `FPU0[4]`.
    pub fn label(&self) -> String {
        let g = match self.group {
            SignalGroup::Fxu => "FXU",
            SignalGroup::Fpu0 => "FPU0",
            SignalGroup::Fpu1 => "FPU1",
            SignalGroup::Icu => "ICU",
            SignalGroup::Scu => "SCU",
        };
        format!("{g}[{}]", self.index)
    }
}

/// A full counter configuration: up to 22 slots, each in its group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSelection {
    slots: Vec<SlotSpec>,
}

impl CounterSelection {
    /// Builds a selection from `(group, signal)` assignments, allocating
    /// slot indices in order within each group.
    ///
    /// Returns an error when a signal is assigned outside its group or a
    /// group is over-subscribed.
    pub fn new(assignments: &[Signal]) -> Result<Self, String> {
        let mut used = [0usize; 5];
        let mut slots = Vec::with_capacity(assignments.len());
        for &signal in assignments {
            let group = signal.group();
            let gi = group.ordinal();
            if used[gi] >= group.slots() {
                return Err(format!(
                    "group {group:?} over-subscribed: only {} slots",
                    group.slots()
                ));
            }
            slots.push(SlotSpec {
                group,
                index: used[gi],
                signal,
            });
            used[gi] += 1;
        }
        Ok(CounterSelection { slots })
    }

    /// The configured slots, in assignment order.
    pub fn slots(&self) -> &[SlotSpec] {
        &self.slots
    }

    /// Number of configured slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slots are configured.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot index (into the flat 0..len space) watching `signal`, if any.
    pub fn slot_of(&self, signal: Signal) -> Option<usize> {
        self.slots.iter().position(|s| s.signal == signal)
    }

    /// Signals watched by this selection.
    pub fn signals(&self) -> impl Iterator<Item = Signal> + '_ {
        self.slots.iter().map(|s| s.signal)
    }

    /// Whether `signal` is watched.
    pub fn watches(&self, signal: Signal) -> bool {
        self.slot_of(signal).is_some()
    }
}

/// The NAS counter selection of Table 1: 22 slots giving "a broad overview
/// of workload CPU performance".
pub fn nas_selection() -> CounterSelection {
    use Signal::*;
    CounterSelection::new(&[
        // FXU[0..5]
        Fxu0Exec,
        Fxu1Exec,
        DcacheMiss,
        TlbMiss,
        Cycles,
        // FPU0[0..5]
        Fpu0Exec,
        Fpu0Add,
        Fpu0Mul,
        Fpu0Div,
        Fpu0Fma,
        // FPU1[0..5]
        Fpu1Exec,
        Fpu1Add,
        Fpu1Mul,
        Fpu1Div,
        Fpu1Fma,
        // ICU[0..2]
        IcuType1,
        IcuType2,
        // SCU[0..5]
        IcacheReload,
        DcacheReload,
        DcacheStore,
        DmaRead,
        DmaWrite,
    ])
    .unwrap_or_else(|_| {
        // Unreachable: the assignment list above respects every group's
        // slot budget. Returning an empty selection keeps the library
        // panic-free even if the table is ever edited badly.
        debug_assert!(false, "NAS selection is well-formed by construction");
        CounterSelection { slots: Vec::new() }
    })
}

/// The §7 "future work" selection: trades the castout counter for an
/// I/O-wait counter so poor-performance days can be attributed to I/O
/// delay without logging onto nodes. The SCU group has only five slots,
/// so watching I/O wait *costs* the `dcache_store` visibility — the kind
/// of trade the paper says "must be implemented and verified in the
/// monitoring software".
pub fn io_aware_selection() -> CounterSelection {
    use Signal::*;
    CounterSelection::new(&[
        // FXU[0..5]
        Fxu0Exec,
        Fxu1Exec,
        DcacheMiss,
        TlbMiss,
        Cycles,
        // FPU0[0..5]
        Fpu0Exec,
        Fpu0Add,
        Fpu0Mul,
        Fpu0Div,
        Fpu0Fma,
        // FPU1[0..5]
        Fpu1Exec,
        Fpu1Add,
        Fpu1Mul,
        Fpu1Div,
        Fpu1Fma,
        // ICU[0..2]
        IcuType1,
        IcuType2,
        // SCU[0..5] — IoWaitCycles replaces DcacheStore.
        IcacheReload,
        DcacheReload,
        IoWaitCycles,
        DmaRead,
        DmaWrite,
    ])
    .unwrap_or_else(|_| {
        debug_assert!(false, "io-aware selection is well-formed by construction");
        CounterSelection { slots: Vec::new() }
    })
}

/// One row of the rendered Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// RS2HPM counter name, e.g. `user.fxu0`.
    pub counter: String,
    /// Hardware slot label, e.g. `FXU[0]`.
    pub label: String,
    /// Event description.
    pub description: String,
}

/// Renders the NAS selection as the paper's Table 1.
///
/// Note: the paper's own Table 1 carries a copy-paste erratum — `tlb_mis`
/// is described with the D-cache text. We render the corrected TLB
/// description (see DESIGN.md §6).
pub fn table1_rows() -> Vec<Table1Row> {
    use Signal::*;
    let describe = |s: Signal| -> &'static str {
        match s {
            Fxu0Exec => "number of instructions executed by Execution unit 0",
            Fxu1Exec => "number of instructions executed by Execution unit 1",
            DcacheMiss => "FPU and FXU requests for data not in the D-cache",
            TlbMiss => "FPU and FXU requests for data not covered by the TLB",
            Cycles => "user cycles",
            Fpu0Exec => "arithmetic instructions executed by Math 0",
            Fpu0Add => "floating point adds executed by Math 0",
            Fpu0Mul => "floating point multiplies executed by Math 0",
            Fpu0Div => "floating point divides executed by Math 0",
            Fpu0Fma => "floating point multiply-adds executed by Math 0",
            Fpu1Exec => "arithmetic instructions executed by Math 1",
            Fpu1Add => "floating point adds executed by Math 1",
            Fpu1Mul => "floating point multiplies executed by Math 1",
            Fpu1Div => "floating point divides executed by Math 1",
            Fpu1Fma => "floating point multiply-adds executed by Math 1",
            IcuType1 => "number of type I instructions executed",
            IcuType2 => "number of type II instructions executed",
            IcacheReload => "data transfers from memory to the I-cache",
            DcacheReload => "data transfers from memory to the D-cache",
            DcacheStore => "number of transfers of D-cache data to memory (castouts)",
            DmaRead => "data transfers from memory to an I/O device",
            DmaWrite => "data transfers to memory from an I/O device",
            _ => "extra modeled signal (not in the NAS selection)",
        }
    };
    nas_selection()
        .slots()
        .iter()
        .map(|slot| Table1Row {
            counter: slot.signal.rs2hpm_label().to_string(),
            label: slot.label(),
            description: describe(slot.signal).to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nas_selection_fills_all_22_slots() {
        let sel = nas_selection();
        assert_eq!(sel.len(), 22);
        assert_eq!(sel.len(), SignalGroup::total_slots());
    }

    #[test]
    fn nas_selection_group_budgets_respected() {
        let sel = nas_selection();
        for g in SignalGroup::ALL {
            let n = sel.slots().iter().filter(|s| s.group == g).count();
            assert!(n <= g.slots(), "{g:?} uses {n} of {} slots", g.slots());
        }
    }

    #[test]
    fn over_subscription_rejected() {
        use Signal::*;
        // ICU has 2 slots; asking for 3 ICU signals must fail.
        let r = CounterSelection::new(&[IcuType1, IcuType2, InstFetches]);
        assert!(r.is_err());
        assert!(r.unwrap_err().contains("Icu"));
    }

    #[test]
    fn slot_lookup() {
        let sel = nas_selection();
        assert_eq!(sel.slot_of(Signal::Fxu0Exec), Some(0));
        assert!(sel.watches(Signal::DmaWrite));
        assert!(!sel.watches(Signal::StorageRefs));
        assert_eq!(sel.slot_of(Signal::Fpu0Sqrt), None);
    }

    #[test]
    fn slot_labels_match_table_1() {
        let sel = nas_selection();
        assert_eq!(sel.slots()[0].label(), "FXU[0]");
        assert_eq!(sel.slots()[4].label(), "FXU[4]");
        assert_eq!(sel.slots()[5].label(), "FPU0[0]");
        assert_eq!(sel.slots()[15].label(), "ICU[0]");
        assert_eq!(sel.slots()[21].label(), "SCU[4]");
    }

    #[test]
    fn table1_rendering_corrects_tlb_erratum() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 22);
        let tlb = rows.iter().find(|r| r.counter == "user.tlb_mis").unwrap();
        assert!(tlb.description.contains("TLB"));
        let dc = rows
            .iter()
            .find(|r| r.counter == "user.dcache_mis")
            .unwrap();
        assert!(dc.description.contains("D-cache"));
        assert_ne!(tlb.description, dc.description);
    }

    #[test]
    fn io_aware_selection_trades_castouts_for_io_wait() {
        let sel = io_aware_selection();
        assert_eq!(sel.len(), 22, "still only 22 hardware slots");
        assert!(sel.watches(Signal::IoWaitCycles));
        assert!(
            !sel.watches(Signal::DcacheStore),
            "the SCU group is full: watching I/O wait costs the castout counter"
        );
        // Everything else matches the NAS selection.
        for s in nas_selection().signals() {
            if s != Signal::DcacheStore {
                assert!(sel.watches(s), "{s:?} must stay watched");
            }
        }
    }

    #[test]
    fn empty_selection() {
        let sel = CounterSelection::new(&[]).unwrap();
        assert!(sel.is_empty());
        assert_eq!(sel.signals().count(), 0);
    }
}
