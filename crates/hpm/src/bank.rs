//! The counter bank: what the monitoring software actually reads.
//!
//! Three hardware realities are modeled here because the paper's analysis
//! depends on them:
//!
//! 1. **32-bit hardware counters, 64-bit virtualization.** At workload
//!    rates (~45 M instructions/s) a 32-bit counter wraps in ~90 s, so a
//!    job-length delta read straight from the register would be garbage.
//!    The RS2HPM kernel extension therefore *virtualizes* the counters:
//!    it catches counter-overflow interrupts and extends each register
//!    into a 64-bit software counter, which is what `snapshot()` returns
//!    (and what the real library returned to users). The raw wrapping
//!    32-bit register remains visible through [`Hpm::raw_register`].
//! 2. **User/system mode split.** The tools "allowed the reporting of
//!    events occurring in both user and system mode"; the Figure-5 paging
//!    analysis is built on the system/user FXU ratio.
//! 3. **The divide-count erratum.** Divide events reach the monitor but
//!    are not accumulated, so divide flops are lost (Table 3's 0.0 row).

use crate::config::CounterSelection;
use crate::events::EventSet;

/// Execution mode a node is in when events fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// User (problem-state) execution.
    User,
    /// System (kernel) execution — paging, interrupts, daemons.
    System,
}

/// A point-in-time reading of every configured slot, both modes — the
/// kernel extension's 64-bit virtualized view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// User-mode counter values, indexed by slot.
    pub user: Vec<u64>,
    /// System-mode counter values, indexed by slot.
    pub system: Vec<u64>,
}

impl CounterSnapshot {
    /// The reading a glitched collection pass would return: every counter
    /// truncated to its 32-bit hardware register, as if the kernel
    /// extension's 64-bit virtualization were bypassed for one read.
    ///
    /// Diffing such a reading against a healthy 64-bit baseline produces
    /// a wrap-corrected delta near 2^64 — the counter-glitch anomaly the
    /// collection daemon must detect and discard.
    pub fn truncate_to_hardware(&self) -> CounterSnapshot {
        let trunc = |v: &[u64]| -> Vec<u64> { v.iter().map(|&x| x as u32 as u64).collect() };
        CounterSnapshot {
            user: trunc(&self.user),
            system: trunc(&self.system),
        }
    }
}

/// Wrap-aware difference between two snapshots, in events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// User-mode event counts per slot.
    pub user: Vec<u64>,
    /// System-mode event counts per slot.
    pub system: Vec<u64>,
}

impl CounterDelta {
    /// Computes `after - before` slotwise with 32-bit wraparound.
    ///
    /// # Panics
    /// Panics if the two snapshots have different slot counts (they came
    /// from different selections — meaningless to diff).
    pub fn between(before: &CounterSnapshot, after: &CounterSnapshot) -> CounterDelta {
        assert_eq!(
            before.user.len(),
            after.user.len(),
            "snapshots from different counter selections"
        );
        let diff = |b: &[u64], a: &[u64]| -> Vec<u64> {
            a.iter()
                .zip(b)
                .map(|(&av, &bv)| av.wrapping_sub(bv))
                .collect()
        };
        CounterDelta {
            user: diff(&before.user, &after.user),
            system: diff(&before.system, &after.system),
        }
    }

    /// Combined user + system count for a slot.
    pub fn total(&self, slot: usize) -> u64 {
        self.user[slot] + self.system[slot]
    }

    /// Adds another delta slotwise (accumulating across nodes or windows).
    pub fn accumulate(&mut self, other: &CounterDelta) {
        assert_eq!(self.user.len(), other.user.len());
        for (a, b) in self.user.iter_mut().zip(&other.user) {
            *a += b;
        }
        for (a, b) in self.system.iter_mut().zip(&other.system) {
            *a += b;
        }
    }

    /// A zero delta with `n` slots.
    pub fn zero(n: usize) -> CounterDelta {
        CounterDelta {
            user: vec![0; n],
            system: vec![0; n],
        }
    }
}

/// The monitor: a selection plus the live counter state (64-bit
/// virtualized; the hardware registers are the low 32 bits).
///
/// ```
/// use sp2_hpm::{nas_selection, CounterDelta, EventSet, Hpm, Mode, Signal};
///
/// let mut hpm = Hpm::new(nas_selection());
/// let before = hpm.snapshot();
/// let mut events = EventSet::new();
/// events.bump(Signal::Fpu0Fma, 1_000);
/// events.bump(Signal::Fpu0Add, 1_000); // the fma's add half
/// hpm.absorb(&events, Mode::User);
/// let delta = CounterDelta::between(&before, &hpm.snapshot());
/// let slot = hpm.selection().slot_of(Signal::Fpu0Fma).unwrap();
/// assert_eq!(delta.user[slot], 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Hpm {
    selection: CounterSelection,
    user: Vec<u64>,
    system: Vec<u64>,
    /// When true (the hardware NAS ran), divide counts are dropped.
    div_erratum: bool,
}

impl Hpm {
    /// Creates a monitor with the given selection and the divide erratum
    /// present (as on the NAS machines).
    pub fn new(selection: CounterSelection) -> Self {
        let n = selection.len();
        Hpm {
            selection,
            user: vec![0; n],
            system: vec![0; n],
            div_erratum: true,
        }
    }

    /// Creates a monitor with the erratum repaired (ablation).
    pub fn new_without_erratum(selection: CounterSelection) -> Self {
        let mut h = Self::new(selection);
        h.div_erratum = false;
        h
    }

    /// The active selection.
    pub fn selection(&self) -> &CounterSelection {
        &self.selection
    }

    /// Whether the divide erratum is active.
    pub fn has_div_erratum(&self) -> bool {
        self.div_erratum
    }

    /// Absorbs a raw event vector produced in `mode`: every watched signal
    /// bumps its slot, modulo the divide erratum.
    pub fn absorb(&mut self, events: &EventSet, mode: Mode) {
        let bank = match mode {
            Mode::User => &mut self.user,
            Mode::System => &mut self.system,
        };
        for (i, slot) in self.selection.slots().iter().enumerate() {
            if self.div_erratum && slot.signal.has_div_erratum() {
                continue;
            }
            let n = events.get(slot.signal);
            bank[i] = bank[i].wrapping_add(n);
        }
    }

    /// Reads all virtualized counters without disturbing them.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            user: self.user.clone(),
            system: self.system.clone(),
        }
    }

    /// Copies every counter into one node's lanes of a lane buffer (see
    /// [`CounterSelection::lanes_per_node`]).
    ///
    /// # Panics
    /// Panics unless `lanes` is exactly one node's lanes.
    pub fn read_lanes(&self, lanes: &mut [u64]) {
        let (user, system) = self.selection.split_lanes_mut(lanes);
        user.copy_from_slice(&self.user);
        system.copy_from_slice(&self.system);
    }

    /// The raw 32-bit hardware register behind a slot: the low half of
    /// the virtualized counter, exactly as the SCU chip exposes it.
    pub fn raw_register(&self, slot: usize, mode: Mode) -> u32 {
        match mode {
            Mode::User => self.user[slot] as u32,
            Mode::System => self.system[slot] as u32,
        }
    }

    /// Resets every counter to zero (job prologue on some tools).
    pub fn reset(&mut self) {
        self.user.fill(0);
        self.system.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::nas_selection;
    use crate::signal::Signal;

    fn monitor() -> Hpm {
        Hpm::new(nas_selection())
    }

    #[test]
    fn absorb_routes_to_watched_slots() {
        let mut h = monitor();
        let mut e = EventSet::new();
        e.bump(Signal::Fxu0Exec, 100);
        e.bump(Signal::StorageRefs, 999); // not watched by NAS selection
        h.absorb(&e, Mode::User);
        let s = h.snapshot();
        let slot = h.selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.user[slot], 100);
        assert_eq!(s.user.iter().copied().sum::<u64>(), 100);
    }

    #[test]
    fn mode_split() {
        let mut h = monitor();
        let mut e = EventSet::new();
        e.bump(Signal::Fxu0Exec, 10);
        h.absorb(&e, Mode::User);
        h.absorb(&e, Mode::System);
        h.absorb(&e, Mode::System);
        let s = h.snapshot();
        let slot = h.selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(s.user[slot], 10);
        assert_eq!(s.system[slot], 20);
    }

    #[test]
    fn div_erratum_drops_divide_counts() {
        let mut h = monitor();
        let mut e = EventSet::new();
        e.bump(Signal::Fpu0Div, 500);
        e.bump(Signal::Fpu0Add, 500);
        h.absorb(&e, Mode::User);
        let s = h.snapshot();
        let div_slot = h.selection().slot_of(Signal::Fpu0Div).unwrap();
        let add_slot = h.selection().slot_of(Signal::Fpu0Add).unwrap();
        assert_eq!(s.user[div_slot], 0, "erratum must lose divide counts");
        assert_eq!(s.user[add_slot], 500);
    }

    #[test]
    fn erratum_repair_ablation() {
        let mut h = Hpm::new_without_erratum(nas_selection());
        let mut e = EventSet::new();
        e.bump(Signal::Fpu1Div, 7);
        h.absorb(&e, Mode::User);
        let slot = h.selection().slot_of(Signal::Fpu1Div).unwrap();
        assert_eq!(h.snapshot().user[slot], 7);
    }

    #[test]
    fn hardware_register_wraps_but_virtualized_delta_is_exact() {
        let mut h = monitor();
        let mut e = EventSet::new();
        e.bump(Signal::Cycles, u32::MAX as u64);
        h.absorb(&e, Mode::User);
        let slot = h.selection().slot_of(Signal::Cycles).unwrap();
        let before = h.snapshot();
        let raw_before = h.raw_register(slot, Mode::User);
        let mut e2 = EventSet::new();
        e2.bump(Signal::Cycles, 10);
        h.absorb(&e2, Mode::User);
        // The 32-bit hardware register wrapped past zero…
        let raw_after = h.raw_register(slot, Mode::User);
        assert!(raw_after < raw_before);
        // …but the kernel extension's virtualized view kept counting.
        let after = h.snapshot();
        assert!(after.user[slot] > before.user[slot]);
        let d = CounterDelta::between(&before, &after);
        assert_eq!(d.user[slot], 10);
    }

    #[test]
    fn job_length_deltas_do_not_wrap() {
        // A 2-hour job at 45 M instructions/s: ≈ 3.2e11 events, far past
        // u32::MAX — the virtualized counters must still delta exactly.
        let mut h = monitor();
        let before = h.snapshot();
        let mut e = EventSet::new();
        e.bump(Signal::Fxu0Exec, 324_000_000_000);
        h.absorb(&e, Mode::User);
        let after = h.snapshot();
        let d = CounterDelta::between(&before, &after);
        let slot = h.selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(d.user[slot], 324_000_000_000);
    }

    #[test]
    fn delta_accumulation() {
        let mut d = CounterDelta::zero(3);
        let other = CounterDelta {
            user: vec![1, 2, 3],
            system: vec![10, 0, 0],
        };
        d.accumulate(&other);
        d.accumulate(&other);
        assert_eq!(d.user, vec![2, 4, 6]);
        assert_eq!(d.system, vec![20, 0, 0]);
        assert_eq!(d.total(0), 22);
    }

    #[test]
    #[should_panic(expected = "different counter selections")]
    fn delta_between_mismatched_snapshots_panics() {
        let a = CounterSnapshot {
            user: vec![0; 3],
            system: vec![0; 3],
        };
        let b = CounterSnapshot {
            user: vec![0; 4],
            system: vec![0; 4],
        };
        CounterDelta::between(&a, &b);
    }

    #[test]
    fn truncate_to_hardware_keeps_low_32_bits() {
        let s = CounterSnapshot {
            user: vec![(5u64 << 32) | 77, 3],
            system: vec![u64::MAX, 0],
        };
        let t = s.truncate_to_hardware();
        assert_eq!(t.user, vec![77, 3]);
        assert_eq!(t.system, vec![u32::MAX as u64, 0]);
        // Diffing truncated-after against healthy-before wraps hugely.
        let d = CounterDelta::between(&s, &t);
        assert!(d.user[0] > 1 << 48, "glitch delta must be implausible");
    }

    #[test]
    fn reset_clears_state() {
        let mut h = monitor();
        let mut e = EventSet::new();
        e.bump(Signal::IcuType1, 5);
        h.absorb(&e, Mode::User);
        h.reset();
        assert!(h.snapshot().user.iter().all(|&c| c == 0));
    }

    #[test]
    fn read_lanes_is_user_then_system() {
        let mut h = monitor();
        let mut e = EventSet::new();
        e.bump(Signal::Fxu0Exec, 5);
        h.absorb(&e, Mode::User);
        e.bump(Signal::Fxu0Exec, 2);
        h.absorb(&e, Mode::System);
        let mut lanes = vec![u64::MAX; 2 * h.selection().len()];
        h.read_lanes(&mut lanes);
        let snap = h.snapshot();
        assert_eq!(lanes, [snap.user, snap.system].concat());
    }
}
