//! Struct-of-arrays counter lanes for the batch node engine.
//!
//! The cluster hot path advances hundreds of nodes per sweep. A
//! `Vec<Hpm>` scatters each node's counters behind two heap pointers
//! (`user`/`system` vectors), so the advance loop pointer-chases and the
//! per-event `absorb` re-walks the selection — branching on the divide
//! erratum — once per node per sweep. [`CounterBatch`] flattens every
//! node's counters into one lane buffer (the layout of
//! [`CounterSelection::lanes_per_node`]: per node, its user lanes then its
//! system lanes), and [`BatchDelta`] pre-folds an
//! advance interval's event sets through the selection *once*. Applying a
//! delta is then a branch-free wrapping add over the node's lanes —
//! bit-identical to the two `Hpm::absorb` calls it replaces, because
//! `absorb` is itself a per-slot `wrapping_add` of `events.get(signal)`
//! with divide-erratum slots skipped (≡ adding a pre-zeroed lane).
//!
//! The collection daemon and the job prologue/epilogue read the same
//! buffer as it is, so sampling copies no counter out of it.

use sp2_hpm::{CounterSelection, EventSet};

/// Counter state for a batch of nodes: one lane buffer in the layout of
/// [`CounterSelection::lanes_per_node`].
///
/// All counters are the kernel extension's 64-bit virtualized view, as
/// in [`sp2_hpm::Hpm`]; the divide erratum is honored at delta-fold time
/// ([`BatchDelta::fold`]), so erratum slots simply never accumulate.
#[derive(Debug, Clone)]
pub struct CounterBatch {
    selection: CounterSelection,
    lanes: Vec<u64>,
}

impl CounterBatch {
    /// A batch of `nodes` nodes, all counters zero (fresh monitors).
    pub fn new(selection: CounterSelection, nodes: usize) -> Self {
        CounterBatch {
            lanes: vec![0; nodes * selection.lanes_per_node()],
            selection,
        }
    }

    /// The active selection.
    pub fn selection(&self) -> &CounterSelection {
        &self.selection
    }

    /// One node's lanes, mutable.
    pub fn node_lanes_mut(&mut self, node: usize) -> &mut [u64] {
        self.selection.node_lanes_mut(&mut self.lanes, node)
    }

    /// The whole buffer, node after node: what the collection daemon
    /// sweeps and the job prologue/epilogue read.
    pub fn lanes(&self) -> &[u64] {
        &self.lanes
    }

    /// The whole buffer, mutable.
    pub fn lanes_mut(&mut self) -> &mut [u64] {
        &mut self.lanes
    }

    /// Zeroes one node's counters (reboot / job-prologue reset).
    pub fn reset(&mut self, node: usize) {
        self.node_lanes_mut(node).fill(0);
    }
}

/// One advance interval's counter increments, pre-folded through the
/// selection: one node's lanes ([`CounterSelection::lanes_per_node`]) whose
/// divide-erratum slots are already zero.
///
/// Folding once and applying many times is what makes batched advance
/// cheap: every node sharing the same `(activity plan, dt)` pair
/// produces the same event sets, hence the same delta, and application
/// is a branch-free wrapping add.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDelta {
    lanes: Vec<u64>,
}

impl BatchDelta {
    /// Folds a user-mode and a system-mode event set through `selection`
    /// exactly as `Hpm::absorb(user, Mode::User)` followed by
    /// `absorb(system, Mode::System)` would: watched signals land in
    /// their slots, and (when `div_erratum`) divide slots stay zero.
    pub fn fold(
        selection: &CounterSelection,
        user: &EventSet,
        system: &EventSet,
        div_erratum: bool,
    ) -> Self {
        let mut lanes = vec![0u64; selection.lanes_per_node()];
        let (user_lanes, system_lanes) = selection.split_lanes_mut(&mut lanes);
        for (i, slot) in selection.slots().iter().enumerate() {
            if div_erratum && slot.signal.has_div_erratum() {
                continue;
            }
            user_lanes[i] = user.get(slot.signal);
            system_lanes[i] = system.get(slot.signal);
        }
        BatchDelta { lanes }
    }

    /// Adds the delta onto one node's lanes (wrapping, like the 64-bit
    /// virtualized counters).
    pub fn apply_to(&self, node_lanes: &mut [u64]) {
        debug_assert_eq!(node_lanes.len(), self.lanes.len());
        for (lane, d) in node_lanes.iter_mut().zip(&self.lanes) {
            *lane = lane.wrapping_add(*d);
        }
    }

    /// Adds the delta `steps` times in one pass: `lane + steps × d`
    /// (wrapping) is bit-identical to `steps` repeated [`Self::apply_to`]
    /// calls, because wrapping addition distributes over wrapping
    /// multiplication modulo 2^64. This is what lets the cluster engine
    /// fast-forward whole runs of steady sweeps.
    pub fn apply_scaled(&self, node_lanes: &mut [u64], steps: u64) {
        debug_assert_eq!(node_lanes.len(), self.lanes.len());
        for (lane, d) in node_lanes.iter_mut().zip(&self.lanes) {
            *lane = lane.wrapping_add(d.wrapping_mul(steps));
        }
    }

    /// Whether applying this delta is a no-op (an idle interval under a
    /// selection that watches nothing the idle plan emits).
    pub fn is_zero(&self) -> bool {
        self.lanes.iter().all(|&d| d == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, Hpm, Mode, Signal};

    /// The monitor's counters as one node's lanes: user, then system.
    fn lanes_of(hpm: &Hpm) -> Vec<u64> {
        let s = hpm.snapshot();
        [s.user, s.system].concat()
    }

    fn event_set(pairs: &[(Signal, u64)]) -> EventSet {
        let mut e = EventSet::new();
        for &(s, n) in pairs {
            e.bump(s, n);
        }
        e
    }

    #[test]
    fn fold_and_apply_match_hpm_absorb_exactly() {
        let sel = nas_selection();
        let user = event_set(&[
            (Signal::Fpu0Fma, 12_345),
            (Signal::Fpu0Add, 12_345),
            (Signal::Fpu0Div, 77), // erratum: must be dropped
            (Signal::Fxu0Exec, 999),
            (Signal::Cycles, 1 << 40),
            (Signal::StorageRefs, 5), // unwatched by NAS: must vanish
        ]);
        let system = event_set(&[(Signal::Fxu0Exec, 31), (Signal::Cycles, 1_000)]);

        let mut hpm = Hpm::new(sel.clone());
        hpm.absorb(&user, Mode::User);
        hpm.absorb(&system, Mode::System);

        let mut batch = CounterBatch::new(sel.clone(), 3);
        let delta = BatchDelta::fold(&sel, &user, &system, true);
        delta.apply_to(batch.node_lanes_mut(1));

        assert_eq!(sel.node_lanes(batch.lanes(), 1), lanes_of(&hpm));
        // Untouched neighbours stay zero.
        assert!(sel.node_lanes(batch.lanes(), 0).iter().all(|&c| c == 0));
        assert!(sel.node_lanes(batch.lanes(), 2).iter().all(|&c| c == 0));
    }

    #[test]
    fn repeated_application_matches_repeated_absorb() {
        let sel = nas_selection();
        let user = event_set(&[(Signal::Fpu1Exec, 3), (Signal::DcacheMiss, 9)]);
        let system = event_set(&[(Signal::TlbMiss, 2)]);

        let mut hpm = Hpm::new(sel.clone());
        let mut batch = CounterBatch::new(sel.clone(), 1);
        let delta = BatchDelta::fold(&sel, &user, &system, true);
        for _ in 0..1_000 {
            hpm.absorb(&user, Mode::User);
            hpm.absorb(&system, Mode::System);
            delta.apply_to(batch.node_lanes_mut(0));
        }
        assert_eq!(batch.lanes(), lanes_of(&hpm));
    }

    #[test]
    fn scaled_application_matches_repeated_application() {
        let sel = nas_selection();
        // Include a near-wrap count so the scaled path is exercised
        // across the 2^64 boundary, where only true modular arithmetic
        // stays bit-identical to stepping.
        let user = event_set(&[(Signal::Cycles, u64::MAX / 3), (Signal::Fpu0Fma, 17)]);
        let system = event_set(&[(Signal::TlbMiss, 5)]);
        let delta = BatchDelta::fold(&sel, &user, &system, true);
        let mut stepped = CounterBatch::new(sel.clone(), 1);
        let mut scaled = CounterBatch::new(sel, 1);
        for steps in [1u64, 7, 1_000] {
            for _ in 0..steps {
                delta.apply_to(stepped.node_lanes_mut(0));
            }
            delta.apply_scaled(scaled.node_lanes_mut(0), steps);
            assert_eq!(scaled.lanes(), stepped.lanes(), "steps={steps}");
        }
    }

    #[test]
    fn erratum_repair_keeps_divide_counts() {
        let sel = nas_selection();
        let user = event_set(&[(Signal::Fpu0Div, 500)]);
        let none = EventSet::new();
        let dropped = BatchDelta::fold(&sel, &user, &none, true);
        let kept = BatchDelta::fold(&sel, &user, &none, false);
        assert!(dropped.is_zero());
        assert!(!kept.is_zero());

        let mut hpm = Hpm::new_without_erratum(sel.clone());
        hpm.absorb(&user, Mode::User);
        let mut batch = CounterBatch::new(sel, 1);
        kept.apply_to(batch.node_lanes_mut(0));
        assert_eq!(batch.lanes(), lanes_of(&hpm));
    }

    #[test]
    fn lanes_wrap_like_virtualized_counters() {
        let sel = nas_selection();
        let user = event_set(&[(Signal::Cycles, u64::MAX)]);
        let none = EventSet::new();
        let delta = BatchDelta::fold(&sel, &user, &none, true);
        let mut batch = CounterBatch::new(sel.clone(), 1);
        delta.apply_to(batch.node_lanes_mut(0));
        delta.apply_to(batch.node_lanes_mut(0));

        let mut hpm = Hpm::new(sel.clone());
        hpm.absorb(&user, Mode::User);
        hpm.absorb(&user, Mode::User);
        let slot = sel.slot_of(Signal::Cycles).unwrap();
        assert_eq!(batch.lanes()[slot], hpm.snapshot().user[slot]);
    }

    #[test]
    fn reset_zeroes_only_the_one_node() {
        let sel = nas_selection();
        let user = event_set(&[(Signal::Fxu0Exec, 10)]);
        let none = EventSet::new();
        let delta = BatchDelta::fold(&sel, &user, &none, true);
        let mut batch = CounterBatch::new(sel.clone(), 2);
        delta.apply_to(batch.node_lanes_mut(0));
        delta.apply_to(batch.node_lanes_mut(1));
        batch.reset(0);
        let slot = sel.slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(sel.node_lanes(batch.lanes(), 0)[slot], 0);
        assert_eq!(sel.node_lanes(batch.lanes(), 1)[slot], 10);
    }

    #[test]
    fn layout_is_contiguous_user_then_system() {
        let sel = nas_selection();
        let mut batch = CounterBatch::new(sel.clone(), 2);
        let per_node = sel.lanes_per_node();
        assert_eq!(per_node, 2 * sel.len());
        assert_eq!(batch.lanes().len(), 2 * per_node);
        batch.node_lanes_mut(1)[0] = 42; // node 1, user slot 0
        batch.node_lanes_mut(1)[sel.len()] = 7; // node 1, system slot 0
        assert_eq!(batch.lanes()[per_node], 42);
        assert_eq!(batch.lanes()[per_node + sel.len()], 7);
        assert!(batch.lanes()[..per_node].iter().all(|&c| c == 0));
        let (user, system) = sel.split_lanes(sel.node_lanes(batch.lanes(), 1));
        assert_eq!((user[0], system[0]), (42, 7));
    }
}
