//! The counter-group scheduler: arbitrary signal sets → minimal pass
//! sequences.
//!
//! The paper's Table 1 was planned *by hand*: 22 of the POWER2's 320
//! signals fit the hardware at once, and "each combination must be
//! implemented and verified in the monitoring software" (§3). This
//! module automates that process. Given any requested signal set, the
//! scheduler partitions it by [`SignalGroup`], derives the minimum
//! number of passes that respects every group's slot budget, and lays
//! the signals out in a rotation so each pass is a valid
//! [`CounterSelection`] and the union of all passes covers the request
//! exactly.
//!
//! The schedule is deterministic: groups are walked in canonical
//! [`SignalGroup::ALL`] order and signals keep their first-seen request
//! order, so the same request always plans the same passes (no hash-map
//! iteration order leaks into the plan).

use crate::config::CounterSelection;
use crate::signal::{Signal, SignalGroup};
use std::fmt;

/// A request the scheduler cannot plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The caller forced fewer passes than the request needs: some group
    /// would have to over-subscribe its slots.
    TooFewPasses {
        /// Passes the caller asked for.
        requested: usize,
        /// Minimum passes the signal set needs.
        minimum: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooFewPasses { requested, minimum } => write!(
                f,
                "{requested} pass(es) requested but the signal set needs at least {minimum}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A planned sequence of counter selections covering a signal request.
///
/// Pass `p` watches, for each group with signals `v` and `k` slots, the
/// signals `v[(p*k + j) % v.len()]` for `j < min(k, v.len())` (duplicates
/// within a pass collapsed) — the same rotation the RS2HPM multipass
/// tools used, generalized to any pass count ≥ the minimum. Every signal
/// is therefore watched in roughly `passes * k / v.len()` of the passes,
/// and with `n_passes == 1` the single pass *is* the requested selection,
/// signals in request order.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulePlan {
    requested: Vec<Signal>,
    passes: Vec<CounterSelection>,
}

impl SchedulePlan {
    /// Plans the minimal pass sequence for `wanted` (duplicates are
    /// covered once). An empty request plans zero passes.
    pub fn minimal(wanted: &[Signal]) -> SchedulePlan {
        let n = Self::min_passes(wanted);
        // Unreachable fallback: `min_passes` is by construction a valid
        // pass count for `with_passes`.
        Self::with_passes(wanted, n).unwrap_or(SchedulePlan {
            requested: Vec::new(),
            passes: Vec::new(),
        })
    }

    /// The minimum number of passes `wanted` needs: the largest
    /// ⌈signals-in-group / group-slots⌉ over all groups (0 for an empty
    /// request).
    pub fn min_passes(wanted: &[Signal]) -> usize {
        per_group(wanted)
            .iter()
            .zip(SignalGroup::ALL)
            .map(|(v, g)| v.len().div_ceil(g.slots()))
            .max()
            .unwrap_or(0)
    }

    /// Plans exactly `n_passes` passes over `wanted`. More passes than
    /// the minimum spread each signal over more of the sweep rotation
    /// (higher coverage per signal); fewer than the minimum cannot
    /// respect the slot budgets and fails.
    pub fn with_passes(wanted: &[Signal], n_passes: usize) -> Result<SchedulePlan, PlanError> {
        let groups = per_group(wanted);
        let minimum = groups
            .iter()
            .zip(SignalGroup::ALL)
            .map(|(v, g)| v.len().div_ceil(g.slots()))
            .max()
            .unwrap_or(0);
        if n_passes < minimum {
            return Err(PlanError::TooFewPasses {
                requested: n_passes,
                minimum,
            });
        }
        let mut passes = Vec::with_capacity(n_passes);
        for p in 0..n_passes {
            let mut assignment: Vec<Signal> = Vec::new();
            for (v, g) in groups.iter().zip(SignalGroup::ALL) {
                let k = g.slots();
                let len = v.len();
                for j in 0..k.min(len) {
                    let s = v[(p * k + j) % len];
                    // The rotation aliases when len < k or len is not a
                    // multiple of k; each pass watches a signal once.
                    if !assignment.contains(&s) {
                        assignment.push(s);
                    }
                }
            }
            match CounterSelection::new(&assignment) {
                Ok(sel) => passes.push(sel),
                Err(_) => {
                    // Unreachable: the rotation takes at most `slots()`
                    // distinct signals per group per pass.
                    debug_assert!(false, "rotation respects group budgets");
                }
            }
        }
        let requested = groups.into_iter().flatten().collect();
        Ok(SchedulePlan { requested, passes })
    }

    /// The planned passes, each a valid hardware selection.
    pub fn passes(&self) -> &[CounterSelection] {
        &self.passes
    }

    /// Number of planned passes.
    pub fn n_passes(&self) -> usize {
        self.passes.len()
    }

    /// Whether the whole request fits one hardware pass.
    pub fn is_single_pass(&self) -> bool {
        self.passes.len() == 1
    }

    /// The deduplicated request, grouped in canonical group order with
    /// first-seen order kept within each group.
    pub fn requested(&self) -> &[Signal] {
        &self.requested
    }

    /// Number of passes that watch `signal` (0 if not requested).
    pub fn coverage(&self, signal: Signal) -> usize {
        self.passes.iter().filter(|p| p.watches(signal)).count()
    }

    /// The pass index active during 1-based daemon sweep `sweep`: the
    /// rotation the daemon runs when it switches event sets between
    /// sweeps. Sweep 0 is the baseline pass (selection of pass 0).
    pub fn pass_for_sweep(&self, sweep: u64) -> usize {
        if self.passes.len() <= 1 {
            0
        } else {
            ((sweep.saturating_sub(1)) % self.passes.len() as u64) as usize
        }
    }
}

/// Partitions `wanted` by group in canonical order, deduplicating while
/// keeping first-seen order within each group.
fn per_group(wanted: &[Signal]) -> [Vec<Signal>; 5] {
    let mut groups: [Vec<Signal>; 5] = Default::default();
    for &s in wanted {
        let v = &mut groups[s.group().ordinal()];
        if !v.contains(&s) {
            v.push(s);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::nas_selection;

    #[test]
    fn single_pass_request_plans_the_request_itself() {
        let wanted: Vec<Signal> = nas_selection().signals().collect();
        let plan = SchedulePlan::minimal(&wanted);
        assert!(plan.is_single_pass());
        // Request order is group order already, so the single pass is
        // exactly the Table 1 selection.
        assert_eq!(plan.passes()[0], nas_selection());
        for s in &wanted {
            assert_eq!(plan.coverage(*s), 1);
        }
    }

    #[test]
    fn full_signal_space_needs_two_passes() {
        let plan = SchedulePlan::minimal(&Signal::ALL);
        // Largest group pressure: FXU has 7 signals over 5 slots.
        assert_eq!(plan.n_passes(), 2);
        for s in Signal::ALL {
            assert!(plan.coverage(s) >= 1, "{s:?} uncovered");
        }
        for p in plan.passes() {
            assert!(CounterSelection::new(&p.signals().collect::<Vec<_>>()).is_ok());
        }
    }

    #[test]
    fn forced_extra_passes_raise_coverage() {
        let plan = SchedulePlan::with_passes(&Signal::ALL, 4).expect("4 >= minimum");
        assert_eq!(plan.n_passes(), 4);
        for s in Signal::ALL {
            assert!(plan.coverage(s) >= 2, "{s:?} coverage {}", plan.coverage(s));
        }
    }

    #[test]
    fn too_few_passes_is_a_typed_error() {
        let err = SchedulePlan::with_passes(&Signal::ALL, 1).unwrap_err();
        assert_eq!(
            err,
            PlanError::TooFewPasses {
                requested: 1,
                minimum: 2
            }
        );
        assert!(err.to_string().contains("at least 2"));
    }

    #[test]
    fn empty_request_plans_nothing() {
        let plan = SchedulePlan::minimal(&[]);
        assert_eq!(plan.n_passes(), 0);
        assert_eq!(SchedulePlan::min_passes(&[]), 0);
    }

    #[test]
    fn duplicates_covered_once() {
        let plan = SchedulePlan::minimal(&[Signal::Cycles, Signal::Cycles]);
        assert_eq!(plan.requested(), &[Signal::Cycles]);
        assert_eq!(plan.coverage(Signal::Cycles), 1);
    }

    #[test]
    fn plan_is_deterministic() {
        let a = SchedulePlan::minimal(&Signal::ALL);
        let b = SchedulePlan::minimal(&Signal::ALL);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_rotation_cycles_through_passes() {
        let plan = SchedulePlan::minimal(&Signal::ALL);
        assert_eq!(plan.n_passes(), 2);
        assert_eq!(plan.pass_for_sweep(0), 0);
        assert_eq!(plan.pass_for_sweep(1), 0);
        assert_eq!(plan.pass_for_sweep(2), 1);
        assert_eq!(plan.pass_for_sweep(3), 0);
        let single = SchedulePlan::minimal(&[Signal::Cycles]);
        assert_eq!(single.pass_for_sweep(99), 0);
    }
}
