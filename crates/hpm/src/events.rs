//! The raw event vector a node produces.
//!
//! The node simulator increments plain `u64` fields on its hot path; the
//! counter bank ([`crate::bank::Hpm`]) later *selects* from this vector the
//! way the hardware mux selects 22 of 320 signals.

use crate::signal::Signal;
use std::ops::{Add, AddAssign};

/// Raw counts for every modeled signal.
///
/// Indexable by [`Signal`]; supports merge (`+`) and scaling so that a
/// signature measured over `n` iterations can be replayed at cluster scale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventSet {
    counts: [u64; Signal::ALL.len()],
}

impl EventSet {
    /// An all-zero event set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` occurrences of `signal`.
    #[inline]
    pub fn bump(&mut self, signal: Signal, n: u64) {
        self.counts[signal as usize] += n;
    }

    /// Count recorded for `signal`.
    #[inline]
    pub fn get(&self, signal: Signal) -> u64 {
        self.counts[signal as usize]
    }

    /// Sets the count for `signal` (test/fixture use).
    pub fn set(&mut self, signal: Signal, n: u64) {
        self.counts[signal as usize] = n;
    }

    /// Sum over every signal (sanity metric only — signals overlap).
    pub fn grand_total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when no signal has fired.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Returns this event set scaled by a rational `num/den`, rounding to
    /// nearest. Used to replay per-iteration kernel signatures over a
    /// cluster-scale iteration count without 128-bit overflow on the
    /// intermediate product.
    pub fn scaled(&self, num: u64, den: u64) -> EventSet {
        assert!(den > 0, "scale denominator must be positive");
        let mut out = EventSet::new();
        for (i, &c) in self.counts.iter().enumerate() {
            out.counts[i] = ((c as u128 * num as u128 + den as u128 / 2) / den as u128) as u64;
        }
        out
    }

    /// Iterates `(signal, count)` pairs for nonzero signals.
    pub fn nonzero(&self) -> impl Iterator<Item = (Signal, u64)> + '_ {
        Signal::ALL.iter().copied().filter_map(move |s| {
            let c = self.get(s);
            (c != 0).then_some((s, c))
        })
    }

    // --- convenience derived totals used across the workspace ----------

    /// FXU0 + FXU1 executed instructions — the paper's approximation of
    /// the memory instruction issue rate.
    pub fn fxu_total(&self) -> u64 {
        self.get(Signal::Fxu0Exec) + self.get(Signal::Fxu1Exec)
    }

    /// FPU0 + FPU1 arithmetic instructions.
    pub fn fpu_total(&self) -> u64 {
        self.get(Signal::Fpu0Exec) + self.get(Signal::Fpu1Exec)
    }

    /// ICU type I + type II instructions.
    pub fn icu_total(&self) -> u64 {
        self.get(Signal::IcuType1) + self.get(Signal::IcuType2)
    }

    /// Total instructions across all units (the paper's Mips numerator).
    pub fn instructions_total(&self) -> u64 {
        self.fxu_total() + self.fpu_total() + self.icu_total()
    }

    /// Floating point operations under the HPM accounting rule: the fma
    /// multiply lands in the fma count, the fma add in the add count, so
    /// flops = adds + muls + fmas + divs (and the divide counts are zero
    /// under the erratum — the true divide flops are simply lost, which is
    /// exactly what the paper reports).
    pub fn flops_total(&self) -> u64 {
        self.get(Signal::Fpu0Add)
            + self.get(Signal::Fpu1Add)
            + self.get(Signal::Fpu0Mul)
            + self.get(Signal::Fpu1Mul)
            + self.get(Signal::Fpu0Fma)
            + self.get(Signal::Fpu1Fma)
            + self.get(Signal::Fpu0Div)
            + self.get(Signal::Fpu1Div)
    }
}

impl Add for EventSet {
    type Output = EventSet;
    fn add(mut self, rhs: EventSet) -> EventSet {
        self += rhs;
        self
    }
}

impl AddAssign for EventSet {
    fn add_assign(&mut self, rhs: EventSet) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_get() {
        let mut e = EventSet::new();
        assert!(e.is_zero());
        e.bump(Signal::Cycles, 100);
        e.bump(Signal::Cycles, 50);
        assert_eq!(e.get(Signal::Cycles), 150);
        assert!(!e.is_zero());
    }

    #[test]
    fn add_merges_fieldwise() {
        let mut a = EventSet::new();
        a.bump(Signal::Fxu0Exec, 10);
        let mut b = EventSet::new();
        b.bump(Signal::Fxu0Exec, 5);
        b.bump(Signal::Fxu1Exec, 7);
        let c = a + b;
        assert_eq!(c.get(Signal::Fxu0Exec), 15);
        assert_eq!(c.get(Signal::Fxu1Exec), 7);
        assert_eq!(c.fxu_total(), 22);
    }

    #[test]
    fn scaled_rounds_to_nearest() {
        let mut e = EventSet::new();
        e.bump(Signal::Cycles, 10);
        assert_eq!(e.scaled(1, 3).get(Signal::Cycles), 3); // 3.33 -> 3
        assert_eq!(e.scaled(1, 4).get(Signal::Cycles), 3); // 2.5 -> 3 (round half up)
        assert_eq!(e.scaled(7, 1).get(Signal::Cycles), 70);
    }

    #[test]
    fn scaled_large_values_no_overflow() {
        let mut e = EventSet::new();
        e.bump(Signal::Cycles, u64::MAX / 2);
        let s = e.scaled(2, 2);
        assert_eq!(s.get(Signal::Cycles), u64::MAX / 2);
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn zero_denominator_panics() {
        EventSet::new().scaled(1, 0);
    }

    #[test]
    fn flop_accounting_rule() {
        let mut e = EventSet::new();
        // 3 plain adds on FPU0, 2 fmas on FPU0, 1 mul on FPU1.
        // Under the rule: each fma contributes its multiply to the fma
        // count and its add to the add count upstream (the producer does
        // that); here we just verify the reduction sums the buckets.
        e.set(Signal::Fpu0Add, 5); // 3 plain + 2 fma-adds
        e.set(Signal::Fpu0Fma, 2);
        e.set(Signal::Fpu1Mul, 1);
        assert_eq!(e.flops_total(), 8);
    }

    #[test]
    fn instruction_totals() {
        let mut e = EventSet::new();
        e.set(Signal::Fxu0Exec, 4);
        e.set(Signal::Fxu1Exec, 3);
        e.set(Signal::Fpu0Exec, 2);
        e.set(Signal::Fpu1Exec, 1);
        e.set(Signal::IcuType1, 5);
        e.set(Signal::IcuType2, 2);
        assert_eq!(e.instructions_total(), 17);
        assert_eq!(e.icu_total(), 7);
        assert_eq!(e.fpu_total(), 3);
    }

    #[test]
    fn nonzero_iteration() {
        let mut e = EventSet::new();
        e.bump(Signal::DmaRead, 9);
        e.bump(Signal::TlbMiss, 1);
        let nz: Vec<_> = e.nonzero().collect();
        assert_eq!(nz.len(), 2);
        assert!(nz.contains(&(Signal::DmaRead, 9)));
        assert!(nz.contains(&(Signal::TlbMiss, 1)));
    }
}
