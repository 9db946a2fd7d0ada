//! Sweep-rotation reconstruction: multiplexed samples → full-interval
//! signal totals with per-signal error bounds.
//!
//! When a request needs more signals than the hardware's 22 slots, the
//! scheduler ([`sp2_hpm::SchedulePlan`]) plans several passes and the
//! daemon rotates through them between sweeps: interval `k` is observed
//! under pass `plan.pass_for_sweep(k)`. Each signal is therefore *seen*
//! during only the intervals whose active pass watches it, and the
//! reconstruction here scales the observed events back to the full
//! campaign:
//!
//! - **estimate** — observed events × (total time / observed time), the
//!   standard multiplexing correction under a stationarity assumption;
//! - **coverage** — observed time / total time, exactly `1.0` when every
//!   interval watched the signal;
//! - **lo / hi** — bounds that fill each *unobserved* interval with the
//!   smallest / largest per-interval rate among the nearest observed
//!   neighbors (before and after), so bursty signals get honest wide
//!   bounds while steady signals get tight ones;
//! - **error** — the relative half-width `(hi − lo) / (2 × estimate)`.
//!
//! The contract the tests enforce: when the whole request fits **one
//! pass**, every interval is observed, the estimate is the plain sum of
//! the observed deltas — bit-identical (`f64::to_bits`) to a ground-truth
//! single-selection run — and coverage and error are exactly `1.0` and
//! `0.0`, not approximately.
//!
//! Totals combine user and system mode: the rotation multiplexes the
//! hardware slot, which counts both modes at once, and the categories
//! downstream (I/O wait above all) are only meaningful with system mode
//! included.

use crate::daemon::SystemSample;
use sp2_hpm::{SchedulePlan, Signal};
use std::fmt;

/// Why a reconstruction could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstructError {
    /// The plan has no passes (empty request).
    EmptyPlan,
    /// Sample series count differs from the plan's pass count.
    WrongPassCount {
        /// Passes the plan expects.
        expected: usize,
        /// Series provided.
        got: usize,
    },
    /// A pass's sample series has a different length than pass 0's.
    MismatchedSeries {
        /// The offending pass.
        pass: usize,
        /// Pass 0's sample count.
        expected: usize,
        /// The offending pass's sample count.
        got: usize,
    },
    /// A pass's sample timestamps diverge from pass 0's: the passes were
    /// not run over the same campaign.
    TimeSkew {
        /// The offending pass.
        pass: usize,
        /// Sample index where the timestamps diverge.
        index: usize,
    },
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::EmptyPlan => write!(f, "plan has no passes"),
            ReconstructError::WrongPassCount { expected, got } => {
                write!(f, "plan has {expected} pass(es) but {got} series given")
            }
            ReconstructError::MismatchedSeries {
                pass,
                expected,
                got,
            } => write!(f, "pass {pass} has {got} samples, pass 0 has {expected}"),
            ReconstructError::TimeSkew { pass, index } => {
                write!(
                    f,
                    "pass {pass} sample {index} timestamp diverges from pass 0"
                )
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

/// One signal's reconstructed full-campaign total with its error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalEstimate {
    /// The signal.
    pub signal: Signal,
    /// Events actually observed (user + system) over covered intervals.
    pub observed: u64,
    /// Full-campaign estimate: `observed` scaled by inverse coverage. At
    /// coverage 1 this is `observed as f64` untouched — no arithmetic.
    pub estimate: f64,
    /// Estimated events per second over the whole campaign.
    pub rate: f64,
    /// Fraction of campaign time this signal was watched, in `[0, 1]`.
    /// Exactly `1.0` when every interval observed it.
    pub coverage: f64,
    /// Relative error half-width `(hi − lo) / (2 × estimate)`. Exactly
    /// `0.0` at full coverage; `∞` when the signal was never observed.
    pub error: f64,
    /// Lower bound: unobserved intervals filled at the smallest
    /// neighboring observed rate.
    pub lo: f64,
    /// Upper bound: unobserved intervals filled at the largest
    /// neighboring observed rate.
    pub hi: f64,
    /// Intervals that observed this signal.
    pub intervals_observed: usize,
}

/// A reconstructed campaign: every requested signal's estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstruction {
    /// Campaign span covered by the samples, seconds.
    pub total_seconds: f64,
    /// Number of sampling intervals (samples − 1).
    pub intervals: usize,
    /// Per-signal estimates, in the plan's request order.
    pub estimates: Vec<SignalEstimate>,
}

impl Reconstruction {
    /// The estimate for `signal`, if it was in the request.
    pub fn estimate(&self, signal: Signal) -> Option<&SignalEstimate> {
        self.estimates.iter().find(|e| e.signal == signal)
    }

    /// The reconstructed total for `signal` (0 if not requested).
    pub fn total(&self, signal: Signal) -> f64 {
        self.estimate(signal).map(|e| e.estimate).unwrap_or(0.0)
    }

    /// The largest per-signal relative error — exactly 0 for a
    /// single-pass plan.
    pub fn max_error(&self) -> f64 {
        self.estimates.iter().map(|e| e.error).fold(0.0, f64::max)
    }

    /// The smallest per-signal coverage fraction.
    pub fn min_coverage(&self) -> f64 {
        self.estimates
            .iter()
            .map(|e| e.coverage)
            .fold(1.0, f64::min)
    }
}

/// Reconstructs full-campaign totals from one sample series per planned
/// pass.
///
/// `passes[p]` must be the samples of a campaign run under
/// `plan.passes()[p]` — same trace, same faults, same node count — so
/// every series has identical length and timestamps. Interval `k`
/// (between samples `k−1` and `k`) is attributed to the rotation's
/// active pass `plan.pass_for_sweep(k)`; the other passes' interval-`k`
/// deltas are discarded, exactly as a real event-switching daemon never
/// observes the sets it is not currently counting.
pub fn reconstruct(
    plan: &SchedulePlan,
    passes: &[&[SystemSample]],
) -> Result<Reconstruction, ReconstructError> {
    if plan.n_passes() == 0 {
        return Err(ReconstructError::EmptyPlan);
    }
    if passes.len() != plan.n_passes() {
        return Err(ReconstructError::WrongPassCount {
            expected: plan.n_passes(),
            got: passes.len(),
        });
    }
    let n_samples = passes[0].len();
    for (p, series) in passes.iter().enumerate().skip(1) {
        if series.len() != n_samples {
            return Err(ReconstructError::MismatchedSeries {
                pass: p,
                expected: n_samples,
                got: series.len(),
            });
        }
        for (k, (a, b)) in passes[0].iter().zip(series.iter()).enumerate() {
            if a.t.to_bits() != b.t.to_bits() {
                return Err(ReconstructError::TimeSkew { pass: p, index: k });
            }
        }
    }
    let intervals = n_samples.saturating_sub(1);
    let total_seconds = if intervals > 0 {
        passes[0][n_samples - 1].t - passes[0][0].t
    } else {
        0.0
    };
    // Which pass observes each interval, resolved once.
    let active: Vec<usize> = (1..n_samples)
        .map(|k| plan.pass_for_sweep(k as u64))
        .collect();
    let durations: Vec<f64> = (1..n_samples)
        .map(|k| passes[0][k].t - passes[0][k - 1].t)
        .collect();

    let mut estimates = Vec::with_capacity(plan.requested().len());
    for &signal in plan.requested() {
        let slot_in_pass: Vec<Option<usize>> =
            plan.passes().iter().map(|s| s.slot_of(signal)).collect();
        // Per-interval observation: Some((events, dt)) when the active
        // pass watched the signal.
        let mut observed: u64 = 0;
        let mut observed_time = 0.0;
        let mut intervals_observed = 0usize;
        let obs: Vec<Option<(u64, f64)>> = (0..intervals)
            .map(|i| {
                let p = active[i];
                slot_in_pass[p].map(|slot| {
                    let s = &passes[p][i + 1];
                    (s.total.user[slot] + s.total.system[slot], durations[i])
                })
            })
            .collect();
        for o in obs.iter().flatten() {
            observed += o.0;
            observed_time += o.1;
            intervals_observed += 1;
        }

        let fully_observed = intervals_observed == intervals;
        let (estimate, coverage) = if fully_observed {
            // Full coverage: the plain sum, untouched — the bit-identity
            // contract for single-pass plans.
            (observed as f64, 1.0)
        } else if intervals_observed == 0 || observed_time <= 0.0 {
            (0.0, 0.0)
        } else {
            (
                observed as f64 * (total_seconds / observed_time),
                observed_time / total_seconds,
            )
        };

        let (lo, hi, error) = if fully_observed {
            (estimate, estimate, 0.0)
        } else if intervals_observed == 0 {
            (0.0, f64::INFINITY, f64::INFINITY)
        } else {
            bounds_from_neighbors(&obs, &durations, observed, estimate)
        };

        let rate = if total_seconds > 0.0 {
            estimate / total_seconds
        } else {
            0.0
        };
        estimates.push(SignalEstimate {
            signal,
            observed,
            estimate,
            rate,
            coverage,
            error,
            lo,
            hi,
            intervals_observed,
        });
    }
    Ok(Reconstruction {
        total_seconds,
        intervals,
        estimates,
    })
}

/// Fills each unobserved interval with the min/max per-interval rate of
/// the nearest observed neighbors to form `[lo, hi]` bounds, and derives
/// the relative error half-width.
fn bounds_from_neighbors(
    obs: &[Option<(u64, f64)>],
    durations: &[f64],
    observed: u64,
    estimate: f64,
) -> (f64, f64, f64) {
    let n = obs.len();
    // prev[i] / next[i]: the rate of the nearest observed interval at or
    // before / at or after i.
    let mut prev: Vec<Option<f64>> = vec![None; n];
    let mut carry = None;
    for i in 0..n {
        if let Some((ev, dt)) = obs[i] {
            carry = Some(ev as f64 / dt.max(1e-9));
        }
        prev[i] = carry;
    }
    let mut next: Vec<Option<f64>> = vec![None; n];
    carry = None;
    for i in (0..n).rev() {
        if let Some((ev, dt)) = obs[i] {
            carry = Some(ev as f64 / dt.max(1e-9));
        }
        next[i] = carry;
    }
    let mut lo = observed as f64;
    let mut hi = observed as f64;
    for i in 0..n {
        if obs[i].is_some() {
            continue;
        }
        let candidates = [prev[i], next[i]];
        let mut min_rate = f64::INFINITY;
        let mut max_rate: f64 = 0.0;
        for r in candidates.into_iter().flatten() {
            min_rate = min_rate.min(r);
            max_rate = max_rate.max(r);
        }
        if min_rate.is_finite() {
            lo += durations[i] * min_rate;
        }
        hi += durations[i] * max_rate;
    }
    let half_width = (hi - lo) / 2.0;
    let error = if half_width == 0.0 {
        0.0
    } else if estimate > 0.0 {
        half_width / estimate
    } else {
        f64::INFINITY
    };
    (lo, hi, error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{CounterSource, Daemon};
    use sp2_hpm::{CounterSnapshot, EventSet, Hpm, Mode};

    /// A 2-node machine whose per-interval work we script exactly.
    struct Rig {
        hpms: Vec<Hpm>,
    }

    impl Rig {
        fn new(selection: &sp2_hpm::CounterSelection) -> Self {
            Rig {
                hpms: (0..2).map(|_| Hpm::new(selection.clone())).collect(),
            }
        }
        fn work(&mut self, e: &EventSet) {
            for h in &mut self.hpms {
                h.absorb(e, Mode::User);
            }
        }
    }

    impl CounterSource for Rig {
        fn node_count(&self) -> usize {
            self.hpms.len()
        }
        fn node_available(&self, _node: usize) -> bool {
            true
        }
        fn snapshot(&self, node: usize) -> CounterSnapshot {
            self.hpms[node].snapshot()
        }
    }

    /// Runs the same scripted workload under every pass of `plan`,
    /// returning one sample series per pass.
    fn run_passes(
        plan: &SchedulePlan,
        intervals: usize,
        work: &[EventSet],
    ) -> Vec<Vec<SystemSample>> {
        plan.passes()
            .iter()
            .map(|sel| {
                let mut rig = Rig::new(sel);
                let mut d = Daemon::new(sel.clone(), 2);
                d.collect(&rig, 0.0);
                for k in 1..=intervals {
                    rig.work(&work[(k - 1) % work.len()]);
                    d.collect(&rig, 900.0 * k as f64);
                }
                d.samples().to_vec()
            })
            .collect()
    }

    #[test]
    fn single_pass_is_bit_identical_with_zero_error() {
        use Signal::*;
        let wanted = [Cycles, Fxu0Exec, Fpu0Add, IcuType1, DcacheReload];
        let plan = SchedulePlan::minimal(&wanted);
        assert!(plan.is_single_pass());
        let mut e = EventSet::new();
        e.bump(Cycles, 123_456_789);
        e.bump(Fxu0Exec, 42_000_000);
        e.bump(Fpu0Add, 7_777);
        let series = run_passes(&plan, 5, &[e]);
        let refs: Vec<&[SystemSample]> = series.iter().map(Vec::as_slice).collect();
        let r = reconstruct(&plan, &refs).expect("valid input");
        assert_eq!(r.intervals, 5);
        // Ground truth: the plain sum over the same series.
        for &s in &wanted {
            let slot = plan.passes()[0].slot_of(s);
            let truth: u64 = series[0]
                .iter()
                .map(|x| {
                    slot.map(|i| x.total.user[i] + x.total.system[i])
                        .unwrap_or(0)
                })
                .sum();
            let est = r.estimate(s).expect("requested");
            assert_eq!(est.estimate.to_bits(), (truth as f64).to_bits(), "{s:?}");
            assert_eq!(est.coverage.to_bits(), 1.0f64.to_bits());
            assert_eq!(est.error.to_bits(), 0.0f64.to_bits());
            assert_eq!(est.lo.to_bits(), est.hi.to_bits());
        }
        assert_eq!(r.max_error().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn rotated_full_request_covers_every_signal_with_bounds() {
        let plan = SchedulePlan::minimal(&Signal::ALL);
        assert_eq!(plan.n_passes(), 2);
        let mut e = EventSet::new();
        for s in Signal::ALL {
            e.bump(s, 1_000_000);
        }
        let series = run_passes(&plan, 8, &[e]);
        let refs: Vec<&[SystemSample]> = series.iter().map(Vec::as_slice).collect();
        let r = reconstruct(&plan, &refs).expect("valid input");
        for s in Signal::ALL {
            // The div erratum suppresses those counts, but the *estimate
            // machinery* must still report coverage and bounds.
            let est = r.estimate(s).expect("every signal requested");
            assert!(
                est.coverage > 0.0 && est.coverage <= 1.0,
                "{s:?} coverage {}",
                est.coverage
            );
            assert!(est.error >= 0.0 && est.error.is_finite(), "{s:?}");
            assert!(est.lo <= est.estimate && est.estimate <= est.hi, "{s:?}");
        }
    }

    #[test]
    fn stationary_workload_reconstructs_exactly_under_rotation() {
        use Signal::*;
        // 7 FXU signals -> 2 passes. Constant per-interval work means the
        // scaled estimate equals the true total exactly.
        let wanted = [
            Fxu0Exec,
            Fxu1Exec,
            DcacheMiss,
            TlbMiss,
            Cycles,
            StorageRefs,
            FxuStallCycles,
        ];
        let plan = SchedulePlan::minimal(&wanted);
        assert_eq!(plan.n_passes(), 2);
        let mut e = EventSet::new();
        e.bump(Cycles, 10_000);
        e.bump(Fxu0Exec, 4_000);
        let series = run_passes(&plan, 6, &[e]);
        let refs: Vec<&[SystemSample]> = series.iter().map(Vec::as_slice).collect();
        let r = reconstruct(&plan, &refs).expect("valid input");
        // Cycles: 2 nodes x 10_000 x 6 intervals = 120_000 true events.
        let est = r.estimate(Cycles).expect("requested");
        assert!(est.coverage < 1.0);
        assert!((est.estimate - 120_000.0).abs() < 1e-6, "{}", est.estimate);
        // Stationary rates: neighbors bound the truth tightly.
        assert!(est.lo <= est.estimate && est.estimate <= est.hi);
        assert!((est.hi - est.lo).abs() < 1e-6, "steady bounds collapse");
        assert_eq!(est.error, 0.0, "steady workload has zero bound width");
    }

    #[test]
    fn bursty_workload_gets_wide_bounds() {
        use Signal::*;
        let wanted = [
            Fxu0Exec,
            Fxu1Exec,
            DcacheMiss,
            TlbMiss,
            Cycles,
            StorageRefs,
            FxuStallCycles,
        ];
        let plan = SchedulePlan::minimal(&wanted);
        let mut quiet = EventSet::new();
        quiet.bump(Cycles, 100);
        let mut burst = EventSet::new();
        burst.bump(Cycles, 1_000_000);
        // Period-3 quiet/burst pattern against the period-2 rotation:
        // observed intervals see both extremes, so the neighbor bounds
        // around each unobserved interval disagree wildly.
        let series = run_passes(&plan, 6, &[quiet, burst, quiet]);
        let refs: Vec<&[SystemSample]> = series.iter().map(Vec::as_slice).collect();
        let r = reconstruct(&plan, &refs).expect("valid input");
        let est = r.estimate(Cycles).expect("requested");
        assert!(est.error > 0.1, "bursty error {}", est.error);
        assert!(est.hi > est.lo);
    }

    #[test]
    fn arity_and_alignment_are_typed_errors() {
        let plan = SchedulePlan::minimal(&[Signal::Cycles]);
        assert_eq!(
            reconstruct(&plan, &[]).unwrap_err(),
            ReconstructError::WrongPassCount {
                expected: 1,
                got: 0
            }
        );
        let empty = SchedulePlan::minimal(&[]);
        assert_eq!(
            reconstruct(&empty, &[]).unwrap_err(),
            ReconstructError::EmptyPlan
        );
        let two = SchedulePlan::minimal(&Signal::ALL);
        let series = {
            let mut e = EventSet::new();
            e.bump(Signal::Cycles, 1);
            super::tests::run_passes(&two, 3, &[e])
        };
        let short = &series[1][..2];
        assert_eq!(
            reconstruct(&two, &[&series[0], short]).unwrap_err(),
            ReconstructError::MismatchedSeries {
                pass: 1,
                expected: 4,
                got: 2
            }
        );
        let mut skewed = series[1].clone();
        skewed[2].t += 1.0;
        assert_eq!(
            reconstruct(&two, &[&series[0], &skewed]).unwrap_err(),
            ReconstructError::TimeSkew { pass: 1, index: 2 }
        );
    }
}
