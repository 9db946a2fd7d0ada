//! The user-facing counter library.
//!
//! "For individual programs to be reported, users must place commands
//! into their batch scripts or preface interactive sessions with the
//! appropriate RS2HPM commands" (§3). A [`CounterSession`] is that
//! command pair: snapshot at start, snapshot at end, wrap-corrected delta
//! in between.

use crate::rates::RateReport;
use sp2_hpm::{CounterDelta, CounterSnapshot, Hpm};

/// An open measurement window over one node's monitor.
#[derive(Debug, Clone)]
pub struct CounterSession {
    start_snapshot: CounterSnapshot,
    start_time_s: f64,
}

impl CounterSession {
    /// Opens a session: records the starting counter state.
    pub fn open(hpm: &Hpm, now_s: f64) -> Self {
        CounterSession {
            start_snapshot: hpm.snapshot(),
            start_time_s: now_s,
        }
    }

    /// Reads the events since open without closing the session.
    pub fn read(&self, hpm: &Hpm) -> CounterDelta {
        CounterDelta::between(&self.start_snapshot, &hpm.snapshot())
    }

    /// Closes the session: returns the delta and a rate report over the
    /// elapsed window.
    ///
    /// # Panics
    /// Panics if `now_s` is not after the open time.
    pub fn close(self, hpm: &Hpm, now_s: f64) -> (CounterDelta, RateReport) {
        let delta = self.read(hpm);
        let seconds = now_s - self.start_time_s;
        let report = RateReport::from_delta(hpm.selection(), &delta, seconds);
        (delta, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, EventSet, Mode, Signal};

    #[test]
    fn session_measures_only_its_window() {
        let mut hpm = Hpm::new(nas_selection());
        // Pre-session activity that must not be counted.
        let mut pre = EventSet::new();
        pre.bump(Signal::Fxu0Exec, 1_000_000);
        hpm.absorb(&pre, Mode::User);

        let session = CounterSession::open(&hpm, 100.0);
        let mut work = EventSet::new();
        work.bump(Signal::Fxu0Exec, 66_700_000);
        hpm.absorb(&work, Mode::User);
        let (delta, report) = session.close(&hpm, 101.0);

        let slot = nas_selection().slot_of(Signal::Fxu0Exec).unwrap();
        assert_eq!(delta.user[slot], 66_700_000);
        assert!((report.mips_fxu0 - 66.7).abs() < 0.01);
    }

    #[test]
    fn read_is_non_destructive() {
        let mut hpm = Hpm::new(nas_selection());
        let session = CounterSession::open(&hpm, 0.0);
        let mut work = EventSet::new();
        work.bump(Signal::IcuType1, 500);
        hpm.absorb(&work, Mode::User);
        let d1 = session.read(&hpm);
        let d2 = session.read(&hpm);
        assert_eq!(d1, d2);
    }

    #[test]
    fn survives_counter_wrap() {
        let mut hpm = Hpm::new(nas_selection());
        // Push the cycle counter near wrap before the session opens.
        let mut warm = EventSet::new();
        warm.bump(Signal::Cycles, u32::MAX as u64 - 5);
        hpm.absorb(&warm, Mode::User);
        let session = CounterSession::open(&hpm, 0.0);
        let mut work = EventSet::new();
        work.bump(Signal::Cycles, 100);
        hpm.absorb(&work, Mode::User);
        let delta = session.read(&hpm);
        let slot = nas_selection().slot_of(Signal::Cycles).unwrap();
        assert_eq!(delta.user[slot], 100, "wrap-corrected");
    }
}
