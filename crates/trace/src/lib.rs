//! Self-metering for the simulator — the layer the paper's own tool
//! chain is made of, turned inward.
//!
//! Bergeron's RS2HPM is a low-overhead observability system: hardware
//! counters accumulate for free, a daemon reads them on a fixed cadence,
//! and rate rules turn deltas into tables. This crate gives the
//! *simulator* the same treatment: every hot subsystem increments static
//! atomic [`Counter`]s and [`Timer`] spans, a collection pass snapshots
//! them into a [`MetricsSnapshot`], and the `sp2` front end renders the
//! result as text or JSON (`sp2 profile`, `sp2 --metrics`).
//!
//! Design constraints, in priority order:
//!
//! 1. **The simulation must not notice.** Metrics never feed back into
//!    simulated state, so campaign output is bit-identical with tracing
//!    on or off (enforced by `tests/metrics.rs` in the workspace root).
//! 2. **Near-zero cost when disabled.** Every record path first checks
//!    one process-global relaxed [`AtomicBool`]; when it is clear, a
//!    counter add is a load-and-branch and a span is a no-op guard.
//! 3. **Allocation-light when enabled.** Static metrics are `const`
//!    constructed atomics — no registry locks, no heap traffic on the
//!    hot path. Only the collection pass (a few times per process) and
//!    the low-frequency [`dynamic`] map allocate.
//!
//! Statics are process-wide and monotonic: a snapshot reports totals
//! since process start (or the last [`reset_all`] of the owning
//! subsystem), exactly like the SP2's free-running counters, and the
//! consumer differences snapshots if it wants intervals.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod dynamic;
pub mod events;
pub mod metric;
pub mod recorder;
pub mod snapshot;

pub use metric::{Counter, Gauge, MaxGauge, Span, Timer};
pub use snapshot::{MetricValue, MetricsSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-global master switch. Off by default: a binary that never
/// asks for metrics pays one relaxed load per record site and nothing
/// else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The flight-recorder switch, independent of [`enabled`]: [`events`]
/// spans and [`recorder`] sweeps record only while this is set. Off by
/// default; an event site costs one relaxed load while clear.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Turns metric capture on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric capture is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns flight-recorder capture (span events + interval time series)
/// on or off process-wide.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether the flight recorder is currently on.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that toggle the process-global flag.
    pub(crate) static FLAG_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn flag_toggles() {
        let _g = FLAG_LOCK.lock().unwrap();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn recording_flag_is_independent() {
        let _g = FLAG_LOCK.lock().unwrap();
        set_recording(true);
        assert!(recording());
        assert!(!enabled(), "recording does not imply metric capture");
        set_recording(false);
        assert!(!recording());
    }
}
