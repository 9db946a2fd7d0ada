//! Self-metering for the simulator — the layer the paper's own tool
//! chain is made of, turned inward.
//!
//! Bergeron's RS2HPM is a low-overhead observability system: hardware
//! counters accumulate for free, a daemon reads them on a fixed cadence,
//! and rate rules turn deltas into tables. This crate gives the
//! *simulator* the same treatment: every hot subsystem increments static
//! atomic [`Counter`]s and [`Timer`] spans and lists them once, in a
//! table of [`Metric`]s. A collection pass snapshots the tables into a
//! [`MetricsSnapshot`], which the `sp2` front end renders as text or
//! JSON (`sp2 profile`, `sp2 --metrics`), and a [`Recording`] samples
//! them as raw rows every simulated daemon sweep (`sp2 timeline`).
//!
//! Design constraints, in priority order:
//!
//! 1. **The simulation must not notice.** Metrics never feed back into
//!    simulated state, so campaign output is bit-identical with tracing
//!    on or off (enforced by `tests/metrics.rs` in the workspace root).
//! 2. **Near-zero cost when disabled.** Every record path first reads
//!    the calling thread's switch ([`enabled`], [`recording`]); when it
//!    is off, a counter add is a load-and-branch and a span is a no-op
//!    guard.
//! 3. **Allocation-light when enabled.** Static metrics are `const`
//!    constructed atomics — no registry locks, no heap traffic on the
//!    hot path. Only the collection pass (a few times per process) and
//!    the low-frequency [`dynamic`] map allocate.
//!
//! The switches belong to the calling thread: a thread
//! records while its own switch is on or a [`Recording`] is current on
//! it, and a thread it starts records only when handed its [`Context`].
//! The statics themselves are process-wide and monotonic: a snapshot
//! reports totals since process start (or the last `reset` of the owning
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

mod context;
pub mod dynamic;
pub mod events;
pub mod metric;
pub mod recorder;
pub mod snapshot;

pub use context::{enabled, recording, set_enabled, Context, Recording};
pub use metric::{Counter, Gauge, MaxGauge, Metric, Span, Timer};
pub use snapshot::{MetricValue, MetricsSnapshot};
