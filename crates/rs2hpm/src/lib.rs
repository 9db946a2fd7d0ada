//! RS2HPM: the monitoring tool chain (Maki 1995, Saphir 1996).
//!
//! On the real machine this was a library, a data-collection daemon, a
//! kernel extension, and PBS prologue/epilogue integration. Here:
//!
//! - [`session`] — the user-facing library: open a counter session on a
//!   node's monitor, read start/stop snapshots, get wrap-corrected deltas
//!   (what a user put in their batch script).
//! - [`rates`] — the rate rules that turn counter deltas into the
//!   Mips/Mops/Mflops numbers of Tables 2–3, including the fma accounting
//!   (an fma's multiply is in the fma bucket, its add in the add bucket)
//!   and the miss-ratio estimates of Table 4 (FXU0+FXU1 as the
//!   memory-instruction lower bound).
//! - [`daemon`] — the system-wide collector: samples every available
//!   node at a 15-minute cadence, whether or not user processes run.
//! - [`jobreport`] — the PBS prologue/epilogue path: per-job counter
//!   deltas over exactly the job's nodes and residency window.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod daemon;
pub mod jobreport;
pub mod metrics;
pub mod multiplex;
pub mod rates;
pub mod session;

pub use daemon::{Daemon, SystemSample, PLAUSIBLE_DELTA_MAX, SAMPLE_INTERVAL_S};
pub use jobreport::JobCounterReport;
pub use multiplex::{reconstruct, ReconstructError, Reconstruction, SignalEstimate};
pub use rates::{BottleneckSplit, RateReport};
pub use session::CounterSession;
