//! Portable Batch System (PBS) model.
//!
//! NAS ran its own PBS on the SP2 (paper §2): parallel job scheduling,
//! direct enforcement of resource allocation, dedicated node access, and —
//! because MPI/PVM jobs could not be checkpointed — *queue draining* to
//! let jobs requesting more than 64 nodes run at all (§6). The pieces the
//! paper's evaluation depends on:
//!
//! - **Dedicated allocation**: a node runs one job at a time; utilization
//!   is "the fraction of elapsed time the SP2 nodes were servicing PBS
//!   jobs" (Figure 1's utilization trace).
//! - **FCFS + backfill + drain** ([`scheduler::Pbs`]): moderate jobs flow
//!   through; >64-node jobs force a drain, which is why they accumulate
//!   essentially no walltime (Figure 2).
//! - **Prologue/epilogue hooks**: counter snapshots at job start/end are
//!   the entire per-job dataset (Figures 3–5); the scheduler surfaces
//!   start/finish transitions so the cluster can snapshot its monitors.
//! - **Accounting** ([`accounting`]): job records drive Figure 2's
//!   walltime histogram and the utilization series.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod accounting;
pub mod error;
pub mod job;
pub mod metrics;
pub mod scheduler;

pub use accounting::{utilization, walltime_histogram, JobOutcome, JobRecord};
pub use error::PbsError;
pub use job::{JobId, JobSpec, JobState};
pub use scheduler::{Pbs, StartedJob};
