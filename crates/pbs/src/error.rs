//! PBS request errors.
//!
//! The real PBS rejected malformed submissions at `qsub` time and
//! reported stale job ids from `qdel`/epilogue races; modeling those as
//! typed errors (instead of panics) lets the cluster runtime surface
//! them through its own fallible API.

use crate::job::JobId;
use std::fmt;

/// A PBS request the batch system refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbsError {
    /// A submission requesting zero nodes.
    ZeroNodeRequest {
        /// The offending job.
        id: JobId,
    },
    /// A submission requesting more nodes than the machine has.
    OversizedRequest {
        /// The offending job.
        id: JobId,
        /// Nodes requested.
        requested: u32,
        /// Machine size.
        machine: usize,
    },
    /// `release` of a job that is not running.
    NotRunning {
        /// The unknown or already-finished job.
        id: JobId,
    },
}

impl fmt::Display for PbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PbsError::ZeroNodeRequest { id } => {
                write!(f, "job {} requests zero nodes", id.0)
            }
            PbsError::OversizedRequest {
                id,
                requested,
                machine,
            } => write!(
                f,
                "job {} requests {requested} nodes but the machine has {machine}",
                id.0
            ),
            PbsError::NotRunning { id } => {
                write!(f, "job {} is not running", id.0)
            }
        }
    }
}

impl std::error::Error for PbsError {}
