//! Facade for the SP2 HPM reproduction.
//!
//! [`Sp2System`] wires the substrates together — the POWER2 node model,
//! the HPM, the RS2HPM tool chain, PBS, the switch, the synthetic NAS
//! workload, and the seeded fault layer — and runs campaigns on the
//! parallel engine. The public API is fallible: campaign and experiment
//! entry points return [`Result`] with the unified [`Sp2Error`], so
//! callers decide how a bad configuration or a failed engine run exits.
//! Every table and figure of the paper's evaluation is an
//! [`experiments::Experiment`] registered in
//! [`experiments::all_experiments`], and every rendered exhibit ends in
//! a data-quality footer describing how complete the underlying
//! (possibly fault-degraded) campaign data was:
//!
//! | Id | Paper content |
//! |---|---|
//! | `table1` | the NAS 22-counter selection |
//! | `table2` | Mips/Mops/Mflops, good days |
//! | `table3` | full rate breakdown |
//! | `table4` | hierarchical memory performance |
//! | `fig1` | daily Gflops + utilization history |
//! | `fig2` | walltime vs nodes requested |
//! | `fig3` | Mflops/node vs nodes requested |
//! | `fig4` | 16-node performance history |
//! | `fig5` | performance vs system intervention |
//! | `calibration` | §5 reference kernels (240 Mflops matmul etc.) |
//! | `iowait` | §7 extension: measured I/O-wait attribution |
//! | `toplev` | top-down bottleneck accounting + counter-group scheduler |
//! | `availability` | fault impact and measurement error vs a twin |
//! | `summary` | headline statistics vs the paper |
//!
//! ```no_run
//! use sp2_core::{experiments, Sp2Error, Sp2System};
//!
//! fn main() -> Result<(), Sp2Error> {
//!     let mut system = Sp2System::builder().days(30).threads(0).faults(0.05).build();
//!     let fig1 = system.dataset(experiments::experiment_or_err("fig1")?)?;
//!     println!("{}", fig1.rendered);
//!     Ok(())
//! }
//! ```

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod archive;
pub mod compare;
pub mod error;
pub mod experiments;
pub mod export;
pub mod json;
pub mod metrics;
pub mod plot;
pub mod render;
pub mod serve;
pub mod submission;
pub mod system;
pub mod timeline;
pub mod toplev;

pub use archive::{ArchiveCodec, ArchiveReader, ArchiveWriter, ColumnarCodec, TextCodec};
pub use compare::{CompareOutcome, CompareReport, Tolerance};
pub use error::Sp2Error;
pub use experiments::{
    all_experiments, experiment, experiment_or_err, DataQuality, Dataset, Experiment,
    ExperimentInput, SelectionKind,
};
pub use json::{Json, NdjsonWriter, ToJson};
pub use sp2_cluster::{CampaignResult, ClusterConfig, FaultPlan, FaultSummary};
pub use sp2_workload::{CampaignSpec, JobMix, WorkloadLibrary};
pub use submission::{Submission, SubmissionBuilder};
pub use system::{Sp2System, Sp2SystemBuilder};
