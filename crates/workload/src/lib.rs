//! Synthetic NAS CFD workload.
//!
//! The paper's workload (§4): computational fluid dynamics — multi-block
//! grids around complete aircraft, domain-decomposed across nodes with
//! nearest-neighbor message passing; multidisciplinary optimization sweeps
//! (embarrassingly parallel); ported codes with no POWER2 tuning (poor
//! register reuse, flops/memref ≈ 0.5–1.0); plus the tuned reference
//! points the paper quotes (the 240 Mflops blocked matrix multiply, the
//! NPB BT solver, pure sequential access).
//!
//! Everything here is built from [`sp2_isa`] kernels and *measured* on the
//! [`sp2_power2`] node simulator:
//!
//! - [`kernels`] — parameterized kernel generators for the code families
//!   the paper's evaluation references.
//! - [`library`] — the palette of measured [`KernelSignature`]s (program
//!   variants with jittered parameters reproduce the spread of Figure 4).
//! - [`program`] — what a batch job runs: a kernel plus its communication,
//!   disk-I/O, and per-node memory demands.
//! - [`jobmix`] — distributions of node counts, durations, and program
//!   families (the 16-node mode of Figure 2).
//! - [`trace`] — the 270-day submission trace of the measured campaign.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]
pub mod jobmix;
pub mod kernels;
pub mod library;
pub mod program;
pub mod trace;

pub use jobmix::JobMix;
pub use kernels::{
    blocked_matmul_kernel, cfd_kernel, naive_matmul_kernel, seqaccess_kernel, CfdKernelParams,
};
pub use library::WorkloadLibrary;
pub use program::{CommSpec, JobProgram, ProgramFamily, ProgramId};
pub use sp2_power2::KernelSignature;
pub use trace::{CampaignSpec, CampaignSpecBuilder, CampaignSpecError, SubmittedJob};
