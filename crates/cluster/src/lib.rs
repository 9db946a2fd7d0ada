//! Discrete-event simulation of the 144-node NAS SP2.
//!
//! Ties every substrate together: jobs arrive from the workload trace,
//! PBS allocates dedicated nodes, each node's HPM counters advance at the
//! rates its job's *measured* kernel signature prescribes, halo exchanges
//! cost the High Performance Switch's latency and bandwidth and land in
//! DMA counters, memory oversubscription invokes the measured
//! page-fault-handler signature in system mode, the RS2HPM daemon samples
//! all nodes every 15 minutes, and PBS prologue/epilogue hooks snapshot
//! per-job counters.
//!
//! The output ([`result::CampaignResult`]) contains exactly the datasets
//! the paper's evaluation is built from:
//!
//! - the daemon's 15-minute [`sp2_rs2hpm::SystemSample`] trace → Figure 1,
//!   Tables 2–3 (daily filtering), the 5.7 Gflops peak-interval stat;
//! - per-job [`sp2_rs2hpm::JobCounterReport`]s → Figures 3, 4, 5;
//! - PBS accounting records → Figure 2 and the utilization series.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

pub mod activity;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod paging;
pub mod result;
pub mod rotate;
pub mod sim;
pub mod state;

pub use activity::ActivityPlan;
pub use engine::{EngineConfig, EngineKind, NodeBank};
pub use faults::{FaultPlan, Outage};
pub use paging::PagingModel;
pub use result::{CampaignResult, FaultSummary};
pub use rotate::{run_campaign_rotated, RotatedCampaign};
pub use sim::{
    run_campaign_cfg_cancellable, Campaign, CampaignError, CancelToken, ClusterConfig,
    ClusterConfigBuilder, ClusterConfigError,
};
pub use sp2_rs2hpm::SystemSample;
pub use state::NodeState;
