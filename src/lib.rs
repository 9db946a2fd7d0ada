//! Umbrella crate for the SP2 HPM reproduction workspace.
//!
//! Re-exports every subsystem crate under one roof so the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`)
//! can reach the whole system through a single dependency.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use sp2_cluster as cluster;
pub use sp2_core as core;
pub use sp2_hpm as hpm;
pub use sp2_isa as isa;
pub use sp2_pbs as pbs;
pub use sp2_power2 as power2;
pub use sp2_rs2hpm as rs2hpm;
pub use sp2_stats as stats;
pub use sp2_trace as trace;
pub use sp2_workload as workload;
