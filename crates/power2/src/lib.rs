//! Cycle-approximate IBM POWER2 (RS6000/590) node simulator.
//!
//! This crate is the substrate under every number in the paper: it replays
//! abstract instruction streams ([`sp2_isa::Kernel`]s) through a model of
//! the POWER2's units and memory hierarchy and emits the raw event vector
//! ([`sp2_hpm::EventSet`]) the hardware performance monitor counts.
//!
//! Modeled per the paper's §2 description and the penalties its §5
//! analysis uses:
//!
//! - **ICU**: fetches from the I-cache, dispatches up to 4 instructions
//!   per cycle, executes branches (type I) and condition-register ops
//!   (type II) itself.
//! - **FXU0/FXU1**: all storage references and integer arithmetic; the
//!   addressing multiply/divide runs only on FXU1; FXU0 carries the extra
//!   work of cache-miss handling — the source of the FXU asymmetry the
//!   paper discusses.
//! - **FPU0/FPU1**: pipelined add/mul/fma, multicycle divide (10 cycles)
//!   and square root (15 cycles); floating-point stores overlap with
//!   arithmetic. Dispatch prefers FPU0 and falls over to FPU1 on
//!   dependencies/occupancy — the origin of the observed 1.7 FPU0/FPU1
//!   instruction ratio.
//! - **D-cache**: 256 kB, 4-way, 256-byte lines, write-back with
//!   write-allocate; castouts are the `dcache_store` SCU events.
//! - **TLB**: 512 entries over 4 kB pages; a miss costs 36–54 cycles.
//! - A D-cache miss halts execution for 8 cycles (paper §5).
//!
//! [`signature::KernelSignature`] condenses a simulated kernel into
//! per-iteration event/cycle rates so the cluster simulation can replay
//! nine months of workload without cycle-simulating 10¹⁷ cycles.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]
pub mod batch;
pub mod cache;
pub mod config;
pub mod handler;
pub mod metrics;
pub mod node;
pub mod sigcache;
pub mod signature;
pub mod tlb;

pub use batch::{BatchDelta, CounterBatch};
pub use cache::{AccessOutcome, Cache, CacheConfig, WritePolicy};
pub use config::{FpuDispatch, MachineConfig};
pub use node::{KernelReport, KernelRun, Node, RunStats};
pub use sigcache::{Fnv128, SignatureCache};
pub use signature::{measure_on_fresh_node, KernelSignature};
pub use tlb::Tlb;

use std::sync::atomic::{AtomicBool, Ordering};

/// The argument `WorkloadLibrary::build_with` still takes. Every kernel
/// run is cycle-exact; the type remains only because the end-to-end
/// benchmark in `perfbench/` names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastForward {
    /// The only policy: simulate every iteration.
    Auto,
}

/// Process-global switch for the batch campaign engine's
/// cluster-interval sweep elision (the `--no-fast-forward` escape
/// hatch). On by default; results are bit-identical either way, so the
/// switch exists for A/B timing and for distrust.
static FAST_FORWARD: AtomicBool = AtomicBool::new(true);

/// Enables or disables sweep elision for subsequent campaigns
/// process-wide.
pub fn set_fast_forward_enabled(enabled: bool) {
    FAST_FORWARD.store(enabled, Ordering::Relaxed);
}

/// Whether campaigns that leave `EngineConfig::fast_forward` unset
/// elide steady sweeps. The switch lives here rather than in
/// `sp2-cluster`, which reads it, because the end-to-end benchmark in
/// `perfbench/` checks it through this crate.
pub fn fast_forward_enabled() -> bool {
    FAST_FORWARD.load(Ordering::Relaxed)
}
