//! Abstract POWER2 instruction set for the SP2 HPM reproduction.
//!
//! The POWER2 hardware performance monitor counts *events of an instruction
//! stream*: instructions executed per unit, cache/TLB misses triggered by
//! storage references, branches retired by the ICU. To regenerate those
//! events from first principles we model a small abstract ISA sufficient to
//! express the workloads the paper describes (CFD stencil sweeps, blocked
//! matrix multiply, streaming passes):
//!
//! - **Fixed-point ops** ([`op::FxOp`]): storage references (single/double/
//!   quad loads and stores — a quad counts as *one* instruction, the
//!   counting quirk the paper calls out), integer ALU ops, and the
//!   multiply/divide used for addressing (FXU1-only on POWER2).
//! - **Floating-point ops** ([`op::FpOp`]): add, multiply, divide, square
//!   root, and the compound multiply-add (`fma`) that produces two flops
//!   per instruction.
//! - **ICU ops**: branches (type I) and condition-register ops (type II).
//!
//! A [`kernel::Kernel`] is one loop body plus an iteration count and a set
//! of [`mem::AddrGen`] address generators; the `sp2-power2` simulator
//! replays the body through its pipeline model, resolving each storage
//! reference's virtual address from the named generator.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]
pub mod builder;
pub mod inst;
pub mod kernel;
pub mod mem;
pub mod op;
pub mod reg;

pub use builder::KernelBuilder;
pub use inst::Inst;
pub use kernel::{Kernel, KernelStatics};
pub use mem::{AddrGen, AddrPattern};
pub use op::{BrKind, FpOp, FxOp, Op};
pub use reg::RegId;
