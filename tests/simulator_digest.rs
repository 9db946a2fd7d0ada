//! Bit-identity pin for the cycle simulator.
//!
//! Every counter the reproduction reports comes from `Node::run_kernel`,
//! so a change to the simulator's hot loop must leave its output
//! untouched down to the last event. These tests run every kernel
//! constructor through `Node::run_kernel` on the NAS machine and on the
//! three microarchitectural ablations of
//! `crates/bench/benches/ablations.rs`, fold each run's full `RunStats`
//! (cycles, instructions, stall cycles and all 28 signals) into one
//! FNV-1a-128 digest per machine, and compare it with the digest the
//! simulator produced before its dispatch loop was rewritten.
//!
//! A deliberate model change updates the constants; anything else that
//! moves them is a bug.

use sp2_repro::hpm::Signal;
use sp2_repro::isa::Kernel;
use sp2_repro::power2::handler::{daemon_sample_kernel, page_fault_handler_kernel};
use sp2_repro::power2::{Fnv128, FpuDispatch, MachineConfig, Node, WritePolicy};
use sp2_repro::workload::kernels::{
    blas3_kernel, blocked_matmul_kernel, cfd_kernel, naive_matmul_kernel, seqaccess_kernel,
    spectral_kernel, CfdKernelParams,
};
use std::hash::Hasher;

/// Long enough that both CFD variants cross a routine switch
/// (`routine_period` 20 000 and 40 000) and every generator wraps or
/// jumps at least once.
const ITERS: u64 = 45_000;

fn corpus() -> Vec<Kernel> {
    vec![
        blocked_matmul_kernel(ITERS),
        naive_matmul_kernel(ITERS),
        seqaccess_kernel(4 * ITERS),
        blas3_kernel(ITERS),
        spectral_kernel("spectral", 4_096 << 3, ITERS),
        cfd_kernel("cfd", &CfdKernelParams::default(), ITERS),
        cfd_kernel("npb-bt", &CfdKernelParams::npb_bt(), ITERS),
        page_fault_handler_kernel(2_000),
        daemon_sample_kernel(2_000),
    ]
}

/// FNV-1a-128 over every kernel's full `RunStats` on `machine`.
fn digest(machine: MachineConfig) -> u128 {
    let mut h = Fnv128::new();
    for kernel in corpus() {
        let stats = Node::with_seed(machine, 1998).run_kernel(&kernel);
        h.write(kernel.name.as_bytes());
        h.write_u64(stats.cycles);
        h.write_u64(stats.instructions);
        h.write_u64(stats.stall_cycles);
        for signal in Signal::ALL {
            h.write_u64(stats.events.get(signal));
        }
    }
    h.finish128()
}

fn assert_digest(machine: MachineConfig, expected: u128, label: &str) {
    let got = digest(machine);
    assert_eq!(
        got, expected,
        "{label}: simulator output moved (digest {got:032x})"
    );
}

#[test]
fn nas_machine_output_is_pinned() {
    assert_digest(
        MachineConfig::nas_sp2(),
        0x6e0b68abcfcd2e5076c22a79e8e909a2,
        "nas_sp2",
    );
}

#[test]
fn round_robin_fpu_dispatch_output_is_pinned() {
    let mut m = MachineConfig::nas_sp2();
    m.fpu_dispatch = FpuDispatch::RoundRobin;
    assert_digest(
        m,
        0x8ea11ec58c1698c3de6fd1e5cbec44f3,
        "round-robin FPU dispatch",
    );
}

#[test]
fn short_line_dcache_output_is_pinned() {
    let mut m = MachineConfig::nas_sp2();
    m.dcache.line_bytes = 128;
    assert_digest(
        m,
        0x715eeb1297bb6d7d091014547f9e8bf9,
        "128-byte D-cache lines",
    );
}

#[test]
fn write_through_dcache_output_is_pinned() {
    let mut m = MachineConfig::nas_sp2();
    m.dcache_policy = WritePolicy::WriteThrough;
    assert_digest(
        m,
        0x56eace8f0cdb37ae039f8d31675011f2,
        "write-through D-cache",
    );
}
