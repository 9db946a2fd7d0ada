//! System-mode kernel routines.
//!
//! The paper's key paging finding rests on *system-mode* counter activity:
//! "the instructions issued by the FXU and ICU while the processor was in
//! system mode exceeded those issued while the processor was in user mode"
//! for jobs that paged. We model the AIX page-fault path as a kernel — a
//! page-table walk, VMM bookkeeping, and copying the 4 kB page through the
//! cache — and *measure* it on the node simulator like any other kernel,
//! so the system-mode event mix (FXU/ICU heavy, almost no flops) emerges
//! from the same microarchitecture model.

use crate::config::MachineConfig;
use crate::sigcache::SignatureCache;
use crate::signature::KernelSignature;
use sp2_isa::{Kernel, KernelBuilder};

/// Builds the page-fault handler kernel: one iteration ≈ one fault.
///
/// Structure per fault:
/// - page-table / VMM data-structure walk: pointer-chasing word loads over
///   a region larger than the cache (kernel data is cold to a user job);
/// - free-list and pageout bookkeeping: integer ALU ops and branches;
/// - the 4 kB page copy: 256 quad loads + 256 quad stores.
pub fn page_fault_handler_kernel(faults: u64) -> Kernel {
    let mut b = KernelBuilder::new("aix-page-fault-handler");
    // VMM metadata: cold, pseudo-random word accesses.
    let vmm = b.random_array(8 << 20, 4);
    // Page frames: sequential quad copies, streaming through the cache.
    let src = b.seq_array(16, 16 << 20);
    let dst = b.seq_array(16, 16 << 20);

    // Fault entry: exception decode and table walk (8 dependent lookups).
    for _ in 0..8 {
        let _ = b.load_word(vmm);
        b.int_alu();
        b.cond_reg();
        b.cond_branch();
    }
    // Frame selection / free-list manipulation.
    for _ in 0..12 {
        b.int_alu();
    }
    b.int_mul();
    // Copy one 4 kB page: 256 quad loads + 256 quad stores (16 B each).
    for _ in 0..256 {
        let (d0, d1) = b.load_quad(src);
        b.store_quad(dst, d0, d1);
    }
    // Pageout queue update and exit.
    for _ in 0..6 {
        b.int_alu();
    }
    b.cond_branch();
    b.loop_back();
    // The VMM fault path is a large, scattered code footprint: several
    // hundred I-cache lines revisited on every fault burst.
    b.code_footprint(192, 64);
    b.build(faults)
}

/// Builds the RS2HPM daemon sampling routine: one iteration ≈ one 15-min
/// sample of all counters on a node (read 22 counters via the kernel
/// extension, format, and send over TCP).
pub fn daemon_sample_kernel(samples: u64) -> Kernel {
    let mut b = KernelBuilder::new("rs2hpm-daemon-sample");
    let counters = b.tile_array(4, 4096);
    let buf = b.seq_array(8, 1 << 20);
    for _ in 0..22 {
        let _ = b.load_word(counters);
        b.int_alu();
    }
    for _ in 0..64 {
        let x = b.load_double(buf);
        b.store_double(buf, x);
        b.int_alu();
    }
    b.cond_branch();
    b.loop_back();
    b.build(samples)
}

/// Measures the per-fault system-mode signature on the NAS node.
pub fn page_fault_signature(config: &MachineConfig) -> KernelSignature {
    // 2000 simulated faults amortize cold-start effects.
    SignatureCache::global().measure(&page_fault_handler_kernel(2_000), config, 0xFA017)
}

/// Measures the per-sample daemon cost on the NAS node.
pub fn daemon_sample_signature(config: &MachineConfig) -> KernelSignature {
    SignatureCache::global().measure(&daemon_sample_kernel(2_000), config, 0xDAE30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::Signal;

    #[test]
    fn handler_is_fxu_and_icu_heavy_with_no_flops() {
        let cfg = MachineConfig::nas_sp2();
        let sig = page_fault_signature(&cfg);
        let fxu = sig.events.fxu_total();
        let fpu = sig.events.fpu_total();
        let icu = sig.events.icu_total();
        assert!(fxu > 10 * fpu.max(1), "handler must be FXU-dominated");
        assert!(icu > 0, "handler executes branches");
        assert_eq!(sig.events.flops_total(), 0, "paging does no flops");
    }

    #[test]
    fn handler_cost_is_thousands_of_cycles_per_fault() {
        let cfg = MachineConfig::nas_sp2();
        let sig = page_fault_signature(&cfg);
        let per_fault = sig.cycles as f64 / sig.iters as f64;
        // Copying 4 kB through the memory hierarchy plus VMM walk: the
        // CPU-side cost of a fault is on the order of 10³–10⁴ cycles.
        assert!(
            (800.0..30_000.0).contains(&per_fault),
            "per-fault cycles {per_fault:.0} outside plausible band"
        );
    }

    #[test]
    fn handler_misses_in_cache_and_tlb() {
        let cfg = MachineConfig::nas_sp2();
        let sig = page_fault_signature(&cfg);
        assert!(sig.events.get(Signal::DcacheMiss) > 0);
        assert!(sig.events.get(Signal::TlbMiss) > 0);
        assert!(
            sig.events.get(Signal::DcacheStore) > 0,
            "page copy casts out"
        );
    }

    #[test]
    fn daemon_sample_is_cheap_relative_to_faults() {
        let cfg = MachineConfig::nas_sp2();
        let fault = page_fault_signature(&cfg);
        let daemon = daemon_sample_signature(&cfg);
        let per_fault = fault.cycles as f64 / fault.iters as f64;
        let per_sample = daemon.cycles as f64 / daemon.iters as f64;
        assert!(
            per_sample < per_fault,
            "a counter sample must cost less than a page fault"
        );
    }

    #[test]
    fn signatures_deterministic() {
        let cfg = MachineConfig::nas_sp2();
        assert_eq!(page_fault_signature(&cfg), page_fault_signature(&cfg));
    }
}
