//! Kernel signatures: measured event/cycle rates for cluster-scale replay.
//!
//! Cycle-simulating 144 nodes for nine months is ~10¹⁷ cycles. The real
//! HPM never did that either — hardware counted while the workload ran.
//! Our equivalent: *measure* each kernel once on the cycle simulator, then
//! replay its measured per-cycle event rates over arbitrarily long spans.
//! Every cluster-level number thus traces back to a microarchitecture
//! simulation, not to a hand-entered constant.

use crate::node::Node;
use sp2_hpm::{EventSet, Signal};
use sp2_isa::Kernel;

/// Measured behaviour of one kernel on one node configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSignature {
    /// Kernel name.
    pub name: String,
    /// Total events over the measured run.
    pub events: EventSet,
    /// Total cycles of the measured run.
    pub cycles: u64,
    /// Iterations measured.
    pub iters: u64,
    /// Clock the signature was measured at (Hz).
    pub clock_hz: f64,
}

impl KernelSignature {
    /// Measures `kernel` on `node` (warm start: the caller controls cache
    /// state; measuring long runs amortizes cold misses the same way a
    /// production code's startup vanishes in a multi-hour job).
    pub fn measure(node: &mut Node, kernel: &Kernel) -> Self {
        let report = node.run_kernel(kernel);
        KernelSignature {
            name: kernel.name.clone(),
            events: report.stats.events,
            cycles: report.stats.cycles.max(1),
            iters: kernel.iters,
            clock_hz: node.config().clock_hz,
        }
    }

    /// Events this kernel produces when run for `cycles` cycles,
    /// linearly scaled from the measurement.
    pub fn events_for_cycles(&self, cycles: u64) -> EventSet {
        self.events.scaled(cycles, self.cycles)
    }

    /// Events this kernel produces in `seconds` of wall time at its clock.
    pub fn events_for_seconds(&self, seconds: f64) -> EventSet {
        let cycles = (seconds * self.clock_hz).round().max(0.0) as u64;
        self.events_for_cycles(cycles)
    }

    /// Events per second for one signal.
    pub fn rate_per_second(&self, signal: Signal) -> f64 {
        self.events.get(signal) as f64 * self.clock_hz / self.cycles as f64
    }

    /// Achieved Mflops of the measured kernel.
    pub fn mflops(&self) -> f64 {
        self.events.flops_total() as f64 * self.clock_hz / self.cycles as f64 / 1e6
    }

    /// Achieved Mips (instructions across all units).
    pub fn mips(&self) -> f64 {
        self.events.instructions_total() as f64 * self.clock_hz / self.cycles as f64 / 1e6
    }

    /// Measured wall seconds of the signature run.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / self.clock_hz
    }

    /// Cycles needed to execute `iters` iterations at the measured rate.
    pub fn cycles_for_iters(&self, iters: u64) -> u64 {
        ((iters as u128 * self.cycles as u128) / self.iters.max(1) as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::sigcache::SignatureCache;
    use sp2_isa::KernelBuilder;

    fn stream_kernel(iters: u64) -> Kernel {
        let mut b = KernelBuilder::new("stream");
        let a = b.seq_array(8, 32 << 20);
        let x = b.load_double(a);
        let acc = b.fresh_fpr();
        b.fma_acc(acc, x, x);
        b.loop_back();
        b.build(iters)
    }

    #[test]
    fn measure_and_scale_linearity() {
        let cfg = MachineConfig::nas_sp2();
        let sig = SignatureCache::global().measure(&stream_kernel(50_000), &cfg, 1);
        let half = sig.events_for_cycles(sig.cycles / 2);
        let full = sig.events_for_cycles(sig.cycles);
        for s in [Signal::Fxu0Exec, Signal::DcacheMiss, Signal::Fpu0Fma] {
            let h = half.get(s) as f64;
            let f = full.get(s) as f64;
            if f > 100.0 {
                assert!(
                    (h * 2.0 - f).abs() / f < 0.01,
                    "{s:?} does not scale linearly: {h} vs {f}"
                );
            }
        }
    }

    #[test]
    fn rates_are_clock_scaled() {
        let cfg = MachineConfig::nas_sp2();
        let sig = SignatureCache::global().measure(&stream_kernel(20_000), &cfg, 2);
        let cyc_rate = sig.rate_per_second(Signal::Cycles);
        assert!((cyc_rate - cfg.clock_hz).abs() / cfg.clock_hz < 1e-9);
        assert!(sig.mflops() > 0.0);
        assert!(sig.mips() > 0.0);
    }

    #[test]
    fn events_for_seconds_matches_cycles_path() {
        let cfg = MachineConfig::nas_sp2();
        let sig = SignatureCache::global().measure(&stream_kernel(20_000), &cfg, 3);
        let a = sig.events_for_seconds(1.0);
        let b = sig.events_for_cycles(cfg.clock_hz as u64);
        assert_eq!(a.get(Signal::Fpu0Fma), b.get(Signal::Fpu0Fma));
    }

    #[test]
    fn cycles_for_iters_proportional() {
        let cfg = MachineConfig::nas_sp2();
        let sig = SignatureCache::global().measure(&stream_kernel(10_000), &cfg, 4);
        let c1 = sig.cycles_for_iters(10_000);
        let c2 = sig.cycles_for_iters(20_000);
        assert_eq!(c1, sig.cycles);
        assert!((c2 as f64 / c1 as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn determinism_same_seed() {
        let cfg = MachineConfig::nas_sp2();
        let a = SignatureCache::global().measure(&stream_kernel(5_000), &cfg, 9);
        let b = SignatureCache::global().measure(&stream_kernel(5_000), &cfg, 9);
        assert_eq!(a, b);
    }
}
