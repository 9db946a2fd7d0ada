//! Machine parameters of the NAS SP2 node (paper §2).

use crate::cache::{CacheConfig, WritePolicy};

/// FPU dispatch policy (ablation: the paper attributes the 1.7 FPU0/FPU1
/// ratio to the FPU0-first policy plus dependency-limited ILP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuDispatch {
    /// The POWER2 policy: send to FPU0 until a dependency or multicycle
    /// op ties it up, then fall over to FPU1.
    Fpu0First,
    /// Strict alternation between the units (ablation baseline).
    RoundRobin,
}

/// Configuration of one RS6000/590 POWER2 node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Clock rate in Hz (66.7 MHz on the NAS SP2).
    pub clock_hz: f64,
    /// Data cache geometry (256 kB, 4-way, 256-byte lines).
    pub dcache: CacheConfig,
    /// Instruction cache geometry (32 kB, 2-way, 128-byte lines).
    pub icache: CacheConfig,
    /// TLB entries (512 on the RISC System/6000).
    pub tlb_entries: usize,
    /// TLB associativity (2-way).
    pub tlb_ways: usize,
    /// Virtual memory page size in bytes (4096).
    pub page_bytes: u64,
    /// Cycles execution halts on a D-cache miss (8, paper §5).
    pub dcache_miss_penalty: u64,
    /// Minimum TLB-miss delay in cycles (36, paper §5).
    pub tlb_penalty_min: u64,
    /// Maximum TLB-miss delay in cycles (54, paper §5).
    pub tlb_penalty_max: u64,
    /// Instructions the ICU can dispatch per cycle (4).
    pub dispatch_width: u64,
    /// Pipelined FPU latency for add/mul/fma, in cycles.
    pub fpu_latency: u64,
    /// Divide occupancy in cycles (10-cycle multicycle op).
    pub fdiv_cycles: u64,
    /// Square-root occupancy in cycles (15-cycle multicycle op).
    pub fsqrt_cycles: u64,
    /// Load-use latency on a D-cache hit, in cycles.
    pub load_hit_latency: u64,
    /// Integer multiply occupancy on FXU1, in cycles.
    pub imul_cycles: u64,
    /// Integer divide occupancy on FXU1, in cycles.
    pub idiv_cycles: u64,
    /// Extra cycles FXU0 is tied up administering each D-cache miss
    /// (directory update while the line streams in).
    pub fxu0_miss_occupancy: u64,
    /// Node main memory in bytes (≥ 128 MB on the NAS SP2).
    pub memory_bytes: u64,
    /// FPU dispatch policy.
    pub fpu_dispatch: FpuDispatch,
    /// Data-cache store policy (write-back on the POWER2).
    pub dcache_policy: WritePolicy,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::nas_sp2()
    }
}

impl MachineConfig {
    /// The NAS SP2 node as described in the paper.
    pub fn nas_sp2() -> Self {
        MachineConfig {
            clock_hz: 66.7e6,
            dcache: CacheConfig {
                bytes: 256 * 1024,
                ways: 4,
                line_bytes: 256,
            },
            icache: CacheConfig {
                bytes: 32 * 1024,
                ways: 2,
                line_bytes: 128,
            },
            tlb_entries: 512,
            tlb_ways: 2,
            page_bytes: 4096,
            dcache_miss_penalty: 8,
            tlb_penalty_min: 36,
            tlb_penalty_max: 54,
            dispatch_width: 4,
            fpu_latency: 2,
            fdiv_cycles: 10,
            fsqrt_cycles: 15,
            load_hit_latency: 1,
            imul_cycles: 2,
            idiv_cycles: 13,
            fxu0_miss_occupancy: 2,
            memory_bytes: 128 << 20,
            fpu_dispatch: FpuDispatch::Fpu0First,
            dcache_policy: WritePolicy::WriteBack,
        }
    }

    /// Peak Mflops: both FPUs retiring an fma (2 flops) every cycle —
    /// 4 flops/cycle, 267 Mflops at 66.7 MHz (paper §2).
    pub fn peak_mflops(&self) -> f64 {
        4.0 * self.clock_hz / 1e6
    }

    /// Converts a cycle count to seconds at this clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// Converts seconds to cycles at this clock (rounded down).
    pub fn seconds_to_cycles(&self, seconds: f64) -> u64 {
        (seconds * self.clock_hz) as u64
    }

    /// Mean TLB-miss penalty (the 36–54 range is drawn uniformly).
    pub fn tlb_penalty_mean(&self) -> f64 {
        (self.tlb_penalty_min + self.tlb_penalty_max) as f64 / 2.0
    }

    /// Checks that a [`crate::Node`] can be built on this machine: line
    /// and page sizes and every set count are powers of two, each
    /// associativity is at least 1 and divides its structure evenly, the
    /// TLB penalty range is ordered, and the ICU dispatches something.
    ///
    /// A configuration read from outside the program (an archive header)
    /// must pass this before it reaches the cache and TLB constructors,
    /// which panic on an impossible geometry.
    pub fn validate(&self) -> Result<(), String> {
        for (name, c) in [("dcache", &self.dcache), ("icache", &self.icache)] {
            if !c.line_bytes.is_power_of_two() {
                return Err(format!(
                    "{name} line size {} is not a power of two",
                    c.line_bytes
                ));
            }
            if c.ways == 0 || !c.lines().is_multiple_of(c.ways) {
                return Err(format!(
                    "{name}: {} lines do not divide into {} ways",
                    c.lines(),
                    c.ways
                ));
            }
            if !c.sets().is_power_of_two() {
                return Err(format!(
                    "{name} set count {} is not a power of two",
                    c.sets()
                ));
            }
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(format!(
                "page size {} is not a power of two",
                self.page_bytes
            ));
        }
        if self.tlb_ways == 0 || !self.tlb_entries.is_multiple_of(self.tlb_ways) {
            return Err(format!(
                "tlb: {} entries do not divide into {} ways",
                self.tlb_entries, self.tlb_ways
            ));
        }
        let tlb_sets = self.tlb_entries / self.tlb_ways;
        if !tlb_sets.is_power_of_two() {
            return Err(format!("tlb set count {tlb_sets} is not a power of two"));
        }
        if self.tlb_penalty_min > self.tlb_penalty_max {
            return Err(format!(
                "tlb penalty range {}..={} is empty",
                self.tlb_penalty_min, self.tlb_penalty_max
            ));
        }
        if self.dispatch_width == 0 {
            return Err("dispatch width must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nas_peak_is_267_mflops() {
        let c = MachineConfig::nas_sp2();
        assert!((c.peak_mflops() - 266.8).abs() < 0.1);
    }

    #[test]
    fn dcache_geometry_matches_paper() {
        let c = MachineConfig::nas_sp2();
        assert_eq!(c.dcache.bytes, 262_144);
        assert_eq!(c.dcache.lines(), 1024); // "1024 lines of 256 bytes"
        assert_eq!(c.dcache.sets(), 256);
    }

    #[test]
    fn tlb_and_page_match_paper() {
        let c = MachineConfig::nas_sp2();
        assert_eq!(c.tlb_entries, 512);
        assert_eq!(c.page_bytes, 4096);
        assert_eq!(c.tlb_penalty_mean(), 45.0);
    }

    #[test]
    fn shipped_and_ablation_machines_validate() {
        let base = MachineConfig::nas_sp2();
        let mut round_robin = base;
        round_robin.fpu_dispatch = FpuDispatch::RoundRobin;
        let mut short_lines = base;
        short_lines.dcache.line_bytes = 128;
        let mut fixed_penalty = base;
        fixed_penalty.tlb_penalty_min = 45;
        fixed_penalty.tlb_penalty_max = 45;
        for m in [base, round_robin, short_lines, fixed_penalty] {
            assert_eq!(m.validate(), Ok(()));
        }
    }

    #[test]
    fn time_conversions_roundtrip() {
        let c = MachineConfig::nas_sp2();
        let cycles = 66_700_000;
        assert!((c.cycles_to_seconds(cycles) - 1.0).abs() < 1e-9);
        assert_eq!(c.seconds_to_cycles(1.0), cycles);
    }
}
