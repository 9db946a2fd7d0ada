//! The workload library: every program variant plus its measured
//! signature on the NAS node.
//!
//! The spread in Figures 3 and 4 (16-node jobs averaging 320 Mflops with
//! a ±200 Mflops spread) comes from *code* variety, not randomness at the
//! reporting layer: the library jitters the CFD kernel parameters across
//! variants and measures each variant on the cycle simulator. A job then
//! simply runs one of these programs.

use crate::kernels::{
    blas3_kernel, blocked_matmul_kernel, cfd_kernel, naive_matmul_kernel, seqaccess_kernel,
    spectral_kernel, CfdKernelParams,
};
use crate::program::{CommSpec, JobProgram, ProgramFamily, ProgramId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp2_isa::Kernel;
use sp2_power2::{FastForward, KernelSignature, MachineConfig, SignatureCache};

/// Iterations used when measuring each kernel variant. Long enough that
/// cold-start effects vanish below 1 %.
const MEASURE_ITERS: u64 = 60_000;

/// The full palette of programs and their measured signatures.
#[derive(Debug, Clone)]
pub struct WorkloadLibrary {
    programs: Vec<JobProgram>,
    signatures: Vec<KernelSignature>,
    config: MachineConfig,
}

impl WorkloadLibrary {
    /// Builds and measures the standard NAS palette.
    ///
    /// `seed` controls the parameter jitter (and only that — measurement
    /// itself is deterministic given the kernel).
    ///
    /// The kernels are generated first, then measured as one
    /// [`SignatureCache::measure_all`] batch across the host's cores;
    /// the library is the same at any core count.
    pub fn build(config: &MachineConfig, seed: u64) -> Self {
        let Palette { programs, jobs } = Palette::generate(seed);
        let signatures = SignatureCache::global().measure_all(&jobs, config);
        WorkloadLibrary {
            programs,
            signatures,
            config: *config,
        }
    }

    /// [`WorkloadLibrary::build`]; the policy has one value. Kept because
    /// the end-to-end benchmark in `perfbench/` calls it.
    pub fn build_with(config: &MachineConfig, seed: u64, _: FastForward) -> Self {
        Self::build(config, seed)
    }

    /// The machine the signatures were measured on.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// All programs.
    pub fn programs(&self) -> &[JobProgram] {
        &self.programs
    }

    /// Program by id.
    pub fn program(&self, id: ProgramId) -> &JobProgram {
        &self.programs[id.0]
    }

    /// The measured signature a program runs.
    pub fn signature_of(&self, id: ProgramId) -> &KernelSignature {
        &self.signatures[self.program(id).signature]
    }

    /// All signatures (diagnostics).
    pub fn signatures(&self) -> &[KernelSignature] {
        &self.signatures
    }

    /// Program ids belonging to a family.
    pub fn family_ids(&self, family: ProgramFamily) -> Vec<ProgramId> {
        self.programs
            .iter()
            .filter(|p| p.family == family)
            .map(|p| p.id)
            .collect()
    }

    /// Program ids whose memory fits a node (no paging) / exceeds it.
    pub fn fitting_ids(&self, node_mem: u64, fits: bool) -> Vec<ProgramId> {
        self.programs
            .iter()
            .filter(|p| (p.mem_per_node <= node_mem) == fits)
            .map(|p| p.id)
            .collect()
    }
}

/// The library before measurement: every program, and the `(kernel,
/// seed)` job each one's signature is measured from, in signature order.
struct Palette {
    programs: Vec<JobProgram>,
    jobs: Vec<(Kernel, u64)>,
}

impl Palette {
    /// Generates the standard NAS palette, drawing every jitter value
    /// from one RNG seeded with `seed`.
    fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lib = Palette {
            programs: Vec::new(),
            jobs: Vec::new(),
        };

        // --- CFD solver variants (the bulk of the workload) ------------
        for i in 0..20 {
            let p = jitter_cfd(&mut rng, false);
            let k = cfd_kernel(&format!("cfd-solver-v{i:02}"), &p, MEASURE_ITERS);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ (i as u64));
            let comm_bytes = 50 * 50 * 25 * 8; // 50³ blocks, 25 vars (§4)
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::CfdSolver,
                name,
                signature: sig,
                comm: CommSpec {
                    exchange_bytes: rng.gen_range(comm_bytes / 2..comm_bytes * 2),
                    neighbors: 4,
                    step_seconds: rng.gen_range(1.5..6.0),
                    synchronous: rng.gen_bool(0.2),
                },
                mem_per_node: rng.gen_range(40..110) << 20,
                disk_bytes_per_s: rng.gen_range(10_000.0..80_000.0),
                duty_cycle: 1.0,
            });
        }

        // --- Oversubscribed CFD variants (page heavily) ----------------
        for i in 0..10 {
            let p = jitter_cfd(&mut rng, true);
            let k = cfd_kernel(&format!("cfd-bigmem-v{i:02}"), &p, MEASURE_ITERS);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ (0x100 + i as u64));
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::CfdSolver,
                name,
                signature: sig,
                comm: CommSpec {
                    exchange_bytes: 800_000,
                    neighbors: 6,
                    step_seconds: rng.gen_range(2.0..6.0),
                    synchronous: rng.gen_bool(0.5),
                },
                // Automatic arrays sized at runtime: 1.05–1.9x node
                // memory, weighted toward mild oversubscription (the
                // continuum of Figure 5's x-axis).
                mem_per_node: if rng.gen_bool(0.5) {
                    rng.gen_range(134..175) << 20
                } else {
                    rng.gen_range(175..240) << 20
                },
                disk_bytes_per_s: rng.gen_range(10_000.0..60_000.0),
                duty_cycle: 1.0,
            });
        }

        // --- NPB-BT-like tuned solvers ----------------------------------
        for i in 0..4 {
            let mut p = CfdKernelParams::npb_bt();
            p.indep_adds += rng.gen_range(0..3);
            p.streaming_loads += rng.gen_range(0..2);
            let k = cfd_kernel(&format!("npb-bt-v{i}"), &p, MEASURE_ITERS);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ (0x200 + i as u64));
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::NpbBtLike,
                name,
                signature: sig,
                comm: CommSpec {
                    exchange_bytes: 300_000,
                    neighbors: 4,
                    step_seconds: rng.gen_range(3.0..8.0),
                    synchronous: false,
                },
                mem_per_node: rng.gen_range(50..100) << 20,
                disk_bytes_per_s: rng.gen_range(5_000.0..20_000.0),
                duty_cycle: 1.0,
            });
        }

        // --- Optimization sweeps (embarrassingly parallel) --------------
        for i in 0..5 {
            let p = jitter_cfd(&mut rng, false);
            let k = cfd_kernel(&format!("mdo-sweep-v{i}"), &p, MEASURE_ITERS);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ (0x300 + i as u64));
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::Optimization,
                name,
                signature: sig,
                comm: CommSpec::none(),
                mem_per_node: rng.gen_range(30..90) << 20,
                disk_bytes_per_s: rng.gen_range(2_000.0..15_000.0),
                duty_cycle: 1.0,
            });
        }

        // --- Development kernels -----------------------------------------
        {
            let k = blocked_matmul_kernel(MEASURE_ITERS);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ 0x400);
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::DevKernel,
                name,
                signature: sig,
                comm: CommSpec::none(),
                mem_per_node: 16 << 20,
                disk_bytes_per_s: 1_000.0,
                duty_cycle: 1.0,
            });
            let k = naive_matmul_kernel(MEASURE_ITERS);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ 0x401);
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::DevKernel,
                name,
                signature: sig,
                comm: CommSpec::none(),
                mem_per_node: 24 << 20,
                disk_bytes_per_s: 1_000.0,
                duty_cycle: 1.0,
            });
        }

        // --- Streaming benchmark -----------------------------------------
        {
            let k = seqaccess_kernel(200_000);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ 0x500);
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::SeqBench,
                name,
                signature: sig,
                comm: CommSpec::none(),
                mem_per_node: 64 << 20,
                disk_bytes_per_s: 500.0,
                duty_cycle: 1.0,
            });
        }

        // --- BLAS3 scattering codes (rare, fast) --------------------------
        for i in 0..3 {
            let k = blas3_kernel(MEASURE_ITERS);
            let name = format!("{}-v{i}", k.name);
            let sig = lib.queue(k, seed ^ (0x700 + i as u64));
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::Blas3,
                name,
                signature: sig,
                comm: CommSpec {
                    exchange_bytes: rng.gen_range(200_000..600_000),
                    neighbors: 4,
                    step_seconds: rng.gen_range(4.0..10.0),
                    synchronous: false,
                },
                mem_per_node: rng.gen_range(60..110) << 20,
                disk_bytes_per_s: rng.gen_range(20_000.0..120_000.0),
                duty_cycle: 1.0,
            });
        }

        // --- Spectral codes (large-stride TLB hazards) --------------------
        for i in 0..3 {
            let stride = 4_096u64 << rng.gen_range(2..6); // 16 kB – 128 kB
            let k = spectral_kernel(&format!("spectral-v{i}"), stride, MEASURE_ITERS);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ (0x800 + i as u64));
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::CfdSolver,
                name,
                signature: sig,
                comm: CommSpec {
                    exchange_bytes: 400_000,
                    neighbors: 2,
                    step_seconds: rng.gen_range(2.0..6.0),
                    synchronous: false,
                },
                mem_per_node: rng.gen_range(40..100) << 20,
                disk_bytes_per_s: rng.gen_range(5_000.0..30_000.0),
                duty_cycle: 1.0,
            });
        }

        // --- Interactive debugging sessions ------------------------------
        for i in 0..6 {
            let p = jitter_cfd(&mut rng, false);
            let k = cfd_kernel(&format!("interactive-v{i}"), &p, MEASURE_ITERS);
            let name = k.name.clone();
            let sig = lib.queue(k, seed ^ (0x600 + i as u64));
            lib.programs.push(JobProgram {
                id: ProgramId(lib.programs.len()),
                family: ProgramFamily::Interactive,
                name,
                signature: sig,
                comm: CommSpec::none(),
                mem_per_node: rng.gen_range(20..80) << 20,
                disk_bytes_per_s: rng.gen_range(1_000.0..8_000.0),
                // Mostly think time: short runs between edits.
                duty_cycle: rng.gen_range(0.03..0.15),
            });
        }

        lib
    }

    /// Queues `kernel` for measurement under `seed`, returning the index
    /// its signature will have.
    fn queue(&mut self, kernel: Kernel, seed: u64) -> usize {
        self.jobs.push((kernel, seed));
        self.jobs.len() - 1
    }
}

/// Jitters CFD kernel parameters. `bigmem` variants get deeper streaming
/// (they sweep larger automatic arrays).
fn jitter_cfd(rng: &mut StdRng, bigmem: bool) -> CfdKernelParams {
    let base = CfdKernelParams::default();
    CfdKernelParams {
        links: rng.gen_range(base.links.saturating_sub(2)..=base.links + 6),
        link_cmps: rng.gen_range(1..=3),
        link_alus: rng.gen_range(2..=3),
        dead_links: rng.gen_range(10..=26),
        chained_adds: rng.gen_range(2..=6),
        chained_fmas: rng.gen_range(1..=3),
        indep_muls: rng.gen_range(2..=5),
        indep_adds: rng.gen_range(2..=5),
        moves: rng.gen_range(0..=4),
        resident_loads: rng.gen_range(8..=16),
        streaming_loads: if bigmem {
            rng.gen_range(8..=14)
        } else {
            rng.gen_range(4..=10)
        },
        plane_loads: rng.gen_range(0..=3),
        stores: rng.gen_range(2..=6),
        alus: rng.gen_range(1..=4),
        divs: rng.gen_range(0..=2),
        sqrts: u32::from(rng.gen_bool(0.2)),
        cond_branches: rng.gen_range(1..=3),
        code_lines: rng.gen_range(200..=420),
        routine_period: rng.gen_range(8_000..=40_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_stats::Summary;

    fn library() -> WorkloadLibrary {
        WorkloadLibrary::build(&MachineConfig::nas_sp2(), 1998)
    }

    #[test]
    fn library_has_all_families() {
        let lib = library();
        for f in [
            ProgramFamily::CfdSolver,
            ProgramFamily::NpbBtLike,
            ProgramFamily::Optimization,
            ProgramFamily::DevKernel,
            ProgramFamily::SeqBench,
        ] {
            assert!(!lib.family_ids(f).is_empty(), "{f:?} missing");
        }
        assert!(lib.programs().len() >= 35);
        assert_eq!(lib.signatures().len(), lib.programs().len());
    }

    #[test]
    fn program_ids_are_their_indices() {
        let lib = library();
        for (i, p) in lib.programs().iter().enumerate() {
            assert_eq!(p.id.0, i);
        }
    }

    #[test]
    fn cfd_variants_have_spread() {
        let lib = library();
        let mut s = Summary::new();
        for id in lib.family_ids(ProgramFamily::CfdSolver) {
            s.push(lib.signature_of(id).mflops());
        }
        // Figure 4: mean ≈ 20 Mflops/node with a wide spread.
        assert!(
            (8.0..32.0).contains(&s.mean()),
            "CFD variant mean Mflops {:.1} outside workload band",
            s.mean()
        );
        assert!(
            s.std() / s.mean() > 0.08,
            "variants must show real spread (cv {:.2})",
            s.std() / s.mean()
        );
    }

    #[test]
    fn oversubscribed_variants_exist_for_paging() {
        let lib = library();
        let paging = lib.fitting_ids(128 << 20, false);
        assert!(paging.len() >= 6, "need big-memory programs");
        for id in &paging {
            assert!(lib.program(*id).oversubscription(128 << 20) > 1.0);
        }
    }

    #[test]
    fn dev_matmul_is_fastest_program() {
        let lib = library();
        let dev = lib.family_ids(ProgramFamily::DevKernel);
        let best_dev = dev
            .iter()
            .map(|&id| lib.signature_of(id).mflops())
            .fold(0.0f64, f64::max);
        let cfd_best = lib
            .family_ids(ProgramFamily::CfdSolver)
            .iter()
            .map(|&id| lib.signature_of(id).mflops())
            .fold(0.0f64, f64::max);
        assert!(
            best_dev > 4.0 * cfd_best,
            "blocked matmul ({best_dev:.0}) must dwarf CFD ({cfd_best:.0})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = library();
        let b = library();
        assert_eq!(a.programs(), b.programs());
        for (x, y) in a.signatures().iter().zip(b.signatures()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn parallel_build_equals_serial_measurement() {
        let config = MachineConfig::nas_sp2();
        let built = library();
        let Palette { programs, jobs } = Palette::generate(1998);
        let cache = SignatureCache::new();
        let serial: Vec<KernelSignature> = jobs
            .iter()
            .map(|(kernel, seed)| cache.measure(kernel, &config, *seed))
            .collect();
        assert_eq!(built.programs(), programs.as_slice());
        assert_eq!(built.signatures().len(), serial.len());
        for (b, s) in built.signatures().iter().zip(&serial) {
            assert_eq!(b.name, s.name);
            assert_eq!(b.cycles, s.cycles, "{}", s.name);
            assert_eq!(b.iters, s.iters, "{}", s.name);
            assert_eq!(b.clock_hz.to_bits(), s.clock_hz.to_bits(), "{}", s.name);
            for signal in sp2_hpm::Signal::ALL {
                assert_eq!(
                    b.events.get(signal),
                    s.events.get(signal),
                    "{} {signal:?}",
                    s.name
                );
            }
        }
    }
}
