//! Job-mix distributions: node counts, durations, program selection.
//!
//! Calibrated to the paper's batch observations: 16-node jobs dominate
//! walltime, 32 and 8 follow, essentially nothing beyond 64 nodes
//! (Figure 2); durations filtered at 600 s for the batch analysis; the
//! >64-node jobs that did run were often memory-oversubscribed or used
//! > synchronous communication (§6).

use crate::library::WorkloadLibrary;
use crate::program::{ProgramFamily, ProgramId};
use rand::rngs::StdRng;
use rand::Rng;

/// Weighted node-count choices and duration parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    /// `(nodes, weight)` — the requestable node counts.
    pub node_weights: Vec<(u32, f64)>,
    /// Median of the log-normal duration distribution, seconds.
    pub duration_median_s: f64,
    /// Sigma of the log-normal duration distribution.
    pub duration_sigma: f64,
    /// Duration clamp, seconds.
    pub duration_range_s: (f64, f64),
    /// Probability a job is a short interactive/benchmark session
    /// (< 600 s — excluded from the paper's batch analysis).
    pub short_job_prob: f64,
    /// Probability a > 64-node job runs an oversubscribed program.
    pub big_job_paging_prob: f64,
}

impl JobMix {
    /// The NAS 1996–97 mix.
    pub fn nas() -> Self {
        JobMix {
            node_weights: vec![
                (1, 5.0),
                (2, 3.0),
                (4, 7.0),
                (8, 13.0),
                (16, 31.0),
                (24, 2.0),
                (28, 2.5),
                (32, 18.5),
                (48, 3.0),
                (64, 8.0),
                (80, 0.7),
                (96, 0.5),
                (128, 0.35),
                (144, 0.15),
            ],
            duration_median_s: 5_400.0,
            duration_sigma: 1.0,
            duration_range_s: (120.0, 12.0 * 3600.0),
            short_job_prob: 0.25,
            big_job_paging_prob: 0.85,
        }
    }

    /// Samples a node count from the weighted distribution.
    pub fn sample_nodes(&self, rng: &mut StdRng) -> u32 {
        let total: f64 = self.node_weights.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for &(n, w) in &self.node_weights {
            if x < w {
                return n;
            }
            x -= w;
        }
        self.node_weights.last().map(|&(n, _)| n).unwrap_or(1)
    }

    /// Samples a duration: short interactive sessions with probability
    /// `short_job_prob`, otherwise log-normal.
    pub fn sample_duration(&self, rng: &mut StdRng) -> f64 {
        if rng.gen_bool(self.short_job_prob) {
            return rng.gen_range(60.0..590.0);
        }
        // Box-Muller standard normal.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let d = self.duration_median_s * (self.duration_sigma * z).exp();
        d.clamp(self.duration_range_s.0, self.duration_range_s.1)
    }

    /// Picks a program compatible with the node count: >64-node jobs
    /// usually pick oversubscribed (paging) programs; single-node jobs
    /// mix in development kernels; everything else draws from the CFD /
    /// BT / optimization families.
    ///
    /// `production` ∈ [0, 1] is the day's character: production-heavy
    /// days (→ 1) submit long solver runs; development-heavy days (→ 0)
    /// submit interactive debugging sessions. The paper's Figure 1
    /// fluctuations "result more from load demand than code variability",
    /// but its good days clearly carried a more productive mix (their
    /// busy-node rate was ≈60 % above the campaign average).
    pub fn sample_program(
        &self,
        nodes: u32,
        library: &WorkloadLibrary,
        rng: &mut StdRng,
        production: f64,
    ) -> ProgramId {
        let node_mem = library.config().memory_bytes;
        if nodes > 64 && rng.gen_bool(self.big_job_paging_prob) {
            let mut paging = library.fitting_ids(node_mem, false);
            if !paging.is_empty() {
                // Bigger node counts meant bigger problems: weight the
                // selection toward the heavier working sets.
                paging.sort_by_key(|&id| library.program(id).mem_per_node);
                let lo = if rng.gen_bool(0.7) {
                    paging.len() / 2
                } else {
                    0
                };
                return paging[rng.gen_range(lo..paging.len())];
            }
        }
        // Interactive debugging sessions dominate at small node counts
        // and occasionally occupy medium allocations.
        let base_interactive = match nodes {
            1..=4 => 0.55,
            5..=16 => 0.38,
            17..=32 => 0.15,
            _ => 0.04,
        };
        let interactive_prob =
            (base_interactive * 2.0 * (1.0 - production.clamp(0.0, 1.0))).min(0.95);
        if rng.gen_bool(interactive_prob) {
            let ids = library.family_ids(ProgramFamily::Interactive);
            if !ids.is_empty() {
                return ids[rng.gen_range(0..ids.len())];
            }
        }
        if nodes == 1 && rng.gen_bool(0.4) {
            let dev: Vec<_> = library
                .family_ids(ProgramFamily::DevKernel)
                .into_iter()
                .chain(library.family_ids(ProgramFamily::SeqBench))
                .collect();
            return dev[rng.gen_range(0..dev.len())];
        }
        let family = match rng.gen_range(0..100) {
            0..=66 => ProgramFamily::CfdSolver,
            67..=81 => ProgramFamily::Optimization,
            82..=96 => ProgramFamily::NpbBtLike,
            _ => ProgramFamily::Blas3,
        };
        // Fitting programs only — paging among ≤64-node jobs is rare.
        let ids: Vec<_> = library
            .family_ids(family)
            .into_iter()
            .filter(|&id| library.program(id).mem_per_node <= node_mem || rng.gen_bool(0.05))
            .collect();
        let pool = if ids.is_empty() {
            library.family_ids(ProgramFamily::CfdSolver)
        } else {
            ids
        };
        pool[rng.gen_range(0..pool.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sp2_power2::MachineConfig;

    #[test]
    fn node_sampling_respects_weights() {
        let mix = JobMix::nas();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(mix.sample_nodes(&mut rng)).or_insert(0u32) += 1;
        }
        let c16 = counts[&16];
        let c32 = counts[&32];
        let c8 = counts[&8];
        assert!(c16 > c32 && c32 > c8, "16 > 32 > 8 ordering (Figure 2)");
        let big: u32 = counts
            .iter()
            .filter(|(&n, _)| n > 64)
            .map(|(_, &c)| c)
            .sum();
        assert!(
            (big as f64) < 0.03 * 20_000.0,
            ">64-node jobs are rare: {big}"
        );
    }

    #[test]
    fn durations_clamped_and_mixed() {
        let mix = JobMix::nas();
        let mut rng = StdRng::seed_from_u64(9);
        let mut short = 0;
        for _ in 0..5_000 {
            let d = mix.sample_duration(&mut rng);
            assert!((60.0..=12.0 * 3600.0).contains(&d));
            if d < 600.0 {
                short += 1;
            }
        }
        // short_job_prob 0.25 plus the lognormal's own short tail.
        assert!((1_000..2_400).contains(&short), "short jobs: {short}");
    }

    #[test]
    fn big_jobs_usually_page() {
        let cfg = MachineConfig::nas_sp2();
        let lib = WorkloadLibrary::build(&cfg, 5);
        let mix = JobMix::nas();
        let mut rng = StdRng::seed_from_u64(11);
        let node_mem = cfg.memory_bytes;
        let mut paging = 0;
        let n = 400;
        for _ in 0..n {
            let id = mix.sample_program(128, &lib, &mut rng, 0.5);
            if lib.program(id).mem_per_node > node_mem {
                paging += 1;
            }
        }
        assert!(
            paging as f64 > 0.55 * n as f64,
            "most >64-node jobs oversubscribe ({paging}/{n})"
        );
    }

    #[test]
    fn moderate_jobs_rarely_page() {
        let cfg = MachineConfig::nas_sp2();
        let lib = WorkloadLibrary::build(&cfg, 5);
        let mix = JobMix::nas();
        let mut rng = StdRng::seed_from_u64(13);
        let node_mem = cfg.memory_bytes;
        let mut paging = 0;
        let n = 400;
        for _ in 0..n {
            let id = mix.sample_program(16, &lib, &mut rng, 0.5);
            if lib.program(id).mem_per_node > node_mem {
                paging += 1;
            }
        }
        assert!(
            (paging as f64) < 0.15 * n as f64,
            "16-node jobs mostly fit ({paging}/{n})"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mix = JobMix::nas();
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(mix.sample_nodes(&mut a), mix.sample_nodes(&mut b));
        }
    }
}
