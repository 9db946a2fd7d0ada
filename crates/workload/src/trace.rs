//! The 270-day campaign submission trace.
//!
//! Figure 1 covers July 1996 – March 1997: strong day-to-day load
//! fluctuation ("the fluctuations … result more from load demand than
//! code variability"), weekend dips, an occasional dead week, 64 % mean
//! utilization with a 95 % best day — all properties of the *submission
//! process*, which this module generates.

use crate::jobmix::JobMix;
use crate::library::WorkloadLibrary;
use crate::program::ProgramId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds per day.
const DAY_S: f64 = 86_400.0;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec {
    /// Days of the measurement period (270 in the paper).
    pub days: u32,
    /// Master seed: jitter, arrivals, and program choice all derive
    /// from it, so a campaign is bit-reproducible.
    pub seed: u64,
    /// Mean job submissions per weekday.
    pub mean_jobs_per_day: f64,
    /// Weekend demand factor.
    pub weekend_factor: f64,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            days: 270,
            seed: 1996,
            mean_jobs_per_day: 54.0,
            weekend_factor: 0.45,
        }
    }
}

impl CampaignSpec {
    /// Starts a validated builder seeded with the paper's defaults.
    /// Prefer this over field-struct construction: the builder rejects
    /// specs the generator would turn into empty or nonsensical traces.
    pub fn builder() -> CampaignSpecBuilder {
        CampaignSpecBuilder {
            spec: CampaignSpec::default(),
        }
    }
}

/// A [`CampaignSpec`] that failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignSpecError {
    /// `days == 0`: a zero-length campaign has no samples and no jobs.
    NoDays,
    /// Non-positive submission rate: the trace would be empty.
    NonPositiveRate { mean_jobs_per_day: f64 },
    /// Weekend factor outside `[0, ∞)` (negative demand is meaningless).
    NegativeWeekendFactor { weekend_factor: f64 },
}

impl std::fmt::Display for CampaignSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignSpecError::NoDays => write!(f, "campaign must span at least one day"),
            CampaignSpecError::NonPositiveRate { mean_jobs_per_day } => {
                write!(
                    f,
                    "mean jobs per day must be positive, got {mean_jobs_per_day}"
                )
            }
            CampaignSpecError::NegativeWeekendFactor { weekend_factor } => {
                write!(
                    f,
                    "weekend factor must be non-negative, got {weekend_factor}"
                )
            }
        }
    }
}

impl std::error::Error for CampaignSpecError {}

/// Validated construction for [`CampaignSpec`].
#[derive(Debug, Clone)]
pub struct CampaignSpecBuilder {
    spec: CampaignSpec,
}

impl CampaignSpecBuilder {
    /// Campaign length in days.
    pub fn days(mut self, days: u32) -> Self {
        self.spec.days = days;
        self
    }

    /// Master seed for the submission process.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Mean weekday submission rate.
    pub fn mean_jobs_per_day(mut self, mean_jobs_per_day: f64) -> Self {
        self.spec.mean_jobs_per_day = mean_jobs_per_day;
        self
    }

    /// Weekend demand factor.
    pub fn weekend_factor(mut self, weekend_factor: f64) -> Self {
        self.spec.weekend_factor = weekend_factor;
        self
    }

    /// Validates and produces the spec.
    pub fn build(self) -> Result<CampaignSpec, CampaignSpecError> {
        let s = self.spec;
        if s.days == 0 {
            return Err(CampaignSpecError::NoDays);
        }
        if s.mean_jobs_per_day <= 0.0 || s.mean_jobs_per_day.is_nan() {
            return Err(CampaignSpecError::NonPositiveRate {
                mean_jobs_per_day: s.mean_jobs_per_day,
            });
        }
        if s.weekend_factor < 0.0 || s.weekend_factor.is_nan() {
            return Err(CampaignSpecError::NegativeWeekendFactor {
                weekend_factor: s.weekend_factor,
            });
        }
        Ok(s)
    }
}

/// One submitted job, before PBS sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmittedJob {
    /// Submission time, seconds from campaign start.
    pub submit_s: f64,
    /// Nodes requested.
    pub nodes: u32,
    /// Pure compute demand in wall seconds (paging and synchronous
    /// communication stretch the actual residency).
    pub duration_s: f64,
    /// The walltime limit the user requested. PBS enforces allocation
    /// policies directly (§2): a job still running at its limit is
    /// killed. Users estimate imperfectly, so some jobs exceed it.
    pub requested_walltime_s: f64,
    /// Program the job runs.
    pub program: ProgramId,
}

impl SubmittedJob {
    /// Actual residency: the demand, truncated by the PBS limit.
    pub fn residency_s(&self) -> f64 {
        self.duration_s.min(self.requested_walltime_s)
    }

    /// Whether PBS will kill this job at its limit.
    pub fn will_be_killed(&self) -> bool {
        self.duration_s > self.requested_walltime_s
    }
}

/// Generates the campaign's submission trace, sorted by submit time.
pub fn generate(spec: &CampaignSpec, mix: &JobMix, library: &WorkloadLibrary) -> Vec<SubmittedJob> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut jobs = Vec::new();
    // A couple of dead stretches (machine maintenance / holidays).
    let dead_start = rng.gen_range(100..200) as f64;
    for day in 0..spec.days {
        let d = day as f64;
        // Weekly pattern: days 5, 6 of each week are the weekend.
        let weekday = day % 7;
        let mut factor = if weekday >= 5 {
            spec.weekend_factor
        } else {
            1.0
        };
        // Day-to-day demand noise (log-normal, σ ≈ 0.45).
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        // Normalized so the noise has unit mean (lognormal correction).
        factor *= (0.8 * z - 0.32).exp();
        // Holiday/maintenance lull.
        if (dead_start..dead_start + 6.0).contains(&d) {
            factor *= 0.15;
        }
        let lambda = spec.mean_jobs_per_day * factor;
        let n = poisson(lambda, &mut rng);
        // The day's character: how production-heavy its submissions are.
        // Skewed toward development (the machine's stated purpose), with
        // occasional production pushes.
        let production: f64 = rng.gen_range(0.0..1.0f64).powf(0.8);
        for _ in 0..n {
            let nodes = mix.sample_nodes(&mut rng);
            let mut duration_s = mix.sample_duration(&mut rng);
            let program = mix.sample_program(nodes, library, &mut rng, production);
            // Interactive sessions hold their dedicated nodes for long
            // stretches of think time (PBS interactive logins).
            let family = library.program(program).family;
            if family == crate::program::ProgramFamily::Interactive {
                duration_s = (duration_s * 1.7).min(12.0 * 3600.0);
            }
            // Development benchmark kernels are quick verification runs —
            // exactly the "non-user benchmarking codes" the paper's 600 s
            // filter removes from the batch analysis.
            if matches!(
                family,
                crate::program::ProgramFamily::DevKernel | crate::program::ProgramFamily::SeqBench
            ) {
                duration_s = duration_s.min(rng.gen_range(120.0..540.0));
            }
            let submit_s = d * DAY_S + rng.gen_range(0.0..DAY_S);
            // Walltime estimates: users pad generously but sometimes
            // undershoot — those jobs die at the PBS limit.
            let requested_walltime_s = duration_s * rng.gen_range(0.85..2.0);
            jobs.push(SubmittedJob {
                submit_s,
                nodes,
                duration_s,
                requested_walltime_s,
                program,
            });
        }
    }
    jobs.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));
    jobs
}

/// Knuth Poisson sampler (λ small enough that exp(-λ) stays normal).
fn poisson(lambda: f64, rng: &mut StdRng) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    // For large λ, use a normal approximation to avoid underflow.
    if lambda > 80.0 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return (lambda + lambda.sqrt() * z).round().max(0.0) as u32;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_power2::MachineConfig;

    fn small_campaign() -> (CampaignSpec, Vec<SubmittedJob>) {
        let cfg = MachineConfig::nas_sp2();
        let lib = WorkloadLibrary::build(&cfg, 3);
        let spec = CampaignSpec {
            days: 30,
            seed: 77,
            ..Default::default()
        };
        let jobs = generate(&spec, &JobMix::nas(), &lib);
        (spec, jobs)
    }

    #[test]
    fn trace_sorted_and_in_range() {
        let (spec, jobs) = small_campaign();
        assert!(!jobs.is_empty());
        let horizon = spec.days as f64 * DAY_S;
        let mut prev = 0.0;
        for j in &jobs {
            assert!(j.submit_s >= prev);
            assert!(j.submit_s < horizon);
            assert!(j.nodes >= 1 && j.nodes <= 144);
            assert!(j.duration_s > 0.0);
            assert!(j.requested_walltime_s > 0.0);
            assert!(j.residency_s() <= j.duration_s + 1e-9);
            prev = j.submit_s;
        }
    }

    #[test]
    fn volume_near_expectation() {
        let (spec, jobs) = small_campaign();
        // 30 days x ~46/day with weekend/noise/lull factors: broad band.
        let expected = spec.days as f64 * spec.mean_jobs_per_day;
        assert!(
            (jobs.len() as f64) > 0.4 * expected && (jobs.len() as f64) < 1.6 * expected,
            "{} jobs vs expectation {}",
            jobs.len(),
            expected
        );
    }

    #[test]
    fn weekends_quieter_than_weekdays() {
        let cfg = MachineConfig::nas_sp2();
        let lib = WorkloadLibrary::build(&cfg, 3);
        let spec = CampaignSpec {
            days: 140,
            seed: 5,
            ..Default::default()
        };
        let jobs = generate(&spec, &JobMix::nas(), &lib);
        let mut weekday = 0u32;
        let mut weekend = 0u32;
        for j in &jobs {
            let day = (j.submit_s / DAY_S) as u32;
            if day % 7 >= 5 {
                weekend += 1;
            } else {
                weekday += 1;
            }
        }
        let weekday_rate = weekday as f64 / (5.0 / 7.0);
        let weekend_rate = weekend as f64 / (2.0 / 7.0);
        assert!(
            weekend_rate < 0.85 * weekday_rate,
            "weekend demand must dip ({weekend_rate:.0} vs {weekday_rate:.0})"
        );
    }

    #[test]
    fn builder_validates() {
        let ok = CampaignSpec::builder().days(30).seed(7).build().unwrap();
        assert_eq!(ok.days, 30);
        assert_eq!(ok.seed, 7);
        assert!(matches!(
            CampaignSpec::builder().days(0).build(),
            Err(CampaignSpecError::NoDays)
        ));
        assert!(matches!(
            CampaignSpec::builder().mean_jobs_per_day(0.0).build(),
            Err(CampaignSpecError::NonPositiveRate { .. })
        ));
        assert!(matches!(
            CampaignSpec::builder().weekend_factor(-0.1).build(),
            Err(CampaignSpecError::NegativeWeekendFactor { .. })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = MachineConfig::nas_sp2();
        let lib = WorkloadLibrary::build(&cfg, 3);
        let spec = CampaignSpec {
            days: 10,
            seed: 42,
            ..Default::default()
        };
        let a = generate(&spec, &JobMix::nas(), &lib);
        let b = generate(&spec, &JobMix::nas(), &lib);
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_mean_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| poisson(12.0, &mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 12.0).abs() < 0.5, "poisson mean {mean}");
        assert_eq!(poisson(0.0, &mut rng), 0);
        let big = poisson(200.0, &mut rng);
        assert!((140..260).contains(&big), "normal-approx tail: {big}");
    }
}
