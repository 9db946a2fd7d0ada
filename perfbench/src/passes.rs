//! What each workload runs, assembled from the public calls of the
//! repository's crates, with a benchmark span around every call.
//!
//! A cold pass is what `sp2 summary --days 2` or `sp2 campaign --days
//! 270` does inside `Sp2System`: build the library, generate the trace,
//! run each campaign the experiments need, then analyse. Here those
//! steps are called one by one so each gets its own span; campaigns are
//! preloaded into the system so `Sp2System::dataset` only analyses.

use crate::spans::{Counts, Ledger};
use sp2_cluster::{
    run_campaign_cfg_cancellable, run_campaign_rotated, CampaignResult, ClusterConfig,
    EngineConfig, FaultPlan,
};
use sp2_core::experiments::{experiment_or_err, Experiment, SelectionKind};
use sp2_core::system::{DEFAULT_FAULT_SEED, DEFAULT_LIBRARY_SEED};
use sp2_core::{toplev, Json, Sp2System};
use sp2_hpm::{SchedulePlan, Signal};
use sp2_power2::{FastForward, Fnv128, SignatureCache};
use sp2_rs2hpm::BottleneckSplit;
use sp2_workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};
use std::hash::Hasher;
use std::time::Instant;

/// The seed that reproduces the CLI defaults (library seed 1998, trace
/// seed 1996, fault seed 4096).
pub const DEFAULT_SEED: u64 = 1998;

/// Fault rate of the faulted request class ("a troubled month").
pub const FAULT_RATE: f64 = 1.0;

/// Lockstep passes the rotated class spreads all 28 signals over.
pub const ROTATION_PASSES: usize = 3;

/// Requests of each class in one service round.
pub const REQUESTS_PER_CLASS: usize = 4;

/// SplitMix64: a small, fixed generator so the benchmark's inputs depend
/// on nothing but its seed.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A 32-bit seed, small enough to print and to pass anywhere.
    fn next_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }
}

/// Every input seed a run uses, derived from the workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub library: u64,
    pub trace: u64,
    pub stream: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let mut g = SplitMix::new(seed);
        let derived = Seeds {
            library: g.next_seed(),
            trace: g.next_seed(),
            stream: g.next_u64(),
        };
        if seed == DEFAULT_SEED {
            Seeds {
                library: DEFAULT_LIBRARY_SEED,
                trace: CampaignSpec::default().seed,
                ..derived
            }
        } else {
            derived
        }
    }
}

/// A service request class. Each uses the cluster layer differently:
/// stepped and elided sweeps, faults with a fault-free twin, or rotated
/// counter selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Steady,
    Faulted,
    Rotated,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Steady, Class::Faulted, Class::Rotated];

    pub fn name(self) -> &'static str {
        match self {
            Class::Steady => "steady",
            Class::Faulted => "faulted",
            Class::Rotated => "rotated",
        }
    }

    pub fn days(self) -> u32 {
        match self {
            Class::Steady => 180,
            Class::Faulted => 90,
            Class::Rotated => 60,
        }
    }

    fn experiments(self) -> &'static [&'static str] {
        match self {
            Class::Steady => &["table2", "table3", "table4", "fig1", "fig5", "summary"],
            Class::Faulted => &["table2", "fig1", "availability"],
            Class::Rotated => &[],
        }
    }
}

/// One service request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    /// Position among the round's requests of the same class.
    pub ordinal: usize,
    pub trace_seed: u64,
    pub fault_seed: u64,
}

impl Request {
    /// Stable name of the request's operation, e.g. `steady2`.
    pub fn name(&self) -> String {
        format!("{}{}", self.class.name(), self.ordinal)
    }
}

/// The requests of one service round: [`REQUESTS_PER_CLASS`] of each
/// class with their own trace and fault seeds, in a seeded order. Every
/// round repeats the same requests, so each round does the same work and
/// each request's output can be compared across rounds.
pub fn request_round(stream_seed: u64) -> Vec<Request> {
    let mut g = SplitMix::new(stream_seed);
    let mut round = Vec::with_capacity(Class::ALL.len() * REQUESTS_PER_CLASS);
    for class in Class::ALL {
        for ordinal in 0..REQUESTS_PER_CLASS {
            let trace_seed = g.next_seed();
            let fault_seed = g.next_seed();
            round.push(Request {
                class,
                ordinal,
                trace_seed,
                fault_seed,
            });
        }
    }
    for i in (1..round.len()).rev() {
        let j = (g.next_u64() % (i as u64 + 1)) as usize;
        round.swap(i, j);
    }
    round
}

/// FNV-1a 128 of a byte string.
pub fn digest(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish128()
}

/// FNV-1a 128 over every measured signature, field by field.
pub fn library_digest(lib: &WorkloadLibrary) -> u128 {
    let mut h = Fnv128::new();
    for s in lib.signatures() {
        h.write(s.name.as_bytes());
        h.write_u64(s.cycles);
        h.write_u64(s.iters);
        h.write_u64(s.clock_hz.to_bits());
        for signal in Signal::ALL {
            h.write_u64(s.events.get(signal));
        }
    }
    h.finish128()
}

/// One checked unit of work and its output digest (or why it failed).
#[derive(Debug, Clone)]
pub struct Op {
    pub name: String,
    pub outcome: Result<u128, String>,
}

/// How a cold library build went.
pub struct Built {
    pub build_ns: u64,
    pub kernels: usize,
    /// Simulated cycles and measurement time the program counted during
    /// the build (zero while its trace layer is off).
    pub sim_cycles: u64,
    pub measure_ns: u64,
    /// Instructions the measured signatures executed.
    pub sim_instr: u64,
    pub op: Op,
}

/// Builds the library cold: the process-wide signature cache is cleared
/// first, and the build must then miss once per kernel and never hit.
pub fn cold_library(seed: u64, led: &mut Ledger) -> (WorkloadLibrary, Built) {
    let cache = SignatureCache::global();
    cache.clear();
    let machine = ClusterConfig::default().machine;
    let cycles0 = sp2_power2::metrics::SIMULATED_CYCLES.get();
    let measure0 = sp2_power2::metrics::MEASURE.total_ns();
    let library = led.span("workload.library_build", || {
        WorkloadLibrary::build_with(&machine, seed, FastForward::Auto)
    });
    let build_ns = led.last_ns();
    let kernels = library.signatures().len();
    let (hits, misses) = (cache.hits(), cache.misses());
    let outcome = if hits == 0 && misses == kernels as u64 {
        Ok(library_digest(&library))
    } else {
        Err(format!(
            "library build was not cold: {hits} hits and {misses} misses for {kernels} kernels"
        ))
    };
    let built = Built {
        build_ns,
        kernels,
        sim_cycles: sp2_power2::metrics::SIMULATED_CYCLES.get() - cycles0,
        measure_ns: sp2_power2::metrics::MEASURE.total_ns() - measure0,
        sim_instr: library
            .signatures()
            .iter()
            .map(|s| s.events.instructions_total())
            .sum(),
        op: Op {
            name: "library".into(),
            outcome,
        },
    };
    (library, built)
}

/// A campaign length, trace seed, fault knobs, and experiments: the
/// content of a CLI invocation or a service submission.
pub struct Job {
    pub spec: CampaignSpec,
    pub fault_rate: f64,
    pub fault_seed: u64,
    pub experiments: Vec<&'static dyn Experiment>,
}

impl Job {
    pub fn new(days: u32, trace_seed: u64, ids: &[&str]) -> Result<Job, String> {
        Ok(Job {
            spec: CampaignSpec {
                days,
                seed: trace_seed,
                ..CampaignSpec::default()
            },
            fault_rate: 0.0,
            fault_seed: DEFAULT_FAULT_SEED,
            experiments: ids
                .iter()
                .map(|id| experiment_or_err(id).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?,
        })
    }

    fn faulted(&self) -> bool {
        self.fault_rate > 0.0
    }

    /// The campaigns the experiments need, in order of first need: the
    /// set `Sp2System::dataset` would run lazily.
    fn campaigns_needed(&self) -> Vec<(SelectionKind, bool)> {
        let mut keys = Vec::new();
        for e in self.experiments.iter().filter(|e| e.needs_campaign()) {
            let kind = e.selection();
            let mut wanted = vec![(kind, self.faulted())];
            if e.needs_baseline() {
                wanted.push((kind, false));
            }
            for key in wanted {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        keys
    }
}

/// What analysing a job produced.
pub struct Analysis {
    /// One op per experiment: the digest of its compact JSON.
    pub ops: Vec<Op>,
    /// Campaign days simulated.
    pub sim_days: u64,
    /// Mean daily machine rate of the fault-free NAS campaign (Gflops),
    /// the summary's headline figure.
    pub nas_gflops: Option<f64>,
}

/// Adds a campaign's work counts: samples, completed jobs, anomalies and
/// job reports.
fn count_work(c: &mut Counts, r: &CampaignResult) {
    c.samples += r.samples.len() as u64;
    c.jobs_completed += r
        .pbs_records
        .iter()
        .filter(|rec| rec.outcome.is_completed())
        .count() as u64;
    c.anomalies += r.total_anomalies() as u64;
    c.job_reports += r.job_reports.len() as u64;
}

fn add_campaign(led: &mut Ledger, r: &CampaignResult, faulted: bool, ns: u64) {
    let c = &mut led.counts;
    count_work(c, r);
    if faulted {
        c.faulted_days += u64::from(r.days);
        c.faulted_ns += ns;
    } else {
        c.steady_days += u64::from(r.days);
        c.steady_ns += ns;
    }
}

/// Runs every campaign `job` needs on `library`, then analyses them with
/// one `Sp2System::dataset` call per experiment and renders each dataset
/// as compact JSON.
pub fn analyse(
    library: WorkloadLibrary,
    job: &Job,
    engine: &EngineConfig,
    led: &mut Ledger,
) -> Result<Analysis, String> {
    let base = ClusterConfig::default();
    let plan = FaultPlan::generate(base.nodes, job.spec.days, job.fault_rate, job.fault_seed);
    let mut campaigns = Vec::new();
    let mut nas_gflops = None;
    for (kind, faulted) in job.campaigns_needed() {
        let mut config = base.clone();
        config.selection = kind.selection();
        let faults = if faulted {
            plan.clone()
        } else {
            FaultPlan::none()
        };
        let jobs = led.span("workload.trace_generate", || {
            trace::generate(&job.spec, &JobMix::nas(), &library)
        });
        let result = led
            .span("cluster.campaign", || {
                run_campaign_cfg_cancellable(
                    &config,
                    &library,
                    &jobs,
                    job.spec.days,
                    &faults,
                    engine,
                    None,
                )
            })
            .map_err(|e| format!("{kind:?} campaign: {e}"))?;
        let ns = led.last_ns();
        add_campaign(led, &result, faulted, ns);
        if (kind, faulted) == (SelectionKind::Nas, false) {
            nas_gflops = Some(result.mean_daily_gflops());
        }
        campaigns.push(((kind, faulted), result));
    }
    let sim_days = campaigns.len() as u64 * u64::from(job.spec.days);
    let mut system = led.span("core.preload", || {
        let mut sys = Sp2System::builder()
            .spec(job.spec)
            .library(library)
            .engine(*engine)
            .faults(job.fault_rate)
            .fault_seed(job.fault_seed)
            .build();
        for ((kind, faulted), result) in campaigns {
            sys.preload_campaign(kind, faulted, result);
        }
        sys
    });
    let mut ops = Vec::with_capacity(job.experiments.len());
    for &exp in &job.experiments {
        let id = exp.id();
        let outcome = led
            .span(format!("core.experiment.{id}"), || system.dataset(exp))
            .map_err(|e| e.to_string())
            .map(|ds| {
                let text = led.span("core.render", || ds.json.to_string_compact());
                led.counts.dataset_bytes += text.len() as u64;
                digest(text.as_bytes())
            });
        ops.push(Op {
            name: id.to_string(),
            outcome,
        });
    }
    Ok(Analysis {
        ops,
        sim_days,
        nas_gflops,
    })
}

/// What one cold pass (library build through rendering) produced.
pub struct ColdPass {
    pub wall_ns: u64,
    pub build: Built,
    pub analysis: Result<Analysis, String>,
}

/// One cold pass: the library from a cleared cache, then `job`.
pub fn cold_pass(lib_seed: u64, job: &Job, engine: &EngineConfig, led: &mut Ledger) -> ColdPass {
    let start = Instant::now();
    let (library, build) = cold_library(lib_seed, led);
    let analysis = analyse(library, job, engine, led);
    ColdPass {
        wall_ns: start.elapsed().as_nanos() as u64,
        build,
        analysis,
    }
}

/// What one service request produced.
pub struct Served {
    pub ns: u64,
    pub sim_days: u64,
    pub nas_gflops: Option<f64>,
    pub outcome: Result<u128, String>,
}

/// Serves one request the way a serve worker assembles a job: the
/// shared, prebuilt library is cloned into a fresh system per request.
pub fn serve(
    req: &Request,
    library: &WorkloadLibrary,
    engine: &EngineConfig,
    led: &mut Ledger,
) -> Served {
    let start = Instant::now();
    let (outcome, sim_days, nas_gflops) = match req.class {
        Class::Rotated => match rotated(req, library, engine, led) {
            Ok(d) => (
                Ok(d),
                u64::from(req.class.days()) * ROTATION_PASSES as u64,
                None,
            ),
            Err(e) => (Err(e), 0, None),
        },
        Class::Steady | Class::Faulted => {
            let analysed = Job::new(req.class.days(), req.trace_seed, req.class.experiments())
                .and_then(|mut job| {
                    if req.class == Class::Faulted {
                        job.fault_rate = FAULT_RATE;
                        job.fault_seed = req.fault_seed;
                    }
                    let lib = led.span("core.preload", || library.clone());
                    analyse(lib, &job, engine, led)
                });
            match analysed {
                Ok(a) => {
                    let mut h = Fnv128::new();
                    let mut failed = None;
                    for op in &a.ops {
                        match &op.outcome {
                            Ok(d) => h.write_u128(*d),
                            Err(e) => failed = Some(format!("{}: {e}", op.name)),
                        }
                    }
                    let outcome = failed.map_or_else(|| Ok(h.finish128()), Err);
                    (outcome, a.sim_days, a.nas_gflops)
                }
                Err(e) => (Err(e), 0, None),
            }
        }
    };
    Served {
        ns: start.elapsed().as_nanos() as u64,
        sim_days,
        nas_gflops,
        outcome,
    }
}

/// The rotated class: all 28 signals over [`ROTATION_PASSES`] lockstep
/// campaigns, reconstructed and rendered as `sp2 toplev --passes 3
/// --json` renders it.
fn rotated(
    req: &Request,
    library: &WorkloadLibrary,
    engine: &EngineConfig,
    led: &mut Ledger,
) -> Result<u128, String> {
    let spec = CampaignSpec {
        days: req.class.days(),
        seed: req.trace_seed,
        ..CampaignSpec::default()
    };
    let plan =
        SchedulePlan::with_passes(&Signal::ALL, ROTATION_PASSES).map_err(|e| e.to_string())?;
    let jobs = led.span("workload.trace_generate", || {
        trace::generate(&spec, &JobMix::nas(), library)
    });
    let rotated = led
        .span("cluster.rotated", || {
            run_campaign_rotated(
                &ClusterConfig::default(),
                library,
                &jobs,
                spec.days,
                &FaultPlan::none(),
                engine,
                &plan,
                None,
            )
        })
        .map_err(|e| format!("rotated campaign: {e}"))?;
    for pass in &rotated.passes {
        count_work(&mut led.counts, pass);
    }
    let recon = led
        .span("rs2hpm.reconstruct", || rotated.reconstruct())
        .map_err(|e| format!("reconstruction: {e:?}"))?;
    let doc = led
        .span("core.toplev", || {
            BottleneckSplit::from_totals(|sig| recon.total(sig)).map(|split| {
                Json::obj()
                    .field("schema", toplev::SCHEMA)
                    .field("tree", toplev::bottleneck_tree(&split).to_json())
                    .field("plan", toplev::plan_json(&plan))
                    .field("max_error", recon.max_error())
                    .field("reconstruction", toplev::reconstruction_json(&recon))
            })
        })
        .ok_or("rotated campaign measured no cycles")?;
    let text = led.span("core.render", || doc.to_string_compact());
    led.counts.dataset_bytes += text.len() as u64;
    Ok(digest(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_cli_defaults() {
        let s = Seeds::derive(DEFAULT_SEED);
        assert_eq!((s.library, s.trace), (1998, 1996));
        assert_ne!(Seeds::derive(7), Seeds::derive(8));
        assert_eq!(Seeds::derive(7), Seeds::derive(7));
    }

    #[test]
    fn request_stream_is_fixed_per_seed_and_varies_across_seeds() {
        let a = request_round(42);
        assert_eq!(a, request_round(42));
        assert_ne!(a, request_round(43));
        assert_eq!(a.len(), Class::ALL.len() * REQUESTS_PER_CLASS);
        for class in Class::ALL {
            assert_eq!(
                a.iter().filter(|r| r.class == class).count(),
                REQUESTS_PER_CLASS
            );
        }
        let faulted: Vec<_> = a.iter().filter(|r| r.class == Class::Faulted).collect();
        assert_ne!(faulted[0].fault_seed, faulted[1].fault_seed);
        // Orders differ across seeds too, not only the seeds inside.
        let order = |s| request_round(s).iter().map(|r| r.class).collect::<Vec<_>>();
        assert!((0..20).any(|s| order(s) != order(s + 1)));
    }

    #[test]
    fn digests_are_stable() {
        // FNV-1a 128 reference values: the empty string is the offset
        // basis; "a" is the published test vector.
        assert_eq!(digest(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_eq!(digest(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
        assert_eq!(digest(b"sp2"), digest(b"sp2"));
        assert_ne!(digest(b"sp2"), digest(b"sp3"));
    }

    #[test]
    fn campaigns_needed_follow_the_experiments() {
        let job = Job::new(1, 5, &["table2", "iowait", "fig1"]).expect("registered");
        assert_eq!(
            job.campaigns_needed(),
            vec![(SelectionKind::Nas, false), (SelectionKind::IoAware, false)]
        );
        let mut faulted = Job::new(1, 5, &["table2", "availability"]).expect("registered");
        faulted.fault_rate = FAULT_RATE;
        assert_eq!(
            faulted.campaigns_needed(),
            vec![(SelectionKind::Nas, true), (SelectionKind::Nas, false)]
        );
        assert!(Job::new(1, 5, &["table1"])
            .expect("registered")
            .campaigns_needed()
            .is_empty());
        assert!(Job::new(1, 5, &["nope"]).is_err());
    }

    /// The decomposed path must produce exactly what `Sp2System::dataset`
    /// produces when it runs the campaigns itself.
    #[test]
    fn decomposed_analysis_matches_the_system_path() {
        let machine = ClusterConfig::default().machine;
        let library = WorkloadLibrary::build(&machine, DEFAULT_LIBRARY_SEED);
        let mut job = Job::new(1, 11, &["table2", "availability", "summary"]).expect("registered");
        job.fault_rate = FAULT_RATE;
        job.fault_seed = 77;
        let engine = EngineConfig::default().threads(1);
        let mut led = Ledger::default();
        let a = analyse(library.clone(), &job, &engine, &mut led).expect("analysis runs");
        let mut sys = Sp2System::builder()
            .spec(job.spec)
            .library(library)
            .engine(engine)
            .faults(job.fault_rate)
            .fault_seed(job.fault_seed)
            .build();
        for (exp, op) in job.experiments.iter().zip(&a.ops) {
            let ds = sys.dataset(*exp).expect("dataset");
            assert_eq!(
                op.outcome,
                Ok(digest(ds.json.to_string_compact().as_bytes()))
            );
        }
        assert_eq!(a.sim_days, 2);
    }
}
