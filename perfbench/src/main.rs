//! `sp2-perfbench`: what users of the SP2 reproduction wait for, end to
//! end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli_2d --seed 1998 --seconds 35 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with the
//! program's trace layer off; with `--trace 1` they are the per-layer
//! ones, from a traced run that also repeats an untraced pass so the
//! trace layer's own cost shows as `trace.overhead`.
//!
//! # Workloads
//!
//! All run in one process; none uses more engine threads than the host
//! has cores (a lower core count clamps the threads, and the clamped
//! value is printed).
//!
//! - `cli_2d` is exactly `sp2 summary --days 2` at the CLI default of one
//!   engine thread: a cold signature cache, a library build, a 2-day NAS
//!   campaign, and the `summary` experiment. About 97% of its wall time
//!   is kernel measurement (`power2` under `workload`), so a simulator
//!   hot-loop gain shows here at full size while a campaign or
//!   experiment change must read as no change. It is also the plain
//!   single-thread baseline.
//! - `repro_270d` is the full paper reproduction, `sp2 campaign --days
//!   270 -j 2` rendering in memory instead of writing files: a cold
//!   library, the NAS and IoAware 270-day campaigns, and all 14 registry
//!   experiments. It is the headline wait, and the only pass where the
//!   library build and the campaigns share one timer at 2 threads, so a
//!   parallel library build shows here and not on `cli_2d`.
//! - `warm_service` builds the library as set-up, as `sp2 serve` does
//!   (twice, for a median set-up time), warms up with one request of
//!   each class, and then runs a closed loop with one client: each
//!   request is assembled as a serve worker assembles a job (the shared
//!   library cloned into a fresh system, 2 engine threads). A round
//!   holds four requests of each class in a seeded order: steady (180
//!   fault-free days; table2, table3, table4, fig1, fig5, summary),
//!   faulted (90 days at fault rate 1.0 with its own fault seed; table2,
//!   fig1, availability, which adds a fault-free twin), and rotated (60
//!   days; all 28 signals over 3 lockstep passes, then reconstruction
//!   and the bottleneck tree). Every round repeats the same requests, so
//!   rounds do equal work and each request's output is checked against
//!   earlier rounds. Kernel measurement costs nothing per request here:
//!   the `cluster`, `pbs`, `rs2hpm` and `core` layers do the work, and
//!   each class uses the cluster layer differently and has its own
//!   throughput figure, so a gain on elided sweeps that costs stepped or
//!   rotated runs shows.
//!
//! # Seeds
//!
//! `--seed 1998` reproduces the CLI defaults: library seed 1998, trace
//! seed 1996. Any other seed derives the library seed, the trace seed,
//! and the request stream from it.
//!
//! # End-to-end metrics
//!
//! The JSON result with `--trace 0` holds the three that every workload
//! has and that this benchmark measures steadily enough to bound (see
//! `BENCHMARK.json`):
//!
//! - `wall_s`: the median whole pass. On `cli_2d` and `repro_270d` a pass
//!   includes the library build, which CLI users pay on every run; on
//!   `warm_service` a pass is one round of requests, all three classes.
//! - `setup_s`: the median cold library build.
//! - `peak_rss_mb`: the median per-pass peak resident memory (`VmHWM`
//!   after a reset through `/proc/self/clear_refs`).
//!
//! Five more are printed beside them, marked `shown`, without a bound:
//!
//! - `steady_days_per_s`, `faulted_days_per_s`, `rotated_days_per_s`:
//!   campaign days simulated per host second of each request class,
//!   analysis and rendering included; the median over rounds. Only
//!   `warm_service` serves requests. A class gets a few seconds of each
//!   round, too little to hold a bound on a host whose speed drifts by
//!   10-20% between runs; `wall_s` on `warm_service` bounds the classes
//!   together, and the traced run breaks them down per layer.
//! - `paper_rate_err`: |measured - 1.30| / 1.30, where the measured value
//!   is the summary's mean machine rate in Gflops (on `warm_service`, of
//!   the steady requests): the model's error against the paper beside
//!   its speed. It depends only on the seed's inputs and moves by half
//!   its value from seed to seed; it is also a per-layer metric.
//! - `failed_frac`: the share of operations that failed, also carried by
//!   the `attempted` and `failed` fields. It is 0 whenever the outputs
//!   are correct; any failure makes the run `"correct": false`.
//!
//! An operation is a library build, one experiment's dataset, or one
//! request; it fails if it errors, if its digest differs between passes
//! or between the untraced and traced runs, if a cold build hit the
//! signature cache, or, at the default seed, if its digest differs from
//! the one recorded in `golden.txt`.
//!
//! # Per-layer metrics and the end-to-end metrics they should move
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | workload | `workload.library_build_s`, `workload.kernels`, `workload.trace_generate_s` | `setup_s` everywhere; `wall_s` on `cli_2d` and `repro_270d`; nothing on `warm_service` `wall_s` |
//! | power2 | `power2.sim_cycles`, `power2.sim_cycles_per_s`, `power2.sim_instr_per_s`, `power2.sigcache_hits`, `power2.sigcache_misses`, `power2.sigcache_hit_rate`, `power2.kernel_cycles_per_s.<family>` | as workload; the per-family rates (one direct `Node::run_kernel` per kernel constructor) show which family a hot-loop change helps |
//! | cluster | `cluster.campaign_s`, `cluster.days_per_s.steady`, `cluster.days_per_s.faulted`, `cluster.rotated_s`, `cluster.sweeps`, `cluster.sweeps_elided`, `cluster.elision_rate`, `cluster.samples` | the class throughputs on `warm_service`; `wall_s` on `repro_270d`; never `cli_2d` |
//! | pbs | `pbs.jobs_completed` | nothing: it must repeat exactly, which guards against a speed-up that does less work |
//! | rs2hpm | `rs2hpm.reconstruct_s`, `rs2hpm.anomalies`, `rs2hpm.job_reports` | `rotated_days_per_s`; the counts must repeat exactly |
//! | core | `core.experiment_s.<id>` (all 14), `core.render_s`, `core.dataset_bytes` | `wall_s` on `repro_270d`; steady and faulted throughput on `warm_service` (`calibration` includes its own kernel measurements) |
//! | whole pass | `unaccounted_s`, `trace.overhead` | `unaccounted_s` is the traced wall time minus every layer's self time; `trace.overhead` is traced over untraced wall time, minus 1 |
//!
//! Every layer also reports `<layer>.self_s`. Times and counts are per
//! traced pass (per round on `warm_service`); on `warm_service` the
//! library figures come from its set-up and the cache figures from the
//! request stream. `isa`, `hpm`, `switch` and `stats` run only inside the
//! timed layers and are covered by their callers' spans. A metric whose
//! layer a workload does not run reads 0.

mod passes;
mod spans;
mod stats;

use passes::{Class, ColdPass, Job, Op, Seeds, DEFAULT_SEED};
use sp2_cluster::{ClusterConfig, EngineConfig};
use sp2_core::experiments::all_experiments;
use sp2_power2::{KernelRun, Node, SignatureCache};
use sp2_workload::kernels;
use spans::Ledger;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The paper's mean machine rate (Gflops), the summary's headline.
const PAPER_GFLOPS: f64 = 1.30;

/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 2;

/// Cold library builds the `warm_service` set-up makes; `setup_s` is
/// their median (the cold workloads build once per pass).
const WARM_SETUPS: usize = 2;

/// Digests recorded at the default seed, one `workload op hex` per line.
const GOLDEN: &str = include_str!("../golden.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cli2d,
    Repro270d,
    WarmService,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "cli_2d" => Ok(Workload::Cli2d),
            "repro_270d" => Ok(Workload::Repro270d),
            "warm_service" => Ok(Workload::WarmService),
            _ => Err(format!(
                "unknown workload {name:?} (cli_2d, repro_270d, warm_service)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cli2d => "cli_2d",
            Workload::Repro270d => "repro_270d",
            Workload::WarmService => "warm_service",
        }
    }

    /// Engine threads before clamping to the host.
    fn threads(self) -> usize {
        match self {
            Workload::Cli2d => 1,
            Workload::Repro270d | Workload::WarmService => 2,
        }
    }

    /// The cold pass's job (`warm_service` has none).
    fn job(self, trace_seed: u64) -> Result<Job, String> {
        match self {
            Workload::Cli2d => Job::new(2, trace_seed, &["summary"]),
            Workload::Repro270d => {
                let ids: Vec<&str> = all_experiments().iter().map(|e| e.id()).collect();
                Job::new(270, trace_seed, &ids)
            }
            Workload::WarmService => Err("warm_service has no cold pass".into()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(get("workload")?)?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Checks every operation's outcome and counts failures.
struct Checker {
    golden: Option<BTreeMap<String, u128>>,
    seen: BTreeMap<String, u128>,
    attempted: u64,
    errors: Vec<String>,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Result<Checker, String> {
        let golden = if seed == DEFAULT_SEED {
            let mut map = BTreeMap::new();
            for line in GOLDEN.lines().filter(|l| !l.trim().is_empty()) {
                let mut parts = line.split_whitespace();
                let (Some(w), Some(op), Some(hex)) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err(format!("malformed golden line {line:?}"));
                };
                if w == workload.name() {
                    let d = u128::from_str_radix(hex, 16)
                        .map_err(|_| format!("malformed golden digest {hex:?}"))?;
                    map.insert(op.to_string(), d);
                }
            }
            Some(map)
        } else {
            None
        };
        Ok(Checker {
            golden,
            seen: BTreeMap::new(),
            attempted: 0,
            errors: Vec::new(),
        })
    }

    fn check(&mut self, op: &Op) {
        self.attempted += 1;
        let problem = match &op.outcome {
            Err(e) => Some(e.clone()),
            Ok(d) => match self.seen.get(&op.name) {
                Some(prev) if prev != d => Some(format!(
                    "digest {d:032x} differs from the earlier pass's {prev:032x}"
                )),
                Some(_) => None,
                None => {
                    self.seen.insert(op.name.clone(), *d);
                    match self.golden.as_ref().map(|g| g.get(&op.name)) {
                        Some(Some(want)) if want != d => Some(format!(
                            "digest {d:032x} differs from the recorded {want:032x}"
                        )),
                        Some(None) => Some(format!("no recorded digest ({d:032x})")),
                        _ => None,
                    }
                }
            },
        };
        if let Some(p) = problem {
            self.errors.push(format!("{}: {p}", op.name));
        }
    }

    fn fail(&mut self, name: &str, why: String) {
        self.check(&Op {
            name: name.to_string(),
            outcome: Err(why),
        });
    }
}

/// Metrics in print order: name, value, unit. `shown` ones are printed
/// with the others but left out of the JSON result; `None` prints as
/// not applicable to the workload.
#[derive(Default)]
struct Metrics {
    listed: Vec<(String, f64, &'static str)>,
    shown: Vec<(String, Option<f64>, &'static str)>,
}

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.listed.push((name.into(), value, unit));
    }

    fn show(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        self.shown.push((name.into(), value, unit));
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn median(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Engine configuration for an untraced pass: metrics explicitly off, so
/// a traced pass earlier in the process leaves nothing switched on.
fn untraced(threads: usize) -> EngineConfig {
    let engine = EngineConfig::default().threads(threads).metrics(false);
    engine.apply();
    assert!(!sp2_trace::enabled(), "trace layer on in an untraced pass");
    assert!(
        !sp2_trace::recording(),
        "flight recorder on in an untraced pass"
    );
    assert!(
        sp2_power2::fast_forward_enabled(),
        "fast-forward off in an untraced pass"
    );
    engine
}

/// Engine configuration for a traced pass: the program's metrics on and
/// zeroed, the flight recorder never.
fn traced(threads: usize) -> EngineConfig {
    let engine = EngineConfig::default().threads(threads).metrics(true);
    sp2_core::metrics::reset();
    engine.apply();
    assert!(
        !sp2_trace::recording(),
        "flight recorder on in a traced pass"
    );
    engine
}

fn reset_peak_rss() {
    // Writing 5 resets VmHWM to the current resident size; where the
    // kernel refuses, the reading stays the process-wide peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One round of service requests and what it cost.
#[derive(Default)]
struct Round {
    ns: u64,
    class_days: [u64; 3],
    class_ns: [u64; 3],
    latencies: Vec<(Class, f64)>,
    gflops: Vec<f64>,
    ops: Vec<Op>,
}

impl Round {
    fn days_per_s(&self, class: Class) -> f64 {
        let i = class as usize;
        self.class_days[i] as f64 / secs(self.class_ns[i]).max(1e-12)
    }
}

fn serve_round(
    requests: &[passes::Request],
    library: &sp2_workload::WorkloadLibrary,
    engine: &EngineConfig,
    led: &mut Ledger,
) -> Round {
    let start = Instant::now();
    let mut round = Round::default();
    for req in requests {
        let served = passes::serve(req, library, engine, led);
        let c = req.class as usize;
        round.class_days[c] += served.sim_days;
        round.class_ns[c] += served.ns;
        round.latencies.push((req.class, secs(served.ns)));
        round.gflops.extend(served.nas_gflops);
        round.ops.push(Op {
            name: req.name(),
            outcome: served.outcome,
        });
    }
    round.ns = start.elapsed().as_nanos() as u64;
    round
}

/// Keeps making passes until `seconds` are spent (at least `min`),
/// never starting one that the median pass so far says would overrun.
fn keep_going(start: Instant, seconds: f64, done: &[f64], min: usize) -> bool {
    done.len() < min || start.elapsed().as_secs_f64() + median(done) <= seconds
}

/// |measured - paper| / paper for the median measured rate; 0 when no
/// summary was measured (its analysis failed and is counted as such).
fn paper_rate_err(gflops: &[f64]) -> f64 {
    stats::median(gflops).map_or(0.0, |g| (g - PAPER_GFLOPS).abs() / PAPER_GFLOPS)
}

/// Records a cold pass's operations; returns its summary rate.
fn check_cold(check: &mut Checker, pass: &ColdPass) -> Option<f64> {
    check.check(&pass.build.op);
    match &pass.analysis {
        Ok(a) => {
            a.ops.iter().for_each(|op| check.check(op));
            a.nas_gflops
        }
        Err(e) => {
            check.fail("analysis", e.clone());
            None
        }
    }
}

struct Timings(Vec<(String, &'static str, Vec<f64>)>);

impl Timings {
    fn add(&mut self, name: &str, unit: &'static str, values: Vec<f64>) {
        self.0.push((name.to_string(), unit, values));
    }
}

/// `--trace 0` on a cold workload: timed passes until the time is spent.
fn run_cold(
    w: Workload,
    args: &Args,
    seeds: &Seeds,
    threads: usize,
    check: &mut Checker,
    t: &mut Timings,
) -> Result<Metrics, String> {
    let job = w.job(seeds.trace)?;
    let start = Instant::now();
    let (mut walls, mut setups, mut rss, mut gflops) = (vec![], vec![], vec![], vec![]);
    while keep_going(start, args.seconds, &walls, MIN_PASSES) {
        let engine = untraced(threads);
        reset_peak_rss();
        let pass = passes::cold_pass(seeds.library, &job, &engine, &mut Ledger::default());
        rss.push(peak_rss_mb()?);
        walls.push(secs(pass.wall_ns));
        setups.push(secs(pass.build.build_ns));
        gflops.extend(check_cold(check, &pass));
    }
    t.add("pass wall", "s", walls.clone());
    t.add("library build", "s", setups.clone());
    let mut m = Metrics::default();
    m.push("wall_s", median(&walls), "s");
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mb", median(&rss), "MB");
    m.show("paper_rate_err", Some(paper_rate_err(&gflops)), "ratio");
    for class in Class::ALL {
        m.show(format!("{}_days_per_s", class.name()), None, "days/s");
    }
    Ok(m)
}

/// Times each request class over `rounds` and shows its throughput: the
/// median over rounds of the class's days per second.
fn show_class_rates(m: &mut Metrics, t: &mut Timings, rounds: &[Round]) {
    for class in Class::ALL {
        let lat: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.latencies)
            .filter(|(c, _)| *c == class)
            .map(|(_, s)| *s)
            .collect();
        t.add(&format!("{} request", class.name()), "s", lat);
        let rates: Vec<f64> = rounds.iter().map(|r| r.days_per_s(class)).collect();
        m.show(
            format!("{}_days_per_s", class.name()),
            Some(median(&rates)),
            "days/s",
        );
    }
}

/// Serves the first request of each class, untimed: the first requests
/// after a library build run measurably slower, so warming belongs to
/// set-up. Returns the seconds it took.
fn warm_up(
    library: &sp2_workload::WorkloadLibrary,
    seeds: &Seeds,
    engine: &EngineConfig,
    check: &mut Checker,
) -> f64 {
    let first: Vec<_> = passes::request_round(seeds.stream)
        .into_iter()
        .filter(|r| r.ordinal == 0)
        .collect();
    let warm = serve_round(&first, library, engine, &mut Ledger::default());
    warm.ops.iter().for_each(|op| check.check(op));
    secs(warm.ns)
}

/// The `warm_service` set-up: [`WARM_SETUPS`] cold library builds, of
/// which the last is kept (and traced when `trace` is set), then
/// [`warm_up`]. Returns the library, the kept build, and every build's
/// seconds.
fn warm_setup(
    seeds: &Seeds,
    threads: usize,
    check: &mut Checker,
    t: &mut Timings,
    trace: bool,
) -> (sp2_workload::WorkloadLibrary, passes::Built, Vec<f64>) {
    let mut setups = Vec::with_capacity(WARM_SETUPS);
    let mut kept = None;
    for i in 0..WARM_SETUPS {
        // Only the kept build is traced, so its counters are its own.
        if trace && i + 1 == WARM_SETUPS {
            traced(threads);
        } else {
            untraced(threads);
        }
        let (library, built) = passes::cold_library(seeds.library, &mut Ledger::default());
        check.check(&built.op);
        setups.push(secs(built.build_ns));
        kept = Some((library, built));
    }
    let (library, built) = kept.expect("WARM_SETUPS is positive");
    let warm = warm_up(&library, seeds, &untraced(threads), check);
    t.add("library build", "s", setups.clone());
    t.add("warm-up requests", "s", vec![warm]);
    (library, built, setups)
}

/// Runs whole rounds until `seconds` are spent (at least `min`).
fn stream(
    library: &sp2_workload::WorkloadLibrary,
    seeds: &Seeds,
    engine: &EngineConfig,
    seconds: f64,
    min: usize,
    check: &mut Checker,
    led: &mut Ledger,
) -> Result<(Vec<Round>, Vec<f64>), String> {
    let requests = passes::request_round(seeds.stream);
    let start = Instant::now();
    let (mut rounds, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    while keep_going(start, seconds, &walls, min) {
        reset_peak_rss();
        let round = serve_round(&requests, library, engine, led);
        rss.push(peak_rss_mb()?);
        round.ops.iter().for_each(|op| check.check(op));
        walls.push(secs(round.ns));
        rounds.push(round);
    }
    Ok((rounds, rss))
}

fn run_warm(
    args: &Args,
    seeds: &Seeds,
    threads: usize,
    check: &mut Checker,
    t: &mut Timings,
) -> Result<Metrics, String> {
    let (library, _, setups) = warm_setup(seeds, threads, check, t, false);
    let engine = untraced(threads);
    let (rounds, rss) = stream(
        &library,
        seeds,
        &engine,
        args.seconds,
        MIN_PASSES,
        check,
        &mut Ledger::default(),
    )?;
    let walls: Vec<f64> = rounds.iter().map(|r| secs(r.ns)).collect();
    let gflops: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.gflops.iter().copied())
        .collect();
    t.add("round wall", "s", walls.clone());
    let mut m = Metrics::default();
    m.push("wall_s", median(&walls), "s");
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mb", median(&rss), "MB");
    m.show("paper_rate_err", Some(paper_rate_err(&gflops)), "ratio");
    show_class_rates(&mut m, t, &rounds);
    Ok(m)
}

/// Simulated cycles per host second of one direct `Node::run_kernel` per
/// public kernel constructor, at the library's iteration counts.
fn kernel_family_rates() -> Vec<(&'static str, f64)> {
    const ITERS: u64 = 60_000;
    let families = [
        (
            "cfd",
            kernels::cfd_kernel("cfd", &kernels::CfdKernelParams::default(), ITERS),
        ),
        (
            "npb_bt",
            kernels::cfd_kernel("npb-bt", &kernels::CfdKernelParams::npb_bt(), ITERS),
        ),
        ("matmul_blocked", kernels::blocked_matmul_kernel(ITERS)),
        ("matmul_naive", kernels::naive_matmul_kernel(ITERS)),
        ("seqaccess", kernels::seqaccess_kernel(200_000)),
        (
            "spectral",
            kernels::spectral_kernel("spectral", 4_096 << 3, ITERS),
        ),
        ("blas3", kernels::blas3_kernel(ITERS)),
    ];
    let machine = ClusterConfig::default().machine;
    families
        .into_iter()
        .map(|(name, kernel)| {
            let mut node = Node::new(machine);
            let start = Instant::now();
            let report = node.run_kernel(KernelRun::new(std::hint::black_box(&kernel)));
            let s = start.elapsed().as_secs_f64().max(1e-9);
            (name, std::hint::black_box(report.stats.cycles) as f64 / s)
        })
        .collect()
}

/// Everything a traced run measured, reduced to the per-layer metrics.
struct TracedRun<'a> {
    /// Spans and counts of the traced passes (rounds on `warm_service`).
    led: &'a Ledger,
    passes: usize,
    traced_wall_ns: u64,
    untraced_wall: f64,
    traced_wall: f64,
    build: &'a passes::Built,
    cache: (u64, u64),
    sweeps: (u64, u64),
    /// Summary rates of the traced passes.
    gflops: Vec<f64>,
}

fn layer_metrics(r: &TracedRun) -> Metrics {
    let n = r.passes.max(1) as f64;
    let per = |ns: u64| secs(ns) / n;
    let mut m = Metrics::default();
    let led = r.led;
    m.push("workload.library_build_s", secs(r.build.build_ns), "s");
    m.push("workload.kernels", r.build.kernels as f64, "count");
    m.push(
        "workload.trace_generate_s",
        per(led.total_ns("workload.trace_generate")),
        "s",
    );
    let measure_s = secs(r.build.measure_ns).max(1e-12);
    let cycles = r.build.sim_cycles as f64;
    m.push("power2.sim_cycles", cycles, "cycles");
    m.push("power2.sim_cycles_per_s", cycles / measure_s, "cycles/s");
    m.push(
        "power2.sim_instr_per_s",
        r.build.sim_instr as f64 / measure_s,
        "instr/s",
    );
    let (hits, misses) = r.cache;
    m.push("power2.sigcache_hits", hits as f64 / n, "count");
    m.push("power2.sigcache_misses", misses as f64 / n, "count");
    let lookups = (hits + misses).max(1) as f64;
    m.push("power2.sigcache_hit_rate", hits as f64 / lookups, "ratio");
    for (family, rate) in kernel_family_rates() {
        m.push(
            format!("power2.kernel_cycles_per_s.{family}"),
            rate,
            "cycles/s",
        );
    }
    let c = &led.counts;
    m.push(
        "cluster.campaign_s",
        per(led.total_ns("cluster.campaign")),
        "s",
    );
    let rate = |days: u64, ns: u64| if ns == 0 { 0.0 } else { days as f64 / secs(ns) };
    m.push(
        "cluster.days_per_s.steady",
        rate(c.steady_days, c.steady_ns),
        "days/s",
    );
    m.push(
        "cluster.days_per_s.faulted",
        rate(c.faulted_days, c.faulted_ns),
        "days/s",
    );
    m.push(
        "cluster.rotated_s",
        per(led.total_ns("cluster.rotated")),
        "s",
    );
    let (sweeps, elided) = r.sweeps;
    m.push("cluster.sweeps", sweeps as f64 / n, "count");
    m.push("cluster.sweeps_elided", elided as f64 / n, "count");
    m.push(
        "cluster.elision_rate",
        elided as f64 / sweeps.max(1) as f64,
        "ratio",
    );
    m.push("cluster.samples", c.samples as f64 / n, "count");
    m.push("pbs.jobs_completed", c.jobs_completed as f64 / n, "count");
    m.push(
        "rs2hpm.reconstruct_s",
        per(led.total_ns("rs2hpm.reconstruct")),
        "s",
    );
    m.push("rs2hpm.anomalies", c.anomalies as f64 / n, "count");
    m.push("rs2hpm.job_reports", c.job_reports as f64 / n, "count");
    for e in all_experiments() {
        let name = format!("core.experiment.{}", e.id());
        m.push(
            format!("core.experiment_s.{}", e.id()),
            per(led.total_ns(&name)),
            "s",
        );
    }
    m.push("core.render_s", per(led.total_ns("core.render")), "s");
    m.push("core.dataset_bytes", c.dataset_bytes as f64 / n, "bytes");
    m.push("paper_rate_err", paper_rate_err(&r.gflops), "ratio");
    let by_layer = led.self_ns_by_layer();
    for layer in ["workload", "power2", "cluster", "pbs", "rs2hpm", "core"] {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        m.push(format!("{layer}.self_s"), per(ns), "s");
    }
    m.push(
        "unaccounted_s",
        led.unaccounted_ns(r.traced_wall_ns) as f64 / 1e9 / n,
        "s",
    );
    m.push(
        "trace.overhead",
        r.traced_wall / r.untraced_wall - 1.0,
        "ratio",
    );
    m
}

fn cache_counts() -> (u64, u64) {
    let cache = SignatureCache::global();
    (cache.hits(), cache.misses())
}

fn sweep_counts() -> (u64, u64) {
    (
        sp2_cluster::metrics::SWEEPS.get(),
        sp2_cluster::metrics::SWEEPS_ELIDED.get(),
    )
}

/// `--trace 1` on a cold workload: one untraced pass, then one traced.
fn trace_cold(
    w: Workload,
    seeds: &Seeds,
    threads: usize,
    check: &mut Checker,
    t: &mut Timings,
) -> Result<Metrics, String> {
    let job = w.job(seeds.trace)?;
    let engine = untraced(threads);
    let plain = passes::cold_pass(seeds.library, &job, &engine, &mut Ledger::default());
    check_cold(check, &plain);
    let engine = traced(threads);
    let mut led = Ledger::default();
    let pass = passes::cold_pass(seeds.library, &job, &engine, &mut led);
    let (cache, sweeps) = (cache_counts(), sweep_counts());
    untraced(threads);
    let gflops = check_cold(check, &pass).into_iter().collect();
    t.add("untraced pass wall", "s", vec![secs(plain.wall_ns)]);
    t.add("traced pass wall", "s", vec![secs(pass.wall_ns)]);
    Ok(layer_metrics(&TracedRun {
        led: &led,
        passes: 1,
        traced_wall_ns: pass.wall_ns,
        untraced_wall: secs(plain.wall_ns),
        traced_wall: secs(pass.wall_ns),
        build: &pass.build,
        cache,
        sweeps,
        gflops,
    }))
}

/// `--trace 1` on `warm_service`: a traced set-up build, then half the
/// time untraced rounds and half traced rounds.
fn trace_warm(
    args: &Args,
    seeds: &Seeds,
    threads: usize,
    check: &mut Checker,
    t: &mut Timings,
) -> Result<Metrics, String> {
    let (library, built, _) = warm_setup(seeds, threads, check, t, true);
    let half = args.seconds / 2.0;
    let engine = untraced(threads);
    let (plain, _) = stream(
        &library,
        seeds,
        &engine,
        half,
        1,
        check,
        &mut Ledger::default(),
    )?;
    let engine = traced(threads);
    let (cache0, sweeps0) = (cache_counts(), sweep_counts());
    let mut led = Ledger::default();
    let (rounds, _) = stream(&library, seeds, &engine, half, 1, check, &mut led)?;
    let (cache1, sweeps1) = (cache_counts(), sweep_counts());
    untraced(threads);
    let plain_walls: Vec<f64> = plain.iter().map(|r| secs(r.ns)).collect();
    let walls: Vec<f64> = rounds.iter().map(|r| secs(r.ns)).collect();
    t.add("untraced round wall", "s", plain_walls.clone());
    t.add("traced round wall", "s", walls.clone());
    Ok(layer_metrics(&TracedRun {
        led: &led,
        passes: rounds.len(),
        traced_wall_ns: rounds.iter().map(|r| r.ns).sum(),
        untraced_wall: median(&plain_walls),
        traced_wall: median(&walls),
        build: &built,
        cache: (cache1.0 - cache0.0, cache1.1 - cache0.1),
        sweeps: (sweeps1.0 - sweeps0.0, sweeps1.1 - sweeps0.1),
        gflops: rounds
            .iter()
            .flat_map(|r| r.gflops.iter().copied())
            .collect(),
    }))
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn run(args: &Args) -> Result<(), String> {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = args.workload.threads().min(host);
    let seeds = Seeds::derive(args.seed);
    println!(
        "workload {} seed {} (library {}, trace {}, stream {}) host_cores {host} engine_threads {threads} (requested {}) trace {}",
        args.workload.name(),
        args.seed,
        seeds.library,
        seeds.trace,
        seeds.stream,
        args.workload.threads(),
        u8::from(args.trace)
    );
    let mut check = Checker::new(args.workload, args.seed)?;
    let mut t = Timings(Vec::new());
    let start = Instant::now();
    let metrics = match (args.workload, args.trace) {
        (Workload::WarmService, false) => run_warm(args, &seeds, threads, &mut check, &mut t)?,
        (Workload::WarmService, true) => trace_warm(args, &seeds, threads, &mut check, &mut t)?,
        (w, false) => run_cold(w, args, &seeds, threads, &mut check, &mut t)?,
        (w, true) => trace_cold(w, &seeds, threads, &mut check, &mut t)?,
    };
    println!("measured for {:.3} s", start.elapsed().as_secs_f64());
    for (name, unit, values) in &t.0 {
        println!("timing  {}", stats::describe(name, unit, values));
    }
    for (name, value, unit) in &metrics.listed {
        println!("metric  {name:<40} {value} {unit}");
    }
    for (name, value, unit) in &metrics.shown {
        match value {
            Some(v) => println!("shown   {name:<40} {v} {unit}"),
            None => println!("shown   {name:<40} n/a (no {unit} measured on this workload)"),
        }
    }
    let failed = check.errors.len() as u64;
    println!(
        "shown   {:<40} {} failed_ops/attempted_ops",
        "failed_frac",
        failed as f64 / check.attempted.max(1) as f64
    );
    for (op, d) in &check.seen {
        println!("digest  {} {op} {d:032x}", args.workload.name());
    }
    for e in &check.errors {
        println!("FAILED  {e}");
    }
    let fields = metrics
        .listed
        .iter()
        .map(|(name, value, unit)| {
            json_number(*value)
                .map(|v| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        check.attempted,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sp2-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a =
            parse_args(argv("--workload cli_2d --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Cli2d, 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload cli_2d --seed -1 --seconds 10 --trace 0",
            "--workload cli_2d --seed 7 --seconds 0 --trace 0",
            "--workload cli_2d --seed 7 --seconds 10 --trace 2",
            "--workload cli_2d --seed 7 --seconds 10",
            "--workload cli_2d --seed 7 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn golden_file_parses_for_every_workload() {
        for w in [Workload::Cli2d, Workload::Repro270d, Workload::WarmService] {
            let c = Checker::new(w, DEFAULT_SEED).expect("golden parses");
            assert!(
                !c.golden.expect("default seed loads golden").is_empty(),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn checker_fails_errors_and_changed_digests() {
        let mut c = Checker::new(Workload::Cli2d, 1).expect("no golden off the default seed");
        let op = |d| Op {
            name: "summary".into(),
            outcome: Ok(d),
        };
        c.check(&op(5));
        c.check(&op(5));
        assert!(c.errors.is_empty());
        c.check(&op(6));
        c.fail("library", "not cold".into());
        assert_eq!((c.attempted, c.errors.len()), (4, 2));
    }

    #[test]
    fn keep_going_honours_the_minimum_and_the_budget() {
        let start = Instant::now();
        assert!(keep_going(start, 0.0, &[], 2));
        assert!(keep_going(start, 0.0, &[1.0], 2));
        assert!(!keep_going(start, 0.5, &[1.0, 1.0], 2));
        assert!(keep_going(start, 100.0, &[1.0, 1.0], 2));
    }

    #[test]
    fn paper_rate_error_is_relative_to_the_paper() {
        let e = paper_rate_err(&[1.56, 1.3, 1.56]);
        assert!((e - 0.2).abs() < 1e-12);
        assert_eq!(paper_rate_err(&[]), 0.0);
    }
}
