//! `sp2` — command-line front end for the SP2 HPM reproduction.
//!
//! Every table and figure is dispatched through the experiment registry
//! ([`sp2_repro::core::experiments::all_experiments`]); the experiment id
//! doubles as the subcommand.
//!
//! ```text
//! sp2 table1                       # print Table 1
//! sp2 table2 --days 60             # Table 2 from a 60-day campaign
//! sp2 fig5 --json                  # Figure 5 dataset as JSON on stdout
//! sp2 calibration                  # §5 single-node anchors
//! sp2 iowait --days 30             # the §7 io-aware extension
//! sp2 toplev                       # top-down bottleneck tree
//! sp2 toplev --plan-only --json    # the 28-signal counter-group schedule
//! sp2 toplev --passes 2 --days 30  # rotate all 28 signals over 2 passes
//! sp2 availability --faults 0.05   # fault impact vs a fault-free twin
//! sp2 probe matmul                 # run one kernel under the HPM
//! sp2 campaign --days 270          # everything, with artifacts
//! sp2 profile --days 30            # self-measurement report of the run
//! sp2 table2 --metrics m.json      # any command + metrics dump afterwards
//! sp2 timeline --days 60           # the simulator's own Figure 1
//! sp2 timeline --trace-out t.json  # + Perfetto-loadable trace of the run
//! ```
//!
//! Exit codes are per error class so scripts can tell a typo from a
//! failed engine run: 2 usage, 3 unknown experiment, 4 cluster
//! configuration, 5 campaign spec or submission, 6 campaign engine,
//! 7 artifact i/o, 8 service protocol.

use sp2_repro::cluster::{EngineConfig, EngineKind};
use sp2_repro::core::compare::compare_datasets;
use sp2_repro::core::experiments::{all_experiments, experiment_or_err};
use sp2_repro::core::serve::{self, Client, ServeConfig, Server, SubmitOutcome};
use sp2_repro::core::{
    archive, export, metrics, timeline, toplev, Json, Sp2Error, Sp2System, Submission, Tolerance,
};
use sp2_repro::hpm::{nas_selection, Hpm, Mode, SchedulePlan, Signal};
use sp2_repro::power2::{MachineConfig, Node};
use sp2_repro::rs2hpm::{BottleneckSplit, CounterSession};
use sp2_repro::trace::Recording;
use sp2_repro::workload::{
    blocked_matmul_kernel, cfd_kernel, naive_matmul_kernel, seqaccess_kernel, CfdKernelParams,
};
use std::process::ExitCode;

const USAGE: &str = "\
sp2 — reproduce Bergeron (SC 1998) on the simulated NAS SP2

USAGE:
    sp2 [OPTIONS] <COMMAND> [ARGS] [OPTIONS]

Global options may come before or after the command; they compose the
same either way.

COMMANDS:
    table1 | table2 | table3 | table4    regenerate a table
    fig1 | fig2 | fig3 | fig4 | fig5     regenerate a figure's dataset
    calibration                          §5 single-node anchors
    iowait                               §7 io-aware counter extension
    toplev                               top-down bottleneck accounting; with
                                         --passes N, run a rotated campaign
                                         that multiplexes the full 28-signal
                                         space across daemon sweeps
    availability                         fault impact vs a fault-free twin
    summary                              headline statistics vs the paper
    probe <matmul|naive|cfd|bt|seq>      run one kernel under the HPM
    campaign                             all of the above + JSON artifacts
    profile                              campaign under the trace layer, then
                                         print the self-measurement report
    timeline                             campaign under the flight recorder,
                                         then print per-phase sparkline
                                         histories (the simulator's Figure 1)
    list                                 list registered experiments
    serve                                run the campaign service: accept
                                         submissions over TCP, multiplex
                                         campaigns, stream NDJSON results,
                                         persist them in the result store
    submit [EXPERIMENT]                  send a submission to a running
                                         `sp2 serve` and stream its results
                                         (or run it in-process with --local)
    jobs [list|status|fetch|cancel] [JOB]
                                         query or control a running daemon;
                                         JOB is a unique digest prefix
    archive <EXPERIMENT> --out FILE      run a campaign and write its samples,
                                         job reports, accounting records, and
                                         dataset lines as a compact columnar
                                         sp2-archive/v1 container
    compare A B                          diff two result sets dataset by
                                         dataset (archives or NDJSON streams,
                                         freely mixed); exit code reports the
                                         verdict (see below)

OPTIONS:
    --days N        campaign length in days (default 60; the paper used 270).
                    A campaign runs on one thread; kernel measurement uses
                    every core, with identical results at any core count
    --faults RATE   fault-injection rate (default 0 = fault-free; 1.0 is
                    roughly a troubled production month)
    --fault-seed N  seed for the fault plan (default 4096)
    --seed N        campaign trace seed (default 1996); every command that
                    simulates reads it, and `submit` sends it
    --engine KIND   node engine: `batch` (default; struct-of-arrays bank
                    with interned plans and cluster-interval
                    fast-forward) or `reference` (the per-node loop the
                    batch engine is proven against). Results are
                    bit-identical either way
    --no-fast-forward
                    step every sampling sweep of this run's campaigns
                    instead of eliding steady runs of them (the batch
                    engine's cluster-interval fast-forward; A/B escape
                    hatch: results are bit-identical either way, this
                    only trades speed for paranoia)
    --json          print the dataset (or profile metrics) as JSON
    --metrics [PATH] enable the trace layer for any command; after it
                    finishes, write the metrics JSON to PATH, or print the
                    metrics table to stderr when PATH is omitted. Before
                    the command token the PATH form must be attached
                    (`--metrics=PATH`) so the command is never mistaken
                    for a path
    --trace-out PATH enable the flight recorder (any command; implied by
                    `timeline`) and write the run's span events to PATH as
                    Chrome trace-event JSON (open in Perfetto or
                    chrome://tracing): the simulator's own execution on
                    the wall clock, then one simulated-machine process
                    per campaign, each job on a thread of its own
    --plan-only     toplev: print the counter-group schedule and exit
                    without running a campaign
    --passes N      toplev: rotate the full 28-signal request over N
                    lockstep passes (default: the single-pass plan over
                    the campaign's own selection; the 28-signal space
                    needs at least 2)
    --live          jobs status: ask the daemon for a live snapshot too
                    (queue depth, sweep progress, metrics when enabled)

SERVICE OPTIONS (serve / submit / jobs):
    --addr HOST:PORT  daemon address (default 127.0.0.1:7598; serve
                    accepts port 0 for an ephemeral port)
    --store DIR     result-store directory (serve; default target/sp2-store)
    --campaigns N   concurrent campaign workers (serve; default 2)
    --experiments A,B,C
                    experiment ids for a submission (submit; a positional
                    experiment id works for a single one)
    --no-wait       return the job header immediately instead of
                    streaming results (submit)
    --local         run the submission in-process, no daemon, printing
                    the same dataset event lines the service would
                    stream (submit)

ARCHIVE / COMPARE OPTIONS:
    --out FILE      where `archive` writes the container
    --archive FILE  run an experiment against an archived campaign
                    instead of simulating (`sp2 table2 --archive a.sp2a`).
                    A replay analyzes only the campaign the archive holds:
                    an experiment that needs another (a fault-free twin,
                    the io-aware campaign, a rotated run) fails, exit 7
    --rel-tol X     compare: relative tolerance per metric (default 1e-9)
    --abs-tol X     compare: absolute tolerance per metric (default 0)

EXIT CODES:
    0 ok   2 usage   3 unknown experiment   4 cluster config
    5 campaign spec / submission   6 campaign engine   7 artifact i/o
    or a campaign the archive lacks   8 service protocol
    compare: 0 bit-identical   3 within tolerance   4 tolerance exceeded
    5 shape mismatch
";

/// Everything the front end can fail with: a usage problem (ours) or a
/// facade error (classed by [`Sp2Error`]).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Sp2(Sp2Error),
}

impl From<Sp2Error> for CliError {
    fn from(e: Sp2Error) -> Self {
        CliError::Sp2(e)
    }
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(match self {
            CliError::Usage(_) => 2,
            CliError::Sp2(Sp2Error::UnknownExperiment(_)) => 3,
            CliError::Sp2(Sp2Error::Config(_)) => 4,
            CliError::Sp2(Sp2Error::Spec(_) | Sp2Error::Submission(_)) => 5,
            CliError::Sp2(Sp2Error::Campaign(_)) => 6,
            CliError::Sp2(Sp2Error::Io(_) | Sp2Error::MissingCampaign(_)) => 7,
            CliError::Sp2(Sp2Error::Protocol(_)) => 8,
        })
    }

    fn message(&self) -> String {
        match self {
            CliError::Usage(m) => m.clone(),
            CliError::Sp2(e) => e.to_string(),
        }
    }
}

struct Args {
    command: String,
    arg: Option<String>,
    arg2: Option<String>,
    days: u32,
    faults: f64,
    fault_seed: u64,
    json: bool,
    engine: EngineKind,
    fast_forward: bool,
    /// `None` = tracing off; `Some(None)` = `--metrics` (table to stderr);
    /// `Some(Some(path))` = `--metrics PATH` (JSON to the file).
    metrics: Option<Option<String>>,
    /// Chrome trace-event destination; enables the flight recorder.
    trace_out: Option<String>,
    /// Daemon address for `serve` / `submit` / `jobs`.
    addr: String,
    /// Result-store directory for `serve`.
    store: String,
    /// Concurrent campaign workers for `serve`.
    campaigns: usize,
    /// Comma-separated experiment ids for `submit`.
    experiments: Option<String>,
    /// Campaign trace seed (None = the spec default).
    seed: Option<u64>,
    /// `submit --no-wait`: return the job header, don't stream.
    no_wait: bool,
    /// `submit --local`: run in-process instead of through a daemon.
    local: bool,
    /// `archive --out`: destination container path.
    out: Option<String>,
    /// `--archive`: replay experiments against this archived campaign.
    archive: Option<String>,
    /// `compare --rel-tol` (None = the codec default, 1e-9).
    rel_tol: Option<f64>,
    /// `compare --abs-tol` (None = 0).
    abs_tol: Option<f64>,
    /// `toplev --plan-only`: print the schedule, run nothing.
    plan_only: bool,
    /// `toplev --passes N`: rotate the full signal space over N passes.
    passes: Option<usize>,
    /// `jobs status --live`: ask for the daemon's live snapshot.
    live: bool,
}

fn parse_args() -> Result<Args, String> {
    parse_args_from(std::env::args().skip(1))
}

/// Parses an argument list (everything after the program name). Split
/// from [`parse_args`] so the unit tests can feed token vectors without
/// spawning a process.
///
/// The command is the **first non-option token** — global options
/// compose identically before and after it (`sp2 --engine reference
/// submit …` ≡ `sp2 submit --engine reference …`). Up to two further
/// positional tokens ride along (`probe matmul`, `jobs status 3f2a`).
fn parse_args_from(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.into_iter().peekable();
    let mut args = Args {
        command: String::new(),
        arg: None,
        arg2: None,
        days: 60,
        faults: 0.0,
        fault_seed: 4_096,
        json: false,
        engine: EngineKind::default(),
        fast_forward: true,
        metrics: None,
        trace_out: None,
        addr: "127.0.0.1:7598".into(),
        store: "target/sp2-store".into(),
        campaigns: 2,
        experiments: None,
        seed: None,
        no_wait: false,
        local: false,
        out: None,
        archive: None,
        rel_tol: None,
        abs_tol: None,
        plan_only: false,
        passes: None,
        live: false,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--days" => {
                let v = argv.next().ok_or("--days needs a value")?;
                args.days = v.parse().map_err(|_| format!("bad --days value: {v}"))?;
                if args.days == 0 {
                    return Err("--days must be at least 1".into());
                }
            }
            "--faults" => {
                let v = argv.next().ok_or("--faults needs a value")?;
                args.faults = v.parse().map_err(|_| format!("bad --faults value: {v}"))?;
                if !args.faults.is_finite() || args.faults < 0.0 {
                    return Err(format!("--faults must be a finite rate >= 0, got {v}"));
                }
            }
            "--fault-seed" => {
                let v = argv.next().ok_or("--fault-seed needs a value")?;
                args.fault_seed = v
                    .parse()
                    .map_err(|_| format!("bad --fault-seed value: {v}"))?;
            }
            "--json" => args.json = true,
            "--engine" => {
                let v = argv
                    .next()
                    .ok_or("--engine needs a value (batch|reference)")?;
                args.engine = match v.as_str() {
                    "batch" => EngineKind::Batch,
                    "reference" => EngineKind::Reference,
                    other => return Err(format!("bad --engine value: {other} (batch|reference)")),
                };
            }
            "--no-fast-forward" => args.fast_forward = false,
            "--metrics" => {
                // The optional PATH is whatever non-option token follows;
                // a following option (e.g. `--metrics --json`) must never
                // be swallowed as the path. Before the command token the
                // bare form never consumes anything either — `sp2
                // --metrics table2` must read table2 as the command, not
                // as a path (use `--metrics=PATH` there).
                args.metrics = Some(if args.command.is_empty() {
                    None
                } else {
                    argv.next_if(|v| !v.starts_with('-'))
                });
            }
            s if s.starts_with("--metrics=") => {
                let path = &s["--metrics=".len()..];
                if path.is_empty() {
                    return Err("--metrics= needs a PATH after the equals sign".into());
                }
                args.metrics = Some(Some(path.to_string()));
            }
            "--trace-out" => {
                let v = argv.next().ok_or("--trace-out needs a PATH")?;
                if v.starts_with('-') {
                    return Err(format!("--trace-out needs a PATH, got option {v}"));
                }
                args.trace_out = Some(v);
            }
            "--addr" => {
                let v = argv.next().ok_or("--addr needs a HOST:PORT value")?;
                if v.starts_with('-') {
                    return Err(format!("--addr needs a HOST:PORT value, got option {v}"));
                }
                args.addr = v;
            }
            "--store" => {
                let v = argv.next().ok_or("--store needs a DIR value")?;
                if v.starts_with('-') {
                    return Err(format!("--store needs a DIR value, got option {v}"));
                }
                args.store = v;
            }
            "--campaigns" => {
                let v = argv.next().ok_or("--campaigns needs a value")?;
                args.campaigns = v
                    .parse()
                    .map_err(|_| format!("bad --campaigns value: {v}"))?;
                if args.campaigns == 0 {
                    return Err("--campaigns must be at least 1 worker".into());
                }
            }
            "--experiments" => {
                let v = argv.next().ok_or("--experiments needs a comma list")?;
                if v.starts_with('-') {
                    return Err(format!("--experiments needs a comma list, got option {v}"));
                }
                args.experiments = Some(v);
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed value: {v}"))?);
            }
            "--no-wait" => args.no_wait = true,
            "--local" => args.local = true,
            "--plan-only" => args.plan_only = true,
            "--live" => args.live = true,
            "--passes" => {
                let v = argv.next().ok_or("--passes needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --passes value: {v}"))?;
                if n == 0 {
                    return Err("--passes must be at least 1".into());
                }
                args.passes = Some(n);
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a FILE value")?;
                if v.starts_with('-') {
                    return Err(format!("--out needs a FILE value, got option {v}"));
                }
                args.out = Some(v);
            }
            "--archive" => {
                let v = argv.next().ok_or("--archive needs a FILE value")?;
                if v.starts_with('-') {
                    return Err(format!("--archive needs a FILE value, got option {v}"));
                }
                args.archive = Some(v);
            }
            "--rel-tol" => {
                let v = argv.next().ok_or("--rel-tol needs a value")?;
                let tol: f64 = v.parse().map_err(|_| format!("bad --rel-tol value: {v}"))?;
                if !tol.is_finite() || tol < 0.0 {
                    return Err(format!("--rel-tol must be a finite value >= 0, got {v}"));
                }
                args.rel_tol = Some(tol);
            }
            "--abs-tol" => {
                let v = argv.next().ok_or("--abs-tol needs a value")?;
                let tol: f64 = v.parse().map_err(|_| format!("bad --abs-tol value: {v}"))?;
                if !tol.is_finite() || tol < 0.0 {
                    return Err(format!("--abs-tol must be a finite value >= 0, got {v}"));
                }
                args.abs_tol = Some(tol);
            }
            "--help" | "-h" => {
                if args.command.is_empty() {
                    args.command = "help".into();
                }
            }
            other if !other.starts_with('-') => {
                if args.command.is_empty() {
                    args.command = other.to_string();
                } else if args.arg.is_none() {
                    args.arg = Some(other.to_string());
                } else if args.arg2.is_none() {
                    args.arg2 = Some(other.to_string());
                } else {
                    return Err(format!("unexpected argument: {other}"));
                }
            }
            other => return Err(format!("unknown option: {other}")),
        }
    }
    if args.command.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

fn probe(kernel_name: &str) -> Result<(), String> {
    let machine = MachineConfig::nas_sp2();
    let kernel = match kernel_name {
        "matmul" => blocked_matmul_kernel(100_000),
        "naive" => naive_matmul_kernel(100_000),
        "cfd" => cfd_kernel("cfd-probe", &CfdKernelParams::default(), 60_000),
        "bt" => cfd_kernel("bt-probe", &CfdKernelParams::npb_bt(), 60_000),
        "seq" => seqaccess_kernel(300_000),
        other => {
            return Err(format!(
                "unknown kernel: {other} (try matmul|naive|cfd|bt|seq)"
            ))
        }
    };
    let mut node = Node::with_seed(machine, 7);
    let mut hpm = Hpm::new(nas_selection());
    let session = CounterSession::open(&hpm, 0.0);
    let stats = node.run_kernel(&kernel);
    hpm.absorb(&stats.events, Mode::User);
    let elapsed = machine.cycles_to_seconds(stats.cycles);
    let (_delta, report) = session.close(&hpm, elapsed);
    println!("kernel            {}", kernel.name);
    println!("cycles            {}", stats.cycles);
    println!("instructions      {}", stats.instructions);
    println!("ipc               {:.2}", stats.ipc());
    println!(
        "Mflops            {:.1}  (peak {:.0})",
        report.mflops,
        machine.peak_mflops()
    );
    println!("Mips              {:.1}", report.mips);
    println!("flops/memref      {:.2}", report.flops_per_memref());
    println!("FPU0/FPU1         {:.2}", report.fpu0_fpu1_ratio());
    println!(
        "fma flop share    {:.0} %",
        report.fma_flop_fraction() * 100.0
    );
    println!(
        "cache-miss ratio  {:.2} %",
        report.cache_miss_ratio() * 100.0
    );
    println!("TLB-miss ratio    {:.3} %", report.tlb_miss_ratio() * 100.0);
    Ok(())
}

/// Writes the metrics snapshot where `--metrics` asked for it: JSON to a
/// file, or the plain text table to stderr (keeping stdout clean for the
/// dataset the command printed).
fn dump_metrics(dest: Option<&str>) -> Result<(), CliError> {
    let snap = metrics::snapshot();
    match dest {
        Some(path) => {
            write_json_file(path, &metrics::to_json(&snap))
                .map_err(|e| CliError::Sp2(Sp2Error::Io(e)))?;
            eprintln!("metrics written to {path}");
        }
        None => eprint!("{}", snap.render_text()),
    }
    Ok(())
}

/// Streams a document to `path` (pretty, trailing newline) without
/// rendering it to a `String` first — year-scale timelines and metrics
/// dumps shouldn't double their size in resident text.
fn write_json_file(path: &str, doc: &Json) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    doc.write_to(&mut f)?;
    f.write_all(b"\n")?;
    f.flush()
}

/// Writes the recorded span events and campaign tracks where
/// `--trace-out` asked for them, as Chrome trace-event JSON.
fn dump_trace(path: &str, recording: &Recording) -> Result<(), CliError> {
    let (events, tracks) = (recording.events(), recording.tracks());
    let dropped = recording.dropped_events();
    write_json_file(path, &timeline::chrome_trace(&events, &tracks, dropped))
        .map_err(|e| CliError::Sp2(Sp2Error::Io(e)))?;
    let written = events.len() + tracks.iter().map(Vec::len).sum::<usize>();
    eprintln!("trace written to {path} ({written} events, {dropped} dropped)");
    Ok(())
}

/// Pure translation from parsed flags to the engine configuration the
/// run executes under. No process state changes here: `run` applies the
/// metrics switch, and every campaign reads the engine kind and sweep
/// elision from the config it is handed.
fn engine_config(args: &Args) -> EngineConfig {
    let mut engine = EngineConfig::default()
        .engine(args.engine)
        .fast_forward(args.fast_forward);
    // The trace layer stays off (one thread-local read per record site)
    // unless this invocation actually wants measurements.
    if args.metrics.is_some() || args.command == "profile" {
        engine = engine.metrics(true);
    }
    engine
}

/// The flight recording the command runs in, if it asked for one: only
/// `timeline` and `--trace-out` pay for span events and interval
/// sampling.
fn recording(args: &Args) -> Option<Recording> {
    (args.trace_out.is_some() || args.command == "timeline")
        .then(|| Recording::new(metrics::TABLES))
}

fn run() -> Result<ExitCode, CliError> {
    let args = parse_args().map_err(CliError::Usage)?;
    let engine = engine_config(&args);
    // Applied up front so commands that never build an Sp2System (probe,
    // list) still honor --metrics.
    engine.apply();
    let recording = recording(&args);
    let code = match &recording {
        Some(recording) => recording.run(|| dispatch(&args, engine))?,
        None => dispatch(&args, engine)?,
    };
    if let Some(dest) = &args.metrics {
        dump_metrics(dest.as_deref())?;
    }
    if let (Some(path), Some(recording)) = (&args.trace_out, &recording) {
        dump_trace(path, recording)?;
    }
    Ok(code)
}

/// Runs the command. `Ok` carries the process exit code — almost always
/// success, but `compare` reports its verdict through it.
fn dispatch(args: &Args, engine: EngineConfig) -> Result<ExitCode, CliError> {
    let cmd = args.command.as_str();
    let done = Ok(ExitCode::SUCCESS);

    match cmd {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return done;
        }
        "list" => {
            for e in all_experiments() {
                println!("{:<12} {}", e.id(), e.title());
            }
            return done;
        }
        "probe" => {
            let k = args
                .arg
                .as_deref()
                .ok_or_else(|| CliError::Usage("probe needs a kernel name".into()))?;
            probe(k).map_err(CliError::Usage)?;
            return done;
        }
        "serve" => {
            cmd_serve(args, engine)?;
            return done;
        }
        "submit" => {
            cmd_submit(args, engine)?;
            return done;
        }
        "jobs" => {
            cmd_jobs(args)?;
            return done;
        }
        "archive" => {
            cmd_archive(args, engine)?;
            return done;
        }
        "compare" => return cmd_compare(args),
        "toplev" if args.plan_only => {
            cmd_toplev_plan(args)?;
            return done;
        }
        _ => {}
    }

    let mut sys = campaign_system(args, engine)?;

    if cmd == "toplev" && args.passes.is_some() {
        cmd_toplev_rotated(args, &mut sys)?;
        return done;
    }

    if cmd == "timeline" {
        eprintln!(
            "running a {}-day campaign under the flight recorder…",
            args.days
        );
        let campaign = sys.campaign()?;
        let series = Recording::current().map(|r| r.series()).unwrap_or_default();
        let series = timeline::with_toplev(series, campaign);
        if args.json {
            println!("{}", timeline::timeline_json(&series).to_string_pretty());
        } else {
            print!("{}", timeline::render_timeline(&series));
        }
        return done;
    }

    if cmd == "campaign" || cmd == "profile" {
        eprintln!(
            "running a {}-day campaign{}…",
            args.days,
            if args.faults > 0.0 {
                format!(" with faults at rate {}", args.faults)
            } else {
                String::new()
            }
        );
        for dataset in sys.run_all()? {
            if cmd == "campaign" {
                println!("{}", dataset.rendered);
            }
            dataset.write_artifact()?;
        }
        eprintln!("artifacts written to {}", export::artifacts_dir().display());
        if cmd == "profile" {
            let snap = metrics::snapshot();
            if args.json {
                println!("{}", metrics::to_json(&snap).to_string_pretty());
            } else {
                print!("{}", metrics::profile_report(&snap));
            }
        }
        return done;
    }

    let exp = experiment_or_err(cmd)?;
    if exp.needs_campaign() {
        eprintln!("running a {}-day campaign…", args.days);
    }
    let dataset = sys.dataset(exp)?;
    if args.json {
        println!("{}", dataset.json.to_string_pretty());
    } else {
        print!("{}", dataset.rendered);
    }
    done
}

/// The schedule `toplev` plans over: the full 28-signal space, minimal
/// by default, stretched when `--passes N` asks for rotation slack.
fn toplev_plan(args: &Args) -> Result<SchedulePlan, CliError> {
    match args.passes {
        Some(n) => SchedulePlan::with_passes(&Signal::ALL, n)
            .map_err(|e| CliError::Usage(format!("--passes {n}: {e}"))),
        None => Ok(SchedulePlan::minimal(&Signal::ALL)),
    }
}

/// `sp2 toplev --plan-only`: print the counter-group schedule for the
/// full 28-signal space without running a campaign.
fn cmd_toplev_plan(args: &Args) -> Result<(), CliError> {
    let plan = toplev_plan(args)?;
    if args.json {
        println!(
            "{}",
            Json::obj()
                .field("schema", toplev::SCHEMA)
                .field("plan", toplev::plan_json(&plan))
                .to_string_pretty()
        );
    } else {
        print!("{}", toplev::render_plan(&plan));
    }
    Ok(())
}

/// `sp2 toplev --passes N`: run N lockstep campaigns rotating the full
/// 28-signal schedule across daemon sweeps, reconstruct every signal
/// with coverage fractions and error bounds, and render the bottleneck
/// tree from the reconstructed totals.
fn cmd_toplev_rotated(args: &Args, sys: &mut Sp2System) -> Result<(), CliError> {
    let plan = toplev_plan(args)?;
    eprintln!(
        "running a {}-day campaign {} time(s) to rotate {} signal(s)…",
        args.days,
        plan.n_passes(),
        plan.requested().len()
    );
    let rotated = sys.rotated_campaign(&plan)?;
    let recon = rotated
        .reconstruct()
        .map_err(|e| Sp2Error::Protocol(format!("rotated reconstruction: {e}")))?;
    let split = BottleneckSplit::from_totals(|sig| recon.total(sig))
        .ok_or_else(|| Sp2Error::Protocol("rotated campaign measured no cycles".into()))?;
    let tree = toplev::bottleneck_tree(&split);
    if args.json {
        println!(
            "{}",
            Json::obj()
                .field("schema", toplev::SCHEMA)
                .field("tree", tree.to_json())
                .field("plan", toplev::plan_json(&plan))
                .field("max_error", recon.max_error())
                .field("reconstruction", toplev::reconstruction_json(&recon))
                .to_string_pretty()
        );
    } else {
        println!("Top-down bottleneck accounting (rotated, share of reconstructed cycles)");
        print!("{}", tree.render());
        println!();
        print!("{}", toplev::render_plan(&plan));
        println!();
        print!("{}", toplev::render_reconstruction(&recon));
        println!(
            "rotation: max multiplexing error {:.4}, min coverage {:.0} %",
            recon.max_error(),
            recon.min_coverage() * 100.0
        );
    }
    Ok(())
}

/// The system a campaign command runs on: the one its flags submit
/// ([`campaign_submission`]), or with `--archive`, a replay of the
/// archived campaign that simulates nothing.
fn campaign_system(args: &Args, engine: EngineConfig) -> Result<Sp2System, CliError> {
    let submission = campaign_submission(args)?;
    let Some(path) = args.archive.as_deref() else {
        return Ok(submission.system(engine, None));
    };
    let loaded = archive::load_archive(std::path::Path::new(path))?;
    let campaign = loaded.campaign.ok_or_else(|| {
        CliError::Sp2(Sp2Error::Protocol(format!(
            "{path} holds dataset lines only, no campaign to replay"
        )))
    })?;
    if campaign.faults.enabled != (args.faults > 0.0) {
        return Err(CliError::Usage(if campaign.faults.enabled {
            "the archived campaign ran with faults; pass the matching --faults rate".into()
        } else {
            "the archived campaign is fault-free; drop --faults".into()
        }));
    }
    eprintln!(
        "replaying a {}-day archived campaign ({} samples, {} job reports)…",
        campaign.days,
        campaign.samples.len(),
        campaign.job_reports.len()
    );
    let kind = archive::selection_kind(&campaign.selection)?;
    let mut sys = submission.system(engine, None);
    sys.replay(kind, campaign);
    Ok(sys)
}

/// `sp2 archive <EXPERIMENT> --out FILE`: run the submission the same
/// way `submit --local` would, then persist the campaign and the
/// dataset lines as one sp2-archive/v1 container.
fn cmd_archive(args: &Args, engine: EngineConfig) -> Result<(), CliError> {
    let out = args
        .out
        .as_deref()
        .ok_or_else(|| CliError::Usage("archive needs --out FILE".into()))?;
    let submission = submission_from_args(args)?;
    eprintln!("running a {}-day campaign…", args.days);
    let mut lines = Vec::new();
    let mut sys = serve::execute(&submission, engine, None, |line| lines.push(line))?;
    let campaign = sys.campaign()?;
    let file = std::fs::File::create(out).map_err(|e| CliError::Sp2(Sp2Error::Io(e)))?;
    let mut w = archive::write_campaign_archive(std::io::BufWriter::new(file), campaign, &lines)?;
    use std::io::Write as _;
    w.flush().map_err(|e| CliError::Sp2(Sp2Error::Io(e)))?;
    eprintln!(
        "archive written to {out} ({} samples, {} job reports, {} datasets)",
        campaign.samples.len(),
        campaign.job_reports.len(),
        lines.len()
    );
    Ok(())
}

/// Reads one `compare` input into labeled dataset documents: an
/// sp2-archive container's dataset lines, or an NDJSON stream (dataset
/// events picked out, a captured stream's job header and terminal event
/// skipped; plain JSON-per-line files compare whole lines).
fn load_compare_input(path: &str) -> Result<Vec<(String, Json)>, CliError> {
    let p = std::path::Path::new(path);
    let lines = if archive::file_is_archive(p) {
        archive::load_archive(p)?.dataset_lines
    } else {
        std::fs::read_to_string(p)
            .map_err(|e| CliError::Sp2(Sp2Error::Io(e)))?
            .lines()
            .map(str::to_string)
            .collect()
    };
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| {
            CliError::Sp2(Sp2Error::Protocol(format!("{path} line {}: {e}", i + 1)))
        })?;
        match doc.get("event").and_then(Json::as_str) {
            Some("dataset") | None => {}
            Some(_) => continue, // the job header or the terminal event
        }
        let label = doc
            .get("experiment")
            .and_then(Json::as_str)
            .map_or_else(|| format!("line {}", i + 1), str::to_string);
        // Compare the dataset body, not the stream envelope: the `job`
        // digest covers the seed, so leaving it in would turn every
        // different-seed comparison into a string (shape) mismatch
        // instead of a measured numeric difference.
        let body = doc.get("doc").cloned().unwrap_or(doc);
        out.push((label, body));
    }
    Ok(out)
}

/// `sp2 compare A B`: dataset-by-dataset diff with per-metric
/// tolerances. The verdict is the exit code: 0 bit-identical, 3 within
/// tolerance, 4 exceeded, 5 shape mismatch.
fn cmd_compare(args: &Args) -> Result<ExitCode, CliError> {
    let (a, b) = match (&args.arg, &args.arg2) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(CliError::Usage(
                "compare needs two inputs: sp2 compare A B".into(),
            ))
        }
    };
    let tolerance = Tolerance {
        rel: args.rel_tol.unwrap_or(Tolerance::default().rel),
        abs: args.abs_tol.unwrap_or(0.0),
    };
    let left = load_compare_input(a)?;
    let right = load_compare_input(b)?;
    let report = compare_datasets(&left, &right, tolerance);
    if args.json {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        print!("{}", report.render_table());
    }
    Ok(ExitCode::from(report.outcome.exit_code()))
}

/// `sp2 serve`: run the campaign service in the foreground until a
/// `shutdown` request (or a signal) takes it down.
fn cmd_serve(args: &Args, engine: EngineConfig) -> Result<(), CliError> {
    let server = Server::bind(ServeConfig {
        addr: args.addr.clone(),
        store_dir: args.store.clone().into(),
        campaigns: args.campaigns,
        engine,
    })?;
    eprintln!(
        "sp2 serve listening on {} ({} campaign worker(s), store {})",
        server.local_addr()?,
        args.campaigns,
        args.store,
    );
    server.run()?;
    eprintln!("sp2 serve stopped");
    Ok(())
}

/// The one translation of the run flags: `--days`, `--seed`,
/// `--faults` and `--fault-seed` mean the same on every command that
/// simulates, because each builds its [`Submission`] here.
fn submission_of(args: &Args, experiments: Vec<String>) -> Result<Submission, CliError> {
    let mut builder = Submission::builder()
        .days(args.days)
        .faults(args.faults)
        .fault_seed(args.fault_seed)
        .experiments(experiments);
    if let Some(seed) = args.seed {
        builder = builder.seed(seed);
    }
    Ok(builder.build()?)
}

/// What `submit` and `archive` run: the experiments `--experiments` or
/// the positional id names. The one-shot path and the service path
/// build the exact same value, so they get the exact same digest.
fn submission_from_args(args: &Args) -> Result<Submission, CliError> {
    if args.archive.is_some() {
        return Err(CliError::Usage(format!(
            "{} runs a campaign and replays no archive; replay one with `sp2 <experiment> --archive FILE`",
            args.command
        )));
    }
    let ids: Vec<String> = match (&args.experiments, &args.arg) {
        (Some(list), _) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect(),
        (None, Some(one)) => vec![one.clone()],
        (None, None) => {
            return Err(CliError::Usage(format!(
                "{} needs an experiment: `sp2 {} table2` or `--experiments a,b,c`",
                args.command, args.command
            )))
        }
    };
    submission_of(args, ids)
}

/// What a campaign command runs: `campaign` and `profile` evaluate every
/// experiment, `timeline` records the primary campaign (the one Figure 1
/// charts), and any other command is an experiment id of its own.
fn campaign_submission(args: &Args) -> Result<Submission, CliError> {
    let ids = match args.command.as_str() {
        "campaign" | "profile" => all_experiments().iter().map(|e| e.id().into()).collect(),
        "timeline" => vec!["fig1".into()],
        cmd => {
            experiment_or_err(cmd).map_err(|_| {
                CliError::Sp2(Sp2Error::UnknownExperiment(format!("{cmd}\n{USAGE}")))
            })?;
            vec![cmd.into()]
        }
    };
    submission_of(args, ids)
}

/// `sp2 submit`: build the submission, then either run it in-process
/// (`--local`) or hand it to a daemon and print the streamed event
/// lines verbatim. Dataset lines are byte-identical either way.
fn cmd_submit(args: &Args, engine: EngineConfig) -> Result<(), CliError> {
    let submission = submission_from_args(args)?;
    if args.local {
        serve::execute(&submission, engine, None, |line| println!("{line}"))?;
        return Ok(());
    }
    let mut client = Client::connect(args.addr.as_str()).map_err(connect_err(&args.addr))?;
    if args.no_wait {
        let header = client.request(
            &Json::obj()
                .field("op", "submit")
                .field("submission", submission.to_json())
                .field("wait", false),
        )?;
        println!("{}", header.to_string_compact());
        return Ok(());
    }
    let outcome = client.submit_and_wait(&submission)?;
    print_stream(&outcome);
    if outcome.is_done() {
        Ok(())
    } else {
        Err(CliError::Sp2(Sp2Error::Protocol(format!(
            "job {} finished {}",
            outcome
                .header
                .get("job")
                .and_then(Json::as_str)
                .unwrap_or("?"),
            outcome.state(),
        ))))
    }
}

/// `sp2 jobs [list|status|fetch|cancel] [JOB]`: query or control a
/// running daemon over the same protocol `submit` uses.
fn cmd_jobs(args: &Args) -> Result<(), CliError> {
    let action = args.arg.as_deref().unwrap_or("list");
    let job_of = |args: &Args| -> Result<String, CliError> {
        args.arg2.clone().ok_or_else(|| {
            CliError::Usage(format!(
                "jobs {action} needs a JOB (a unique digest prefix)"
            ))
        })
    };
    let mut client = Client::connect(args.addr.as_str()).map_err(connect_err(&args.addr))?;
    match action {
        "list" => {
            let resp = client.request(&Json::obj().field("op", "list"))?;
            let Some(Json::Arr(rows)) = resp.get("jobs") else {
                return Err(CliError::Sp2(Sp2Error::Protocol(
                    "list response carried no jobs array".into(),
                )));
            };
            println!(
                "{:<14} {:<10} {:>8}  EXPERIMENTS",
                "JOB", "STATE", "DATASETS"
            );
            for row in rows {
                let field = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
                let datasets = row
                    .get("datasets")
                    .and_then(Json::as_f64)
                    .map_or_else(|| "?".to_string(), |n| format!("{n:.0}"));
                let experiments = match row.get("experiments") {
                    Some(Json::Arr(ids)) => ids
                        .iter()
                        .filter_map(Json::as_str)
                        .collect::<Vec<_>>()
                        .join(","),
                    _ => String::new(),
                };
                println!(
                    "{:<14} {:<10} {:>8}  {}",
                    &field("job")[..field("job").len().min(12)],
                    field("state"),
                    datasets,
                    experiments,
                );
            }
            Ok(())
        }
        "status" => {
            let mut req = Json::obj()
                .field("op", "status")
                .field("job", job_of(args)?);
            if args.live {
                req = req.field("live", true);
            }
            let resp = client.request(&req)?;
            println!("{}", resp.to_string_compact());
            Ok(())
        }
        "cancel" => {
            let resp = client.request(
                &Json::obj()
                    .field("op", "cancel")
                    .field("job", job_of(args)?),
            )?;
            println!("{}", resp.to_string_compact());
            Ok(())
        }
        "fetch" => {
            print_stream(
                &client.stream(&Json::obj().field("op", "fetch").field("job", job_of(args)?))?,
            );
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown jobs action: {other} (list|status|fetch|cancel)"
        ))),
    }
}

/// Prints a job's event stream: the dataset lines on stdout, the job
/// header and the terminal event on stderr.
fn print_stream(outcome: &SubmitOutcome) {
    eprintln!("{}", outcome.header.to_string_compact());
    for line in &outcome.dataset_lines {
        println!("{line}");
    }
    eprintln!("{}", outcome.terminal.to_string_compact());
}

/// Decorates a connect failure with the address it was aimed at — "is
/// the daemon running?" is the first question the bare io error buries.
fn connect_err(addr: &str) -> impl Fn(Sp2Error) -> CliError + '_ {
    move |e| {
        CliError::Sp2(Sp2Error::Protocol(format!(
            "connecting to sp2 serve at {addr}: {e} (is the daemon running?)"
        )))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{}", e.message());
            e.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        parse_args_from(tokens.iter().map(|t| t.to_string()))
    }

    #[test]
    fn metrics_never_swallows_a_following_option() {
        // `--metrics --json` means "metrics table to stderr, dataset as
        // JSON" — the option after --metrics must not become the PATH.
        let args = parse(&["table2", "--metrics", "--json"]).expect("parses");
        assert_eq!(args.metrics, Some(None));
        assert!(args.json);

        let args = parse(&["table2", "--metrics", "m.json", "--json"]).expect("parses");
        assert_eq!(args.metrics, Some(Some("m.json".into())));
        assert!(args.json);

        // Trailing `--metrics` with nothing after it: table to stderr.
        let args = parse(&["table2", "--metrics"]).expect("parses");
        assert_eq!(args.metrics, Some(None));
    }

    #[test]
    fn defaults_are_stable() {
        let args = parse(&["timeline"]).expect("parses");
        assert_eq!(args.command, "timeline");
        assert_eq!(args.days, 60);
        assert_eq!(args.engine, EngineKind::Batch);
        assert!(args.fast_forward);
        assert!(args.trace_out.is_none());
        assert!(args.metrics.is_none());
        assert!(!args.json);
    }

    #[test]
    fn engine_flag_selects_the_kind() {
        let args = parse(&["campaign", "--engine", "reference"]).expect("parses");
        assert_eq!(args.engine, EngineKind::Reference);
        assert_eq!(engine_config(&args).engine, EngineKind::Reference);

        let args = parse(&["campaign", "--engine", "batch"]).expect("parses");
        assert_eq!(args.engine, EngineKind::Batch);

        assert!(parse(&["campaign", "--engine", "turbo"]).is_err());
        assert!(parse(&["campaign", "--engine"]).is_err());
    }

    #[test]
    fn trace_out_requires_a_real_path() {
        let args = parse(&["campaign", "--trace-out", "trace.json"]).expect("parses");
        assert_eq!(args.trace_out, Some("trace.json".into()));
        assert!(parse(&["campaign", "--trace-out"]).is_err());
        assert!(
            parse(&["campaign", "--trace-out", "--json"]).is_err(),
            "an option is not a path"
        );
    }

    #[test]
    fn flags_translate_to_engine_config() {
        // Defaults: sweep elision on, the metrics switch None so the
        // thread's setting is left alone, and no recording.
        let args = parse(&["table2"]).expect("parses");
        let e = engine_config(&args);
        assert!(e.fast_forward);
        assert!(e.metrics.is_none());
        assert!(recording(&args).is_none());

        let args = parse(&["timeline", "--no-fast-forward", "--metrics"]).expect("parses");
        let e = engine_config(&args);
        assert!(recording(&args).is_some());
        assert!(!e.fast_forward);
        assert_eq!(e.metrics, Some(true));

        // `profile` implies metrics; `--trace-out` implies recording.
        let e = engine_config(&parse(&["profile"]).expect("parses"));
        assert_eq!(e.metrics, Some(true));
        let args = parse(&["table1", "--trace-out", "t.json"]).expect("parses");
        assert!(recording(&args).is_some());
    }

    #[test]
    fn positional_arg_and_unknown_options() {
        let args = parse(&["probe", "matmul"]).expect("parses");
        assert_eq!(args.arg.as_deref(), Some("matmul"));
        assert!(parse(&["table1", "--bogus"]).is_err());
        // Campaigns run on the calling thread; there is no thread knob.
        assert!(parse(&["table1", "--threads", "2"]).is_err());
        assert!(parse(&["table1", "-j", "0"]).is_err());
        // The recorder samples every sweep; there is no cadence knob.
        assert!(parse(&["timeline", "--cadence", "4"]).is_err());
        assert!(parse(&[]).is_err(), "no command prints usage");
    }

    #[test]
    fn global_flags_compose_before_and_after_the_command() {
        let before = parse(&[
            "--engine",
            "reference",
            "--days",
            "30",
            "--trace-out",
            "t.json",
            "submit",
            "table2",
        ])
        .expect("parses");
        let after = parse(&[
            "submit",
            "table2",
            "--engine",
            "reference",
            "--days",
            "30",
            "--trace-out",
            "t.json",
        ])
        .expect("parses");
        for args in [&before, &after] {
            assert_eq!(args.command, "submit");
            assert_eq!(args.arg.as_deref(), Some("table2"));
            assert_eq!(args.engine, EngineKind::Reference);
            assert_eq!(args.days, 30);
            assert_eq!(args.trace_out.as_deref(), Some("t.json"));
        }
        // The derived engine configuration is identical too — the whole
        // point of position-independent globals.
        assert_eq!(engine_config(&before), engine_config(&after));
    }

    #[test]
    fn metrics_before_the_command_never_swallows_it() {
        // `sp2 --metrics table2` means "table2 with the metrics table to
        // stderr", never "metrics to a file named table2".
        let args = parse(&["--metrics", "table2"]).expect("parses");
        assert_eq!(args.command, "table2");
        assert_eq!(args.metrics, Some(None));
        // The attached form carries a path anywhere.
        let args = parse(&["--metrics=m.json", "table2"]).expect("parses");
        assert_eq!(args.command, "table2");
        assert_eq!(args.metrics, Some(Some("m.json".into())));
        let args = parse(&["table2", "--metrics=m.json"]).expect("parses");
        assert_eq!(args.metrics, Some(Some("m.json".into())));
        assert!(parse(&["--metrics=", "table2"]).is_err());
    }

    #[test]
    fn service_flags_parse() {
        let args = parse(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            "/tmp/s",
            "--campaigns",
            "4",
        ])
        .expect("parses");
        assert_eq!(args.addr, "127.0.0.1:0");
        assert_eq!(args.store, "/tmp/s");
        assert_eq!(args.campaigns, 4);
        assert!(parse(&["serve", "--campaigns", "0"]).is_err());
        assert!(parse(&["serve", "--addr"]).is_err());

        let args = parse(&[
            "submit",
            "--experiments",
            "table1,table2",
            "--seed",
            "7",
            "--no-wait",
        ])
        .expect("parses");
        assert_eq!(args.experiments.as_deref(), Some("table1,table2"));
        assert_eq!(args.seed, Some(7));
        assert!(args.no_wait);
        assert!(!args.local);

        let args = parse(&["jobs", "status", "3fa2"]).expect("parses");
        assert_eq!(args.arg.as_deref(), Some("status"));
        assert_eq!(args.arg2.as_deref(), Some("3fa2"));
        assert!(
            parse(&["jobs", "a", "b", "c"]).is_err(),
            "three positionals"
        );
    }

    #[test]
    fn archive_and_compare_flags_parse() {
        let args = parse(&["archive", "table2", "--days", "2", "--out", "a.sp2a"]).expect("parses");
        assert_eq!(args.command, "archive");
        assert_eq!(args.arg.as_deref(), Some("table2"));
        assert_eq!(args.out.as_deref(), Some("a.sp2a"));
        assert!(parse(&["archive", "table2", "--out"]).is_err());
        assert!(parse(&["archive", "table2", "--out", "--json"]).is_err());

        let args = parse(&[
            "compare",
            "a.sp2a",
            "b.ndjson",
            "--rel-tol",
            "1e-6",
            "--abs-tol",
            "0.5",
            "--json",
        ])
        .expect("parses");
        assert_eq!(args.command, "compare");
        assert_eq!(args.arg.as_deref(), Some("a.sp2a"));
        assert_eq!(args.arg2.as_deref(), Some("b.ndjson"));
        assert_eq!(args.rel_tol, Some(1e-6));
        assert_eq!(args.abs_tol, Some(0.5));
        assert!(args.json);
        assert!(parse(&["compare", "a", "b", "--rel-tol", "-1"]).is_err());
        assert!(parse(&["compare", "a", "b", "--abs-tol", "nope"]).is_err());

        let args = parse(&["table2", "--archive", "a.sp2a"]).expect("parses");
        assert_eq!(args.archive.as_deref(), Some("a.sp2a"));
        assert!(parse(&["table2", "--archive"]).is_err());
    }

    #[test]
    fn toplev_flags_parse() {
        let args = parse(&["toplev", "--plan-only", "--json"]).expect("parses");
        assert!(args.plan_only);
        assert!(args.json);
        assert!(args.passes.is_none());

        let args = parse(&["toplev", "--passes", "3"]).expect("parses");
        assert_eq!(args.passes, Some(3));
        assert!(!args.plan_only);
        assert!(parse(&["toplev", "--passes", "0"]).is_err());
        assert!(parse(&["toplev", "--passes"]).is_err());
        assert!(parse(&["toplev", "--passes", "x"]).is_err());

        let args = parse(&["jobs", "status", "3fa2", "--live"]).expect("parses");
        assert!(args.live);
        assert!(!parse(&["jobs", "status", "3fa2"]).expect("parses").live);
    }

    #[test]
    fn toplev_plan_honors_passes() {
        // The default plan is minimal: 28 signals, FXU carries 7 → 2.
        let plan = toplev_plan(&parse(&["toplev"]).unwrap()).expect("plans");
        assert_eq!(plan.n_passes(), 2);
        assert_eq!(plan.requested().len(), Signal::ALL.len());
        // Stretching is allowed; squeezing below the minimum is a usage
        // error, not a panic.
        let plan = toplev_plan(&parse(&["toplev", "--passes", "4"]).unwrap()).expect("plans");
        assert_eq!(plan.n_passes(), 4);
        assert!(matches!(
            toplev_plan(&parse(&["toplev", "--passes", "1"]).unwrap()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn submission_translation_is_position_independent() {
        // The same logical request builds the same submission — and
        // therefore the same digest — however the flags are arranged.
        let a = submission_from_args(&parse(&["submit", "table2", "--days", "30"]).unwrap())
            .expect("builds");
        let b = submission_from_args(
            &parse(&["--days", "30", "submit", "--experiments", "table2"]).unwrap(),
        )
        .expect("builds");
        assert_eq!(a.digest_hex(), b.digest_hex());
        assert!(submission_from_args(&parse(&["submit"]).unwrap()).is_err());
    }

    #[test]
    fn campaign_commands_and_submit_translate_the_same_run() {
        let run = campaign_submission(&parse(&["summary", "--days", "2", "--seed", "7"]).unwrap())
            .expect("builds");
        let submitted = submission_from_args(
            &parse(&["submit", "summary", "--days", "2", "--seed", "7"]).unwrap(),
        )
        .expect("builds");
        assert_eq!(run.spec(), submitted.spec());
        assert_eq!(run.spec().seed, 7);
        assert_eq!(run.fault_rate(), submitted.fault_rate());
        assert_eq!(run.fault_seed(), submitted.fault_seed());
        assert_eq!(run.digest_hex(), submitted.digest_hex());
        // `submit` runs its campaign; replaying an archive is what the
        // campaign commands do.
        assert!(matches!(
            submission_from_args(&parse(&["submit", "table2", "--archive", "a.sp2a"]).unwrap()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            campaign_submission(&parse(&["nope"]).unwrap()),
            Err(CliError::Sp2(Sp2Error::UnknownExperiment(_)))
        ));
    }
}
