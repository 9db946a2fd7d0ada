//! CI gate for the self-metering overhead budgets.
//!
//! Not a criterion bench: this harness times campaigns on the batch
//! engine — the engine every shipped command runs — through
//! `Campaign::run` three ways: uninstrumented, with the trace layer live,
//! and with the full flight recorder (span events + interval sampling
//! every daemon sweep). It asserts the budgets the trace layer promises
//! (`serial_1_thread_traced` < 3% over baseline, recorder < 5%) and
//! writes the readings to `BENCH_overhead.json` in the workspace root.
//! A budget violation fails the process, which fails CI.
//!
//! A round runs [`SLICES`] campaigns per mode, interleaved one campaign
//! at a time with the mode order rotating, so a round takes over three
//! seconds, about one per mode, and every mode sees the same host speed.
//! Each round yields one traced/baseline and one recorded/baseline
//! ratio of those shares. The gate is the median of the paired ratios
//! over [`ROUNDS`] rounds, and the ledger keeps each ratio's
//! interquartile range beside it. A shared host's speed can swing by
//! 10–20% from one second to the next: on 2 vCPUs, timing one 810-day
//! campaign per mode per round left a traced-ratio IQR 10–21 points
//! wide, and interleaving 30-day campaigns narrowed it to 2–5 points.

use sp2_bench::quartile;
use sp2_cluster::{Campaign, ClusterConfig, EngineConfig, FaultPlan};
use sp2_core::{metrics, Json};
use sp2_trace::Recording;
use sp2_workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};
use std::time::Instant;

/// Campaign length per timed run.
const DAYS: u32 = 30;
/// Campaigns per mode per round: about a second of batch-engine time
/// per mode.
const SLICES: usize = 32;
/// Rounds; the gate is the median paired ratio over these.
const ROUNDS: usize = 15;
/// `serial_1_thread_traced` budget over baseline.
const TRACED_BUDGET: f64 = 0.03;
/// Flight-recorder budget over baseline.
const RECORDED_BUDGET: f64 = 0.05;

#[derive(Clone, Copy)]
enum Mode {
    Baseline,
    Traced,
    Recorded,
}

/// The median overhead (ratio − 1) and the overhead's interquartile
/// range, from per-round paired ratios.
fn summarize(mut ratios: Vec<f64>) -> (f64, [f64; 2]) {
    ratios.sort_by(f64::total_cmp);
    let q = |i| quartile(&ratios, i) - 1.0;
    (q(2), [q(1), q(3)])
}

fn main() {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 1998);
    let spec = CampaignSpec {
        days: DAYS,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let none = FaultPlan::none();

    let campaign = || -> f64 {
        let t0 = Instant::now();
        let r = Campaign::new(&config, &library, &jobs, DAYS, &none)
            .run()
            .expect("campaign runs");
        let s = t0.elapsed().as_secs_f64();
        assert!(!r.job_reports.is_empty(), "campaign must do real work");
        s
    };
    // Each recorded pass gets a fresh recording, so every pass records
    // the same volume.
    let run_once = |mode: Mode| -> f64 {
        match mode {
            Mode::Baseline => {
                EngineConfig::default().metrics(false).apply();
                campaign()
            }
            Mode::Traced => {
                EngineConfig::default().metrics(true).apply();
                campaign()
            }
            Mode::Recorded => Recording::new(metrics::TABLES).run(campaign),
        }
    };

    // Warm-up: populate the signature cache and fault the code paths in
    // before anything is timed.
    run_once(Mode::Recorded);

    let modes = [Mode::Baseline, Mode::Traced, Mode::Recorded];
    let mut baseline = Vec::with_capacity(ROUNDS);
    let mut traced = Vec::with_capacity(ROUNDS);
    let mut recorded = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut s = [0.0; 3];
        for slice in 0..SLICES {
            for k in 0..modes.len() {
                let i = (round + slice + k) % modes.len();
                s[i] += run_once(modes[i]);
            }
        }
        println!(
            "round {:>2}  baseline {:.3}s  traced {:.3}s ({:+.2}%)  recorded {:.3}s ({:+.2}%)",
            round + 1,
            s[0],
            s[1],
            (s[1] / s[0] - 1.0) * 100.0,
            s[2],
            (s[2] / s[0] - 1.0) * 100.0
        );
        baseline.push(s[0]);
        traced.push(s[1] / s[0]);
        recorded.push(s[2] / s[0]);
    }
    baseline.sort_by(f64::total_cmp);
    let baseline_s = quartile(&baseline, 2);
    let (traced_overhead, traced_iqr) = summarize(traced);
    let (recorded_overhead, recorded_iqr) = summarize(recorded);
    let pct = |x: f64| x * 100.0;
    println!("baseline  median {baseline_s:.3}s per round ({SLICES} x {DAYS}-day campaigns)");
    println!(
        "traced    median overhead {:>6.2}% (IQR {:.2} to {:.2}%, budget {:.0}%)",
        pct(traced_overhead),
        pct(traced_iqr[0]),
        pct(traced_iqr[1]),
        pct(TRACED_BUDGET)
    );
    println!(
        "recorded  median overhead {:>6.2}% (IQR {:.2} to {:.2}%, budget {:.0}%)",
        pct(recorded_overhead),
        pct(recorded_iqr[0]),
        pct(recorded_iqr[1]),
        pct(RECORDED_BUDGET)
    );

    let doc = Json::obj()
        .field("schema", "sp2.bench.overhead.v1")
        .field("engine", "batch")
        .field("campaign_days", DAYS)
        .field("slices", SLICES as u64)
        .field("rounds", ROUNDS as u64)
        .field("baseline_s", baseline_s)
        .field("traced_overhead", traced_overhead)
        .field("traced_overhead_iqr", traced_iqr.to_vec())
        .field("recorded_overhead", recorded_overhead)
        .field("recorded_overhead_iqr", recorded_iqr.to_vec())
        .field("traced_budget", TRACED_BUDGET)
        .field("recorded_budget", RECORDED_BUDGET);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overhead.json");
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_overhead.json");
    println!("wrote BENCH_overhead.json");

    assert!(
        traced_overhead < TRACED_BUDGET,
        "trace-layer overhead {:.2}% exceeds the {:.0}% budget",
        pct(traced_overhead),
        pct(TRACED_BUDGET)
    );
    assert!(
        recorded_overhead < RECORDED_BUDGET,
        "flight-recorder overhead {:.2}% exceeds the {:.0}% budget",
        pct(recorded_overhead),
        pct(RECORDED_BUDGET)
    );
}
