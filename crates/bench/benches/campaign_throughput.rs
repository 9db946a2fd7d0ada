//! Campaign-engine throughput: days simulated per wall second on the
//! reference engine and on the batch engine. Each campaign runs on the
//! calling thread; the host's core count is recorded with the readings.
//!
//! Not a criterion bench: this is the perf-trajectory artifact CI tracks.
//! It replays one skewed-mix campaign — wide jobs for plan sharing,
//! single-node stragglers for churn — on both engines in
//! [`SPEEDUP_ROUNDS`] interleaved rounds, alternating which engine goes
//! first, and asserts in every round that the batch engine's datasets
//! are bit-identical to the reference. One batch campaign takes about
//! 10 ms, so a single pair says little: `batch_speedup_1t` is the median
//! per-round ratio, committed with its interquartile range. The readings
//! land in `BENCH_throughput.json` at the workspace root. Two more
//! passes ride along: an untimed instrumented run that measures the
//! cluster-interval fast-forward's elision rate (elided sweeps / total
//! sweeps), and a long-horizon campaign (fault plan on), timed elided
//! and stepped in [`LONG_ROUNDS`] interleaved rounds. Every round proves
//! the fast-forward results-neutral at scale by comparing the two
//! campaigns' sample series, and the ledger keeps the median per-round
//! speedup over stepping with its interquartile range. CI re-runs it at
//! full length with the
//! in-bench floor disabled (`SP2_BENCH_MIN_SPEEDUP=0`) and gates on the
//! committed baseline instead: the batch-over-reference speedup must
//! stay within 10 % of the committed value and >= 5x, and the elision
//! rate >= 0.5.
//!
//! Environment knobs:
//! - `SP2_BENCH_DAYS` — campaign length in days (default 8).
//! - `SP2_BENCH_LONG_DAYS` — long-horizon variant length (default 90).
//! - `SP2_BENCH_MIN_SPEEDUP` — minimum accepted batch-over-reference
//!   speedup (default 5.0; the acceptance floor).

use sp2_bench::quartile;
use sp2_cluster::{
    metrics as cluster_metrics, Campaign, ClusterConfig, EngineConfig, EngineKind, FaultPlan,
};
use sp2_core::Json;
use sp2_workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};
use std::time::Instant;

/// Interleaved reference/batch rounds behind `batch_speedup_1t`.
const SPEEDUP_ROUNDS: usize = 21;

/// Interleaved elided/stepped rounds of the long-horizon campaign. One
/// round is a sub-second sample, so a single one says little; the ledger
/// keeps the median ratio and its quartiles over this many.
const LONG_ROUNDS: usize = 9;

/// The equivalence suite's adversarial mix: dominated by wide jobs
/// (maximum plan sharing and drain pressure) and single-node stragglers
/// (maximum activity churn), with most wide jobs oversubscribed.
fn skewed_mix() -> JobMix {
    JobMix {
        node_weights: vec![(1, 20.0), (16, 2.0), (64, 8.0), (128, 10.0)],
        big_job_paging_prob: 0.9,
        short_job_prob: 0.35,
        ..JobMix::nas()
    }
}

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let days: u32 = env_or("SP2_BENCH_DAYS", 8);
    let long_days: u32 = env_or("SP2_BENCH_LONG_DAYS", 90);
    let min_speedup: f64 = env_or("SP2_BENCH_MIN_SPEEDUP", 5.0);
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 1998);
    let mix = skewed_mix();
    let spec = CampaignSpec {
        days,
        seed: 1998,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, &mix, &library);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("campaign_throughput: {days}-day skewed-mix campaign, {cores} core(s) available");

    let none = FaultPlan::none();
    // Warm-up: one short campaign per engine kind so page-cache, lazy
    // statics, and the signature cache are hot before anything is timed.
    // Without it the first timed variant (the reference) pays the
    // cold-start cost alone and the speedup ratios skew.
    for kind in [EngineKind::Reference, EngineKind::Batch] {
        Campaign::new(&config, &library, &jobs, days.min(2), &none)
            .engine(EngineConfig::default().engine(kind))
            .run()
            .expect("warm-up campaign runs");
    }

    let run = |kind: EngineKind| {
        let t0 = Instant::now();
        let result = Campaign::new(&config, &library, &jobs, days, &none)
            .engine(EngineConfig::default().engine(kind))
            .run()
            .expect("campaign runs");
        (t0.elapsed().as_secs_f64(), result)
    };
    let mut reference_s = Vec::with_capacity(SPEEDUP_ROUNDS);
    let mut batch_s = Vec::with_capacity(SPEEDUP_ROUNDS);
    let mut ratios = Vec::with_capacity(SPEEDUP_ROUNDS);
    for round in 0..SPEEDUP_ROUNDS {
        let ((ref_s, reference), (bat_s, result)) = if round % 2 == 0 {
            let reference = run(EngineKind::Reference);
            (reference, run(EngineKind::Batch))
        } else {
            let batch = run(EngineKind::Batch);
            (run(EngineKind::Reference), batch)
        };
        // The engines' contract: bit-identical datasets under every
        // engine kind.
        assert_eq!(reference.samples, result.samples, "batch: samples");
        assert_eq!(reference.job_reports, result.job_reports, "batch: jobs");
        assert_eq!(reference.pbs_records, result.pbs_records, "batch: pbs");
        let ratio = ref_s / bat_s.max(1e-9);
        println!(
            "round {:>2}  reference {ref_s:.4}s  batch {bat_s:.4}s  ({ratio:.2}x)",
            round + 1
        );
        reference_s.push(ref_s);
        batch_s.push(bat_s);
        ratios.push(ratio);
    }
    let mut variants_json: Vec<Json> = Vec::new();
    for (name, seconds) in [("reference", &mut reference_s), ("batch", &mut batch_s)] {
        seconds.sort_by(f64::total_cmp);
        let seconds = quartile(seconds, 2);
        let days_per_s = days as f64 / seconds.max(1e-9);
        println!("{name:<14} {seconds:>8.4}s  {days_per_s:>8.2} days/s (median)");
        variants_json.push(
            Json::obj()
                .field("engine", name)
                .field("seconds", seconds)
                .field("days_per_s", days_per_s),
        );
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = quartile(&ratios, 2);
    let speedup_iqr = [quartile(&ratios, 1), quartile(&ratios, 3)];
    println!(
        "batch speedup: {speedup:.2}x (IQR {:.2}-{:.2}x, {SPEEDUP_ROUNDS} rounds)",
        speedup_iqr[0], speedup_iqr[1]
    );
    assert!(
        speedup >= min_speedup,
        "batch engine must be >= {min_speedup}x the reference, got {speedup:.2}x"
    );

    // Elision-rate probe: one untimed instrumented batch run. The
    // sweep counters only record while metric capture is on, so this
    // stays out of the timed variants above (spans cost a little). A
    // campaign never switches capture on itself; this bench is the
    // process here, so it switches its own thread's capture on.
    cluster_metrics::reset();
    EngineConfig::default().metrics(true).apply();
    Campaign::new(&config, &library, &jobs, days, &none)
        .run()
        .expect("probe campaign runs");
    EngineConfig::default().metrics(false).apply();
    let sweeps = cluster_metrics::SWEEPS.get();
    let elided = cluster_metrics::SWEEPS_ELIDED.get();
    let elision_rate = if sweeps > 0 {
        elided as f64 / sweeps as f64
    } else {
        0.0
    };
    println!("elision rate: {elision_rate:.3} ({elided} of {sweeps} sweeps fast-forwarded)");

    // Long-horizon variant: a multi-month campaign with a fault plan, so
    // the gate exercises the event-transparent fast-forward over long
    // steady stretches, not just the 8-day mix. Each round times it
    // elided and stepped, alternating which goes first so host drift
    // charges both alike, and proves the two sample series bit-identical.
    let lh_spec = CampaignSpec {
        days: long_days,
        seed: 1998,
        ..Default::default()
    };
    let lh_jobs = trace::generate(&lh_spec, &mix, &library);
    let lh_faults = FaultPlan::generate(config.nodes, long_days, 0.5, 1998);
    let run_long = |fast_forward: bool| {
        let t0 = Instant::now();
        let result = Campaign::new(&config, &library, &lh_jobs, long_days, &lh_faults)
            .engine(EngineConfig::default().fast_forward(fast_forward))
            .run()
            .expect("long-horizon campaign runs");
        (t0.elapsed().as_secs_f64(), result.samples)
    };
    let mut lh_elided_s = Vec::with_capacity(LONG_ROUNDS);
    let mut lh_ratios = Vec::with_capacity(LONG_ROUNDS);
    let mut lh_samples = 0;
    for round in 0..LONG_ROUNDS {
        let ((elided_s, elided), (stepped_s, stepped)) = if round % 2 == 0 {
            let elided = run_long(true);
            (elided, run_long(false))
        } else {
            let stepped = run_long(false);
            (run_long(true), stepped)
        };
        assert_eq!(
            elided, stepped,
            "long-horizon round {round}: samples must be bit-identical with elision on"
        );
        let ratio = stepped_s / elided_s.max(1e-9);
        println!(
            "long-horizon round {} elided {elided_s:.3}s stepped {stepped_s:.3}s ({ratio:.2}x)",
            round + 1
        );
        lh_elided_s.push(elided_s);
        lh_ratios.push(ratio);
        lh_samples = elided.len();
    }
    lh_elided_s.sort_by(f64::total_cmp);
    lh_ratios.sort_by(f64::total_cmp);
    let lh_seconds = quartile(&lh_elided_s, 2);
    let lh_days_per_s = long_days as f64 / lh_seconds.max(1e-9);
    let lh_speedup = quartile(&lh_ratios, 2);
    let (lh_q1, lh_q3) = (quartile(&lh_ratios, 1), quartile(&lh_ratios, 3));
    println!(
        "long-horizon ({long_days} days, faults): median {lh_seconds:.3}s, \
         {lh_days_per_s:.2} days/s, {lh_speedup:.2}x over stepping \
         (IQR {lh_q1:.2}-{lh_q3:.2}x, {LONG_ROUNDS} rounds)"
    );

    let doc = Json::obj()
        .field("schema", "sp2.bench.throughput.v1")
        .field("days", days)
        .field("mix", "skewed")
        .field("nodes", config.nodes as u64)
        .field("host_cores", cores as u64)
        .field("variants", variants_json)
        .field("batch_speedup_1t", speedup)
        .field("batch_speedup_iqr", speedup_iqr.to_vec())
        .field("rounds", SPEEDUP_ROUNDS as u64)
        .field("elision_rate", elision_rate)
        .field(
            "long_horizon",
            Json::obj()
                .field("days", long_days)
                .field("seconds", lh_seconds)
                .field("days_per_s", lh_days_per_s)
                .field("speedup_vs_stepping", lh_speedup)
                .field("speedup_iqr", vec![lh_q1, lh_q3])
                .field("rounds", LONG_ROUNDS as u64)
                .field("samples", lh_samples as u64),
        );
    // Land the artifact at the workspace root regardless of the CWD
    // cargo bench hands us (it differs between cargo versions).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");
}
