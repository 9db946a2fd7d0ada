//! Campaign-engine throughput: days simulated per wall second, reference
//! engine vs the batch engine, serial and on an 8-thread pool.
//!
//! Not a criterion bench: this is the perf-trajectory artifact CI tracks.
//! It replays one skewed-mix campaign — wide jobs for plan sharing,
//! single-node stragglers for churn — under four engine configurations,
//! asserts every variant's datasets are bit-identical to the reference,
//! and writes the readings to
//! `BENCH_throughput.json` at the workspace root. Two untimed passes
//! ride along: an instrumented run that measures the cluster-interval
//! fast-forward's elision rate (elided sweeps / total sweeps), and a
//! long-horizon spilling campaign (fault plan on) proving the spill +
//! fast-forward interaction is results-neutral at scale. CI re-runs it
//! at full length with the absolute floor disabled
//! (`SP2_BENCH_MIN_SPEEDUP=0`) and gates on the committed baseline
//! instead: the 8-thread speedup must stay >= 6x and the elision rate
//! >= 0.5.
//!
//! Environment knobs:
//! - `SP2_BENCH_DAYS` — campaign length in days (default 8).
//! - `SP2_BENCH_LONG_DAYS` — long-horizon variant length (default 90).
//! - `SP2_BENCH_MIN_SPEEDUP` — minimum accepted 8-thread batch-over-
//!   reference speedup (default 6.0; the acceptance floor).

use sp2_cluster::{
    metrics as cluster_metrics, run_campaign_cfg, run_campaign_cfg_spill, CampaignResult,
    ClusterConfig, EngineConfig, EngineKind, FaultPlan, SystemSample,
};
use sp2_core::Json;
use sp2_workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};
use std::time::Instant;

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
    let min_speedup: f64 = env_or("SP2_BENCH_MIN_SPEEDUP", 6.0);
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

    let variants = [
        ("reference", EngineKind::Reference, 1usize),
        ("reference", EngineKind::Reference, 8),
        ("batch", EngineKind::Batch, 1),
        ("batch", EngineKind::Batch, 8),
    ];
    let mut readings: Vec<(String, f64)> = Vec::new();
    let mut variants_json: Vec<Json> = Vec::new();
    let mut baseline: Option<CampaignResult> = None;
    // Warm-up: one short campaign per engine kind so page-cache, lazy
    // statics, and the signature cache are hot before anything is timed.
    // Without it the first timed variant (the reference) pays the
    // cold-start cost alone and the speedup ratios skew.
    for kind in [EngineKind::Reference, EngineKind::Batch] {
        let warm = EngineConfig::default().engine(kind);
        run_campaign_cfg(
            &config,
            &library,
            &jobs,
            days.min(2),
            &FaultPlan::none(),
            &warm,
        )
        .expect("warm-up campaign runs");
    }

    for (name, kind, threads) in variants {
        let engine = EngineConfig::default().engine(kind).threads(threads);
        let t0 = Instant::now();
        let result = run_campaign_cfg(&config, &library, &jobs, days, &FaultPlan::none(), &engine)
            .expect("campaign runs");
        let seconds = t0.elapsed().as_secs_f64();
        let days_per_s = days as f64 / seconds.max(1e-9);
        let label = format!("{name}/{threads}t");
        println!("{label:<14} {seconds:>8.3}s  {days_per_s:>8.2} days/s");
        match &baseline {
            None => baseline = Some(result),
            Some(reference) => {
                // The engines' contract: bit-identical datasets under
                // every engine kind and thread count.
                assert_eq!(reference.samples, result.samples, "{label}: samples");
                assert_eq!(reference.job_reports, result.job_reports, "{label}: jobs");
                assert_eq!(reference.pbs_records, result.pbs_records, "{label}: pbs");
            }
        }
        variants_json.push(
            Json::obj()
                .field("engine", name)
                .field("threads", threads as u64)
                .field("seconds", seconds)
                .field("days_per_s", days_per_s),
        );
        readings.push((label, days_per_s));
    }

    let rate = |label: &str| {
        readings
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| *r)
            .expect("variant ran")
    };
    let speedup_8t = rate("batch/8t") / rate("reference/8t");
    let speedup_1t = rate("batch/1t") / rate("reference/1t");
    println!("batch speedup: {speedup_1t:.2}x serial, {speedup_8t:.2}x on 8 threads");
    assert!(
        speedup_8t >= min_speedup,
        "8-thread batch engine must be >= {min_speedup}x the reference, got {speedup_8t:.2}x"
    );

    // Elision-rate probe: one untimed instrumented batch run. The
    // sweep counters only record while metric capture is on, so this
    // stays out of the timed variants above (spans cost a little).
    cluster_metrics::reset();
    let probe = EngineConfig::default().threads(8).metrics(true);
    run_campaign_cfg(&config, &library, &jobs, days, &FaultPlan::none(), &probe)
        .expect("probe campaign runs");
    sp2_trace::set_enabled(false);
    let sweeps = cluster_metrics::SWEEPS.get();
    let elided = cluster_metrics::SWEEPS_ELIDED.get();
    let elision_rate = if sweeps > 0 {
        elided as f64 / sweeps as f64
    } else {
        0.0
    };
    println!("elision rate: {elision_rate:.3} ({elided} of {sweeps} sweeps fast-forwarded)");

    // Long-horizon variant: a spilling multi-month campaign with a
    // fault plan, so the gate exercises the spill cap + event-
    // transparent fast-forward interaction, not just the resident
    // 8-day mix. The stepped re-run proves the spilled series is
    // bit-identical with elision on.
    let lh_spec = CampaignSpec {
        days: long_days,
        seed: 1998,
        ..Default::default()
    };
    let lh_jobs = trace::generate(&lh_spec, &mix, &library);
    let lh_faults = FaultPlan::generate(config.nodes, long_days, 0.5, 1998);
    let run_spill = |engine: &EngineConfig| {
        let mut sink: Vec<SystemSample> = Vec::new();
        let t0 = Instant::now();
        run_campaign_cfg_spill(
            &config,
            &library,
            &lh_jobs,
            long_days,
            &lh_faults,
            engine,
            None,
            Some(&mut sink),
        )
        .expect("long-horizon campaign runs");
        (t0.elapsed().as_secs_f64(), sink)
    };
    let (lh_seconds, lh_sink) = run_spill(&EngineConfig::default().threads(8));
    let (lh_stepped_s, stepped_sink) =
        run_spill(&EngineConfig::default().threads(8).fast_forward(false));
    sp2_power2::set_fast_forward_enabled(true);
    assert_eq!(
        lh_sink, stepped_sink,
        "long-horizon: spilled series must be bit-identical with elision on"
    );
    let lh_days_per_s = long_days as f64 / lh_seconds.max(1e-9);
    let lh_speedup = lh_stepped_s / lh_seconds.max(1e-9);
    println!(
        "long-horizon ({long_days} days, faults, spill): {lh_seconds:.3}s, \
         {lh_days_per_s:.2} days/s, {lh_speedup:.2}x over stepping"
    );

    let doc = Json::obj()
        .field("schema", "sp2.bench.throughput.v1")
        .field("days", days)
        .field("mix", "skewed")
        .field("nodes", config.nodes as u64)
        .field("variants", variants_json)
        .field("batch_speedup_1t", speedup_1t)
        .field("batch_speedup_8t", speedup_8t)
        .field("elision_rate", elision_rate)
        .field(
            "long_horizon",
            Json::obj()
                .field("days", long_days)
                .field("seconds", lh_seconds)
                .field("days_per_s", lh_days_per_s)
                .field("speedup_vs_stepping", lh_speedup)
                .field("samples", lh_sink.len() as u64),
        );
    // Land the artifact at the workspace root regardless of the CWD
    // cargo bench hands us (it differs between cargo versions).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");
}
