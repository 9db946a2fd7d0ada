//! End-to-end integration: a full (short) measurement campaign through
//! every substrate, checked against the paper's qualitative findings.
//! All experiment datasets are obtained through the registry, exactly as
//! external tooling would consume them (the exported JSON documents).

use sp2_repro::core::experiments::{all_experiments, experiment, ExperimentInput};
use sp2_repro::core::{Json, Sp2System};
use std::sync::{Mutex, OnceLock};

/// One shared 30-day campaign for the whole binary (library measurement
/// dominates setup cost).
fn system() -> &'static Mutex<Sp2System> {
    static SYS: OnceLock<Mutex<Sp2System>> = OnceLock::new();
    SYS.get_or_init(|| {
        let mut sys = Sp2System::nas_1996(30);
        sys.campaign().expect("campaign runs");
        Mutex::new(sys)
    })
}

/// Runs a registered experiment against the shared campaign and returns
/// its JSON document.
fn doc(id: &str) -> Json {
    let mut sys = system().lock().unwrap();
    let e = experiment(id).expect("registered experiment");
    let campaign = sys.campaign().expect("campaign runs");
    e.to_json(ExperimentInput::of(campaign))
        .expect("experiment runs")
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{key} missing or non-numeric"))
}

/// Finds `field` of the row whose `name` matches, in a `rows`-style array.
fn row_field(doc: &Json, arr: &str, name: &str, field: &str) -> f64 {
    doc.get(arr)
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|r| r.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{arr}[name={name}].{field} missing"))
}

/// The benchmark's golden FNV-1a-128 digest of `op` in `workload`, as
/// hex: every pinned digest lives in that one file.
fn golden(workload: &str, op: &str) -> &'static str {
    include_str!("../perfbench/golden.txt")
        .lines()
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, o, digest] if w == workload && o == op => Some(digest),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no golden digest for {workload} {op}"))
}

/// FNV-1a-128 over every signature of the shared system's seed-1998
/// workload library (name, cycles, iters, clock bits, all 28 signals):
/// the library the benchmark's golden digests also pin. It moves only
/// with a deliberate change to the simulator or the kernel palette.
#[test]
fn seed_1998_library_digest_is_pinned() {
    use std::hash::Hasher;
    let sys = system().lock().unwrap();
    let mut h = sp2_repro::power2::Fnv128::new();
    for s in sys.library().signatures() {
        h.write(s.name.as_bytes());
        h.write_u64(s.cycles);
        h.write_u64(s.iters);
        h.write_u64(s.clock_hz.to_bits());
        for signal in sp2_repro::hpm::Signal::ALL {
            h.write_u64(s.events.get(signal));
        }
    }
    assert_eq!(
        format!("{:032x}", h.finish128()),
        golden("repro_270d", "library")
    );
}

/// The paper's 270-day reproduction as `sp2 campaign --days 270` runs
/// it (the seed-1998 library, trace seed 1996, every registered
/// experiment through `Sp2System::dataset`): each dataset's compact
/// JSON must hash to the benchmark's golden digest.
#[test]
fn reproduction_at_270_days_matches_the_golden_digests() {
    use std::hash::Hasher;
    let library = system().lock().unwrap().library().clone();
    let mut sys = Sp2System::builder().days(270).library(library).build();
    for e in all_experiments() {
        let ds = sys.dataset(*e).expect("experiment runs");
        let mut h = sp2_repro::power2::Fnv128::new();
        h.write(ds.json.to_string_compact().as_bytes());
        assert_eq!(
            format!("{:032x}", h.finish128()),
            golden("repro_270d", e.id()),
            "{} dataset changed",
            e.id()
        );
    }
}

#[test]
fn campaign_has_complete_datasets() {
    let mut sys = system().lock().unwrap();
    let c = sys.campaign().expect("campaign runs");
    assert_eq!(c.days, 30);
    assert_eq!(c.node_count, 144);
    assert_eq!(
        c.samples.len(),
        30 * 96 + 1,
        "15-minute cadence plus baseline"
    );
    assert!(c.job_reports.len() > 300, "a month of jobs completed");
    assert!(c.pbs_records.len() >= c.job_reports.len());
}

#[test]
fn headline_band_the_machine_runs_at_a_few_percent_of_peak() {
    let mut sys = system().lock().unwrap();
    let peak_gflops = 144.0 * sys.config().machine.peak_mflops() / 1000.0; // ≈38.4
    let c = sys.campaign().expect("campaign runs");
    let mean = c.mean_daily_gflops();
    let efficiency = mean / peak_gflops;
    // Paper: ≈1.3 Gflops ≈ 3 % of peak. Shape band: 2–6 %.
    assert!(
        (0.02..0.06).contains(&efficiency),
        "system efficiency {:.1} % outside the paper's band (mean {:.2} Gflops)",
        efficiency * 100.0,
        mean
    );
}

#[test]
fn moderate_parallelism_dominates() {
    let f2 = doc("fig2");
    assert_eq!(num(&f2, "mode_nodes"), 16.0);
    assert!(num(&f2, "fraction_above_64") < 0.08);
}

#[test]
fn per_node_rate_collapses_beyond_64_nodes() {
    let f3 = doc("fig3");
    let large = num(&f3, "large_mean");
    if large > 0.0 {
        assert!(num(&f3, "small_mean") > 1.5 * large);
    }
}

#[test]
fn sixteen_node_history_shows_no_improvement_trend() {
    let f4 = doc("fig4");
    let jobs = f4.get("points").and_then(Json::as_arr).unwrap().len();
    assert!(jobs > 100);
    let drift = num(&f4, "trend_mflops_per_job").abs() * jobs as f64;
    let std = num(&f4, "std");
    assert!(drift < 2.0 * std, "drift {drift:.0} vs std {std:.0}");
}

#[test]
fn paging_explains_poor_performance() {
    let f5 = doc("fig5");
    let correlation = num(&f5, "correlation");
    assert!(correlation < -0.3, "Figure 5 trend: {correlation:.2}");
    assert!(num(&f5, "paging_suspected") > 0.0, "some jobs must page");
}

#[test]
fn tables_2_and_3_are_mutually_consistent() {
    let t2 = doc("table2");
    let t3 = doc("table3");
    if num(&t2, "good_days") == 0.0 {
        return;
    }
    // Table 2's Mflops row equals Table 3's Mflops-All row.
    let t2_mflops = row_field(&t2, "rows", "Mflops", "avg");
    let t3_all = row_field(&t3, "rows", "Mflops-All", "avg");
    assert!((t2_mflops - t3_all).abs() < 1e-9);
    // Derived ratios in the paper's bands (shape, not absolutes).
    let fma = num(&t3, "fma_flop_fraction");
    let fpu = num(&t3, "fpu0_fpu1_ratio");
    let cmr = num(&t3, "cache_miss_ratio");
    let tlb = num(&t3, "tlb_miss_ratio");
    let delay = num(&t3, "delay_per_memref");
    assert!((0.4..0.75).contains(&fma), "fma share {fma}");
    assert!((1.2..2.8).contains(&fpu), "fpu ratio {fpu}");
    assert!((0.004..0.02).contains(&cmr), "cmr {cmr}");
    assert!((0.0003..0.002).contains(&tlb), "tlb {tlb}");
    assert!(
        (0.05..0.2).contains(&delay),
        "delay/memref {delay} (paper ≈0.12 cycles)"
    );
}

#[test]
fn table4_orders_workloads_correctly() {
    let t4 = doc("table4");
    let col = |name: &str, field: &str| row_field(&t4, "columns", name, field);
    // Sequential streaming misses most; the tuned BT beats the workload.
    assert!(col("Sequential Access", "cache_miss_ratio") > col("NAS Workload", "cache_miss_ratio"));
    assert!(col("NPB BT on 49 CPUs", "mflops_per_cpu") > col("NAS Workload", "mflops_per_cpu"));
    assert!(
        col("NPB BT on 49 CPUs", "tlb_miss_ratio") < col("Sequential Access", "tlb_miss_ratio")
    );
}

#[test]
fn figure1_peaks_order_correctly() {
    let f1 = doc("fig1");
    assert!(num(&f1, "max_15min_gflops") >= num(&f1, "max_daily_gflops"));
    assert!(num(&f1, "max_daily_gflops") >= num(&f1, "mean_gflops"));
    assert!(num(&f1, "max_daily_utilization") <= 1.0);
    // The machine is never beyond its physical peak.
    let sys = system().lock().unwrap();
    let peak = 144.0 * sys.config().machine.peak_mflops() / 1000.0;
    assert!(num(&f1, "max_15min_gflops") < peak);
}

#[test]
fn summary_experiment_reports_every_headline_stat() {
    let s = doc("summary");
    assert_eq!(num(&s, "days"), 30.0);
    assert_eq!(num(&s, "node_count"), 144.0);
    let rows = s.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 6);
    for r in rows {
        let measured = r.get("measured").and_then(Json::as_f64).unwrap();
        assert!(measured.is_finite());
    }
}

#[test]
fn every_dataset_carries_a_quality_footer() {
    let mut sys = system().lock().unwrap();
    for e in all_experiments() {
        let d = sys.dataset(*e).expect("experiment runs");
        assert!(
            d.rendered.contains("data quality:"),
            "{} missing footer",
            e.id()
        );
        assert!(
            d.json.get("data_quality").is_some(),
            "{} missing data_quality field",
            e.id()
        );
    }
}

#[test]
fn faulted_campaign_degrades_every_dataset_visibly() {
    // A separate short campaign with heavy faults: all fourteen
    // experiments must still run and must flag the degradation.
    let mut sys = Sp2System::builder()
        .days(3)
        .faults(3.0)
        .fault_seed(13)
        .build();
    let c = sys.campaign().expect("campaign runs");
    assert!(c.faults.enabled);
    assert!(
        c.faults.missed_sweeps > 0 || c.faults.outages > 0,
        "rate 3.0 must inject something"
    );
    let degraded = !c.coverage().is_complete();
    for e in all_experiments() {
        let d = sys.dataset(*e).expect("experiment runs under faults");
        assert!(
            d.rendered.contains("data quality:"),
            "{} missing footer",
            e.id()
        );
        if degraded && e.needs_campaign() && e.selection() == sp2_repro::core::SelectionKind::Nas {
            assert!(
                d.rendered.contains("DEGRADED"),
                "{} hides the degradation:\n{}",
                e.id(),
                d.rendered
            );
        }
    }
    // The availability report must quantify the loss against its twin.
    let a = sys
        .dataset(experiment("availability").expect("registered"))
        .expect("availability runs");
    assert!(a.json.get("baseline_gflops").is_some());
    assert!(num(&a.json, "uptime_fraction") <= 1.0);
}
