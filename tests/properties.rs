//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use sp2_repro::cluster::{
    Campaign, CampaignResult, ClusterConfig, EngineConfig, EngineKind, FaultPlan, FaultSummary,
};
use sp2_repro::core::archive::columnar::rate_report_fields;
use sp2_repro::hpm::{
    io_aware_selection, nas_selection, CounterDelta, CounterSelection, CounterSnapshot, EventSet,
    Hpm, Mode, SchedulePlan, Signal, SignalGroup,
};
use sp2_repro::isa::{AddrGen, AddrPattern};
use sp2_repro::pbs::{utilization, JobOutcome, JobRecord};
use sp2_repro::power2::{Cache, CacheConfig, MachineConfig};
use sp2_repro::rs2hpm::{
    Daemon, JobCounterReport, RateReport, SystemSample, PLAUSIBLE_DELTA_MAX, SAMPLE_INTERVAL_S,
};
use sp2_repro::stats::{
    centered_moving_average, trailing_moving_average, Coverage, Histogram, Summary,
};
use sp2_repro::workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};

fn arb_signal() -> impl Strategy<Value = Signal> {
    prop::sample::select(Signal::ALL.to_vec())
}

proptest! {
    /// EventSet scaling is monotone and exact at unit scale.
    #[test]
    fn eventset_scaling(counts in prop::collection::vec((arb_signal(), 0u64..1_000_000), 0..8),
                        num in 1u64..1000, den in 1u64..1000) {
        let mut e = EventSet::new();
        for (s, n) in &counts {
            e.bump(*s, *n);
        }
        let scaled = e.scaled(num, den);
        for s in Signal::ALL {
            let orig = e.get(s);
            let got = scaled.get(s);
            // got ≈ orig * num / den, within rounding.
            let exact = orig as f64 * num as f64 / den as f64;
            prop_assert!((got as f64 - exact).abs() <= 0.5 + 1e-9);
        }
        prop_assert_eq!(e.scaled(1, 1), e);
    }

    /// Counter absorb + delta roundtrips every watched signal, in both
    /// modes, regardless of magnitude (64-bit virtualization).
    #[test]
    fn hpm_delta_roundtrip(user in 0u64..u64::MAX / 4, system in 0u64..u64::MAX / 4,
                           signal in arb_signal()) {
        let sel = nas_selection();
        prop_assume!(sel.watches(signal));
        prop_assume!(!signal.has_div_erratum());
        let mut hpm = Hpm::new(sel.clone());
        let before = hpm.snapshot();
        let mut u = EventSet::new();
        u.bump(signal, user);
        hpm.absorb(&u, Mode::User);
        let mut s = EventSet::new();
        s.bump(signal, system);
        hpm.absorb(&s, Mode::System);
        let d = CounterDelta::between(&before, &hpm.snapshot());
        let slot = sel.slot_of(signal).unwrap();
        prop_assert_eq!(d.user[slot], user);
        prop_assert_eq!(d.system[slot], system);
    }

    /// The divide erratum loses div counts for any magnitude.
    #[test]
    fn div_erratum_always_loses(divs in 1u64..u64::MAX / 4) {
        let sel = nas_selection();
        let mut hpm = Hpm::new(sel.clone());
        let mut e = EventSet::new();
        e.bump(Signal::Fpu0Div, divs);
        hpm.absorb(&e, Mode::User);
        let slot = sel.slot_of(Signal::Fpu0Div).unwrap();
        prop_assert_eq!(hpm.snapshot().user[slot], 0);
    }

    /// Histogram conserves mass (within clamping into the last bin).
    #[test]
    fn histogram_mass_conserved(items in prop::collection::vec((0usize..200, 0.0f64..1e6), 0..50)) {
        let mut h = Histogram::new(144);
        let mut expected = 0.0;
        for (cat, w) in &items {
            h.add(*cat, *w);
            expected += w;
        }
        prop_assert!((h.total() - expected).abs() < 1e-6 * expected.max(1.0));
    }

    /// Moving averages stay within the series' min..max envelope.
    #[test]
    fn moving_average_bounded(series in prop::collection::vec(-1e6f64..1e6, 1..100),
                              window in 1usize..20) {
        let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in trailing_moving_average(&series, window) {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
        for v in centered_moving_average(&series, window) {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    /// Welford summary matches naive two-pass statistics.
    #[test]
    fn summary_matches_naive(series in prop::collection::vec(-1e4f64..1e4, 2..200)) {
        let s = Summary::of(&series);
        let n = series.len() as f64;
        let mean = series.iter().sum::<f64>() / n;
        let var = series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.std() - var.sqrt()).abs() < 1e-5 * var.sqrt().max(1.0));
    }

    /// Cache behaviour: hits + misses = accesses, and a working set that
    /// fits in one way's worth of sets never self-conflicts.
    #[test]
    fn cache_accounting(addrs in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut cache = Cache::new(CacheConfig {
            bytes: 64 * 1024,
            ways: 4,
            line_bytes: 256,
        });
        let mut hits = 0u32;
        let mut misses = 0u32;
        for &a in &addrs {
            if cache.access(a, false).hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        prop_assert_eq!(hits + misses, addrs.len() as u32);
        let distinct_lines: std::collections::HashSet<u64> =
            addrs.iter().map(|a| a / 256).collect();
        prop_assert!(misses as usize >= distinct_lines.len().min(cache.config().lines()) / 4,
            "misses cannot be fewer than cold-fills modulo capacity");
        // Re-walking the same addresses yields pure hits when no set is
        // oversubscribed (conflict misses need > `ways` lines per set).
        let mut per_set = std::collections::HashMap::new();
        for &l in &distinct_lines {
            *per_set.entry(l % 64).or_insert(0u32) += 1;
        }
        if per_set.values().all(|&n| n <= 4) {
            for &a in &addrs {
                prop_assert!(cache.access(a, false).hit);
            }
        }
    }

    /// The counter-group scheduler covers any request exactly: every
    /// requested signal is watched by at least one pass, nothing else
    /// is, and every pass is a hardware-valid selection.
    #[test]
    fn schedule_plan_covers_exactly_the_request(
        wanted in prop::collection::vec(arb_signal(), 0..40),
    ) {
        let plan = SchedulePlan::minimal(&wanted);
        let requested: std::collections::HashSet<Signal> = wanted.iter().copied().collect();
        for s in Signal::ALL {
            if requested.contains(&s) {
                prop_assert!(plan.coverage(s) >= 1, "{s:?} uncovered");
            } else {
                prop_assert_eq!(plan.coverage(s), 0, "{:?} watched unrequested", s);
            }
        }
        // The deduplicated request round-trips through the plan.
        let planned: std::collections::HashSet<Signal> =
            plan.requested().iter().copied().collect();
        prop_assert_eq!(planned, requested);
        for pass in plan.passes() {
            // Re-validating each pass proves it respects every group's
            // slot budget (CounterSelection::new rejects oversubscription).
            let signals: Vec<Signal> = pass.signals().collect();
            prop_assert!(CounterSelection::new(&signals).is_ok());
        }
    }

    /// The scheduler emits exactly the minimum pass count — the largest
    /// ⌈signals-in-group / group-slots⌉ — and the plan is a pure
    /// function of the request.
    #[test]
    fn schedule_plan_is_minimal_and_deterministic(
        wanted in prop::collection::vec(arb_signal(), 0..40),
    ) {
        let mut per_group = [0usize; 5];
        let mut seen = std::collections::HashSet::new();
        for &s in &wanted {
            if seen.insert(s) {
                per_group[s.group().ordinal()] += 1;
            }
        }
        let minimum = per_group
            .iter()
            .zip(SignalGroup::ALL)
            .map(|(n, g)| n.div_ceil(g.slots()))
            .max()
            .unwrap_or(0);
        let plan = SchedulePlan::minimal(&wanted);
        prop_assert_eq!(plan.n_passes(), minimum);
        prop_assert_eq!(SchedulePlan::min_passes(&wanted), minimum);
        prop_assert_eq!(&plan, &SchedulePlan::minimal(&wanted));
        // Forcing fewer passes than the minimum is a typed error, never
        // an invalid plan.
        if minimum > 1 {
            prop_assert!(SchedulePlan::with_passes(&wanted, minimum - 1).is_err());
        }
    }

    /// Stretching a plan past its minimum keeps coverage exact (every
    /// requested signal still watched, nothing extra) and the sweep
    /// rotation visits every pass once per cycle.
    #[test]
    fn stretched_plans_keep_exact_coverage(
        wanted in prop::collection::vec(arb_signal(), 1..40),
        extra in 0usize..3,
    ) {
        let minimum = SchedulePlan::min_passes(&wanted);
        let n = minimum + extra;
        let plan = SchedulePlan::with_passes(&wanted, n).expect("n >= minimum");
        prop_assert_eq!(plan.n_passes(), n);
        for &s in plan.requested() {
            prop_assert!(plan.coverage(s) >= 1);
            prop_assert!(plan.coverage(s) <= n);
        }
        // Sweeps 1..=n rotate through every pass exactly once.
        let mut hit = vec![false; n];
        for sweep in 1..=n as u64 {
            hit[plan.pass_for_sweep(sweep)] = true;
        }
        prop_assert!(hit.iter().all(|&h| h), "rotation skipped a pass");
        prop_assert_eq!(plan.pass_for_sweep(0), 0, "sweep 0 is the baseline pass");
    }

    /// Address generators are deterministic and respect their windows.
    #[test]
    fn addrgen_deterministic(seed_base in 0u64..1 << 30, n in 1usize..200) {
        let pattern = AddrPattern::Seq {
            base: seed_base,
            stride: 8,
            span: 1 << 20,
        };
        let mut a = AddrGen::new(pattern);
        let mut b = AddrGen::new(pattern);
        for _ in 0..n {
            let x = a.next_addr();
            prop_assert_eq!(x, b.next_addr());
            prop_assert!(x >= seed_base && x < seed_base + (1 << 20));
        }
    }
}

/// Shared one-day fixture for the fault-plan properties below (the
/// library measurement dominates setup cost, so build it once).
fn fault_fixture() -> &'static (
    ClusterConfig,
    WorkloadLibrary,
    Vec<sp2_repro::workload::SubmittedJob>,
    u32,
) {
    use std::sync::OnceLock;
    static FIX: OnceLock<(
        ClusterConfig,
        WorkloadLibrary,
        Vec<sp2_repro::workload::SubmittedJob>,
        u32,
    )> = OnceLock::new();
    FIX.get_or_init(|| {
        let config = ClusterConfig::default();
        let library = WorkloadLibrary::build(&config.machine, 5);
        let spec = CampaignSpec {
            days: 1,
            seed: 3,
            ..Default::default()
        };
        let jobs = trace::generate(&spec, &JobMix::nas(), &library);
        (config, library, jobs, spec.days)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whatever the fault plan does, the daemon's coverage ledger stays
    /// sane: no sample ever claims more nodes than exist, and every
    /// aggregate rate stays finite — including under a 100 % outage
    /// where nothing at all is sampled.
    #[test]
    fn faulted_campaigns_keep_coverage_and_rates_sane(
        rate in 0.0f64..20.0,
        seed in 0u64..1_000,
        dark in 0u8..2,
    ) {
        let total_outage = dark == 1;
        let (config, library, jobs, days) = fault_fixture();
        let horizon = *days as f64 * 86_400.0;
        // Outage windows must not overlap per node (the generator never
        // produces overlaps), so the dark-machine case starts from an
        // empty plan rather than stacking onto generated windows.
        let mut plan = if total_outage {
            FaultPlan::none()
        } else {
            FaultPlan::generate(config.nodes, *days, rate, seed)
        };
        if total_outage {
            // Every node dark for the whole campaign.
            for node in 0..config.nodes {
                plan.add_outage(node, 0.0, horizon + 1.0);
            }
        }
        let r = Campaign::new(config, library, jobs, *days, &plan)
            .engine(EngineConfig::default().engine(EngineKind::Reference))
            .run()
            .expect("campaign survives any fault plan");
        for s in &r.samples {
            prop_assert!(s.nodes_sampled <= s.nodes_total,
                "sample at t={} claims {}/{} nodes", s.t, s.nodes_sampled, s.nodes_total);
            prop_assert!(s.rates.mflops.is_finite());
            prop_assert!(s.rates.mips.is_finite());
            prop_assert!(s.coverage() >= 0.0 && s.coverage() <= 1.0);
        }
        let cov = r.coverage();
        prop_assert!(cov.covered <= cov.total + 1e-9);
        prop_assert!(cov.fraction() >= 0.0 && cov.fraction() <= 1.0);
        for d in r.daily_node_rates() {
            prop_assert!(d.mflops.is_finite());
            prop_assert!(d.mips.is_finite());
        }
        prop_assert!(r.mean_daily_gflops().is_finite());
        if total_outage {
            prop_assert_eq!(cov.fraction(), 0.0, "nothing was sampled");
        }
    }
}

// ---------------------------------------------------------------------
// Per-day analysis: the single-pass helpers against per-day scans
// ---------------------------------------------------------------------

const DAY_S: f64 = 86_400.0;

/// Reference for `daily_coverage`: the per-day scan `CampaignResult`
/// used before its helpers became single passes.
fn scan_day_coverage(r: &CampaignResult, d: usize) -> Coverage {
    let lo = d as f64 * DAY_S;
    let hi = lo + DAY_S;
    let mut c = Coverage::new();
    for s in &r.samples {
        if s.t > lo && s.t <= hi {
            c.push(s.nodes_sampled as f64, s.nodes_total as f64);
        }
    }
    c
}

/// Reference for `partial_days`.
fn scan_partial_days(r: &CampaignResult) -> Vec<usize> {
    (0..r.days as usize)
        .filter(|&d| !scan_day_coverage(r, d).is_complete())
        .collect()
}

/// Reference for `daily_node_rates`: every sample rescanned per day.
fn scan_daily_node_rates(r: &CampaignResult) -> Vec<RateReport> {
    let selection = &r.selection;
    let n_slots = selection.len();
    let mut out = Vec::with_capacity(r.days as usize);
    for d in 0..r.days as usize {
        let lo = d as f64 * DAY_S;
        let hi = lo + DAY_S;
        let mut total = CounterDelta::zero(n_slots);
        let mut cov = Coverage::new();
        for s in &r.samples {
            if s.t > lo && s.t <= hi {
                total.accumulate(&s.total);
                cov.push(s.nodes_sampled as f64, s.nodes_total as f64);
            }
        }
        let frac = cov.fraction();
        let node_seconds = if frac > 0.0 {
            DAY_S * r.node_count as f64 * frac
        } else {
            DAY_S * r.node_count.max(1) as f64
        };
        out.push(RateReport::from_delta(selection, &total, node_seconds));
    }
    out
}

/// Reference for `daily_utilization`: `sp2_pbs::utilization` day by day.
fn scan_daily_utilization(r: &CampaignResult) -> Vec<f64> {
    (0..r.days)
        .map(|d| {
            utilization(
                &r.pbs_records,
                r.node_count as u32,
                d as f64 * DAY_S,
                (d + 1) as f64 * DAY_S,
            )
        })
        .collect()
}

/// A sample or record time of kind `kind`, placed by `x` in `[0, 1)`:
/// the daemon's 15-minute grid (the `t = 0` baseline and every midnight
/// included), exact midnights, anywhere inside the horizon, past it,
/// before 0, signed zeros, NaN, ±inf and ±1e300.
fn edge_time(kind: u8, x: f64, days: u32) -> f64 {
    let horizon = days as f64 * DAY_S;
    match kind {
        0..=3 => (x * (days as f64 + 1.0) * 96.0).floor() * 900.0,
        4 | 5 => (x * (days as f64 + 2.0)).floor() * DAY_S,
        6 | 7 => x * horizon,
        8 => horizon + 1.0 + x * 2.0 * DAY_S,
        9 => -1.0 - x * DAY_S,
        10 => 0.0,
        11 => -0.0,
        12 => f64::NAN,
        13 => f64::INFINITY,
        14 => f64::NEG_INFINITY,
        15 => 1e300,
        _ => -1e300,
    }
}

/// A synthetic campaign over `days` days on `node_count` nodes.
fn per_day_campaign(
    days: u32,
    node_count: usize,
    samples: Vec<SystemSample>,
    pbs_records: Vec<JobRecord>,
) -> CampaignResult {
    CampaignResult {
        days,
        node_count,
        machine: MachineConfig::nas_sp2(),
        selection: nas_selection(),
        samples,
        job_reports: vec![],
        pbs_records,
        faults: FaultSummary::default(),
    }
}

/// A daemon sample at `t` that saw `sampled` of 144 nodes, its counter
/// lanes derived from `seed` (small enough that no day's sum overflows).
fn per_day_sample(t: f64, sampled: usize, seed: u64) -> SystemSample {
    let slots = nas_selection().len() as u64;
    let lane = |k: u64| {
        (0..slots)
            .map(|s| (seed * 7_919 + s * 104_729 + k) % (1 << 32))
            .collect()
    };
    SystemSample {
        t,
        nodes_sampled: sampled.min(144),
        nodes_total: 144,
        anomalies: 0,
        total: CounterDelta {
            user: lane(0),
            system: lane(1),
        },
        rates: RateReport::default(),
    }
}

/// Every per-day helper matches its reference bit for bit, the sign of
/// every zero included.
fn assert_per_day_bit_identical(r: &CampaignResult) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let cov = r.daily_coverage();
    assert_eq!(cov.len(), r.days as usize);
    for (d, c) in cov.iter().enumerate() {
        let want = scan_day_coverage(r, d);
        assert_eq!(
            bits(&[c.covered, c.total]),
            bits(&[want.covered, want.total]),
            "coverage of day {d}"
        );
    }
    assert_eq!(r.partial_days(), scan_partial_days(r));
    let rates = r.daily_node_rates();
    let want = scan_daily_node_rates(r);
    assert_eq!(rates.len(), want.len());
    for (d, (a, b)) in rates.iter().zip(&want).enumerate() {
        assert_eq!(
            bits(&rate_report_fields(a)),
            bits(&rate_report_fields(b)),
            "node rates of day {d}"
        );
    }
    assert_eq!(
        bits(&r.daily_utilization()),
        bits(&scan_daily_utilization(r)),
        "utilization"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The single-pass per-day helpers equal one scan per day on any
    /// input: unordered samples, times on midnights, outside the horizon
    /// or not finite, and records that span days, start before 0, end
    /// past the horizon, run backwards or have a NaN or infinite end.
    #[test]
    fn per_day_helpers_match_per_day_scans(
        shape in (0u32..6, 1usize..300),
        samples in prop::collection::vec(
            ((0u8..17, 0.0f64..1.0), 0usize..400, 0u64..1 << 20),
            0..200,
        ),
        records in prop::collection::vec(
            ((0u8..17, 0.0f64..1.0), (0u8..17, 0.0f64..1.0), 0u32..145),
            0..12,
        ),
    ) {
        let (days, node_count) = shape;
        let samples = samples
            .into_iter()
            .map(|((kind, x), sampled, seed)| {
                per_day_sample(edge_time(kind, x, days), sampled, seed)
            })
            .collect();
        let records = records
            .into_iter()
            .enumerate()
            .map(|(id, ((ks, xs), (ke, xe), nodes))| {
                let start = edge_time(ks, xs, days);
                // Mostly a 0-3 day job after `start`, else any edge time.
                let end = if ke < 8 && start.is_finite() {
                    start + xe * 3.0 * DAY_S
                } else {
                    edge_time(ke, xe, days)
                };
                JobRecord {
                    id: id as u64,
                    nodes,
                    start,
                    end,
                    outcome: JobOutcome::Completed,
                }
            })
            .collect();
        assert_per_day_bit_identical(&per_day_campaign(days, node_count, samples, records));
    }

    /// A daemon-shaped campaign (every 15-minute sample, the baseline
    /// included) in shuffled order bins exactly like the per-day scans.
    #[test]
    fn per_day_helpers_ignore_sample_order(
        days in 0u32..5,
        keys in prop::collection::vec(0u64..1 << 40, 481..482),
        starts in prop::collection::vec(0u64..600, 4..5),
    ) {
        // Sorting by random keys shuffles the daemon's time-ordered samples.
        let mut keyed: Vec<(u64, SystemSample)> = (0..=days as usize * 96)
            .map(|k| {
                let sampled = 130 + (keys[k] % 30) as usize;
                (keys[k], per_day_sample(k as f64 * 900.0, sampled, k as u64))
            })
            .collect();
        keyed.sort_by_key(|&(key, _)| key);
        let samples = keyed.into_iter().map(|(_, s)| s).collect();
        let records = starts
            .iter()
            .enumerate()
            .map(|(id, &s)| {
                let start = s as f64 * 900.0 - DAY_S;
                JobRecord {
                    id: id as u64,
                    nodes: 16,
                    start,
                    end: start + 1.5 * DAY_S,
                    outcome: JobOutcome::Completed,
                }
            })
            .collect();
        assert_per_day_bit_identical(&per_day_campaign(days, 144, samples, records));
    }
}

/// The signs of zero the per-day scans produce: an idle day reads -0.0
/// utilization when there are no records at all (`Iterator::sum` starts
/// at -0.0) and +0.0 once any record exists; a zero-day horizon yields
/// no days.
#[test]
fn per_day_helpers_keep_zero_signs_and_empty_horizons() {
    let far = JobRecord {
        id: 1,
        nodes: 8,
        start: 10.0 * DAY_S,
        end: 11.0 * DAY_S,
        outcome: JobOutcome::Completed,
    };
    let all_bits = |v: Vec<f64>, x: f64| v.iter().all(|u| u.to_bits() == x.to_bits());
    let idle = per_day_campaign(2, 144, vec![per_day_sample(900.0, 144, 1)], vec![]);
    assert_per_day_bit_identical(&idle);
    assert!(all_bits(idle.daily_utilization(), -0.0));
    let with_far = per_day_campaign(2, 144, vec![], vec![far]);
    assert_per_day_bit_identical(&with_far);
    assert!(all_bits(with_far.daily_utilization(), 0.0));
    let empty = per_day_campaign(0, 144, vec![per_day_sample(900.0, 144, 1)], vec![far]);
    assert_per_day_bit_identical(&empty);
    assert!(empty.daily_coverage().is_empty() && empty.daily_utilization().is_empty());
}

// ---------------------------------------------------------------------
// Daemon sweeps and job reports: the lane paths against the per-node
// snapshot code they replaced
// ---------------------------------------------------------------------

/// Reference for `Daemon::sweep`: the per-node snapshot daemon it
/// replaced, its `collect_batch` body copied (metrics and trace spans
/// left out). Each node keeps an optional baseline snapshot; `None` in
/// the batch marks a down node.
struct SnapshotDaemon {
    selection: CounterSelection,
    prev: Vec<Option<CounterSnapshot>>,
    samples: Vec<SystemSample>,
}

impl SnapshotDaemon {
    fn new(selection: CounterSelection, nodes: usize) -> Self {
        SnapshotDaemon {
            selection,
            prev: vec![None; nodes],
            samples: Vec::new(),
        }
    }

    fn restart(&mut self) {
        for p in &mut self.prev {
            *p = None;
        }
    }

    fn collect_batch(&mut self, snapshots: &mut [Option<CounterSnapshot>], t: f64) {
        let n_slots = self.selection.len();
        let mut total = CounterDelta::zero(n_slots);
        let mut nodes_sampled = 0;
        let mut anomalies = 0;
        for (node, slot) in snapshots.iter_mut().enumerate() {
            let Some(snap) = slot.as_ref() else {
                self.prev[node] = None;
                continue;
            };
            if let Some(prev) = &self.prev[node] {
                let delta = CounterDelta::between(prev, snap);
                if snapshot_delta_plausible(&delta) {
                    total.accumulate(&delta);
                    nodes_sampled += 1;
                    std::mem::swap(&mut self.prev[node], slot);
                } else {
                    anomalies += 1;
                    self.prev[node] = None;
                }
            } else {
                self.prev[node] = slot.take();
            }
        }
        let interval = self
            .samples
            .last()
            .map(|s| t - s.t)
            .unwrap_or(SAMPLE_INTERVAL_S)
            .max(1e-9);
        let rates = RateReport::from_delta(&self.selection, &total, interval);
        self.samples.push(SystemSample {
            t,
            nodes_sampled,
            nodes_total: self.prev.len(),
            anomalies,
            total,
            rates,
        });
    }
}

fn snapshot_delta_plausible(d: &CounterDelta) -> bool {
    d.user
        .iter()
        .chain(d.system.iter())
        .all(|&v| v <= PLAUSIBLE_DELTA_MAX)
}

/// Reference for `JobCounterReport::from_lanes`: the per-node snapshot
/// sum `from_snapshots` used before it shared the lane helper.
fn snapshot_job_report(
    selection: &CounterSelection,
    job_id: u64,
    start: f64,
    end: f64,
    before: &[CounterSnapshot],
    after: &[CounterSnapshot],
) -> JobCounterReport {
    let mut total = CounterDelta::zero(selection.len());
    for (b, a) in before.iter().zip(after) {
        total.accumulate(&CounterDelta::between(b, a));
    }
    let rates = RateReport::from_delta(selection, &total, end - start);
    JobCounterReport {
        job_id,
        nodes: before.len() as u32,
        start,
        end,
        total,
        rates,
    }
}

/// SplitMix64, for drawing a lane history from one proptest seed.
struct HistoryRng(u64);

impl HistoryRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// One node's reading as a snapshot, as the daemon saw it: its raw
/// 32-bit registers when the read is glitched.
fn lane_snapshot(node_lanes: &[u64], glitched: bool) -> CounterSnapshot {
    let slots = node_lanes.len() / 2;
    let snap = CounterSnapshot {
        user: node_lanes[..slots].to_vec(),
        system: node_lanes[slots..].to_vec(),
    };
    if glitched {
        snap.truncate_to_hardware()
    } else {
        snap
    }
}

fn assert_samples_bit_identical(got: &SystemSample, want: &SystemSample, sweep: usize) {
    let bits = |r: &RateReport| rate_report_fields(r).map(f64::to_bits);
    assert_eq!(got.t.to_bits(), want.t.to_bits(), "sweep {sweep}: t");
    assert_eq!(
        got.nodes_sampled, want.nodes_sampled,
        "sweep {sweep}: nodes_sampled"
    );
    assert_eq!(
        got.nodes_total, want.nodes_total,
        "sweep {sweep}: nodes_total"
    );
    assert_eq!(got.anomalies, want.anomalies, "sweep {sweep}: anomalies");
    assert_eq!(got.total, want.total, "sweep {sweep}: total");
    assert_eq!(bits(&got.rates), bits(&want.rates), "sweep {sweep}: rates");
}

fn assert_job_reports_bit_identical(got: &JobCounterReport, want: &JobCounterReport) {
    let bits = |r: &RateReport| rate_report_fields(r).map(f64::to_bits);
    assert_eq!(
        (
            got.job_id,
            got.nodes,
            got.start.to_bits(),
            got.end.to_bits()
        ),
        (
            want.job_id,
            want.nodes,
            want.start.to_bits(),
            want.end.to_bits()
        )
    );
    assert_eq!(got.total, want.total, "job total");
    assert_eq!(bits(&got.rates), bits(&want.rates), "job rates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Daemon::sweep` over a machine's lane buffer produces exactly the
    /// samples the per-node snapshot daemon did, on random lane
    /// histories: the baseline sweep, nodes going down and coming back,
    /// reboots whose zeroed counters wrap the delta, glitched reads of
    /// counters below and above 2^32, daemon restarts, missed and
    /// off-cadence sweeps, and deltas of exactly `PLAUSIBLE_DELTA_MAX`
    /// and one above it.
    #[test]
    fn daemon_sweep_matches_per_node_snapshot_daemon(
        seed in 0u64..u64::MAX,
        nodes in 1usize..7,
        sweeps in 1usize..48,
        io_aware in 0u8..2,
    ) {
        let selection = if io_aware == 1 { io_aware_selection() } else { nas_selection() };
        let stride = 2 * selection.len();
        let mut rng = HistoryRng(seed);
        // Start some counters above 2^32, so glitched reads truncate.
        let mut lanes: Vec<u64> = (0..nodes * stride)
            .map(|_| {
                let bits = 20 + rng.below(24);
                rng.below(1 << bits)
            })
            .collect();
        let mut down = vec![false; nodes];
        let mut daemon = Daemon::new(selection.clone(), nodes);
        let mut reference = SnapshotDaemon::new(selection.clone(), nodes);
        let mut t = 0.0;
        for sweep in 0..sweeps {
            if sweep > 0 {
                t += match rng.below(6) {
                    0 => SAMPLE_INTERVAL_S * (2 + rng.below(3)) as f64, // missed sweeps
                    1 => 1.0 + rng.below(1_000_000) as f64 / 1024.0,
                    _ => SAMPLE_INTERVAL_S,
                };
                if rng.one_in(10) {
                    daemon.restart();
                    reference.restart();
                }
            }
            let mut glitched = Vec::new();
            for node in 0..nodes {
                let node_lanes = &mut lanes[node * stride..(node + 1) * stride];
                if rng.one_in(8) {
                    down[node] = !down[node];
                }
                if rng.one_in(12) {
                    node_lanes.fill(0); // reboot
                }
                let lane = rng.below(stride as u64) as usize;
                match rng.below(10) {
                    0 => node_lanes[lane] = node_lanes[lane].wrapping_add(PLAUSIBLE_DELTA_MAX),
                    1 => {
                        node_lanes[lane] = node_lanes[lane].wrapping_add(PLAUSIBLE_DELTA_MAX + 1)
                    }
                    2 => node_lanes[lane] = node_lanes[lane].wrapping_add(1 << 33),
                    _ => {
                        for c in node_lanes.iter_mut() {
                            *c = c.wrapping_add(rng.below(1 << 24));
                        }
                    }
                }
                if rng.one_in(6) {
                    glitched.push(node);
                }
            }
            // Unsorted and repeated glitch lists are legal input too.
            if glitched.len() > 1 && rng.one_in(2) {
                glitched.reverse();
                glitched.push(glitched[0]);
            }
            let mut batch: Vec<Option<CounterSnapshot>> = (0..nodes)
                .map(|node| {
                    (!down[node]).then(|| {
                        lane_snapshot(
                            &lanes[node * stride..(node + 1) * stride],
                            glitched.contains(&node),
                        )
                    })
                })
                .collect();
            reference.collect_batch(&mut batch, t);
            let got = daemon.sweep(&lanes, &down, &glitched, t).clone();
            assert_samples_bit_identical(&got, &reference.samples[sweep], sweep);
        }
        prop_assert_eq!(daemon.into_samples(), reference.samples);
    }

    /// A job's report built from its prologue lanes and the machine's
    /// live lanes equals the per-node snapshot sum, whatever the nodes'
    /// order and wherever their counters wrap; `from_snapshots` agrees.
    #[test]
    fn job_reports_from_lanes_match_per_node_snapshot_sums(
        seed in 0u64..u64::MAX,
        machine in 1usize..20,
        io_aware in 0u8..2,
    ) {
        let selection = if io_aware == 1 { io_aware_selection() } else { nas_selection() };
        let stride = 2 * selection.len();
        let mut rng = HistoryRng(seed);
        let mut lanes: Vec<u64> = (0..machine * stride).map(|_| rng.next()).collect();
        // A job on a random subset of the machine, in scheduler order.
        let mut job_nodes: Vec<usize> = (0..machine).filter(|_| !rng.one_in(3)).collect();
        prop_assume!(!job_nodes.is_empty());
        for i in (1..job_nodes.len()).rev() {
            job_nodes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let node_lanes = |lanes: &[u64], n: usize| lanes[n * stride..(n + 1) * stride].to_vec();
        let prologue: Vec<u64> = job_nodes.iter().flat_map(|&n| node_lanes(&lanes, n)).collect();
        let before: Vec<CounterSnapshot> = job_nodes
            .iter()
            .map(|&n| lane_snapshot(&node_lanes(&lanes, n), false))
            .collect();
        for c in &mut lanes {
            let bits = 1 + rng.below(50);
            *c = c.wrapping_add(rng.below(1 << bits));
        }
        let after: Vec<CounterSnapshot> = job_nodes
            .iter()
            .map(|&n| lane_snapshot(&node_lanes(&lanes, n), false))
            .collect();
        let start = rng.below(1 << 30) as f64 / 8.0;
        let end = start + 1.0 + rng.below(1 << 30) as f64 / 16.0;
        let want = snapshot_job_report(&selection, seed, start, end, &before, &after);
        let got = JobCounterReport::from_lanes(
            &selection,
            seed,
            start,
            end,
            &prologue,
            job_nodes.iter().map(|&n| &lanes[n * stride..(n + 1) * stride]),
        );
        assert_job_reports_bit_identical(&got, &want);
        let from_snapshots =
            JobCounterReport::from_snapshots(&selection, seed, start, end, &before, &after);
        assert_job_reports_bit_identical(&from_snapshots, &want);
    }
}
