//! Campaign results and the aggregations the paper's figures use.

use sp2_hpm::CounterSelection;
use sp2_pbs::{utilization, JobRecord};
use sp2_power2::MachineConfig;
use sp2_rs2hpm::{JobCounterReport, RateReport, SystemSample};
use sp2_stats::{Coverage, TimeSeries};

/// Seconds per day.
const DAY_S: f64 = 86_400.0;

/// What the fault layer actually did to a campaign. All zeros (and
/// `enabled == false`) for a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSummary {
    /// Whether any fault injection was configured.
    pub enabled: bool,
    /// Node outage windows that started inside the horizon.
    pub outages: usize,
    /// Total node downtime inside the horizon, seconds.
    pub node_downtime_s: f64,
    /// Daemon sweeps that never ran.
    pub missed_sweeps: usize,
    /// Daemon restarts (each loses every baseline snapshot).
    pub daemon_restarts: usize,
    /// Glitched (32-bit truncated) node reads actually delivered.
    pub glitches: usize,
    /// Jobs killed by node failures.
    pub jobs_killed: usize,
    /// Killed jobs PBS requeued for another attempt.
    pub jobs_requeued: usize,
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign length in days.
    pub days: u32,
    /// Machine size.
    pub node_count: usize,
    /// Per-node machine parameters the campaign ran with. Carried along
    /// so downstream analyses (Table 4's probes, the calibration suite,
    /// peak-rate normalization) need no side channel for the hardware
    /// description.
    pub machine: MachineConfig,
    /// The counter selection the monitors ran.
    pub selection: CounterSelection,
    /// The daemon's 15-minute machine-wide samples.
    pub samples: Vec<SystemSample>,
    /// Per-job epilogue reports (jobs that completed inside the window).
    pub job_reports: Vec<JobCounterReport>,
    /// PBS accounting records (including horizon-truncated jobs).
    pub pbs_records: Vec<JobRecord>,
    /// What the fault layer did during the run.
    pub faults: FaultSummary,
}

impl CampaignResult {
    /// A zero-day result carrying only the machine description. Campaign-
    /// independent experiments (Table 1, the calibration suite) run
    /// against this so every experiment shares one entry-point signature.
    pub fn empty(machine: MachineConfig, selection: CounterSelection) -> Self {
        CampaignResult {
            days: 0,
            node_count: 0,
            machine,
            selection,
            samples: Vec::new(),
            job_reports: Vec::new(),
            pbs_records: Vec::new(),
            faults: FaultSummary::default(),
        }
    }

    /// Sample-coverage ledger over the whole campaign, in node-samples.
    /// The `t = 0` baseline pass is excluded (it never contributes deltas
    /// even on a perfect machine), so a fault-free campaign's fraction is
    /// exactly `1.0`.
    pub fn coverage(&self) -> Coverage {
        let mut c = Coverage::new();
        for s in self.samples.iter().filter(|s| s.t > 0.0) {
            c.push(s.nodes_sampled as f64, s.nodes_total as f64);
        }
        c
    }

    /// Sample-coverage ledger for day `d` (samples in `(d, d+1]` days).
    pub fn day_coverage(&self, d: usize) -> Coverage {
        let lo = d as f64 * DAY_S;
        let hi = lo + DAY_S;
        let mut c = Coverage::new();
        for s in &self.samples {
            if s.t > lo && s.t <= hi {
                c.push(s.nodes_sampled as f64, s.nodes_total as f64);
            }
        }
        c
    }

    /// Samples the daemon should have collected over the horizon (one
    /// baseline pass plus 96 sweeps per day).
    pub fn expected_samples(&self) -> usize {
        self.days as usize * 96 + 1
    }

    /// Total per-node deltas the daemon discarded as counter glitches.
    pub fn total_anomalies(&self) -> usize {
        self.samples.iter().map(|s| s.anomalies).sum()
    }

    /// Days whose sample coverage is incomplete (gaps from outages,
    /// restarts, or anomalies).
    pub fn partial_days(&self) -> Vec<usize> {
        (0..self.days as usize)
            .filter(|&d| !self.day_coverage(d).is_complete())
            .collect()
    }

    /// Machine Gflops as a time series over the daemon samples.
    pub fn gflops_series(&self) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for s in &self.samples {
            ts.push(s.t, s.rates.mflops / 1000.0);
        }
        ts
    }

    /// Daily mean machine Gflops (Figure 1's daily-rate dots).
    pub fn daily_gflops(&self) -> Vec<f64> {
        self.gflops_series().daily_means(self.days as usize)
    }

    /// Daily machine utilization (Figure 1's utilization trace).
    pub fn daily_utilization(&self) -> Vec<f64> {
        (0..self.days)
            .map(|d| {
                utilization(
                    &self.pbs_records,
                    self.node_count as u32,
                    d as f64 * DAY_S,
                    (d + 1) as f64 * DAY_S,
                )
            })
            .collect()
    }

    /// Campaign-average utilization (the paper's 64 %).
    pub fn mean_utilization(&self) -> f64 {
        let u = self.daily_utilization();
        if u.is_empty() {
            0.0
        } else {
            u.iter().sum::<f64>() / u.len() as f64
        }
    }

    /// Campaign-average daily Gflops (the paper's ≈1.3).
    pub fn mean_daily_gflops(&self) -> f64 {
        let g = self.daily_gflops();
        if g.is_empty() {
            0.0
        } else {
            g.iter().sum::<f64>() / g.len() as f64
        }
    }

    /// Best single day's Gflops (the paper's 3.4).
    pub fn max_daily_gflops(&self) -> f64 {
        self.daily_gflops().into_iter().fold(0.0, f64::max)
    }

    /// Best 15-minute interval, Gflops (the paper's 5.7).
    pub fn max_sample_gflops(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.rates.mflops / 1000.0)
            .fold(0.0, f64::max)
    }

    /// Per-day, per-node rate reports: all of a day's sample deltas
    /// summed, divided by node-seconds — exactly how Tables 2–3 express
    /// "single node values" ("system rates may be obtained by multiplying
    /// by 144").
    ///
    /// The divisor is **coverage-weighted**: a day where only part of the
    /// machine was sampled divides by the node-seconds actually observed,
    /// so per-node rates stay comparable across gap-free and degraded
    /// days. At full coverage the weight is exactly `1.0` and the result
    /// is bit-identical to the unweighted computation; a fully dark day
    /// reports zero rates over the nominal window.
    pub fn daily_node_rates(&self) -> Vec<RateReport> {
        let selection = &self.selection;
        let n_slots = selection.len();
        let mut out = Vec::with_capacity(self.days as usize);
        for d in 0..self.days as usize {
            let lo = d as f64 * DAY_S;
            let hi = lo + DAY_S;
            let mut total = sp2_hpm::CounterDelta::zero(n_slots);
            let mut cov = Coverage::new();
            for s in &self.samples {
                // A sample at time t covers (t - interval, t]; attribute
                // it to the day containing t.
                if s.t > lo && s.t <= hi {
                    total.accumulate(&s.total);
                    cov.push(s.nodes_sampled as f64, s.nodes_total as f64);
                }
            }
            let frac = cov.fraction();
            let node_seconds = if frac > 0.0 {
                DAY_S * self.node_count as f64 * frac
            } else {
                // A fully dark day: the delta is zero too, so dividing by
                // the nominal window just yields all-zero rates.
                DAY_S * self.node_count.max(1) as f64
            };
            out.push(RateReport::from_delta(selection, &total, node_seconds));
        }
        out
    }

    /// Indices of days whose machine rate exceeds `gflops` (the paper's
    /// "30 of 270 days whose performance exceeded 2.0 Gflops").
    pub fn days_above(&self, gflops: f64) -> Vec<usize> {
        self.daily_gflops()
            .iter()
            .enumerate()
            .filter(|(_, &g)| g > gflops)
            .map(|(d, _)| d)
            .collect()
    }

    /// Job reports longer than `min_walltime_s` (the paper's 600 s batch
    /// filter).
    pub fn batch_reports(&self, min_walltime_s: f64) -> Vec<&JobCounterReport> {
        self.job_reports
            .iter()
            .filter(|r| r.walltime() > min_walltime_s)
            .collect()
    }

    /// Time-weighted average per-node Mflops over the batch reports
    /// (the paper's "19 Mflops per node").
    pub fn time_weighted_node_mflops(&self, min_walltime_s: f64) -> f64 {
        sp2_stats::summary::weighted_mean(
            self.batch_reports(min_walltime_s)
                .iter()
                .map(|r| (r.mflops_per_node(), r.walltime())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_hpm::{nas_selection, CounterDelta};

    /// Builds a synthetic result without running a simulation.
    fn synthetic() -> CampaignResult {
        let selection = nas_selection();
        let n = selection.len();
        let mut samples = Vec::new();
        // 2 days x 96 samples; day 0 idle, day 1 busy.
        for k in 0..(2 * 96) {
            let t = (k + 1) as f64 * 900.0;
            let mut total = CounterDelta::zero(n);
            let busy = t > DAY_S;
            if busy {
                // 2.25e12 flops per 900 s machine-wide = 2.5 Gflops.
                let add_slot = selection.slot_of(sp2_hpm::Signal::Fpu0Add).unwrap();
                total.user[add_slot] = 2_250_000_000_000;
            }
            let rates = RateReport::from_delta(&selection, &total, 900.0);
            samples.push(SystemSample {
                t,
                nodes_sampled: 144,
                nodes_total: 144,
                anomalies: 0,
                total,
                rates,
            });
        }
        CampaignResult {
            days: 2,
            node_count: 144,
            machine: MachineConfig::nas_sp2(),
            selection: selection.clone(),
            samples,
            job_reports: vec![],
            pbs_records: vec![JobRecord {
                id: 1,
                nodes: 72,
                start: DAY_S,
                end: 2.0 * DAY_S,
                outcome: sp2_pbs::JobOutcome::Completed,
            }],
            faults: FaultSummary::default(),
        }
    }

    #[test]
    fn daily_gflops_separates_days() {
        let r = synthetic();
        let g = r.daily_gflops();
        assert_eq!(g.len(), 2);
        assert!(g[0] < 1e-9);
        // Day 1's bin holds 95 busy samples plus the idle sample whose
        // interval straddles midnight: 2.5 x 95/96.
        assert!((g[1] - 2.474).abs() < 0.01, "{}", g[1]);
    }

    #[test]
    fn utilization_from_records() {
        let r = synthetic();
        let u = r.daily_utilization();
        assert!(u[0] < 1e-12);
        assert!((u[1] - 0.5).abs() < 1e-9, "72 of 144 nodes all day");
        assert!((r.mean_utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn peak_queries() {
        let r = synthetic();
        assert!((r.max_sample_gflops() - 2.5).abs() < 0.01);
        assert!((r.max_daily_gflops() - 2.474).abs() < 0.01);
        assert!((r.mean_daily_gflops() - 1.237).abs() < 0.01);
    }

    #[test]
    fn days_above_threshold() {
        let r = synthetic();
        assert_eq!(r.days_above(2.0), vec![1]);
        assert_eq!(r.days_above(5.0), Vec::<usize>::new());
    }

    #[test]
    fn full_coverage_is_exact_and_complete() {
        let r = synthetic();
        let c = r.coverage();
        assert_eq!(c.fraction().to_bits(), 1.0f64.to_bits());
        assert!(c.is_complete());
        assert!(r.partial_days().is_empty());
        assert_eq!(r.total_anomalies(), 0);
    }

    #[test]
    fn gaps_shrink_coverage_and_flag_days() {
        let mut r = synthetic();
        // Knock 44 nodes out of every day-0 sample.
        for s in r.samples.iter_mut().filter(|s| s.t <= DAY_S) {
            s.nodes_sampled = 100;
        }
        let c = r.coverage();
        assert!(c.fraction() < 1.0);
        assert_eq!(r.partial_days(), vec![0]);
        assert!((r.day_coverage(0).fraction() - 100.0 / 144.0).abs() < 1e-12);
        assert_eq!(r.day_coverage(1).fraction().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn coverage_weighting_rescues_partial_day_rates() {
        let full = synthetic();
        let mut half = synthetic();
        // Day 1: only half the machine sampled, producing half the delta.
        for s in half.samples.iter_mut().filter(|s| s.t > DAY_S) {
            s.nodes_sampled = 72;
            for v in s.total.user.iter_mut() {
                *v /= 2;
            }
        }
        let f = full.daily_node_rates();
        let h = half.daily_node_rates();
        // Per-node rates survive the gap (the sampled half divides by the
        // sampled node-seconds).
        assert!((h[1].mflops - f[1].mflops).abs() < 1e-9);
        // And the fault-free day is bit-identical to the full run.
        assert_eq!(h[0].mflops.to_bits(), f[0].mflops.to_bits());
    }

    #[test]
    fn daily_node_rates_divide_by_node_seconds() {
        let r = synthetic();
        let rates = r.daily_node_rates();
        assert_eq!(rates.len(), 2);
        // Day 1: 96 x 2.25e12 flops / (86400 x 144) node-s ≈ 17.4 Mflops
        // — reassuringly, exactly Table 3's per-node scale for a
        // 2.5 Gflops day.
        assert!(
            (rates[1].mflops - 17.36).abs() < 0.05,
            "{}",
            rates[1].mflops
        );
        assert_eq!(rates[0].mflops, 0.0);
    }
}
