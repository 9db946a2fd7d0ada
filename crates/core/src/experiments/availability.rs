//! Availability: what the fault layer cost the campaign.
//!
//! The paper measured "the SP2 nodes which are available for user jobs"
//! — a qualifier that only matters because availability was imperfect.
//! This experiment quantifies the degradation: node uptime, daemon
//! sample coverage, every fault-class tally, and the measured machine
//! rate against a fault-free twin campaign run from the same trace and
//! seed, so the error the gaps introduce is itself a measured number.

use crate::experiments::{Dataset, Experiment, ExperimentInput};
use crate::json::{Json, ToJson};
use crate::render;
use crate::Sp2Error;
use sp2_cluster::CampaignResult;

/// The regenerated availability report.
#[derive(Debug, Clone)]
pub struct Availability {
    /// Campaign length in days.
    pub days: u32,
    /// Machine size in nodes.
    pub node_count: usize,
    /// Whether fault injection was configured.
    pub faults_enabled: bool,
    /// Node outage windows that started inside the horizon.
    pub outages: usize,
    /// Total node downtime inside the horizon, seconds.
    pub node_downtime_s: f64,
    /// Fraction of node-seconds the machine was up, in `[0, 1]`.
    pub uptime_fraction: f64,
    /// Fraction of expected node-samples the daemon collected.
    pub sample_coverage: f64,
    /// Daemon samples the sweep schedule should have produced.
    pub expected_samples: usize,
    /// Daemon samples actually collected.
    pub collected_samples: usize,
    /// Sweeps the cron never ran.
    pub missed_sweeps: usize,
    /// Daemon restarts (each loses every baseline snapshot).
    pub daemon_restarts: usize,
    /// Implausible deltas the daemon discarded.
    pub anomalies: usize,
    /// Days whose sample coverage was incomplete.
    pub partial_days: usize,
    /// Jobs killed by node failures.
    pub jobs_killed: usize,
    /// Killed jobs PBS requeued for another attempt.
    pub jobs_requeued: usize,
    /// Mean daily machine rate as measured, Gflops.
    pub measured_gflops: f64,
    /// Measured rate extrapolated through the sample coverage, Gflops.
    pub coverage_corrected_gflops: f64,
    /// Mean daily machine rate of the fault-free twin, when one was
    /// provided.
    pub baseline_gflops: Option<f64>,
    /// Relative error of the measured rate against the twin, percent
    /// (negative when faults depressed the measurement).
    pub gflops_error_pct: Option<f64>,
}

/// Builds the availability report from a campaign and its optional
/// fault-free twin.
pub(crate) fn run(campaign: &CampaignResult, baseline: Option<&CampaignResult>) -> Availability {
    let horizon_node_s = campaign.days as f64 * 86_400.0 * campaign.node_count as f64;
    let uptime_fraction = if horizon_node_s > 0.0 {
        (1.0 - campaign.faults.node_downtime_s / horizon_node_s).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let sample_coverage = campaign.coverage().fraction();
    let measured_gflops = campaign.mean_daily_gflops();
    let coverage_corrected_gflops = if sample_coverage > 0.0 && sample_coverage < 1.0 {
        measured_gflops / sample_coverage
    } else {
        measured_gflops
    };
    let baseline_gflops = baseline.map(|b| b.mean_daily_gflops());
    let gflops_error_pct = baseline_gflops.and_then(|b| {
        if b > 0.0 {
            Some((measured_gflops - b) / b * 100.0)
        } else {
            None
        }
    });
    Availability {
        days: campaign.days,
        node_count: campaign.node_count,
        faults_enabled: campaign.faults.enabled,
        outages: campaign.faults.outages,
        node_downtime_s: campaign.faults.node_downtime_s,
        uptime_fraction,
        sample_coverage,
        expected_samples: campaign.expected_samples(),
        collected_samples: campaign.samples.len(),
        missed_sweeps: campaign.faults.missed_sweeps,
        daemon_restarts: campaign.faults.daemon_restarts,
        anomalies: campaign.total_anomalies(),
        partial_days: campaign.partial_days().len(),
        jobs_killed: campaign.faults.jobs_killed,
        jobs_requeued: campaign.faults.jobs_requeued,
        measured_gflops,
        coverage_corrected_gflops,
        baseline_gflops,
        gflops_error_pct,
    }
}

impl Availability {
    /// Renders the report as a statistic/value table.
    pub fn render(&self) -> String {
        let mut rows = vec![
            vec![
                "node uptime (%)".to_string(),
                render::num(self.uptime_fraction * 100.0, 2, 8),
            ],
            vec![
                "node downtime (hours)".to_string(),
                render::num(self.node_downtime_s / 3_600.0, 1, 8),
            ],
            vec!["node outages".to_string(), format!("{:>8}", self.outages)],
            vec![
                "sample coverage (%)".to_string(),
                render::num(self.sample_coverage * 100.0, 2, 8),
            ],
            vec![
                "daemon samples".to_string(),
                format!("{:>8}", self.collected_samples),
            ],
            vec![
                "expected samples".to_string(),
                format!("{:>8}", self.expected_samples),
            ],
            vec![
                "missed sweeps".to_string(),
                format!("{:>8}", self.missed_sweeps),
            ],
            vec![
                "daemon restarts".to_string(),
                format!("{:>8}", self.daemon_restarts),
            ],
            vec![
                "discarded anomalies".to_string(),
                format!("{:>8}", self.anomalies),
            ],
            vec![
                "partial days".to_string(),
                format!("{:>8}", self.partial_days),
            ],
            vec![
                "jobs killed by failures".to_string(),
                format!("{:>8}", self.jobs_killed),
            ],
            vec![
                "jobs requeued".to_string(),
                format!("{:>8}", self.jobs_requeued),
            ],
            vec![
                "measured rate (Gflops)".to_string(),
                render::num(self.measured_gflops, 2, 8),
            ],
            vec![
                "coverage-corrected (Gflops)".to_string(),
                render::num(self.coverage_corrected_gflops, 2, 8),
            ],
        ];
        if let Some(b) = self.baseline_gflops {
            rows.push(vec![
                "fault-free twin (Gflops)".to_string(),
                render::num(b, 2, 8),
            ]);
        }
        if let Some(e) = self.gflops_error_pct {
            rows.push(vec![
                "measurement error vs twin (%)".to_string(),
                render::num(e, 2, 8),
            ]);
        }
        render::table(
            &format!(
                "Availability: fault impact over {} days on {} nodes ({})",
                self.days,
                self.node_count,
                if self.faults_enabled {
                    "faults injected"
                } else {
                    "fault-free"
                }
            ),
            &["Statistic", "Value"],
            &rows,
        )
    }
}

impl ToJson for Availability {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("days", self.days)
            .field("node_count", self.node_count as u64)
            .field("faults_enabled", self.faults_enabled)
            .field("outages", self.outages as u64)
            .field("node_downtime_s", self.node_downtime_s)
            .field("uptime_fraction", self.uptime_fraction)
            .field("sample_coverage", self.sample_coverage)
            .field("expected_samples", self.expected_samples as u64)
            .field("collected_samples", self.collected_samples as u64)
            .field("missed_sweeps", self.missed_sweeps as u64)
            .field("daemon_restarts", self.daemon_restarts as u64)
            .field("anomalies", self.anomalies as u64)
            .field("partial_days", self.partial_days as u64)
            .field("jobs_killed", self.jobs_killed as u64)
            .field("jobs_requeued", self.jobs_requeued as u64)
            .field("measured_gflops", self.measured_gflops)
            .field("coverage_corrected_gflops", self.coverage_corrected_gflops)
            .field("baseline_gflops", self.baseline_gflops)
            .field("gflops_error_pct", self.gflops_error_pct)
    }
}

/// Registry entry for the availability report.
pub struct AvailabilityExperiment;

impl Experiment for AvailabilityExperiment {
    fn id(&self) -> &'static str {
        "availability"
    }

    fn title(&self) -> &'static str {
        "Availability: fault impact and measurement error"
    }

    fn needs_baseline(&self) -> bool {
        true
    }

    fn run(&self, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error> {
        let a = run(input.campaign, input.baseline);
        Ok(Dataset::assemble(
            self.id(),
            self.title(),
            a.render(),
            a.to_json(),
            &input,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Sp2System;

    #[test]
    fn fault_free_campaign_reports_full_availability() {
        let mut sys = Sp2System::builder().days(2).build();
        let a = run(sys.campaign().expect("campaign runs"), None);
        assert_eq!(a.days, 2);
        assert!(!a.faults_enabled);
        assert_eq!(a.outages, 0);
        assert_eq!(a.uptime_fraction.to_bits(), 1.0f64.to_bits());
        assert_eq!(a.sample_coverage.to_bits(), 1.0f64.to_bits());
        assert_eq!(
            a.coverage_corrected_gflops.to_bits(),
            a.measured_gflops.to_bits()
        );
        assert!(a.baseline_gflops.is_none());
        let text = a.render();
        assert!(text.contains("fault-free"));
        assert!(text.contains("sample coverage"));
    }

    #[test]
    fn faulted_campaign_reports_degradation_against_twin() {
        let mut sys = Sp2System::builder()
            .days(2)
            .faults(2.0)
            .fault_seed(11)
            .build();
        let exp = crate::experiments::experiment("availability").expect("registered");
        let d = sys.dataset(exp).expect("availability runs");
        assert!(d.rendered.contains("faults injected"));
        assert!(d.rendered.contains("fault-free twin"));
        assert!(d.rendered.contains("data quality:"));
        let cov = d
            .json
            .get("sample_coverage")
            .and_then(Json::as_f64)
            .expect("coverage exported");
        assert!(cov < 1.0, "heavy faults must dent coverage, got {cov}");
        assert!(d.json.get("baseline_gflops").is_some());
    }
}
