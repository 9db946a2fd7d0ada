//! Campaign summary: the headline statistics §6 of the paper reports in
//! prose, gathered in one exhibit — mean machine rate, utilization, best
//! day, best 15-minute interval, the good-day count, and the
//! time-weighted per-node batch rate.

use crate::error::Sp2Error;
use crate::experiments::{
    Dataset, Experiment, ExperimentInput, BATCH_MIN_WALLTIME_S, GOOD_DAY_GFLOPS,
};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;

/// The paper's reported value for a statistic, alongside ours.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// Statistic name.
    pub name: String,
    /// Value measured from this campaign.
    pub measured: f64,
    /// The value §6 of the paper reports (None where the paper gives no
    /// single number, e.g. job count).
    pub paper: Option<f64>,
}

/// The regenerated campaign summary.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Campaign length in days.
    pub days: u32,
    /// Machine size in nodes.
    pub node_count: usize,
    /// Completed batch jobs (> 600 s wall clock).
    pub batch_jobs: usize,
    /// All completed jobs.
    pub total_jobs: usize,
    /// The headline statistics.
    pub rows: Vec<SummaryRow>,
}

/// Gathers the headline statistics from a campaign.
pub(crate) fn run(campaign: &CampaignResult) -> CampaignSummary {
    let rows = vec![
        SummaryRow {
            name: "mean machine rate (Gflops)".to_string(),
            measured: campaign.mean_daily_gflops(),
            paper: Some(1.3),
        },
        SummaryRow {
            name: "mean utilization (%)".to_string(),
            measured: campaign.mean_utilization() * 100.0,
            paper: Some(64.0),
        },
        SummaryRow {
            name: "best day (Gflops)".to_string(),
            measured: campaign.max_daily_gflops(),
            paper: Some(3.4),
        },
        SummaryRow {
            name: "best 15-minute interval (Gflops)".to_string(),
            measured: campaign.max_sample_gflops(),
            paper: Some(5.7),
        },
        SummaryRow {
            name: format!("days above {GOOD_DAY_GFLOPS:.1} Gflops"),
            measured: campaign.days_above(GOOD_DAY_GFLOPS).len() as f64,
            paper: Some(30.0),
        },
        SummaryRow {
            name: "time-weighted batch rate (Mflops/node)".to_string(),
            measured: campaign.time_weighted_node_mflops(BATCH_MIN_WALLTIME_S),
            paper: Some(19.0),
        },
    ];
    CampaignSummary {
        days: campaign.days,
        node_count: campaign.node_count,
        batch_jobs: campaign.batch_reports(BATCH_MIN_WALLTIME_S).len(),
        total_jobs: campaign.job_reports.len(),
        rows,
    }
}

impl CampaignSummary {
    /// Renders the summary as a measured-vs-paper table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    render::num(r.measured, 2, 8),
                    r.paper.map(|p| render::num(p, 2, 8)).unwrap_or_default(),
                ]
            })
            .collect();
        let mut out = render::table(
            &format!(
                "Campaign Summary ({} days, {} nodes)",
                self.days, self.node_count
            ),
            &["Statistic", "Measured", "Paper"],
            &rows,
        );
        out.push_str(&format!(
            "jobs: {} completed, {} batch (> {:.0} s)\n",
            self.total_jobs, self.batch_jobs, BATCH_MIN_WALLTIME_S
        ));
        out
    }
}

impl ToJson for CampaignSummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("days", self.days)
            .field("node_count", self.node_count as u64)
            .field("batch_jobs", self.batch_jobs as u64)
            .field("total_jobs", self.total_jobs as u64)
            .field(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .field("name", r.name.as_str())
                                .field("measured", r.measured)
                                .field("paper", r.paper)
                        })
                        .collect(),
                ),
            )
    }
}

/// Registry entry for the campaign summary.
pub struct SummaryExperiment;

impl Experiment for SummaryExperiment {
    fn id(&self) -> &'static str {
        "summary"
    }

    fn title(&self) -> &'static str {
        "Campaign Summary: headline statistics vs the paper"
    }

    fn run(&self, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error> {
        let s = run(input.campaign);
        Ok(Dataset::assemble(
            self.id(),
            self.title(),
            s.render(),
            s.to_json(),
            &input,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Sp2System;

    #[test]
    fn summary_reports_all_headline_stats() {
        let mut sys = Sp2System::nas_1996(7);
        let s = run(sys.campaign().expect("campaign runs"));
        assert_eq!(s.days, 7);
        assert_eq!(s.node_count, 144);
        assert_eq!(s.rows.len(), 6);
        assert!(s.rows.iter().all(|r| r.measured.is_finite()));
        let text = s.render();
        assert!(text.contains("mean machine rate"));
        assert!(text.contains("best 15-minute interval"));
        let json = s.to_json().to_string_pretty();
        assert!(json.contains("\"measured\":"));
    }
}
