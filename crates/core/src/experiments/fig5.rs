//! Figure 5: node performance vs system intervention — per-node Mflops
//! against the (system FXU)/(user FXU) instruction ratio.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, BATCH_MIN_WALLTIME_S};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;
use sp2_stats::BinnedScatter;

/// The regenerated Figure 5 dataset.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Raw scatter: `(system/user FXU ratio, mflops_per_node)` per job.
    pub points: Vec<(f64, f64)>,
    /// Binned means over the ratio axis (the figure's visible trend).
    pub binned: Vec<(f64, f64, u64)>,
    /// Correlation between bin center and bin mean (expected strongly
    /// negative: performance collapses as system intervention rises).
    pub correlation: f64,
    /// Jobs whose system FXU+ICU exceeded user (the §6 paging diagnosis).
    pub paging_suspected: usize,
}

/// Regenerates Figure 5 from the per-job reports.
pub(crate) fn run(campaign: &CampaignResult) -> Fig5 {
    let mut scatter = BinnedScatter::new(0.0, 5.0, 10);
    let mut points = Vec::new();
    let mut paging_suspected = 0;
    for r in campaign.batch_reports(BATCH_MIN_WALLTIME_S) {
        let x = r.rates.system_user_fxu_ratio;
        let y = r.mflops_per_node();
        points.push((x, y));
        scatter.add(x, y);
        if r.paging_suspected() {
            paging_suspected += 1;
        }
    }
    Fig5 {
        binned: scatter.series(),
        correlation: scatter.center_mean_correlation(),
        paging_suspected,
        points,
    }
}

impl Fig5 {
    /// Renders the binned trend.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, Vec<f64>)> = self
            .binned
            .iter()
            .map(|&(x, y, n)| (x, vec![y, n as f64]))
            .collect();
        let mut out = render::series(
            "Figure 5: Node Performance vs System Intervention",
            "sys_fxu/user_fxu",
            &["mflops_per_node", "jobs"],
            &pts,
        );
        out.push_str(&format!(
            "correlation {:.2}; {} jobs with system > user instruction counts\n",
            self.correlation, self.paging_suspected
        ));
        out
    }
}

impl ToJson for Fig5 {
    fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "points",
                Json::Arr(self.points.iter().map(|&p| Json::from(p)).collect()),
            )
            .field(
                "binned",
                Json::Arr(
                    self.binned
                        .iter()
                        .map(|&(x, y, n)| {
                            Json::obj()
                                .field("center", x)
                                .field("mean", y)
                                .field("jobs", n)
                        })
                        .collect(),
                ),
            )
            .field("correlation", self.correlation)
            .field("paging_suspected", self.paging_suspected as u64)
    }
}

/// Registry entry for Figure 5.
pub struct Fig5Experiment;

impl Experiment for Fig5Experiment {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn title(&self) -> &'static str {
        "Figure 5: Node Performance vs System Intervention"
    }

    fn run(&self, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error> {
        let f = run(input.campaign);
        Ok(Dataset::assemble(
            self.id(),
            self.title(),
            f.render(),
            f.to_json(),
            &input,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Sp2System;

    #[test]
    fn performance_falls_with_system_intervention() {
        let mut sys = Sp2System::nas_1996(30);
        let f = run(sys.campaign().expect("campaign runs"));
        assert!(!f.points.is_empty());
        assert!(
            f.correlation < -0.3,
            "Figure 5's downward trend missing (corr {:.2})",
            f.correlation
        );
        // Low-intervention jobs beat high-intervention jobs outright.
        let low: Vec<f64> = f
            .points
            .iter()
            .filter(|(x, _)| *x < 0.25)
            .map(|&(_, y)| y)
            .collect();
        let high: Vec<f64> = f
            .points
            .iter()
            .filter(|(x, _)| *x > 1.0)
            .map(|&(_, y)| y)
            .collect();
        if !low.is_empty() && !high.is_empty() {
            let lm = low.iter().sum::<f64>() / low.len() as f64;
            let hm = high.iter().sum::<f64>() / high.len() as f64;
            assert!(
                lm > 2.0 * hm,
                "healthy {lm:.1} vs paging {hm:.1} Mflops/node"
            );
        }
        let text = f.render();
        assert!(text.contains("sys_fxu/user_fxu"));
    }
}
