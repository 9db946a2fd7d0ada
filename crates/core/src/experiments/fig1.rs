//! Figure 1: NAS SP2 system performance history — daily Gflops, its
//! moving average, and the utilization moving average over the campaign.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;
use sp2_stats::{centered_moving_average, linear_trend_slope, trailing_moving_average};

/// The regenerated Figure 1 dataset.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Daily machine Gflops (the scatter).
    pub daily_gflops: Vec<f64>,
    /// Centered moving average of the daily rate (the smooth overlay).
    pub gflops_moving_avg: Vec<f64>,
    /// Daily utilization.
    pub daily_utilization: Vec<f64>,
    /// Trailing moving average of utilization (the right-axis trace).
    pub utilization_moving_avg: Vec<f64>,
    /// Campaign mean Gflops (paper ≈ 1.3).
    pub mean_gflops: f64,
    /// Campaign mean utilization (paper 0.64).
    pub mean_utilization: f64,
    /// Best day (paper: 3.4 Gflops).
    pub max_daily_gflops: f64,
    /// Best 15-minute interval (paper: 5.7 Gflops).
    pub max_15min_gflops: f64,
    /// Best day's utilization across the campaign (paper: 0.95).
    pub max_daily_utilization: f64,
    /// Least-squares slope of the daily rate (paper: "no obvious trend").
    pub trend_gflops_per_day: f64,
}

/// Moving-average window used for the smooth overlays (days each side).
const MA_HALF_WINDOW: usize = 7;

/// Regenerates Figure 1 from a campaign.
pub(crate) fn run(campaign: &CampaignResult) -> Fig1 {
    let daily = campaign.daily_gflops();
    let util = campaign.daily_utilization();
    Fig1 {
        gflops_moving_avg: centered_moving_average(&daily, MA_HALF_WINDOW),
        utilization_moving_avg: trailing_moving_average(&util, 2 * MA_HALF_WINDOW + 1),
        mean_gflops: campaign.mean_daily_gflops(),
        mean_utilization: campaign.mean_utilization(),
        max_daily_gflops: campaign.max_daily_gflops(),
        max_15min_gflops: campaign.max_sample_gflops(),
        max_daily_utilization: util.iter().copied().fold(0.0, f64::max),
        trend_gflops_per_day: linear_trend_slope(&daily),
        daily_gflops: daily,
        daily_utilization: util,
    }
}

impl Fig1 {
    /// Renders the figure's series as columns.
    pub fn render(&self) -> String {
        let points: Vec<(f64, Vec<f64>)> = self
            .daily_gflops
            .iter()
            .enumerate()
            .map(|(d, &g)| {
                (
                    d as f64,
                    vec![g, self.gflops_moving_avg[d], self.utilization_moving_avg[d]],
                )
            })
            .collect();
        let mut out = render::series(
            "Figure 1: NAS SP2 System Performance History",
            "day",
            &["daily_gflops", "gflops_ma", "utilization_ma"],
            &points,
        );
        out.push_str(&format!(
            "mean {:.2} Gflops, util {:.0} % (max day {:.2}, max util {:.0} %, \
             max 15-min {:.2}); trend {:+.4} Gflops/day\n",
            self.mean_gflops,
            self.mean_utilization * 100.0,
            self.max_daily_gflops,
            self.max_daily_utilization * 100.0,
            self.max_15min_gflops,
            self.trend_gflops_per_day,
        ));
        out
    }
}

impl ToJson for Fig1 {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("daily_gflops", self.daily_gflops.as_slice())
            .field("gflops_moving_avg", self.gflops_moving_avg.as_slice())
            .field("daily_utilization", self.daily_utilization.as_slice())
            .field(
                "utilization_moving_avg",
                self.utilization_moving_avg.as_slice(),
            )
            .field("mean_gflops", self.mean_gflops)
            .field("mean_utilization", self.mean_utilization)
            .field("max_daily_gflops", self.max_daily_gflops)
            .field("max_15min_gflops", self.max_15min_gflops)
            .field("max_daily_utilization", self.max_daily_utilization)
            .field("trend_gflops_per_day", self.trend_gflops_per_day)
    }
}

/// Registry entry for Figure 1.
pub struct Fig1Experiment;

impl Experiment for Fig1Experiment {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn title(&self) -> &'static str {
        "Figure 1: NAS SP2 System Performance History"
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
    fn fig1_series_aligned() {
        let mut sys = Sp2System::nas_1996(14);
        let f = run(sys.campaign().expect("campaign runs"));
        assert_eq!(f.daily_gflops.len(), 14);
        assert_eq!(f.gflops_moving_avg.len(), 14);
        assert_eq!(f.daily_utilization.len(), 14);
        assert!(f.max_daily_gflops >= f.mean_gflops);
        assert!(f.max_15min_gflops >= f.max_daily_gflops);
        assert!((0.0..=1.0).contains(&f.mean_utilization));
        let text = f.render();
        assert!(text.contains("daily_gflops"));
        assert!(text.contains("trend"));
    }
}
