//! Figure 4: 16-node performance histories — whole-job Mflops against
//! batch job id, with a moving average showing no improvement trend.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, BATCH_MIN_WALLTIME_S};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;
use sp2_stats::{linear_trend_slope, trailing_moving_average, Summary};

/// The regenerated Figure 4 dataset.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// `(job_id, job_mflops)` for 16-node batch jobs, by submission order.
    pub points: Vec<(u64, f64)>,
    /// Moving average of the rates (in job order).
    pub moving_avg: Vec<f64>,
    /// Mean whole-job rate (paper: ≈320 Mflops).
    pub mean: f64,
    /// Sample standard deviation (paper quotes a "variance" of 200 — its
    /// spread is a std in modern terms).
    pub std: f64,
    /// Least-squares slope of rate vs order (paper: no trend).
    pub trend_mflops_per_job: f64,
}

/// Moving-average window (jobs).
const MA_WINDOW: usize = 50;

/// Regenerates Figure 4 from the per-job reports.
pub(crate) fn run(campaign: &CampaignResult) -> Fig4 {
    let mut points: Vec<(u64, f64)> = campaign
        .batch_reports(BATCH_MIN_WALLTIME_S)
        .iter()
        .filter(|r| r.nodes == 16)
        .map(|r| (r.job_id, r.job_mflops()))
        .collect();
    points.sort_by_key(|&(id, _)| id);
    let rates: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
    let s = Summary::of(&rates);
    Fig4 {
        moving_avg: trailing_moving_average(&rates, MA_WINDOW.min(rates.len().max(1))),
        mean: s.mean(),
        std: s.std(),
        trend_mflops_per_job: linear_trend_slope(&rates),
        points,
    }
}

impl Fig4 {
    /// Renders summary plus a decimated series (every 25th job).
    pub fn render(&self) -> String {
        let pts: Vec<(f64, Vec<f64>)> = self
            .points
            .iter()
            .zip(&self.moving_avg)
            .step_by(25)
            .map(|(&(id, y), &ma)| (id as f64, vec![y, ma]))
            .collect();
        let mut out = render::series(
            "Figure 4: NAS SP2 16-node Performance Histories (every 25th job)",
            "job_id",
            &["job_mflops", "moving_avg"],
            &pts,
        );
        out.push_str(&format!(
            "n = {}, mean {:.0} Mflops, std {:.0}, trend {:+.3} Mflops/job\n",
            self.points.len(),
            self.mean,
            self.std,
            self.trend_mflops_per_job
        ));
        out
    }
}

impl ToJson for Fig4 {
    fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "points",
                Json::Arr(self.points.iter().map(|&p| Json::from(p)).collect()),
            )
            .field("moving_avg", self.moving_avg.as_slice())
            .field("mean", self.mean)
            .field("std", self.std)
            .field("trend_mflops_per_job", self.trend_mflops_per_job)
    }
}

/// Registry entry for Figure 4.
pub struct Fig4Experiment;

impl Experiment for Fig4Experiment {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn title(&self) -> &'static str {
        "Figure 4: NAS SP2 16-node Performance Histories"
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
    fn sixteen_node_history_shape() {
        let mut sys = Sp2System::nas_1996(30);
        let f = run(sys.campaign().expect("campaign runs"));
        assert!(f.points.len() > 50, "16-node jobs are the most popular");
        // Paper: average 320 Mflops with a wide spread; shape band here.
        assert!(
            (120.0..450.0).contains(&f.mean),
            "16-node mean {:.0} outside band",
            f.mean
        );
        assert!(
            f.std > 0.3 * f.mean,
            "spread is wide (cv {:.2})",
            f.std / f.mean
        );
        // No systematic improvement over time: trend is small relative
        // to the spread across the job-id range.
        let drift = f.trend_mflops_per_job.abs() * f.points.len() as f64;
        assert!(
            drift < 2.0 * f.std,
            "no trend toward improvement: drift {drift:.0} vs std {:.0}",
            f.std
        );
        let text = f.render();
        assert!(text.contains("moving_avg"));
    }
}
