//! Figure 2: batch-job walltime as a function of nodes requested.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, BATCH_MIN_WALLTIME_S};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;
use sp2_pbs::walltime_histogram;

/// The regenerated Figure 2 dataset.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// `(nodes_requested, total_walltime_seconds)` for nonzero bins.
    pub bars: Vec<(usize, f64)>,
    /// The modal node count (paper: 16).
    pub mode_nodes: Option<usize>,
    /// The top three node counts by walltime (paper: 16, 32, 8).
    pub top3: Vec<usize>,
    /// Fraction of walltime consumed by jobs requesting > 64 nodes
    /// (paper: "essentially no wall clock time").
    pub fraction_above_64: f64,
}

/// Regenerates Figure 2 from PBS accounting.
pub(crate) fn run(campaign: &CampaignResult) -> Fig2 {
    let h = walltime_histogram(&campaign.pbs_records, 144, BATCH_MIN_WALLTIME_S);
    Fig2 {
        bars: h.nonzero().collect(),
        mode_nodes: h.mode(),
        top3: h.top_k(3).into_iter().map(|(n, _)| n).collect(),
        fraction_above_64: h.fraction_above(64),
    }
}

impl Fig2 {
    /// Renders the histogram.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .bars
            .iter()
            .map(|&(n, w)| vec![n.to_string(), format!("{w:.0}")])
            .collect();
        let mut out = render::table(
            "Figure 2: Batch Job Walltime as a Function of Nodes Requested (jobs > 600 s)",
            &["nodes", "walltime_s"],
            &rows,
        );
        out.push_str(&format!(
            "top-3 node counts by walltime: {:?}; fraction above 64 nodes: {:.1} %\n",
            self.top3,
            self.fraction_above_64 * 100.0
        ));
        out
    }
}

impl ToJson for Fig2 {
    fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "bars",
                Json::Arr(
                    self.bars
                        .iter()
                        .map(|&(n, w)| Json::obj().field("nodes", n as u64).field("walltime_s", w))
                        .collect(),
                ),
            )
            .field("mode_nodes", self.mode_nodes.map(|n| n as u64))
            .field(
                "top3",
                Json::Arr(self.top3.iter().map(|&n| Json::from(n as u64)).collect()),
            )
            .field("fraction_above_64", self.fraction_above_64)
    }
}

/// Registry entry for Figure 2.
pub struct Fig2Experiment;

impl Experiment for Fig2Experiment {
    fn id(&self) -> &'static str {
        "fig2"
    }

    fn title(&self) -> &'static str {
        "Figure 2: Batch Job Walltime as a Function of Nodes Requested"
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
    fn moderately_parallel_jobs_dominate() {
        let mut sys = Sp2System::nas_1996(20);
        let f = run(sys.campaign().expect("campaign runs"));
        assert_eq!(f.mode_nodes, Some(16), "16 nodes is the paper's mode");
        assert!(
            f.fraction_above_64 < 0.1,
            ">64-node jobs consume almost no walltime ({:.3})",
            f.fraction_above_64
        );
        assert!(f.top3.contains(&16));
        let text = f.render();
        assert!(text.contains("nodes"));
    }
}
