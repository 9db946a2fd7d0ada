//! Figure 3: batch-job performance per node vs nodes requested.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, BATCH_MIN_WALLTIME_S};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;
use sp2_stats::Summary;
use std::collections::BTreeMap;

/// The regenerated Figure 3 dataset.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Raw scatter: `(nodes_requested, mflops_per_node)` per job.
    pub points: Vec<(u32, f64)>,
    /// Per-node-count mean and max of the per-node rate.
    pub by_nodes: Vec<NodeBucket>,
    /// Mean per-node rate of jobs with ≤ 64 nodes.
    pub small_mean: f64,
    /// Mean per-node rate of jobs with > 64 nodes (the collapse).
    pub large_mean: f64,
    /// The best per-node rate and where it occurred (paper: ≈40 Mflops
    /// on 28 nodes, an asynchronous Navier-Stokes solver).
    pub peak: Option<(u32, f64)>,
}

/// Per-node-count aggregate.
#[derive(Debug, Clone)]
pub struct NodeBucket {
    /// Nodes requested.
    pub nodes: u32,
    /// Jobs at this count.
    pub count: u64,
    /// Mean Mflops/node.
    pub mean: f64,
    /// Max Mflops/node.
    pub max: f64,
}

/// Regenerates Figure 3 from the per-job reports.
pub(crate) fn run(campaign: &CampaignResult) -> Fig3 {
    let mut points = Vec::new();
    let mut buckets: BTreeMap<u32, Summary> = BTreeMap::new();
    for r in campaign.batch_reports(BATCH_MIN_WALLTIME_S) {
        let y = r.mflops_per_node();
        points.push((r.nodes, y));
        buckets.entry(r.nodes).or_default().push(y);
    }
    let by_nodes: Vec<NodeBucket> = buckets
        .iter()
        .map(|(&nodes, s)| NodeBucket {
            nodes,
            count: s.count(),
            mean: s.mean(),
            max: s.max().unwrap_or(0.0),
        })
        .collect();
    let section_mean = |pred: &dyn Fn(u32) -> bool| -> f64 {
        let mut s = Summary::new();
        for &(n, y) in &points {
            if pred(n) {
                s.push(y);
            }
        }
        s.mean()
    };
    let peak = points.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1));
    Fig3 {
        small_mean: section_mean(&|n| n <= 64),
        large_mean: section_mean(&|n| n > 64),
        peak,
        points,
        by_nodes,
    }
}

impl Fig3 {
    /// Renders the per-node-count series (the figure's visible envelope).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .by_nodes
            .iter()
            .map(|b| {
                vec![
                    b.nodes.to_string(),
                    b.count.to_string(),
                    render::num(b.mean, 1, 6),
                    render::num(b.max, 1, 6),
                ]
            })
            .collect();
        let mut out = render::table(
            "Figure 3: Batch Job Performance vs Nodes Requested (Mflops per node)",
            &["nodes", "jobs", "mean", "max"],
            &rows,
        );
        out.push_str(&format!(
            "mean ≤64 nodes: {:.1} Mflops/node; mean >64 nodes: {:.1}; peak {:?}\n",
            self.small_mean, self.large_mean, self.peak
        ));
        out
    }
}

impl ToJson for Fig3 {
    fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|&(n, y)| Json::from((u64::from(n), y)))
                        .collect(),
                ),
            )
            .field(
                "by_nodes",
                Json::Arr(
                    self.by_nodes
                        .iter()
                        .map(|b| {
                            Json::obj()
                                .field("nodes", u64::from(b.nodes))
                                .field("count", b.count)
                                .field("mean", b.mean)
                                .field("max", b.max)
                        })
                        .collect(),
                ),
            )
            .field("small_mean", self.small_mean)
            .field("large_mean", self.large_mean)
            .field("peak", self.peak.map(|(n, y)| (u64::from(n), y)))
    }
}

/// Registry entry for Figure 3.
pub struct Fig3Experiment;

impl Experiment for Fig3Experiment {
    fn id(&self) -> &'static str {
        "fig3"
    }

    fn title(&self) -> &'static str {
        "Figure 3: Batch Job Performance vs Nodes Requested"
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
    fn per_node_rate_collapses_beyond_64() {
        let mut sys = Sp2System::nas_1996(30);
        let f = run(sys.campaign().expect("campaign runs"));
        assert!(!f.points.is_empty());
        if f.large_mean > 0.0 {
            assert!(
                f.small_mean > 1.5 * f.large_mean,
                "sharp decrease beyond 64 nodes: {:.1} vs {:.1}",
                f.small_mean,
                f.large_mean
            );
        }
        // The envelope is sustained (paper: "the per node batch job rate
        // is sustained in many cases up to 64 nodes"): some ≥ 32-node
        // bucket still reaches a high rate.
        let sustained = f
            .by_nodes
            .iter()
            .filter(|b| (32..=64).contains(&b.nodes))
            .map(|b| b.max)
            .fold(0.0, f64::max);
        assert!(
            sustained > 10.0,
            "sustained rate at 32–64 nodes: {sustained:.1}"
        );
        let text = f.render();
        assert!(text.contains("Mflops per node"));
    }
}
