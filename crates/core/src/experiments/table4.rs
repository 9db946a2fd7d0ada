//! Table 4: hierarchical memory performance — cache and TLB miss ratios
//! plus Mflops/CPU for the NAS workload, a pure sequential-access sweep,
//! and the NPB-BT-like tuned solver.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, GOOD_DAY_GFLOPS};
use crate::json::{Json, ToJson};
use crate::render;
use serde::{Deserialize, Serialize};
use sp2_cluster::CampaignResult;
use sp2_hpm::Signal;
use sp2_power2::{FastForward, SignatureCache};
use sp2_workload::kernels::{cfd_kernel, seqaccess_kernel, CfdKernelParams};

/// One Table-4 column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryColumn {
    /// Workload name.
    pub name: String,
    /// Cache miss ratio (misses / FXU instructions).
    pub cache_miss_ratio: f64,
    /// TLB miss ratio.
    pub tlb_miss_ratio: f64,
    /// Achieved Mflops per CPU (None for the abstract access pattern,
    /// as in the paper's blank cell).
    pub mflops_per_cpu: Option<f64>,
}

/// The regenerated Table 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// Columns: NAS workload / sequential access / NPB BT.
    pub columns: Vec<MemoryColumn>,
}

/// Regenerates Table 4: the workload column from the campaign, the two
/// reference columns from direct single-node kernel measurement on the
/// campaign's own machine description.
pub(crate) fn run(campaign: &CampaignResult) -> Table4 {
    let machine = &campaign.machine;
    // NAS workload: pooled good-day rates.
    let daily = campaign.daily_node_rates();
    let good = campaign.days_above(GOOD_DAY_GFLOPS);
    let mean = |f: fn(&sp2_rs2hpm::RateReport) -> f64| -> f64 {
        if good.is_empty() {
            0.0
        } else {
            good.iter().map(|&d| f(&daily[d])).sum::<f64>() / good.len() as f64
        }
    };
    let fxu = mean(|r| r.mips_fxu);
    let workload = MemoryColumn {
        name: "NAS Workload".to_string(),
        cache_miss_ratio: if fxu > 0.0 {
            mean(|r| r.dcache_miss) / fxu
        } else {
            0.0
        },
        tlb_miss_ratio: if fxu > 0.0 {
            mean(|r| r.tlb_miss) / fxu
        } else {
            0.0
        },
        mflops_per_cpu: Some(mean(|r| r.mflops)),
    };

    // The two reference columns: one batch of direct kernel measurements.
    let sigs = SignatureCache::global().measure_all(
        &[
            (seqaccess_kernel(200_000), 0x5E0),
            (
                cfd_kernel("npb-bt-table4", &CfdKernelParams::npb_bt(), 50_000),
                0xB7,
            ),
        ],
        machine,
        FastForward::Auto,
    );
    let (seq_sig, bt_sig) = (&sigs[0], &sigs[1]);

    // Sequential access: direct measurement of the reference kernel.
    // The paper's column is the per-*element* arithmetic exercise ("a
    // cache-miss every 32 elements and a TLB miss every 512"), so the
    // denominator here is storage references, not total FXU issue.
    let seq_refs = seq_sig.events.get(Signal::StorageRefs) as f64;
    let sequential = MemoryColumn {
        name: "Sequential Access".to_string(),
        cache_miss_ratio: seq_sig.events.get(Signal::DcacheMiss) as f64 / seq_refs,
        tlb_miss_ratio: seq_sig.events.get(Signal::TlbMiss) as f64 / seq_refs,
        // The paper leaves this cell blank: the column is an access
        // pattern, not a workload.
        mflops_per_cpu: None,
    };

    // NPB BT (the paper cites 49 CPUs; rates are per CPU).
    let bt_fxu = bt_sig.events.fxu_total() as f64;
    let bt = MemoryColumn {
        name: "NPB BT on 49 CPUs".to_string(),
        cache_miss_ratio: bt_sig.events.get(Signal::DcacheMiss) as f64 / bt_fxu,
        tlb_miss_ratio: bt_sig.events.get(Signal::TlbMiss) as f64 / bt_fxu,
        mflops_per_cpu: Some(bt_sig.mflops()),
    };

    Table4 {
        columns: vec![workload, sequential, bt],
    }
}

impl Table4 {
    /// Renders the table in the paper's layout (workloads as columns).
    pub fn render(&self) -> String {
        let headers: Vec<&str> = std::iter::once("Rate")
            .chain(self.columns.iter().map(|c| c.name.as_str()))
            .collect();
        let pct = |x: f64, dec: usize| format!("{:.dec$}%", x * 100.0);
        let rows = vec![
            std::iter::once("Cache Miss Ratio".to_string())
                .chain(self.columns.iter().map(|c| pct(c.cache_miss_ratio, 1)))
                .collect::<Vec<_>>(),
            std::iter::once("TLB Miss Ratio".to_string())
                .chain(self.columns.iter().map(|c| pct(c.tlb_miss_ratio, 2)))
                .collect(),
            std::iter::once("Mflops/CPU".to_string())
                .chain(self.columns.iter().map(|c| {
                    c.mflops_per_cpu
                        .map(|m| format!("{m:.0}"))
                        .unwrap_or_default()
                }))
                .collect(),
        ];
        render::table("Table 4: Hierarchical Memory Performance", &headers, &rows)
    }
}

impl ToJson for Table4 {
    fn to_json(&self) -> Json {
        Json::obj().field(
            "columns",
            Json::Arr(
                self.columns
                    .iter()
                    .map(|c| {
                        Json::obj()
                            .field("name", c.name.as_str())
                            .field("cache_miss_ratio", c.cache_miss_ratio)
                            .field("tlb_miss_ratio", c.tlb_miss_ratio)
                            .field("mflops_per_cpu", c.mflops_per_cpu)
                    })
                    .collect(),
            ),
        )
    }
}

/// Registry entry for Table 4.
pub struct Table4Experiment;

impl Experiment for Table4Experiment {
    fn id(&self) -> &'static str {
        "table4"
    }

    fn title(&self) -> &'static str {
        "Table 4: Hierarchical Memory Performance"
    }

    fn run(&self, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error> {
        let t = run(input.campaign);
        Ok(Dataset::assemble(
            self.id(),
            self.title(),
            t.render(),
            t.to_json(),
            &input,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Sp2System;

    #[test]
    fn table4_shape_matches_paper() {
        let mut sys = Sp2System::nas_1996(8);
        let t = run(sys.campaign().expect("campaign runs"));
        assert_eq!(t.columns.len(), 3);
        let seq = &t.columns[1];
        let bt = &t.columns[2];
        // Paper Table 4: sequential 3 % / 0.2 %; BT 1.2 % / 0.06 %.
        assert!(
            (0.02..0.045).contains(&seq.cache_miss_ratio),
            "sequential cache miss {:.3}",
            seq.cache_miss_ratio
        );
        assert!(
            (0.001..0.003).contains(&seq.tlb_miss_ratio),
            "sequential TLB miss {:.4}",
            seq.tlb_miss_ratio
        );
        assert!(
            seq.cache_miss_ratio > bt.cache_miss_ratio,
            "sequential access misses more than tuned BT"
        );
        assert!(
            seq.tlb_miss_ratio > bt.tlb_miss_ratio,
            "sequential TLB worse than tuned BT"
        );
        assert!(bt.mflops_per_cpu.unwrap() > 25.0, "BT ≈ 44 Mflops/CPU");
        assert!(seq.mflops_per_cpu.is_none(), "paper leaves the cell blank");
        let text = t.render();
        assert!(text.contains("Cache Miss Ratio"));
        assert!(text.contains("NPB BT"));
    }
}
