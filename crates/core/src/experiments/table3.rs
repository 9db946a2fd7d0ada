//! Table 3: the full rate breakdown — Mflops by operation, Mips by unit,
//! cache/TLB/I-cache miss rates, and DMA rates, over the good-day subset.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, GOOD_DAY_GFLOPS};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;
use sp2_rs2hpm::RateReport;
use sp2_stats::Summary;

/// One Table-3 row.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Section (OPS / INST / CACHE / I/O).
    pub section: String,
    /// Rate name as the paper prints it.
    pub name: String,
    /// Representative day's value.
    pub day: f64,
    /// Good-day mean.
    pub avg: f64,
    /// Good-day sample std.
    pub std: f64,
}

/// The regenerated Table 3 plus the §5 derived ratios.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Representative day index.
    pub representative_day: usize,
    /// Good-day count.
    pub good_days: usize,
    /// All rows, in the paper's order.
    pub rows: Vec<BreakdownRow>,
    /// fma share of flops (paper ≈ 0.54).
    pub fma_flop_fraction: f64,
    /// FPU0/FPU1 instruction ratio (paper ≈ 1.7).
    pub fpu0_fpu1_ratio: f64,
    /// Cache-miss ratio lower bound (paper ≈ 1.0 %).
    pub cache_miss_ratio: f64,
    /// TLB-miss ratio lower bound (paper ≈ 0.1 %).
    pub tlb_miss_ratio: f64,
    /// flops per memory instruction (paper: 0.53 for the sample).
    pub flops_per_memref: f64,
    /// Memory delay per reference in cycles (paper ≈ 0.12).
    pub delay_per_memref: f64,
}

type Field = fn(&RateReport) -> f64;

const ROWS: &[(&str, &str, Field)] = &[
    ("OPS", "Mflops-All", |r| r.mflops),
    ("OPS", "Mflops-add", |r| r.mflops_add),
    ("OPS", "Mflops-div", |r| r.mflops_div),
    ("OPS", "Mflops-mult", |r| r.mflops_mul),
    ("OPS", "Mflops-fma", |r| r.mflops_fma),
    ("INST", "Mips-Floating Point (Total)", |r| r.mips_fpu),
    ("INST", "Mips-Floating Point (Unit 0)", |r| r.mips_fpu0),
    ("INST", "Mips-Floating Point (Unit 1)", |r| r.mips_fpu1),
    ("INST", "Mips-Fixed Point Unit (Total)", |r| r.mips_fxu),
    ("INST", "Mips-Fixed Point (Unit 0)", |r| r.mips_fxu0),
    ("INST", "Mips-Fixed Point (Unit 1)", |r| r.mips_fxu1),
    ("INST", "Mips-Inst Cache Unit", |r| r.mips_icu),
    ("CACHE", "Data Cache Misses-Million/S", |r| r.dcache_miss),
    ("CACHE", "TLB-Million/S", |r| r.tlb_miss),
    ("CACHE", "Instruction Cache Misses-Million/S", |r| {
        r.icache_miss
    }),
    ("I/O", "DMA reads-MTransfer/S", |r| r.dma_read),
    ("I/O", "DMA writes-MTransfer/S", |r| r.dma_write),
];

/// Regenerates Table 3 from a campaign.
pub(crate) fn run(campaign: &CampaignResult) -> Table3 {
    let daily = campaign.daily_node_rates();
    let good = campaign.days_above(GOOD_DAY_GFLOPS);
    let representative_day = {
        let mut mflops: Vec<(usize, f64)> = good.iter().map(|&d| (d, daily[d].mflops)).collect();
        mflops.sort_by(|a, b| a.1.total_cmp(&b.1));
        mflops.get(mflops.len() / 2).map(|&(d, _)| d).unwrap_or(0)
    };

    let mut rows = Vec::new();
    for &(section, name, f) in ROWS {
        let mut s = Summary::new();
        for &d in &good {
            s.push(f(&daily[d]));
        }
        rows.push(BreakdownRow {
            section: section.to_string(),
            name: name.to_string(),
            day: daily.get(representative_day).map(f).unwrap_or(0.0),
            avg: s.mean(),
            std: s.std(),
        });
    }

    // Derived ratios over the pooled good-day rates.
    let mean_of = |f: Field| -> f64 {
        if good.is_empty() {
            0.0
        } else {
            good.iter().map(|&d| f(&daily[d])).sum::<f64>() / good.len() as f64
        }
    };
    let mflops = mean_of(|r| r.mflops);
    let fma = mean_of(|r| r.mflops_fma);
    let fpu0 = mean_of(|r| r.mips_fpu0);
    let fpu1 = mean_of(|r| r.mips_fpu1);
    let fxu = mean_of(|r| r.mips_fxu);
    let dmiss = mean_of(|r| r.dcache_miss);
    let tmiss = mean_of(|r| r.tlb_miss);

    let cache_miss_ratio = if fxu > 0.0 { dmiss / fxu } else { 0.0 };
    let tlb_miss_ratio = if fxu > 0.0 { tmiss / fxu } else { 0.0 };
    Table3 {
        representative_day,
        good_days: good.len(),
        rows,
        fma_flop_fraction: if mflops > 0.0 {
            2.0 * fma / mflops
        } else {
            0.0
        },
        fpu0_fpu1_ratio: if fpu1 > 0.0 { fpu0 / fpu1 } else { 0.0 },
        cache_miss_ratio,
        tlb_miss_ratio,
        flops_per_memref: if fxu > 0.0 { mflops / fxu } else { 0.0 },
        delay_per_memref: cache_miss_ratio * 8.0 + tlb_miss_ratio * 45.0,
    }
}

impl Table3 {
    /// Renders the table in the paper's layout plus the derived ratios.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let dec = if r.avg.abs() < 0.2 { 3 } else { 1 };
                vec![
                    r.section.clone(),
                    r.name.clone(),
                    render::num(r.day, dec, 7),
                    render::num(r.avg, dec, 7),
                    render::num(r.std, dec, 7),
                ]
            })
            .collect();
        let mut out = render::table(
            &format!(
                "Table 3: Measured Major Rates for NAS Workload (per node, {} good days)",
                self.good_days
            ),
            &[
                "",
                &format!("Rates (Day {})", self.representative_day),
                "Day",
                "Avg",
                "Std",
            ],
            &rows,
        );
        out.push_str(&format!(
            "derived: fma flop share {:.0} %, FPU0/FPU1 {:.2}, cache-miss ratio {:.2} %, \
             TLB-miss ratio {:.3} %, flops/memref {:.2}, delay/memref {:.3} cycles\n",
            self.fma_flop_fraction * 100.0,
            self.fpu0_fpu1_ratio,
            self.cache_miss_ratio * 100.0,
            self.tlb_miss_ratio * 100.0,
            self.flops_per_memref,
            self.delay_per_memref,
        ));
        out
    }
}

impl ToJson for Table3 {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("representative_day", self.representative_day as u64)
            .field("good_days", self.good_days as u64)
            .field("fma_flop_fraction", self.fma_flop_fraction)
            .field("fpu0_fpu1_ratio", self.fpu0_fpu1_ratio)
            .field("cache_miss_ratio", self.cache_miss_ratio)
            .field("tlb_miss_ratio", self.tlb_miss_ratio)
            .field("flops_per_memref", self.flops_per_memref)
            .field("delay_per_memref", self.delay_per_memref)
            .field(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .field("section", r.section.as_str())
                                .field("name", r.name.as_str())
                                .field("day", r.day)
                                .field("avg", r.avg)
                                .field("std", r.std)
                        })
                        .collect(),
                ),
            )
    }
}

/// Registry entry for Table 3.
pub struct Table3Experiment;

impl Experiment for Table3Experiment {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn title(&self) -> &'static str {
        "Table 3: Measured Major Rates for NAS Workload (full breakdown)"
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
    fn breakdown_consistency() {
        let mut sys = Sp2System::nas_1996(12);
        let t = run(sys.campaign().expect("campaign runs"));
        assert_eq!(t.rows.len(), ROWS.len());
        if t.good_days == 0 {
            return; // nothing further to check on a quiet small campaign
        }
        let get = |name: &str| t.rows.iter().find(|r| r.name == name).unwrap().avg;
        // Divide erratum: the div row is exactly zero.
        assert_eq!(get("Mflops-div"), 0.0);
        // Flop accounting: all = add + div + mult + fma.
        let total = get("Mflops-add") + get("Mflops-div") + get("Mflops-mult") + get("Mflops-fma");
        assert!((total - get("Mflops-All")).abs() < 1e-6);
        // Unit sums.
        assert!(
            (get("Mips-Floating Point (Unit 0)") + get("Mips-Floating Point (Unit 1)")
                - get("Mips-Floating Point (Total)"))
            .abs()
                < 1e-6
        );
        assert!(
            (get("Mips-Fixed Point (Unit 0)") + get("Mips-Fixed Point (Unit 1)")
                - get("Mips-Fixed Point Unit (Total)"))
            .abs()
                < 1e-6
        );
        let text = t.render();
        assert!(text.contains("Mflops-fma"));
        assert!(text.contains("DMA writes"));
    }
}
