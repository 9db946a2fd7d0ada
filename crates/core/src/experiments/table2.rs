//! Table 2: measured major rates (Mips, Mops, Mflops) for the NAS
//! workload — a representative good day plus the mean ± std over all
//! days whose machine rate exceeded 2.0 Gflops.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, GOOD_DAY_GFLOPS};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;
use sp2_stats::Summary;

/// One Table-2 row (a rate with its representative-day value, mean, std).
#[derive(Debug, Clone)]
pub struct RateRow {
    /// Rate name (Mips / Mops / Mflops).
    pub name: String,
    /// The representative single day's value.
    pub day: f64,
    /// Mean over the good-day subset.
    pub avg: f64,
    /// Sample std over the good-day subset.
    pub std: f64,
}

/// The regenerated Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Index of the representative day (the paper's "Day 45.0").
    pub representative_day: usize,
    /// Number of good days (paper: 30 of 270).
    pub good_days: usize,
    /// Campaign length.
    pub total_days: u32,
    /// The three rate rows.
    pub rows: Vec<RateRow>,
    /// Mean machine rate over good days, Gflops (paper: ≈2.5).
    pub good_day_machine_gflops: f64,
    /// Mean utilization over good days (paper: 0.76).
    pub good_day_utilization: f64,
}

/// Regenerates Table 2 from a campaign.
pub(crate) fn run(campaign: &CampaignResult) -> Table2 {
    let daily = campaign.daily_node_rates();
    let good = campaign.days_above(GOOD_DAY_GFLOPS);
    let util = campaign.daily_utilization();

    // Representative day: the good day whose Mflops is nearest the
    // good-day median (the paper shows one arbitrary day, "Day 45.0").
    let mut mflops: Vec<(usize, f64)> = good.iter().map(|&d| (d, daily[d].mflops)).collect();
    mflops.sort_by(|a, b| a.1.total_cmp(&b.1));
    let representative_day = mflops.get(mflops.len() / 2).map(|&(d, _)| d).unwrap_or(0);

    let mut rows = Vec::new();
    for (name, f) in [
        (
            "Mips",
            &(|r: &sp2_rs2hpm::RateReport| r.mips) as &dyn Fn(&sp2_rs2hpm::RateReport) -> f64,
        ),
        ("Mops", &|r| r.mops),
        ("Mflops", &|r| r.mflops),
    ] {
        let mut s = Summary::new();
        for &d in &good {
            s.push(f(&daily[d]));
        }
        rows.push(RateRow {
            name: name.to_string(),
            day: daily.get(representative_day).map(f).unwrap_or(0.0),
            avg: s.mean(),
            std: s.std(),
        });
    }

    let good_day_machine_gflops = if good.is_empty() {
        0.0
    } else {
        good.iter()
            .map(|&d| daily[d].mflops * campaign.node_count as f64 / 1000.0)
            .sum::<f64>()
            / good.len() as f64
    };
    let good_day_utilization = if good.is_empty() {
        0.0
    } else {
        good.iter().map(|&d| util[d]).sum::<f64>() / good.len() as f64
    };

    Table2 {
        representative_day,
        good_days: good.len(),
        total_days: campaign.days,
        rows,
        good_day_machine_gflops,
        good_day_utilization,
    }
}

impl Table2 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    render::num(r.day, 1, 6),
                    render::num(r.avg, 1, 6),
                    render::num(r.std, 1, 6),
                ]
            })
            .collect();
        let mut out = render::table(
            &format!(
                "Table 2: Measured Major Rates for NAS Workload \
                 ({} of {} days > {:.1} Gflops; per-node rates)",
                self.good_days, self.total_days, GOOD_DAY_GFLOPS
            ),
            &[
                &format!("Rates (Day {})", self.representative_day),
                "Day",
                "Avg Rate",
                "Std",
            ],
            &rows,
        );
        out.push_str(&format!(
            "good-day machine average: {:.2} Gflops at {:.0} % utilization\n",
            self.good_day_machine_gflops,
            self.good_day_utilization * 100.0
        ));
        out
    }
}

impl ToJson for Table2 {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("representative_day", self.representative_day as u64)
            .field("good_days", self.good_days as u64)
            .field("total_days", self.total_days)
            .field("good_day_machine_gflops", self.good_day_machine_gflops)
            .field("good_day_utilization", self.good_day_utilization)
            .field(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj()
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

/// Registry entry for Table 2.
pub struct Table2Experiment;

impl Experiment for Table2Experiment {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Table 2: Measured Major Rates for NAS Workload"
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
    fn small_campaign_produces_table() {
        let mut sys = Sp2System::nas_1996(10);
        let t = run(sys.campaign().expect("campaign runs"));
        assert_eq!(t.total_days, 10);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0].name, "Mips");
        // Mops counts fma twice, so Mops ≥ Mips ≥ Mflops on any data.
        if t.good_days > 0 {
            assert!(t.rows[1].avg >= t.rows[0].avg);
            assert!(t.rows[0].avg > t.rows[2].avg);
        }
        let text = t.render();
        assert!(text.contains("Mflops"));
    }
}
