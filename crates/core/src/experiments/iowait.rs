//! The paper's §7 recommendation, implemented: "Other sites wishing to
//! monitor their SP or SP2 systems might consider selecting counter
//! options which could also report I/O wait time in addition to CPU
//! performance."
//!
//! The NAS selection cannot attribute a poor day to I/O: "the lack of
//! obvious trends … is difficult to analyze since the NAS 22-counter
//! selection excluded performance reducing factors such as
//! message-passing delays and I/O wait times" (§5). This experiment runs
//! the same campaign under [`sp2_hpm::io_aware_selection`] — trading the
//! castout counter for an I/O-wait counter — and shows the attribution
//! the paper wished for: daily performance now correlates with a
//! *measured* I/O-wait fraction instead of requiring node logins.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput, SelectionKind};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_cluster::CampaignResult;

/// One day of the io-aware campaign.
#[derive(Debug, Clone, Copy)]
pub struct IoWaitDay {
    /// Day index.
    pub day: usize,
    /// Machine Gflops.
    pub gflops: f64,
    /// Measured per-node I/O-wait fraction of wall time.
    pub io_wait_fraction: f64,
}

/// The §7 extension dataset.
#[derive(Debug, Clone)]
pub struct IoWaitReport {
    /// Per-day series.
    pub days: Vec<IoWaitDay>,
    /// Pearson correlation of daily Gflops against I/O-wait fraction
    /// (expected negative: I/O-heavy days perform worse).
    pub correlation: f64,
    /// Mean I/O-wait fraction on days above the campaign's median rate.
    pub io_wait_good_days: f64,
    /// Mean I/O-wait fraction on days at or below the median rate.
    pub io_wait_bad_days: f64,
    /// What the selection trade cost: the castout counter reads zero
    /// under the io-aware selection (`dcache_store` slot re-purposed).
    pub castout_rate_visible: bool,
}

/// Analyzes a campaign that ran under the io-aware selection.
///
/// # Panics
/// Panics if the campaign's selection does not watch `IoWaitCycles`
/// (running this on the NAS selection would silently report zeros — the
/// very blindness the experiment is about).
pub(crate) fn run(campaign: &CampaignResult, clock_hz: f64) -> IoWaitReport {
    assert!(
        campaign.selection.watches(sp2_hpm::Signal::IoWaitCycles),
        "campaign must run under the io-aware selection (ClusterConfig::selection)"
    );
    let gflops = campaign.daily_gflops();
    let rates = campaign.daily_node_rates();
    let days: Vec<IoWaitDay> = gflops
        .iter()
        .zip(&rates)
        .enumerate()
        .map(|(day, (&g, r))| IoWaitDay {
            day,
            gflops: g,
            // daily_node_rates is per node-second already.
            io_wait_fraction: r.io_wait_fraction(clock_hz, 1.0),
        })
        .collect();

    // Pearson correlation over the days.
    let n = days.len() as f64;
    let mx = days.iter().map(|d| d.gflops).sum::<f64>() / n;
    let my = days.iter().map(|d| d.io_wait_fraction).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for d in &days {
        sxy += (d.gflops - mx) * (d.io_wait_fraction - my);
        sxx += (d.gflops - mx) * (d.gflops - mx);
        syy += (d.io_wait_fraction - my) * (d.io_wait_fraction - my);
    }
    let correlation = if sxx > 0.0 && syy > 0.0 {
        sxy / (sxx * syy).sqrt()
    } else {
        0.0
    };

    // Median split.
    let mut sorted: Vec<f64> = days.iter().map(|d| d.gflops).collect();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mean_of = |pred: &dyn Fn(&IoWaitDay) -> bool| -> f64 {
        let sel: Vec<f64> = days
            .iter()
            .filter(|d| pred(d))
            .map(|d| d.io_wait_fraction)
            .collect();
        if sel.is_empty() {
            0.0
        } else {
            sel.iter().sum::<f64>() / sel.len() as f64
        }
    };

    let castout_rate_visible = campaign.selection.watches(sp2_hpm::Signal::DcacheStore);

    IoWaitReport {
        correlation,
        io_wait_good_days: mean_of(&|d| d.gflops > median),
        io_wait_bad_days: mean_of(&|d| d.gflops <= median),
        castout_rate_visible,
        days,
    }
}

impl IoWaitReport {
    /// Renders the extension's summary.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, Vec<f64>)> = self
            .days
            .iter()
            .step_by((self.days.len() / 30).max(1))
            .map(|d| (d.day as f64, vec![d.gflops, d.io_wait_fraction * 100.0]))
            .collect();
        let mut out = render::series(
            "Extension (§7): daily performance vs measured I/O-wait fraction",
            "day",
            &["gflops", "io_wait_%"],
            &pts,
        );
        out.push_str(&format!(
            "correlation {:.2}; io-wait on above-median days {:.2} % vs below-median {:.2} %; \
             castout counter visible: {} (the slot the I/O-wait counter displaced)\n",
            self.correlation,
            self.io_wait_good_days * 100.0,
            self.io_wait_bad_days * 100.0,
            self.castout_rate_visible,
        ));
        out
    }
}

impl ToJson for IoWaitReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "days",
                Json::Arr(
                    self.days
                        .iter()
                        .map(|d| {
                            Json::obj()
                                .field("day", d.day as u64)
                                .field("gflops", d.gflops)
                                .field("io_wait_fraction", d.io_wait_fraction)
                        })
                        .collect(),
                ),
            )
            .field("correlation", self.correlation)
            .field("io_wait_good_days", self.io_wait_good_days)
            .field("io_wait_bad_days", self.io_wait_bad_days)
            .field("castout_rate_visible", self.castout_rate_visible)
    }
}

/// Registry entry for the §7 extension. Declares the io-aware counter
/// selection; [`crate::system::Sp2System::dataset`] runs (and caches) a
/// separate campaign under it.
pub struct IoWaitExperiment;

impl Experiment for IoWaitExperiment {
    fn id(&self) -> &'static str {
        "iowait"
    }

    fn title(&self) -> &'static str {
        "Extension (§7): daily performance vs measured I/O-wait fraction"
    }

    fn selection(&self) -> SelectionKind {
        SelectionKind::IoAware
    }

    fn run(&self, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error> {
        let r = run(input.campaign, input.campaign.machine.clock_hz);
        Ok(Dataset::assemble(
            self.id(),
            self.title(),
            r.render(),
            r.to_json(),
            &input,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Sp2System;
    use sp2_cluster::ClusterConfig;
    use sp2_hpm::io_aware_selection;

    fn io_aware_system(days: u32) -> Sp2System {
        let config = ClusterConfig::builder()
            .selection(io_aware_selection())
            .build()
            .expect("valid config");
        Sp2System::builder().config(config).days(days).build()
    }

    #[test]
    fn io_wait_attribution_works_under_the_extended_selection() {
        let mut sys = io_aware_system(20);
        let clock = sys.config().machine.clock_hz;
        let report = run(sys.campaign().expect("campaign runs"), clock);
        assert_eq!(report.days.len(), 20);
        // Some paging happened somewhere in 20 days.
        let total_io: f64 = report.days.iter().map(|d| d.io_wait_fraction).sum();
        assert!(total_io > 0.0, "io-wait must be measurable now");
        // The fractions are physical.
        for d in &report.days {
            assert!((0.0..=1.0).contains(&d.io_wait_fraction));
        }
        // And the trade is visible: castouts are gone.
        assert!(!report.castout_rate_visible);
        let text = report.render();
        assert!(text.contains("io_wait_%"));
    }

    #[test]
    #[should_panic(expected = "io-aware selection")]
    fn refuses_blind_campaigns() {
        let mut sys = Sp2System::nas_1996(2);
        let clock = sys.config().machine.clock_hz;
        run(sys.campaign().expect("campaign runs"), clock);
    }
}
