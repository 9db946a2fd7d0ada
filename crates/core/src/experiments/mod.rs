//! One experiment per table and figure of the paper's evaluation.
//!
//! Every experiment implements the [`Experiment`] trait: a stable `id`,
//! a human title, and a fallible `run` that turns an [`ExperimentInput`]
//! into a [`Dataset`] carrying the paper-style text rendering, a JSON
//! document for export, and a data-quality footer describing how
//! complete the underlying campaign data was. [`all_experiments`] is the
//! registry the `sp2` binary, the examples, and every bench target
//! dispatch through; the typed per-module `run()` functions are
//! crate-private so the registry is the only public entry point.

pub mod availability;
pub mod calibration;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod iowait;
pub mod quality;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod toplev;

use crate::error::Sp2Error;
use crate::json::{Json, ToJson};
pub use quality::DataQuality;
use sp2_cluster::CampaignResult;
use sp2_hpm::{io_aware_selection, nas_selection, CounterSelection};

/// The day-rate threshold (Gflops) that defines the paper's "good day"
/// subset for Tables 2–3: "days with performance exceeding 2.0 Gflops".
pub const GOOD_DAY_GFLOPS: f64 = 2.0;

/// The paper's batch filter: jobs exceeding 600 s of wall clock.
pub const BATCH_MIN_WALLTIME_S: f64 = 600.0;

/// Which counter selection an experiment's campaign must run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionKind {
    /// The paper's Table 1 selection (the default).
    Nas,
    /// The §7 extension: castouts traded for an I/O-wait counter.
    IoAware,
}

impl SelectionKind {
    /// The concrete counter selection.
    pub fn selection(self) -> CounterSelection {
        match self {
            SelectionKind::Nas => nas_selection(),
            SelectionKind::IoAware => io_aware_selection(),
        }
    }

    /// The selection's label: `nas` or `io_aware`, as archive headers
    /// record it.
    pub fn name(self) -> &'static str {
        match self {
            SelectionKind::Nas => "nas",
            SelectionKind::IoAware => "io_aware",
        }
    }
}

/// What an experiment analyses: the campaign it declares it needs
/// (possibly degraded by fault injection) plus, for experiments that
/// declare [`Experiment::needs_baseline`], a fault-free twin campaign
/// run from the same trace and seed.
#[derive(Clone, Copy)]
pub struct ExperimentInput<'a> {
    /// The campaign under analysis.
    pub campaign: &'a CampaignResult,
    /// The fault-free twin, when the experiment asked for one. Equal to
    /// `campaign` when no faults were configured.
    pub baseline: Option<&'a CampaignResult>,
}

impl<'a> ExperimentInput<'a> {
    /// An input with no baseline.
    pub fn of(campaign: &'a CampaignResult) -> Self {
        ExperimentInput {
            campaign,
            baseline: None,
        }
    }

    /// Attaches the fault-free twin campaign.
    pub fn with_baseline(mut self, baseline: &'a CampaignResult) -> Self {
        self.baseline = Some(baseline);
        self
    }
}

/// What running an experiment produces: the paper-style text rendering
/// (with a data-quality footer) plus a JSON document suitable for
/// [`crate::export::write_json`].
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The experiment's stable id (also the artifact file stem).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The text rendering (tables/series as the paper prints them),
    /// ending in the data-quality footer.
    pub rendered: String,
    /// The dataset as a JSON document, with a `data_quality` field.
    pub json: Json,
    /// How complete the campaign data behind the exhibit was.
    pub quality: DataQuality,
}

impl ToJson for Dataset {
    fn to_json(&self) -> Json {
        self.json.clone()
    }
}

impl Dataset {
    /// Assembles a dataset from an experiment's rendering and JSON
    /// document, appending the data-quality footer derived from the
    /// input campaign to both.
    pub fn assemble(
        id: &'static str,
        title: &'static str,
        mut rendered: String,
        json: Json,
        input: &ExperimentInput<'_>,
    ) -> Dataset {
        let quality = DataQuality::of(input.campaign);
        rendered.push_str(&quality.footer());
        Dataset {
            id,
            title,
            rendered,
            json: json.field("data_quality", quality.to_json()),
            quality,
        }
    }

    /// Writes the JSON document to the artifacts directory under the
    /// experiment's id.
    pub fn write_artifact(&self) -> Result<std::path::PathBuf, Sp2Error> {
        Ok(crate::export::write_json(self.id, self)?)
    }
}

/// A regenerable table or figure of the paper.
///
/// `Sync` is a supertrait so the registry can hand out `&'static dyn
/// Experiment` across threads (bench harnesses fan experiments out).
pub trait Experiment: Sync {
    /// Stable identifier (`table2`, `fig5`, …) used by the CLI and the
    /// artifact file names.
    fn id(&self) -> &'static str;

    /// Human title as the paper names the exhibit.
    fn title(&self) -> &'static str;

    /// Whether `run` reads campaign data. Experiments that only need the
    /// machine description (Table 1, the §5 calibration) return `false`
    /// and accept an input built on [`CampaignResult::empty`].
    fn needs_campaign(&self) -> bool {
        true
    }

    /// Whether `run` wants [`ExperimentInput::baseline`] populated with
    /// a fault-free twin campaign (the `availability` experiment).
    fn needs_baseline(&self) -> bool {
        false
    }

    /// The counter selection this experiment's campaign must run under.
    fn selection(&self) -> SelectionKind {
        SelectionKind::Nas
    }

    /// Produces the dataset (see [`Experiment::needs_campaign`],
    /// [`Experiment::needs_baseline`] and [`Experiment::selection`] for
    /// what the input must carry).
    fn run(&self, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error>;

    /// The text rendering alone.
    fn render(&self, input: ExperimentInput<'_>) -> Result<String, Sp2Error> {
        Ok(self.run(input)?.rendered)
    }

    /// The JSON document alone.
    fn to_json(&self, input: ExperimentInput<'_>) -> Result<Json, Sp2Error> {
        Ok(self.run(input)?.json)
    }
}

/// Every experiment, in the paper's presentation order (the §7 and
/// fault-layer extensions follow the paper's own exhibits).
pub fn all_experiments() -> &'static [&'static dyn Experiment] {
    static ALL: [&dyn Experiment; 14] = [
        &table1::Table1Experiment,
        &table2::Table2Experiment,
        &table3::Table3Experiment,
        &table4::Table4Experiment,
        &fig1::Fig1Experiment,
        &fig2::Fig2Experiment,
        &fig3::Fig3Experiment,
        &fig4::Fig4Experiment,
        &fig5::Fig5Experiment,
        &calibration::CalibrationExperiment,
        &iowait::IoWaitExperiment,
        &toplev::ToplevExperiment,
        &availability::AvailabilityExperiment,
        &summary::SummaryExperiment,
    ];
    &ALL
}

/// Looks an experiment up by id.
pub fn experiment(id: &str) -> Option<&'static dyn Experiment> {
    all_experiments().iter().copied().find(|e| e.id() == id)
}

/// Looks an experiment up by id, failing with
/// [`Sp2Error::UnknownExperiment`] when the id is not registered.
pub fn experiment_or_err(id: &str) -> Result<&'static dyn Experiment, Sp2Error> {
    experiment(id).ok_or_else(|| Sp2Error::UnknownExperiment(id.to_string()))
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_resolvable() {
        let all = all_experiments();
        assert_eq!(all.len(), 14);
        let mut ids: Vec<&str> = all.iter().map(|e| e.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 14, "experiment ids must be unique");
        for e in all {
            assert_eq!(experiment(e.id()).unwrap().id(), e.id());
            assert!(!e.title().is_empty());
        }
        assert!(experiment("nonesuch").is_none());
        assert!(matches!(
            experiment_or_err("nonesuch"),
            Err(Sp2Error::UnknownExperiment(_))
        ));
    }

    #[test]
    fn campaign_free_experiments_run_on_empty() {
        use sp2_power2::MachineConfig;
        let empty = CampaignResult::empty(MachineConfig::nas_sp2(), nas_selection());
        for e in all_experiments() {
            if !e.needs_campaign() {
                let d = e.run(ExperimentInput::of(&empty)).unwrap();
                assert!(!d.rendered.is_empty(), "{} rendered nothing", e.id());
                assert!(
                    d.rendered.contains("data quality:"),
                    "{} missing quality footer",
                    e.id()
                );
                assert!(
                    matches!(d.json, Json::Obj(_)),
                    "{} must export an object",
                    e.id()
                );
            }
        }
    }

    #[test]
    fn selection_kinds_map_to_selections() {
        assert!(SelectionKind::Nas
            .selection()
            .watches(sp2_hpm::Signal::DcacheStore));
        assert!(SelectionKind::IoAware
            .selection()
            .watches(sp2_hpm::Signal::IoWaitCycles));
        assert_eq!(
            experiment("iowait").unwrap().selection(),
            SelectionKind::IoAware
        );
        assert_eq!(
            experiment("table2").unwrap().selection(),
            SelectionKind::Nas
        );
        assert!(experiment("availability").unwrap().needs_baseline());
        assert!(!experiment("fig1").unwrap().needs_baseline());
    }
}
