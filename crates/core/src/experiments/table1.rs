//! Table 1: the NAS SP2 RS2HPM counter selection.

use crate::error::Sp2Error;
use crate::experiments::{Dataset, Experiment, ExperimentInput};
use crate::json::{Json, ToJson};
use crate::render;
use sp2_hpm::config::{table1_rows, Table1Row};

/// The regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per configured counter slot.
    pub rows: Vec<Table1Row>,
}

/// Regenerates Table 1 from the counter configuration itself.
pub(crate) fn run() -> Table1 {
    Table1 {
        rows: table1_rows(),
    }
}

impl Table1 {
    /// Renders the table as the paper prints it (with the corrected TLB
    /// description; see DESIGN.md §6).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| vec![r.counter.clone(), r.label.clone(), r.description.clone()])
            .collect();
        render::table(
            "Table 1: NAS SP2 RS2HPM Counters",
            &["Counter", "Label", "Description"],
            &rows,
        )
    }
}

impl ToJson for Table1 {
    fn to_json(&self) -> Json {
        Json::obj().field(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .field("counter", r.counter.as_str())
                            .field("label", r.label.as_str())
                            .field("description", r.description.as_str())
                    })
                    .collect(),
            ),
        )
    }
}

/// Registry entry for Table 1 (campaign-independent: the table is the
/// counter configuration itself).
pub struct Table1Experiment;

impl Experiment for Table1Experiment {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Table 1: NAS SP2 RS2HPM Counters"
    }

    fn needs_campaign(&self) -> bool {
        false
    }

    fn run(&self, input: ExperimentInput<'_>) -> Result<Dataset, Sp2Error> {
        let t = run();
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

    #[test]
    fn has_all_22_slots() {
        let t = run();
        assert_eq!(t.rows.len(), 22);
    }

    #[test]
    fn render_contains_key_rows() {
        let text = run().render();
        assert!(text.contains("user.fxu0"));
        assert!(text.contains("FPU1[4]"));
        assert!(text.contains("user.dma_write"));
        assert!(text.contains("castouts"));
    }

    #[test]
    fn json_export_covers_rows() {
        let j = run().to_json();
        let s = j.to_string_pretty();
        assert!(s.contains("\"counter\": \"user.fxu0\""));
        assert!(s.contains("\"rows\": ["));
    }
}
