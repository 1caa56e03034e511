//! Campaign results: per-cell records and the merged
//! [`CampaignReport`].
//!
//! Shards produce [`CellResult`]s in whatever order the scheduler
//! dictates; the report must not care. Each result is recorded in the
//! campaign manifest under its own flat cell index, and the report folds
//! the manifest's cells in ascending index order. That is the entire
//! merge-order-independence argument: *the report is a function of the
//! set of cell results, keyed by index, and the keyed set does not
//! remember arrival order.*

use scenario::{MergeReport, RunReport, RunTotals};
use segsim::FaultLog;
use serde::{Deserialize, Serialize};

/// The outcome of one campaign cell: its grid coordinate plus the full
/// scenario-level run report and the foldable accounting fragments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Flat cell index in the spec's expansion order.
    pub index: usize,
    /// Scenario registry name.
    pub scenario: String,
    /// Machine preset name.
    pub preset: String,
    /// Fault-variant label.
    pub fault: String,
    /// Defense-variant label.
    pub defense: String,
    /// Replicate number within the coordinate.
    pub replicate: u64,
    /// The scenario-level report (seed, trials, params, summary) — the
    /// same record a standalone `segscope run` emits for this cell.
    pub report: RunReport,
    /// Additive totals of the cell's run.
    pub totals: RunTotals,
    /// Fault-injection audit counters merged across the cell's trials.
    pub fault_log: FaultLog,
}

/// One row of the campaign's summary matrix: the fold of every cell at
/// a `(scenario, preset, defense)` coordinate, across fault variants
/// and replicates — the attack × defense matrix, one preset at a time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixRow {
    /// Scenario registry name.
    pub scenario: String,
    /// Machine preset name.
    pub preset: String,
    /// Defense-variant label.
    pub defense: String,
    /// Cells folded into this row.
    pub cells: u64,
    /// Trials across those cells.
    pub trials: u64,
    /// Ground-truth interrupt deliveries across those cells.
    pub ground_truth_deliveries: u64,
    /// Delivery faults (dropped + duplicated + coalesced) injected.
    pub delivery_faults: u64,
    /// Timing faults (jitter + bursts + clamps) injected.
    pub timing_faults: u64,
    /// Mean of the cells' summary `accuracy` field, when the scenario
    /// reports one (`None` otherwise) — the matrix's headline number.
    pub mean_accuracy: Option<f64>,
    /// Cells contributing to [`mean_accuracy`](Self::mean_accuracy).
    pub accuracy_cells: u64,
}

/// Extracts the `accuracy` field from a cell's serialized summary, when
/// the scenario reports one as a number.
fn summary_accuracy(cell: &CellResult) -> Option<f64> {
    let serde::Value::Map(entries) = &cell.report.summary else {
        return None;
    };
    match entries.iter().find(|(k, _)| k == "accuracy") {
        Some((_, serde::Value::Float(x))) => Some(*x),
        Some((_, serde::Value::Int(i))) => Some(*i as f64),
        _ => None,
    }
}

/// The merged outcome of a whole campaign: run-level accounting, the
/// per-(scenario, preset) summary matrix, and every cell's full report.
///
/// Deliberately excludes the shard count, thread count, and everything
/// else schedule-dependent, so serialized reports are byte-identical at
/// any execution geometry — the campaign determinism contract the test
/// battery pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign label from the spec.
    pub name: String,
    /// The campaign seed all cell seeds derive from.
    pub seed: u64,
    /// Digest of the spec this report belongs to.
    pub spec_digest: u64,
    /// Total cells in the grid.
    pub cells: usize,
    /// Additive totals merged across all cells.
    pub totals: RunTotals,
    /// Fault audit counters merged across all cells.
    pub fault_log: FaultLog,
    /// Per-(scenario, preset) summary rows, in grid order.
    pub matrix: Vec<MatrixRow>,
    /// Every cell's result, in ascending flat-index order.
    pub cell_results: Vec<CellResult>,
}

impl CampaignReport {
    /// Folds a complete, ordered cell list into the final report.
    ///
    /// The matrix groups rows by `(scenario, preset, defense)` in order
    /// of first appearance, which — cells arriving in flat-index order —
    /// is the spec's own axis order.
    #[must_use]
    pub fn from_cells(
        name: &str,
        seed: u64,
        spec_digest: u64,
        cell_results: Vec<CellResult>,
    ) -> Self {
        let totals = RunTotals::merged(cell_results.iter().map(|c| c.totals));
        let fault_log = FaultLog::merged(cell_results.iter().map(|c| c.fault_log));
        let mut matrix: Vec<MatrixRow> = Vec::new();
        for cell in &cell_results {
            let row = match matrix.iter_mut().find(|r| {
                r.scenario == cell.scenario && r.preset == cell.preset && r.defense == cell.defense
            }) {
                Some(row) => row,
                None => {
                    matrix.push(MatrixRow {
                        scenario: cell.scenario.clone(),
                        preset: cell.preset.clone(),
                        defense: cell.defense.clone(),
                        cells: 0,
                        trials: 0,
                        ground_truth_deliveries: 0,
                        delivery_faults: 0,
                        timing_faults: 0,
                        mean_accuracy: None,
                        accuracy_cells: 0,
                    });
                    matrix.last_mut().expect("just pushed")
                }
            };
            row.cells += 1;
            row.trials += cell.totals.trials;
            row.ground_truth_deliveries += cell.totals.ground_truth_deliveries;
            row.delivery_faults += cell.fault_log.delivery_faults();
            row.timing_faults += cell.fault_log.timing_faults();
            if let Some(acc) = summary_accuracy(cell) {
                // Incremental mean keeps the fold single-pass; cells
                // arrive in ascending flat-index order, so the result is
                // schedule-independent.
                let n = row.accuracy_cells as f64;
                let mean = row.mean_accuracy.unwrap_or(0.0);
                row.mean_accuracy = Some((mean * n + acc) / (n + 1.0));
                row.accuracy_cells += 1;
            }
        }
        CampaignReport {
            name: name.to_owned(),
            seed,
            spec_digest,
            cells: cell_results.len(),
            totals,
            fault_log,
            matrix,
            cell_results,
        }
    }

    /// Serializes the report to JSON (the byte-comparable form the
    /// determinism battery pins).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("campaign reports are serializable")
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    ///
    /// [`crate::CampaignError::Parse`] with the underlying message.
    pub fn from_json(json: &str) -> Result<Self, crate::CampaignError> {
        serde_json::from_str(json).map_err(|e| crate::CampaignError::Parse(e.to_string()))
    }
}
