//! Fleet-scale campaign engine: sharded, resumable parameter-grid
//! sweeps over the scenario registry.
//!
//! A campaign multiplies five axes — scenario set × machine preset ×
//! fault-plan grid × defense grid × replicate range — into a flat list of *cells*
//! ([`CampaignSpec::expand`]), runs every cell through the generic
//! scenario driver, and folds the per-cell results into one
//! [`CampaignReport`]. The engine stacks the workspace's determinism
//! primitives into a two-level geometry:
//!
//! * **Across cells** — cell `i`'s experiment seed is
//!   `exec::derive_seed(campaign_seed, i)`, a pure function of the spec,
//!   and progress is tracked by an [`exec::ChunkManifest`] over the cell
//!   axis with chunk size 1 (one chunk = one cell). Shards are the
//!   worker count only: they decide how many cells run concurrently,
//!   never which seed a cell gets or where its result lands.
//! * **Within a cell** — the scenario driver's own chunked fan-out,
//!   whose outputs are thread-count invariant by the
//!   [`scenario::Scenario::run_batch`] chunk-geometry contract.
//!
//! Results fold through [`MergeReport`](scenario::MergeReport) fragments
//! ([`CellSet`], [`scenario::RunTotals`], [`segsim::FaultLog`]), so the
//! final report is a function of the *set* of cell results — not of the
//! shard count, thread count, completion order, or how many times the
//! run was killed and resumed. The workspace determinism battery
//! (`tests/campaign_determinism.rs`) pins exactly that: bit-identical
//! report JSON at any shard count × thread count × kill point.
//!
//! Scheduling: [`run_campaign`] runs the missing cells on `shards`
//! long-lived workers that claim cells one at a time from a shared
//! cursor, so a slow cell holds up only its own worker. The calling
//! thread is the one persister: it records every batch of finished
//! cells into a [`CampaignManifest`] and hands it to a persist callback
//! once per batch (group commit), while the workers keep computing.
//!
//! Resumability: a killed campaign resumes by reloading the manifest
//! and calling [`run_campaign`] again, which executes only the missing
//! cells. The manifest carries the spec's FNV digest so it can never be
//! resumed under a different grid. A caller that persists a batch by
//! appending only its new cells writes them with
//! [`CampaignManifest::log_line`] and loads them back with
//! [`CampaignManifest::replay_log`].

mod report;
mod spec;

pub use report::{CampaignReport, CellResult, CellSet, MatrixRow};
pub use spec::{
    inject_defense, inject_machine, CampaignCell, CampaignSpec, DefenseVariant, FaultVariant,
    ScenarioSel,
};

use scenario::{Registry, RunOptions};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Errors of the campaign layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A spec names a scenario the registry does not have.
    UnknownScenario(String),
    /// A spec names a machine preset outside the Table I set.
    UnknownPreset(String),
    /// A cell's params (with the preset's machine injected) do not
    /// deserialize into the scenario's config type.
    Params {
        /// The scenario whose config rejected the params.
        scenario: String,
        /// The underlying deserialization message.
        message: String,
    },
    /// A fault variant's plan is out of range
    /// ([`FaultPlan::validate`](segsim::FaultPlan::validate)).
    FaultPlan {
        /// The fault variant whose plan was rejected.
        fault: String,
        /// The validation message.
        message: String,
    },
    /// A grid axis is empty, so the spec expands to zero cells.
    EmptyAxis(&'static str),
    /// A manifest does not belong to the spec it was resumed under
    /// (digest or cell-axis geometry mismatch).
    SpecMismatch,
    /// A report was requested from an incomplete manifest.
    Incomplete {
        /// Cells completed so far.
        completed: usize,
        /// Total cells in the grid.
        total: usize,
    },
    /// A spec, manifest, or report failed to parse.
    Parse(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::UnknownScenario(name) => {
                write!(f, "unknown scenario `{name}` (see `segscope list`)")
            }
            CampaignError::UnknownPreset(name) => {
                write!(
                    f,
                    "unknown machine preset `{name}` (see `segscope machines`)"
                )
            }
            CampaignError::Params { scenario, message } => {
                write!(f, "invalid params for scenario `{scenario}`: {message}")
            }
            CampaignError::FaultPlan { fault, message } => {
                write!(f, "invalid plan for fault variant `{fault}`: {message}")
            }
            CampaignError::EmptyAxis(axis) => {
                write!(f, "campaign axis `{axis}` is empty — the grid has no cells")
            }
            CampaignError::SpecMismatch => write!(
                f,
                "manifest does not belong to this campaign spec (digest or geometry mismatch)"
            ),
            CampaignError::Incomplete { completed, total } => write!(
                f,
                "campaign is incomplete ({completed}/{total} cells) — resume it before reporting"
            ),
            CampaignError::Parse(msg) => write!(f, "campaign parse error: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Execution options of [`run_campaign`] — the schedule knobs that,
/// by the determinism contract, must never change the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Cells run concurrently: the number of workers (clamped to ≥ 1).
    pub shards: usize,
    /// Worker threads *within* each cell's scenario run (`None` = the
    /// driver's `SEGSCOPE_THREADS`-or-all-cores default).
    pub threads: Option<usize>,
    /// Run at most the first `N × shards` missing cells, persist them,
    /// and return `Ok(None)` if the campaign is still incomplete — the
    /// deterministic kill switch the resume battery uses to cut a
    /// campaign at an arbitrary checkpoint. `N` counts groups of
    /// `shards` cells.
    pub stop_after_waves: Option<usize>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            shards: 1,
            threads: None,
            stop_after_waves: None,
        }
    }
}

/// Progress record of a campaign: the spec's digest plus an
/// [`exec::ChunkManifest`] over the cell axis with chunk size 1.
///
/// Reusing the chunk manifest at the cell level means the campaign
/// inherits its invariants wholesale: completed cells are keyed by flat
/// index (shard-count invariant), `chunk_seeds(i)` yields exactly cell
/// `i`'s derived experiment seed, and geometry mismatches are detected
/// on resume. The digest adds the campaign-level guard the geometry
/// alone cannot give: two different grids can have equal cell counts
/// and seeds, but never an equal canonical-JSON fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// FNV digest of the spec this manifest belongs to.
    pub spec_digest: u64,
    /// Per-cell progress: chunk index = flat cell index.
    pub cells: exec::ChunkManifest<CellResult>,
}

impl CampaignManifest {
    /// An empty manifest for `spec`'s grid.
    #[must_use]
    pub fn new(spec: &CampaignSpec) -> Self {
        CampaignManifest {
            spec_digest: spec.digest(),
            cells: exec::ChunkManifest::new(spec.seed, spec.cell_count(), 1),
        }
    }

    /// Whether this manifest belongs to `spec`: digest and cell-axis
    /// geometry both match.
    #[must_use]
    pub fn matches(&self, spec: &CampaignSpec) -> bool {
        self.spec_digest == spec.digest() && self.cells.matches(spec.seed, spec.cell_count(), 1)
    }

    /// Cells completed so far.
    #[must_use]
    pub fn completed_cells(&self) -> usize {
        self.cells.completed_chunks()
    }

    /// Total cells in the grid.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.cells.total_chunks()
    }

    /// Whether every cell has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.cells.is_complete()
    }

    /// Flat indices of the cells still to run, ascending.
    #[must_use]
    pub fn remaining_cells(&self) -> Vec<usize> {
        self.cells.remaining_chunks()
    }

    /// Serializes the manifest to JSON (what the CLI writes when it
    /// starts a campaign and when it compacts the cell log).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("campaign manifests are serializable")
    }

    /// Parses a manifest from JSON and validates its shape: the cell
    /// progress must pass [`exec::ChunkManifest::validate`], and every
    /// recorded result must carry its own cell's index.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Parse`] with the underlying message, naming the
    /// bad cell when the shape is wrong.
    pub fn from_json(json: &str) -> Result<Self, CampaignError> {
        let manifest: Self =
            serde_json::from_str(json).map_err(|e| CampaignError::Parse(e.to_string()))?;
        manifest.cells.validate().map_err(CampaignError::Parse)?;
        for (cell, results) in manifest.cells.completed() {
            check_index(cell, results).map_err(CampaignError::Parse)?;
        }
        Ok(manifest)
    }

    /// One line of a cell log: `result`'s `[cell, [result]]` entry —
    /// the format of the manifest's `completed` list — and a `\n`.
    #[must_use]
    pub fn log_line(result: &CellResult) -> String {
        serde_json::to_string(&(result.index, [result])).expect("cell results are serializable")
            + "\n"
    }

    /// Records the cells of a log of [`log_line`](Self::log_line)s, as
    /// appended after every persisted batch, on top of this (compacted)
    /// manifest.
    ///
    /// Every line passes the checks of [`from_json`](Self::from_json). A
    /// final line without its `\n` is an append the writer did not
    /// finish: it is dropped, and its cells count as not run. A cell
    /// logged again with an equal result (a crash between compacting
    /// the log into the manifest and removing it) is skipped. Returns
    /// whether a torn final line was dropped.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Parse`] naming the first bad line (1-based) —
    /// malformed, invalid UTF-8, failing a shape check, or recording a
    /// cell already held with a different result; the manifest is then
    /// left with the lines before it recorded.
    pub fn replay_log(&mut self, log: &[u8]) -> Result<bool, CampaignError> {
        let complete = log
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |end| end + 1);
        for (n, line) in log[..complete].split_inclusive(|&b| b == b'\n').enumerate() {
            self.replay_line(&line[..line.len() - 1])
                .map_err(|e| CampaignError::Parse(format!("line {}: {e}", n + 1)))?;
        }
        Ok(complete < log.len())
    }

    /// Records one log line (without its `\n`).
    fn replay_line(&mut self, line: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(line).map_err(|_| "invalid UTF-8".to_owned())?;
        let (cell, results): (usize, Vec<CellResult>) =
            serde_json::from_str(text).map_err(|e| e.to_string())?;
        self.cells.check_chunk(cell, results.len())?;
        check_index(cell, &results)?;
        match self.cells.chunk(cell) {
            Some(held) if held == results.as_slice() => Ok(()),
            Some(_) => Err(format!(
                "chunk {cell} is recorded twice with different results"
            )),
            None => self.cells.try_record_chunk(cell, results),
        }
    }
}

/// Checks that every result recorded under cell `cell` is that cell's.
fn check_index(cell: usize, results: &[CellResult]) -> Result<(), String> {
    match results.iter().find(|r| r.index != cell) {
        Some(result) => Err(format!(
            "chunk {cell} records the result of cell {}",
            result.index
        )),
        None => Ok(()),
    }
}

/// Runs one expanded cell through the generic scenario driver.
///
/// The cell's params and scenario name were validated by
/// [`CampaignSpec::expand`] before any cell ran, so a failure here is a
/// registry/spec drift bug, not a user error — it panics rather than
/// recording a result the spec does not describe.
#[must_use]
pub fn run_cell(registry: &Registry, cell: &CampaignCell, threads: Option<usize>) -> CellResult {
    let entry = registry
        .get(&cell.scenario)
        .expect("cell scenarios are validated at expansion");
    let opts = RunOptions {
        seed: Some(cell.seed),
        trials: cell.trials,
        threads,
        capacity: 0,
        fault_plan: cell.fault_plan,
    };
    let run = entry
        .run_dyn(Some(&cell.params), &opts)
        .expect("cell params are validated at expansion");
    CellResult {
        index: cell.index,
        scenario: cell.scenario.clone(),
        preset: cell.preset.clone(),
        fault: cell.fault.clone(),
        defense: cell.defense.clone(),
        replicate: cell.replicate,
        report: run.report,
        totals: run.totals,
        fault_log: run.fault_log,
    }
}

/// Executes (or resumes) a campaign: runs the manifest's missing cells
/// on `shards` workers and persists them in group commits.
///
/// Each worker claims the next missing cell from a shared cursor, runs
/// it, and hands the result to the calling thread, the one persister.
/// The persister blocks for one result, drains every other result
/// already queued, records the batch and calls `persist` once for it:
/// one append and one sync per batch, overlapping the workers' compute
/// instead of stalling it. An already-complete manifest starts no
/// worker and never calls `persist`.
///
/// Returns `Ok(Some(report))` when the campaign completed,
/// `Ok(None)` when `opts.stop_after_waves` cut it short (the manifest
/// holds the progress; call again to resume).
///
/// Determinism: cell seeds and indices come from the spec alone, each
/// cell's run is thread-count invariant, and the final fold is a
/// [`MergeReport`](scenario::MergeReport) over the completed cell set —
/// so the report is bit-identical at any `shards` × `threads` × kill
/// schedule, whatever order the cells finish in.
///
/// # Errors
///
/// Expansion errors ([`CampaignError::UnknownScenario`] /
/// [`CampaignError::UnknownPreset`] / [`CampaignError::Params`] /
/// [`CampaignError::FaultPlan`] / [`CampaignError::EmptyAxis`]) and
/// [`CampaignError::SpecMismatch`] when `manifest` does not belong to
/// `spec`.
///
/// # Panics
///
/// A panicking cell stops the other workers from claiming cells. The
/// cells that finish meanwhile are still recorded and persisted, then
/// the cell's original panic payload resumes on the calling thread.
pub fn run_campaign<P>(
    registry: &Registry,
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    manifest: &mut CampaignManifest,
    mut persist: P,
) -> Result<Option<CampaignReport>, CampaignError>
where
    P: FnMut(&CampaignManifest),
{
    let cells = spec.expand(registry)?;
    if !manifest.matches(spec) {
        return Err(CampaignError::SpecMismatch);
    }
    let shards = opts.shards.max(1);
    let mut missing = manifest.remaining_cells();
    if let Some(waves) = opts.stop_after_waves {
        missing.truncate(waves.saturating_mul(shards));
    }
    // Neither atomic publishes data: the cursor only hands out indices
    // into `missing`, and results travel over the channel. So `Relaxed`.
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (cells, missing, cursor, stop) = (&cells, &missing, &cursor, &stop);
    std::thread::scope(|scope| {
        let (sender, results) = mpsc::channel::<CellResult>();
        let workers: Vec<_> = (0..shards.min(missing.len()))
            .map(|_| {
                let sender = sender.clone();
                scope.spawn(move || {
                    let _stop_on_panic = StopOnPanic(stop);
                    while !stop.load(Ordering::Relaxed) {
                        let Some(&cell) = missing.get(cursor.fetch_add(1, Ordering::Relaxed))
                        else {
                            break;
                        };
                        let result = run_cell(registry, &cells[cell], opts.threads);
                        if sender.send(result).is_err() {
                            break; // the persister panicked
                        }
                    }
                })
            })
            .collect();
        drop(sender);
        // The loop ends once every worker has exited and dropped its
        // sender; until then, each wake-up commits everything queued.
        while let Ok(first) = results.recv() {
            for result in std::iter::once(first).chain(results.try_iter()) {
                debug_assert_eq!(
                    manifest.cells.chunk_seeds(result.index),
                    vec![cells[result.index].seed],
                    "cell seed must agree between spec expansion and manifest geometry"
                );
                manifest.cells.record_chunk(result.index, vec![result]);
            }
            persist(manifest);
        }
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    if !manifest.is_complete() {
        return Ok(None);
    }
    report_from_manifest(spec, manifest).map(Some)
}

/// Raises the campaign's stop flag if the worker holding it unwinds, so
/// no other worker claims a cell after a panic.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Folds a complete manifest into the final [`CampaignReport`].
///
/// The fold goes through [`CellSet`] singletons — the same commutative
/// merge any shard grouping produces — so this function is the single
/// reporting path for fresh runs, resumes, and `campaign report` on a
/// previously persisted manifest.
///
/// # Errors
///
/// [`CampaignError::SpecMismatch`] when `manifest` does not belong to
/// `spec`, [`CampaignError::Incomplete`] when cells are still missing.
pub fn report_from_manifest(
    spec: &CampaignSpec,
    manifest: &CampaignManifest,
) -> Result<CampaignReport, CampaignError> {
    use scenario::MergeReport;
    if !manifest.matches(spec) {
        return Err(CampaignError::SpecMismatch);
    }
    if !manifest.is_complete() {
        return Err(CampaignError::Incomplete {
            completed: manifest.completed_cells(),
            total: manifest.total_cells(),
        });
    }
    let set = CellSet::merged(
        manifest
            .cells
            .clone()
            .into_outputs()
            .into_iter()
            .map(CellSet::singleton),
    );
    Ok(CampaignReport::from_cells(
        &spec.name,
        spec.seed,
        manifest.spec_digest,
        set.into_ordered(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{DynScenario, Scenario, TrialCtx};
    use segsim::{FaultPlan, Machine, MachineConfig};
    use serde::Value;

    /// A fast probe scenario whose output depends on the machine config,
    /// so the preset axis is observable in the results.
    struct GridProbe;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct GridProbeConfig {
        machine: MachineConfig,
        spins: u64,
    }

    impl Default for GridProbeConfig {
        fn default() -> Self {
            GridProbeConfig {
                machine: MachineConfig::xiaomi_air13(),
                spins: 60_000_000,
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct GridProbeSummary {
        samples: Vec<u64>,
    }

    impl Scenario for GridProbe {
        type Config = GridProbeConfig;
        type TrialOutput = u64;
        type Summary = GridProbeSummary;

        fn name(&self) -> &'static str {
            "grid_probe"
        }

        fn describe(&self) -> &'static str {
            "campaign self-test scenario"
        }

        fn experiment_seed(&self, _config: &GridProbeConfig, requested: Option<u64>) -> u64 {
            requested.unwrap_or(0xCA4B)
        }

        fn trial_count(&self, _config: &GridProbeConfig, requested: Option<usize>) -> usize {
            requested.unwrap_or(2)
        }

        fn machine(&self, config: &GridProbeConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
            (config.machine.clone(), ctx.seed)
        }

        fn run_trial(
            &self,
            config: &GridProbeConfig,
            machine: &mut Machine,
            ctx: &TrialCtx,
        ) -> u64 {
            machine.spin(config.spins.max(1_000_000));
            u64::from(machine.rdgs().bits()) ^ ctx.seed
        }

        fn summarize(&self, _config: &GridProbeConfig, outputs: &[u64]) -> GridProbeSummary {
            GridProbeSummary {
                samples: outputs.to_vec(),
            }
        }
    }

    static PROBES: [&dyn DynScenario; 1] = [&GridProbe];

    fn probe_registry() -> Registry {
        Registry::new(&PROBES)
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            name: "unit".to_owned(),
            seed: 0xC0FF_EE00,
            scenarios: vec![ScenarioSel::named("grid_probe")],
            presets: vec!["xiaomi_air13".to_owned(), "amazon_t2_large".to_owned()],
            faults: vec![
                FaultVariant::none(),
                FaultVariant {
                    name: "delivery_storm".to_owned(),
                    plan: Some(FaultPlan::delivery_storm()),
                },
            ],
            defenses: vec![DefenseVariant::none()],
            replicates: 2,
            trials: Some(2),
        }
    }

    #[test]
    fn expansion_is_a_pure_function_of_the_spec() {
        let spec = small_spec();
        let cells = spec.expand(&probe_registry()).expect("valid spec");
        assert_eq!(cells.len(), spec.cell_count());
        assert_eq!(cells.len(), 8);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, exec::derive_seed(spec.seed, i as u64));
        }
        // Fixed nesting: scenario → preset → fault → replicate.
        assert_eq!(
            (
                cells[0].preset.as_str(),
                cells[0].fault.as_str(),
                cells[0].replicate
            ),
            ("xiaomi_air13", "none", 0)
        );
        assert_eq!(cells[1].replicate, 1);
        assert_eq!(cells[2].fault, "delivery_storm");
        assert_eq!(cells[4].preset, "amazon_t2_large");
        // The preset's machine is injected into every cell's params.
        for cell in &cells {
            let config = GridProbeConfig::from_value(&cell.params).expect("params deserialize");
            let expected = segsim::presets::by_name(&cell.preset).expect("known preset");
            assert_eq!(config.machine, expected);
        }
        // Same spec, same cells.
        assert_eq!(cells, spec.expand(&probe_registry()).expect("valid spec"));
    }

    #[test]
    fn expansion_rejects_bad_axes_up_front() {
        let registry = probe_registry();
        let mut empty = small_spec();
        empty.faults.clear();
        assert_eq!(
            empty.expand(&registry),
            Err(CampaignError::EmptyAxis("faults"))
        );
        let mut unknown = small_spec();
        unknown.scenarios[0].scenario = "nope".to_owned();
        assert_eq!(
            unknown.expand(&registry),
            Err(CampaignError::UnknownScenario("nope".to_owned()))
        );
        let mut preset = small_spec();
        preset.presets[0] = "commodore64".to_owned();
        assert_eq!(
            preset.expand(&registry),
            Err(CampaignError::UnknownPreset("commodore64".to_owned()))
        );
        let mut params = small_spec();
        params.scenarios[0].params = Some(Value::Map(vec![(
            "spins".to_owned(),
            Value::Str("many".to_owned()),
        )]));
        assert!(matches!(
            params.expand(&registry),
            Err(CampaignError::Params { .. })
        ));
        let mut fault = small_spec();
        fault.faults.push(FaultVariant {
            name: "ghost_storm".to_owned(),
            plan: Some(FaultPlan::none().with_duplicate_prob(1.0)),
        });
        match fault.expand(&registry) {
            Err(CampaignError::FaultPlan { fault, message }) => {
                assert_eq!(fault, "ghost_storm");
                assert!(message.contains("`duplicate_prob`"), "{message}");
            }
            other => panic!("expected a fault-plan error, got {other:?}"),
        }
    }

    fn run_at(shards: usize, threads: usize) -> CampaignReport {
        let spec = small_spec();
        let mut manifest = CampaignManifest::new(&spec);
        let opts = CampaignOptions {
            shards,
            threads: Some(threads),
            stop_after_waves: None,
        };
        run_campaign(&probe_registry(), &spec, &opts, &mut manifest, |_| {})
            .expect("campaign runs")
            .expect("campaign completes")
    }

    #[test]
    fn reports_are_bit_identical_across_shard_and_thread_counts() {
        let reference = run_at(1, 1);
        assert_eq!(reference.cells, 8);
        assert_eq!(reference.totals.trials, 16, "8 cells x 2 trials");
        assert_eq!(reference.matrix.len(), 2, "one row per (scenario, preset)");
        assert!(
            reference.fault_log.delivery_faults() > 0,
            "the delivery_storm axis must inject faults"
        );
        let reference_json = reference.to_json();
        for (shards, threads) in [(3, 1), (8, 2), (2, 4)] {
            assert_eq!(
                run_at(shards, threads).to_json(),
                reference_json,
                "shards {shards} x threads {threads}"
            );
        }
    }

    #[test]
    fn kill_and_resume_round_trips_through_json_bit_identically() {
        let spec = small_spec();
        let registry = probe_registry();
        let reference = run_at(1, 1);
        // With 8 cells and 3 shards, cutting after 3 or 6 cells leaves
        // work behind; a cut past the last cell must complete instead.
        for kill_after in 1..3 {
            let mut manifest = CampaignManifest::new(&spec);
            let mut persisted = String::new();
            let first = run_campaign(
                &registry,
                &spec,
                &CampaignOptions {
                    shards: 3,
                    threads: Some(1),
                    stop_after_waves: Some(kill_after),
                },
                &mut manifest,
                |m| persisted = m.to_json(),
            )
            .expect("first leg runs");
            assert!(first.is_none(), "stop_after_waves cuts the run short");
            // Resume from the persisted JSON, not the in-memory manifest —
            // the round trip is part of the contract.
            let mut revived = CampaignManifest::from_json(&persisted).expect("parses");
            assert_eq!(revived.completed_cells(), (kill_after * 3).min(8));
            let resumed = run_campaign(
                &registry,
                &spec,
                &CampaignOptions {
                    shards: 2,
                    threads: Some(2),
                    stop_after_waves: None,
                },
                &mut revived,
                |_| {},
            )
            .expect("resume runs")
            .expect("resume completes");
            assert_eq!(
                resumed.to_json(),
                reference.to_json(),
                "kill after wave {kill_after}"
            );
        }
        let mut manifest = CampaignManifest::new(&spec);
        let finished = run_campaign(
            &registry,
            &spec,
            &CampaignOptions {
                shards: 3,
                threads: Some(1),
                stop_after_waves: Some(3),
            },
            &mut manifest,
            |_| {},
        )
        .expect("runs");
        assert_eq!(
            finished
                .expect("a stop bound past the last wave completes")
                .to_json(),
            reference.to_json()
        );
    }

    #[test]
    fn manifests_guard_against_spec_drift_and_incompleteness() {
        let spec = small_spec();
        let registry = probe_registry();
        let mut manifest = CampaignManifest::new(&spec);
        // A different grid (even one with the same seed and cell count)
        // has a different digest and is rejected.
        let mut drifted = spec.clone();
        drifted.faults[1].name = "renamed".to_owned();
        assert_eq!(drifted.cell_count(), spec.cell_count());
        assert_eq!(
            run_campaign(
                &registry,
                &drifted,
                &CampaignOptions::default(),
                &mut manifest,
                |_| {}
            ),
            Err(CampaignError::SpecMismatch)
        );
        // Reporting an incomplete manifest is an error, not a partial
        // report.
        assert_eq!(
            report_from_manifest(&spec, &manifest),
            Err(CampaignError::Incomplete {
                completed: 0,
                total: 8
            })
        );
    }

    /// The manifest a campaign leaves after its first wave of three
    /// cells, plus the `[cell, [result]]` JSON entry of each cell.
    fn one_wave_manifest() -> (String, Vec<CellResult>) {
        let spec = small_spec();
        let mut manifest = CampaignManifest::new(&spec);
        let opts = CampaignOptions {
            shards: 3,
            threads: Some(1),
            stop_after_waves: Some(1),
        };
        run_campaign(&probe_registry(), &spec, &opts, &mut manifest, |_| {}).expect("runs");
        let results = manifest
            .cells
            .completed()
            .map(|(_, results)| results[0].clone())
            .collect();
        (manifest.to_json(), results)
    }

    fn entry(cell: usize, results: &[CellResult]) -> String {
        serde_json::to_string(&(cell, results.to_vec())).expect("serializable")
    }

    #[test]
    fn corrupted_manifests_are_rejected_naming_the_chunk() {
        let (good, r) = one_wave_manifest();
        assert_eq!(r.len(), 3);
        assert!(CampaignManifest::from_json(&good).is_ok());
        let cases = [
            // Cell 0's results emptied: would report 7 of 8 cells.
            (entry(0, &r[..1]), entry(0, &[]), "chunk 0 holds 0 outputs"),
            // An extra result in cell 1.
            (
                entry(1, &r[1..2]),
                entry(1, &[r[1].clone(), r[1].clone()]),
                "chunk 1 holds 2 outputs",
            ),
            // A key past the last cell: would never complete.
            (
                entry(2, &r[2..]),
                entry(8, &r[2..]),
                "chunk 8 is out of range",
            ),
            // Cell 2 holding cell 1's result.
            (
                entry(2, &r[2..]),
                entry(2, &r[1..2]),
                "chunk 2 records the result of cell 1",
            ),
            // A zero chunk size.
            (
                "\"chunk\":1,".to_owned(),
                "\"chunk\":0,".to_owned(),
                "chunk size must be at least 1",
            ),
        ];
        for (from, to, expected) in cases {
            let json = good.replace(&from, &to);
            assert_ne!(json, good, "the corruption must apply");
            match CampaignManifest::from_json(&json) {
                Err(CampaignError::Parse(message)) => {
                    assert!(message.contains(expected), "`{message}` lacks `{expected}`");
                }
                other => panic!("expected a parse error naming `{expected}`, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_manifest_repeating_a_cell_is_rejected() {
        let (good, r) = one_wave_manifest();
        let once = entry(1, &r[1..2]);
        let twice = good.replace(&once, &format!("{once},{once}"));
        assert_ne!(twice, good, "the repetition must apply");
        match CampaignManifest::from_json(&twice) {
            Err(CampaignError::Parse(message)) => {
                assert!(message.contains("duplicate map key"), "{message}");
            }
            other => panic!("expected a duplicate-key error, got {other:?}"),
        }
    }

    fn log_of(results: &[CellResult]) -> String {
        results.iter().map(CampaignManifest::log_line).collect()
    }

    fn replay(base: &CampaignManifest, log: &[u8]) -> Result<(CampaignManifest, bool), String> {
        let mut manifest = base.clone();
        match manifest.replay_log(log) {
            Ok(torn) => Ok((manifest, torn)),
            Err(CampaignError::Parse(message)) => Err(message),
            Err(other) => panic!("replay errs with Parse only, got {other:?}"),
        }
    }

    #[test]
    fn replaying_the_cell_log_rebuilds_the_manifest() {
        let (good, r) = one_wave_manifest();
        let wave = CampaignManifest::from_json(&good).expect("parses");
        let empty = CampaignManifest::new(&small_spec());
        for result in &r {
            let line = CampaignManifest::log_line(result);
            assert!(line.ends_with('\n'));
            assert!(
                good.contains(line.trim_end()),
                "a log line is the manifest's own entry"
            );
        }
        let log = log_of(&r);
        assert_eq!(replay(&empty, log.as_bytes()), Ok((wave.clone(), false)));
        assert_eq!(replay(&empty, b""), Ok((empty.clone(), false)));
        // The whole log again on top of its compaction: every cell is a
        // duplicate with an equal result.
        assert_eq!(replay(&wave, log.as_bytes()), Ok((wave.clone(), false)));
    }

    #[test]
    fn corrupted_log_lines_are_rejected_naming_the_line_and_chunk() {
        let (_, r) = one_wave_manifest();
        let empty = CampaignManifest::new(&small_spec());
        let mut conflicting = r[1].clone();
        conflicting.replicate += 1;
        let head = log_of(&r[..2]);
        let cases = [
            (entry(0, &[]), "line 3: chunk 0 holds 0 outputs"),
            (
                entry(1, &[r[1].clone(), r[1].clone()]),
                "line 3: chunk 1 holds 2 outputs",
            ),
            (entry(8, &r[2..]), "line 3: chunk 8 is out of range"),
            (
                entry(2, &r[1..2]),
                "line 3: chunk 2 records the result of cell 1",
            ),
            (
                entry(1, &[conflicting]),
                "line 3: chunk 1 is recorded twice with different results",
            ),
            (String::new(), "line 3: unexpected character"),
            ("[".repeat(10_000), "line 3: nesting too deep"),
            (
                format!("{},", entry(2, &r[2..])),
                "line 3: trailing characters",
            ),
        ];
        for (line, expected) in cases {
            let log = format!("{head}{line}\n");
            match replay(&empty, log.as_bytes()) {
                Err(message) => {
                    assert!(
                        message.starts_with(expected),
                        "`{message}` is not `{expected}`"
                    );
                }
                Ok(_) => panic!("accepted a log whose line 3 should fail with `{expected}`"),
            }
        }
        let mut invalid_utf8 = head.into_bytes();
        invalid_utf8.extend_from_slice(b"[2,\xff]\n");
        assert_eq!(
            replay(&empty, &invalid_utf8),
            Err("line 3: invalid UTF-8".to_owned())
        );
    }

    #[test]
    fn cells_match_standalone_driver_runs() {
        let spec = small_spec();
        let registry = probe_registry();
        let cells = spec.expand(&registry).expect("valid spec");
        let report = run_at(4, 1);
        for (cell, result) in cells.iter().zip(&report.cell_results) {
            let standalone = registry
                .get(&cell.scenario)
                .expect("registered")
                .run_dyn(
                    Some(&cell.params),
                    &RunOptions {
                        seed: Some(cell.seed),
                        trials: cell.trials,
                        threads: Some(1),
                        capacity: 0,
                        fault_plan: cell.fault_plan,
                    },
                )
                .expect("standalone run");
            assert_eq!(result.report, standalone.report, "cell {}", cell.index);
            assert_eq!(result.totals, standalone.totals, "cell {}", cell.index);
            assert_eq!(
                result.fault_log, standalone.fault_log,
                "cell {}",
                cell.index
            );
        }
    }

    #[test]
    fn defense_axis_expands_in_order_and_injects_into_the_machine() {
        use segsim::Defense;
        let mut spec = small_spec();
        spec.presets.truncate(1);
        spec.faults.truncate(1);
        spec.replicates = 1;
        spec.defenses = DefenseVariant::all();
        let cells = spec.expand(&probe_registry()).expect("valid spec");
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells.iter().map(|c| c.defense.as_str()).collect::<Vec<_>>(),
            ["none", "quanshield", "padding"]
        );
        for (cell, expected) in cells.iter().zip([
            Defense::None,
            Defense::QuanShield,
            Defense::default_padding(),
        ]) {
            let config = GridProbeConfig::from_value(&cell.params).expect("params deserialize");
            assert_eq!(config.machine.defense, expected, "cell {}", cell.index);
        }
    }

    #[test]
    fn pre_defense_spec_json_parses_with_the_none_axis() {
        // A spec serialized before the defense axis existed has no
        // `defenses` key; it must parse to the single-entry [none] axis
        // and expand to the exact pre-defense cell indices and seeds.
        let spec = small_spec();
        let json = spec.to_json();
        let legacy = json.replace(
            "\"defenses\":[{\"name\":\"none\",\"defense\":\"None\"}],",
            "",
        );
        assert_ne!(legacy, json, "the defenses key must have been stripped");
        let parsed = CampaignSpec::from_json(&legacy).expect("legacy specs parse");
        assert_eq!(parsed.defenses, vec![DefenseVariant::none()]);
        let registry = probe_registry();
        assert_eq!(
            parsed.expand(&registry).expect("valid"),
            spec.expand(&registry).expect("valid"),
            "cell geometry, seeds, and params are unchanged"
        );
    }

    #[test]
    fn specs_round_trip_through_json_and_digest_is_content_sensitive() {
        let spec = small_spec();
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.digest(), spec.digest());
        let mut other = spec.clone();
        other.seed ^= 1;
        assert_ne!(other.digest(), spec.digest());
        assert!(CampaignSpec::from_json("{").is_err());
    }
}
