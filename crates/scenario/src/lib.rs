//! `scenario` — the one harness all nine SegScope case studies run on.
//!
//! Every headline experiment of the reproduction used to hand-roll the
//! same four pieces of glue: pick a [`segsim::MachineConfig`], derive
//! per-trial seeds, install the optional [`segsim::FaultPlan`] and
//! [`obs::TraceSink`], and fan the trials out over worker threads. This
//! crate folds that glue into one generic driver behind the
//! [`Scenario`] trait:
//!
//! * [`Scenario::build_machine`] constructs the trial's machine (config
//!   selection, seeding, layout/fault wiring) — and nothing else;
//! * [`Scenario::run_trial`] runs the attack on that machine;
//! * [`Scenario::summarize`] reduces the ordered trial outputs into a
//!   JSON-able report.
//!
//! The driver [`run_scenario`] supplies everything between: seed
//! derivation via [`exec::derive_seed`], the fault-plan override, trace
//! sinks, and the deterministic fan-out — chunked
//! [`exec::parallel_trial_chunks`] through [`Scenario::run_batch`] for
//! untraced runs (so lane-recycling scenarios amortize machine
//! construction per worker), [`exec::parallel_trials_traced`] for traced
//! ones. The determinism contract is inherited wholesale:
//!
//! > **Bit-identical outputs, summaries, and merged traces at any
//! > worker count.**
//!
//! [`DynScenario`] erases the associated types so scenarios can live in
//! a [`Registry`] and be driven by name from the `segscope` CLI with
//! JSON-encoded params.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merge;

pub use merge::{MergeReport, RunTotals};

use segsim::{FaultLog, FaultPlan, Machine, MachineConfig};
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::fmt;

/// Per-trial bookkeeping the driver folds into run-level accounting:
/// the ground-truth interrupt-delivery count and the machine's fault
/// audit, captured at the end of the trial.
///
/// Every [`Scenario::run_batch`] implementation returns one of these per
/// trial (use [`TrialStats::of`] on the trial's machine right after the
/// trial body). Like the outputs, stats must be a pure function of
/// `(config, ctx, fault_override)` — the chunk-geometry contract covers
/// them too, and both merge commutatively ([`RunTotals`] and
/// [`FaultLog`] implement [`MergeReport`]), so run-level accounting is
/// schedule-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialStats {
    /// Ground-truth interrupt deliveries during the trial.
    pub gt_deliveries: u64,
    /// Fault-injection audit counters of the trial's machine.
    pub fault_log: FaultLog,
}

impl TrialStats {
    /// Captures the stats of a machine that just finished its trial.
    #[must_use]
    pub fn of(machine: &Machine) -> Self {
        TrialStats {
            gt_deliveries: machine.ground_truth().len() as u64,
            fault_log: *machine.fault_log(),
        }
    }
}

/// The context of one trial, handed to [`Scenario::build_machine`] and
/// [`Scenario::run_trial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx {
    /// Trial index within the experiment (`0..trials`).
    pub index: usize,
    /// The trial's private seed,
    /// `exec::derive_seed(experiment_seed, index)`.
    pub seed: u64,
    /// The experiment-level seed all trial seeds derive from.
    pub experiment_seed: u64,
}

/// One experiment that the generic driver can run: a typed config, a
/// per-trial machine recipe, the trial body, and a summary reduction.
///
/// Implementations must keep [`build_machine`](Scenario::build_machine)
/// limited to machine construction and config-level fault/layout wiring:
/// the driver installs the trace sink and the run-level fault-plan
/// override *after* it, and warm-up spins belong in
/// [`run_trial`](Scenario::run_trial) so traces cover them.
pub trait Scenario: Sync {
    /// The experiment parameters (JSON-roundtrippable; `Default` is what
    /// `segscope run <name>` uses when `--params` is omitted).
    type Config: Clone + fmt::Debug + Default + Serialize + Deserialize + Send + Sync;
    /// What one trial produces.
    type TrialOutput: Send;
    /// The reduced, JSON-able report body.
    type Summary: Serialize;

    /// Unique registry name (snake_case).
    fn name(&self) -> &'static str;

    /// One-line human description (shown by `segscope list`).
    fn describe(&self) -> &'static str;

    /// Resolves the experiment-level seed: an explicit request (the CLI's
    /// `--seed`) beats the scenario's default (typically `config.seed`
    /// for config-seeded experiments, a stable constant otherwise).
    fn experiment_seed(&self, config: &Self::Config, requested: Option<u64>) -> u64;

    /// Resolves the trial count. Repetition-style scenarios honour the
    /// request (the CLI's `--trials`); structured scenarios whose trial
    /// count is a function of the config (sites × visits, users ×
    /// sessions, …) ignore it.
    fn trial_count(&self, config: &Self::Config, requested: Option<usize>) -> usize;

    /// Builds the trial's machine: `Machine::new` plus config-level
    /// fault/layout wiring. No warm-up spins here — the driver installs
    /// the trace sink right after, and traces must cover warm-up.
    fn build_machine(&self, config: &Self::Config, ctx: &TrialCtx) -> Machine;

    /// Runs one trial on the prepared machine.
    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> Self::TrialOutput;

    /// Reduces the ordered trial outputs into the report body.
    fn summarize(&self, config: &Self::Config, outputs: &[Self::TrialOutput]) -> Self::Summary;

    /// Runs a *chunk* of consecutive trials — the unit of work one
    /// worker claims in the untraced driver — returning one
    /// `(output, [`TrialStats`])` pair per trial, in order.
    ///
    /// The default is the scalar loop the driver always ran: a fresh
    /// [`build_machine`](Scenario::build_machine) per trial, the
    /// run-level fault override, then
    /// [`run_trial`](Scenario::run_trial). High-volume scenarios
    /// override this to recycle one machine per worker thread (via
    /// [`with_recycled_machine`]), amortizing machine construction across
    /// the chunk.
    ///
    /// Overrides **must** preserve the chunk-geometry contract: trial
    /// `i`'s pair depends only on `(config, ctxs[i], fault_override)` —
    /// never on the chunk's size, position, or lane assignment. With
    /// [`segsim::Machine::reset`] replaying `Machine::new` exactly,
    /// lane recycling satisfies this for free; the workspace-level
    /// `batch_parity` tests hold [`with_recycled_machine`] and the KASLR
    /// override to it.
    fn run_batch(
        &self,
        config: &Self::Config,
        ctxs: &[TrialCtx],
        fault_override: Option<FaultPlan>,
    ) -> Vec<(Self::TrialOutput, TrialStats)> {
        ctxs.iter()
            .map(|ctx| {
                let mut machine = self.build_machine(config, ctx);
                if let Some(plan) = fault_override {
                    machine.set_fault_plan(Some(plan));
                }
                let output = self.run_trial(config, &mut machine, ctx);
                (output, TrialStats::of(&machine))
            })
            .collect()
    }
}

/// Runs `f` on this worker thread's recycled machine lane, reset to
/// exactly the state `Machine::new(config, seed)` would produce.
///
/// The lane lives in thread-local storage: a worker's first trial pays
/// the full machine construction (the cache hierarchy alone is hundreds
/// of kilobytes of fresh pages), every later trial on that thread pays
/// only [`segsim::Machine::reset`] — an epoch bump and a reseed. Because
/// reset replays `new`'s boot draw order exactly, the closure observes a
/// machine bit-identical to a fresh one, so outputs stay independent of
/// which thread (or how many) ran which trial.
///
/// Scenario [`run_batch`](Scenario::run_batch) overrides are the
/// intended caller: replay your `build_machine` wiring inside `f`, then
/// run the trial body.
pub fn with_recycled_machine<T>(
    config: MachineConfig,
    seed: u64,
    f: impl FnOnce(&mut Machine) -> T,
) -> T {
    thread_local! {
        static LANE: RefCell<Option<Machine>> = const { RefCell::new(None) };
    }
    LANE.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some(machine) => machine.reset(config, seed),
            None => *slot = Some(Machine::new(config, seed)),
        }
        f(slot.as_mut().expect("lane installed above"))
    })
}

/// Run-level options of the generic driver (the CLI's flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Experiment seed override (`None` = the scenario's default).
    pub seed: Option<u64>,
    /// Trial-count override (`None` = the scenario's default; ignored by
    /// structured scenarios).
    pub trials: Option<usize>,
    /// Worker threads (`None` = `SEGSCOPE_THREADS`, else all cores).
    pub threads: Option<usize>,
    /// Per-trial trace-ring capacity in events; `0` disables tracing
    /// entirely (no sinks are installed).
    pub capacity: usize,
    /// Run-level fault-plan override, installed on every trial machine
    /// *after* [`Scenario::build_machine`]. `None` leaves whatever the
    /// config wired in place.
    pub fault_plan: Option<FaultPlan>,
}

impl RunOptions {
    /// Options with tracing enabled at the given ring capacity.
    #[must_use]
    pub fn traced(capacity: usize) -> Self {
        RunOptions {
            capacity,
            ..RunOptions::default()
        }
    }
}

/// The outcome of one driver run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun<T, U> {
    /// The resolved experiment seed.
    pub seed: u64,
    /// The resolved trial count.
    pub trials: usize,
    /// Ordered per-trial outputs (trial `i` at index `i`).
    pub outputs: Vec<T>,
    /// Ordered per-trial ground-truth interrupt-delivery counts.
    pub gt_deliveries: Vec<u64>,
    /// The merged observability trace (`None` when `capacity` was 0).
    pub sink: Option<obs::TraceSink>,
    /// Run-level additive totals, folded per-trial via [`MergeReport`]
    /// (independent of chunk geometry by the merge laws).
    pub totals: RunTotals,
    /// Fault-injection audit counters merged across all trials, folded
    /// per-trial via [`MergeReport`] like [`totals`](Self::totals).
    pub fault_log: FaultLog,
    /// The scenario's summary over the ordered outputs.
    pub summary: U,
}

impl<T, U> ScenarioRun<T, U> {
    /// Total ground-truth interrupt deliveries across all trials.
    #[must_use]
    pub fn total_gt_deliveries(&self) -> u64 {
        self.totals.ground_truth_deliveries
    }
}

/// The resolved execution geometry of a run: the one place the
/// experiment seed, trial count, worker count, and chunk size are
/// computed from `(scenario, config, opts)`.
///
/// Every consumer of the geometry — the untraced arm of
/// [`run_scenario`], [`checkpoint_manifest`], and
/// [`run_scenario_checkpointed`] — resolves it through
/// [`run_geometry`], so the layers cannot silently drift apart (a
/// manifest cut for one geometry can never be resumed under another
/// without [`exec::ChunkManifest::matches`] noticing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunGeometry {
    /// The resolved experiment seed every trial seed derives from.
    pub experiment_seed: u64,
    /// The resolved trial count.
    pub trials: usize,
    /// Worker threads the run fans out over.
    pub threads: usize,
    /// Consecutive trials per unit of work (chunk) in the untraced
    /// driver. Outputs are chunk-size independent (see
    /// [`Scenario::run_batch`]); the value only trades scheduling
    /// overhead against load balance.
    pub chunk: usize,
}

impl RunGeometry {
    /// The empty [`exec::ChunkManifest`] of a run with this geometry.
    #[must_use]
    pub fn manifest<T>(&self) -> exec::ChunkManifest<T> {
        exec::ChunkManifest::new(self.experiment_seed, self.trials, self.chunk)
    }

    /// Whether `manifest` belongs to a run with this geometry.
    #[must_use]
    pub fn matches<T>(&self, manifest: &exec::ChunkManifest<T>) -> bool {
        manifest.matches(self.experiment_seed, self.trials, self.chunk)
    }
}

/// Resolves the execution geometry [`run_scenario`] (untraced) and the
/// checkpointed driver use for `(scenario, config, opts)`.
#[must_use]
pub fn run_geometry<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    opts: &RunOptions,
) -> RunGeometry {
    let experiment_seed = scenario.experiment_seed(config, opts.seed);
    let trials = scenario.trial_count(config, opts.trials);
    let threads = exec::resolve_threads(opts.threads);
    RunGeometry {
        experiment_seed,
        trials,
        threads,
        chunk: trial_chunk(trials, threads),
    }
}

/// How many consecutive trials one worker claims per queue operation in
/// the untraced (chunked) driver: the batch a recycled lane amortizes
/// machine construction over. Outputs are chunk-size independent (see
/// [`Scenario::run_batch`]); the value only trades scheduling overhead
/// against load balance.
fn trial_chunk(trials: usize, threads: usize) -> usize {
    trials.div_ceil(threads.max(1) * 2).clamp(1, 32)
}

/// Runs `scenario` under `config` and `opts`: derives per-trial seeds,
/// builds each trial's machine, applies the run-level fault-plan
/// override, installs trace sinks (when `opts.capacity > 0`), fans the
/// trials out, and reduces the ordered outputs into the summary.
///
/// Bit-identical at any worker count; with tracing enabled the per-trial
/// wiring matches the layout the attacks' hand-rolled `*_traced`
/// functions used (machine ring of `capacity - 2` events inside the
/// engine's `TrialStart`/`TrialEnd` brackets), so pre-refactor golden
/// traces stay byte-identical.
pub fn run_scenario<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    opts: &RunOptions,
) -> ScenarioRun<S::TrialOutput, S::Summary> {
    let geometry = run_geometry(scenario, config, opts);
    let RunGeometry {
        experiment_seed: seed,
        trials,
        threads,
        chunk,
    } = geometry;
    let make_ctx = |i: usize, trial_seed: u64| TrialCtx {
        index: i,
        seed: trial_seed,
        experiment_seed: seed,
    };
    let (ran, sink) = if opts.capacity == 0 {
        // Untraced runs take the batched path: a chunk of consecutive
        // trials is the unit of work, handed whole to the scenario's
        // `run_batch` so lane-recycling overrides can amortize machine
        // construction across it. Chunk geometry cannot leak into the
        // outputs (see `Scenario::run_batch`), so this arm stays
        // bit-identical to the per-trial fan-out it replaced.
        let ran = exec::parallel_trial_chunks(seed, trials, threads, chunk, |start, seeds| {
            let ctxs: Vec<TrialCtx> = seeds
                .iter()
                .enumerate()
                .map(|(k, &s)| make_ctx(start + k, s))
                .collect();
            scenario.run_batch(config, &ctxs, opts.fault_plan)
        });
        (ran, None)
    } else {
        let capacity = opts.capacity;
        let (ran, sink) =
            exec::parallel_trials_traced(seed, trials, threads, capacity, |i, s, task_sink| {
                let ctx = make_ctx(i, s);
                let mut machine = scenario.build_machine(config, &ctx);
                if let Some(plan) = opts.fault_plan {
                    machine.set_fault_plan(Some(plan));
                }
                // Leave room for the engine's TrialStart/TrialEnd
                // brackets so a machine-full ring cannot overflow the
                // task sink.
                machine.install_trace_sink(obs::TraceSink::with_capacity(
                    capacity.saturating_sub(2).max(1),
                ));
                let output = scenario.run_trial(config, &mut machine, &ctx);
                let machine_sink = machine.take_trace_sink().expect("sink installed");
                task_sink.absorb(&machine_sink, 0);
                let stats = TrialStats::of(&machine);
                (output, stats)
            });
        (ran, Some(sink))
    };
    assemble_run(scenario, config, seed, trials, sink, ran)
}

/// Folds the ordered `(output, stats)` pairs into a [`ScenarioRun`]:
/// the shared tail of the plain and checkpointed drivers.
fn assemble_run<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    seed: u64,
    trials: usize,
    sink: Option<obs::TraceSink>,
    ran: Vec<(S::TrialOutput, TrialStats)>,
) -> ScenarioRun<S::TrialOutput, S::Summary> {
    let mut outputs = Vec::with_capacity(ran.len());
    let mut gt_deliveries = Vec::with_capacity(ran.len());
    let mut totals = RunTotals::empty();
    let mut fault_log = FaultLog::empty();
    for (output, stats) in ran {
        outputs.push(output);
        gt_deliveries.push(stats.gt_deliveries);
        totals.merge(&RunTotals::from_trial(stats.gt_deliveries));
        fault_log.merge(&stats.fault_log);
    }
    let summary = scenario.summarize(config, &outputs);
    ScenarioRun {
        seed,
        trials,
        outputs,
        gt_deliveries,
        sink,
        totals,
        fault_log,
        summary,
    }
}

/// The empty [`exec::ChunkManifest`] a checkpointed run of `scenario`
/// under `config` and `opts` starts from: same experiment seed, trial
/// count, and chunk geometry as [`run_scenario`] would use.
///
/// Callers that resume from disk validate the loaded manifest against
/// this one's geometry first:
///
/// ```ignore
/// let fresh = checkpoint_manifest(&scenario, &config, &opts);
/// let loaded = exec::ChunkManifest::from_json(&text)?;
/// assert!(loaded.matches(fresh.experiment_seed(), fresh.trials(), fresh.chunk()));
/// ```
#[must_use]
pub fn checkpoint_manifest<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    opts: &RunOptions,
) -> exec::ChunkManifest<(S::TrialOutput, TrialStats)> {
    run_geometry(scenario, config, opts).manifest()
}

/// [`run_scenario`], resumable: runs only the chunks `manifest` has not
/// completed, handing the manifest to `persist` after every wave of
/// chunks, then assembles the same [`ScenarioRun`] an uninterrupted
/// [`run_scenario`] with the same inputs produces — bit-identical
/// outputs, totals, and summary, no matter where (or how often) the
/// previous run was killed.
///
/// Checkpointing covers the untraced path only (`opts.capacity` must be
/// 0): a merged trace is not resumable chunk-wise, and long
/// multi-trial campaigns — the runs worth checkpointing — run untraced.
///
/// The manifest must come from [`checkpoint_manifest`] with the same
/// `(scenario, config, opts)`, or from a persisted copy of one (see
/// [`exec::ChunkManifest::matches`] for the loader-side check).
///
/// # Panics
///
/// Panics when `opts.capacity != 0` or when `manifest` does not match
/// the run geometry `(scenario, config, opts)` resolves to.
pub fn run_scenario_checkpointed<S>(
    scenario: &S,
    config: &S::Config,
    opts: &RunOptions,
    manifest: &mut exec::ChunkManifest<(S::TrialOutput, TrialStats)>,
    persist: impl FnMut(&exec::ChunkManifest<(S::TrialOutput, TrialStats)>),
) -> ScenarioRun<S::TrialOutput, S::Summary>
where
    S: Scenario,
    S::TrialOutput: Clone,
{
    assert_eq!(opts.capacity, 0, "checkpointed runs are untraced");
    let geometry = run_geometry(scenario, config, opts);
    let RunGeometry {
        experiment_seed: seed,
        trials,
        threads,
        chunk,
    } = geometry;
    assert!(
        geometry.matches(manifest),
        "manifest (seed {:#x}, {} trials, chunk {}) does not belong to \
         this run (seed {seed:#x}, {trials} trials, chunk {chunk})",
        manifest.experiment_seed(),
        manifest.trials(),
        manifest.chunk(),
    );
    exec::resume_chunks_with(
        manifest,
        threads,
        threads,
        |start, seeds| {
            let ctxs: Vec<TrialCtx> = seeds
                .iter()
                .enumerate()
                .map(|(k, &s)| TrialCtx {
                    index: start + k,
                    seed: s,
                    experiment_seed: seed,
                })
                .collect();
            scenario.run_batch(config, &ctxs, opts.fault_plan)
        },
        persist,
    );
    assemble_run(
        scenario,
        config,
        seed,
        trials,
        None,
        manifest.clone().into_outputs(),
    )
}

/// A structured, JSON-able record of one driver run.
///
/// Deliberately excludes the worker count and everything else
/// schedule-dependent, so reports are byte-identical at any thread
/// count — the determinism contract the parity tests pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Resolved experiment seed.
    pub seed: u64,
    /// Resolved trial count.
    pub trials: usize,
    /// Total ground-truth interrupt deliveries across trials.
    pub ground_truth_deliveries: u64,
    /// The resolved config the run used, serialized.
    pub params: Value,
    /// The scenario's summary, serialized.
    pub summary: Value,
}

/// Errors of the type-erased driver entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// No registered scenario has the requested name.
    UnknownScenario(String),
    /// The params JSON did not deserialize into the scenario's config.
    Params(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownScenario(name) => {
                write!(f, "unknown scenario `{name}` (see `segscope list`)")
            }
            ScenarioError::Params(msg) => write!(f, "invalid scenario params: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The outcome of a type-erased run: the report plus the merged trace,
/// and the [`MergeReport`]-foldable accounting fragments a campaign
/// layer aggregates across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DynRun {
    /// The structured report.
    pub report: RunReport,
    /// The merged observability trace (`None` when tracing was off).
    pub sink: Option<obs::TraceSink>,
    /// Run-level additive totals (trials, ground-truth deliveries).
    pub totals: RunTotals,
    /// Fault-injection audit counters merged across all trials.
    pub fault_log: FaultLog,
}

/// Object-safe face of [`Scenario`], for registries and the CLI.
///
/// Blanket-implemented for every [`Scenario`]; do not implement it
/// directly.
pub trait DynScenario: Sync {
    /// Registry name.
    fn name(&self) -> &'static str;
    /// One-line description.
    fn describe(&self) -> &'static str;
    /// The scenario's default config, serialized (what `--params`
    /// overrides).
    fn default_params(&self) -> Value;
    /// Checks that `params` deserializes into the scenario's config
    /// type without running anything — the upfront validation a
    /// campaign performs over every grid cell before committing to a
    /// long sweep.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Params`] when `params` does not deserialize into
    /// the scenario's config type.
    fn check_params(&self, params: &Value) -> Result<(), ScenarioError>;
    /// Runs the scenario from serialized params (`None` = defaults).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Params`] when `params` does not deserialize into
    /// the scenario's config type.
    fn run_dyn(&self, params: Option<&Value>, opts: &RunOptions) -> Result<DynRun, ScenarioError>;
}

impl<S: Scenario> DynScenario for S {
    fn name(&self) -> &'static str {
        Scenario::name(self)
    }

    fn describe(&self) -> &'static str {
        Scenario::describe(self)
    }

    fn default_params(&self) -> Value {
        S::Config::default().to_value()
    }

    fn check_params(&self, params: &Value) -> Result<(), ScenarioError> {
        S::Config::from_value(params)
            .map(|_| ())
            .map_err(|e| ScenarioError::Params(e.to_string()))
    }

    fn run_dyn(&self, params: Option<&Value>, opts: &RunOptions) -> Result<DynRun, ScenarioError> {
        let config = match params {
            Some(value) => {
                S::Config::from_value(value).map_err(|e| ScenarioError::Params(e.to_string()))?
            }
            None => S::Config::default(),
        };
        let run = run_scenario(self, &config, opts);
        let report = RunReport {
            scenario: Scenario::name(self).to_owned(),
            seed: run.seed,
            trials: run.trials,
            ground_truth_deliveries: run.total_gt_deliveries(),
            params: config.to_value(),
            summary: run.summary.to_value(),
        };
        Ok(DynRun {
            report,
            sink: run.sink,
            totals: run.totals,
            fault_log: run.fault_log,
        })
    }
}

/// A static table of scenarios, addressable by name.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    entries: &'static [&'static dyn DynScenario],
}

impl Registry {
    /// Wraps a static scenario table.
    #[must_use]
    pub const fn new(entries: &'static [&'static dyn DynScenario]) -> Self {
        Registry { entries }
    }

    /// All registered scenarios, in registration order.
    #[must_use]
    pub fn entries(&self) -> &'static [&'static dyn DynScenario] {
        self.entries
    }

    /// Number of registered scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a scenario up by its registry name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&'static dyn DynScenario> {
        self.entries.iter().copied().find(|s| s.name() == name)
    }

    /// Like [`by_name`](Registry::by_name), as a `Result`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownScenario`] when no scenario has `name`.
    pub fn get(&self, name: &str) -> Result<&'static dyn DynScenario, ScenarioError> {
        self.by_name(name)
            .ok_or_else(|| ScenarioError::UnknownScenario(name.to_owned()))
    }
}

impl fmt::Debug for dyn DynScenario + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynScenario")
            .field("name", &self.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segsim::MachineConfig;

    /// A minimal scenario exercising the driver: each trial spins the
    /// machine briefly and reports its seed and interrupt count.
    struct Probe;

    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    struct ProbeConfig {
        spins: u64,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct ProbeSummary {
        seeds: Vec<u64>,
    }

    impl Scenario for Probe {
        type Config = ProbeConfig;
        type TrialOutput = u64;
        type Summary = ProbeSummary;

        fn name(&self) -> &'static str {
            "probe"
        }

        fn describe(&self) -> &'static str {
            "driver self-test scenario"
        }

        fn experiment_seed(&self, _config: &ProbeConfig, requested: Option<u64>) -> u64 {
            requested.unwrap_or(0x5CE0)
        }

        fn trial_count(&self, _config: &ProbeConfig, requested: Option<usize>) -> usize {
            requested.unwrap_or(3)
        }

        fn build_machine(&self, _config: &ProbeConfig, ctx: &TrialCtx) -> Machine {
            Machine::new(MachineConfig::xiaomi_air13(), ctx.seed)
        }

        fn run_trial(&self, config: &ProbeConfig, machine: &mut Machine, ctx: &TrialCtx) -> u64 {
            machine.spin(config.spins.max(1_000_000));
            ctx.seed
        }

        fn summarize(&self, _config: &ProbeConfig, outputs: &[u64]) -> ProbeSummary {
            ProbeSummary {
                seeds: outputs.to_vec(),
            }
        }
    }

    static TEST_REGISTRY: [&dyn DynScenario; 1] = [&Probe];

    #[test]
    fn driver_derives_trial_seeds() {
        let run = run_scenario(&Probe, &ProbeConfig::default(), &RunOptions::default());
        assert_eq!(run.trials, 3);
        for (i, &seed) in run.outputs.iter().enumerate() {
            assert_eq!(seed, exec::derive_seed(0x5CE0, i as u64));
        }
        assert_eq!(run.summary.seeds, run.outputs);
        assert!(run.sink.is_none(), "capacity 0 disables tracing");
        assert_eq!(run.gt_deliveries.len(), 3);
    }

    #[test]
    fn traced_and_untraced_runs_agree_and_are_thread_invariant() {
        let config = ProbeConfig { spins: 40_000_000 };
        let reference = run_scenario(&Probe, &config, &RunOptions::default());
        for threads in [1, 2, 4] {
            let opts = RunOptions {
                threads: Some(threads),
                capacity: 1 << 12,
                ..RunOptions::default()
            };
            let traced = run_scenario(&Probe, &config, &opts);
            assert_eq!(traced.outputs, reference.outputs);
            assert_eq!(traced.gt_deliveries, reference.gt_deliveries);
            let sink = traced.sink.expect("traced");
            assert!(!sink.is_empty());
        }
    }

    #[test]
    fn traced_sinks_are_bit_identical_across_thread_counts() {
        let config = ProbeConfig { spins: 40_000_000 };
        let run_at = |threads| {
            run_scenario(
                &Probe,
                &config,
                &RunOptions {
                    threads: Some(threads),
                    capacity: 1 << 12,
                    ..RunOptions::default()
                },
            )
        };
        let reference = run_at(1).sink.expect("traced");
        for threads in [2, 4] {
            assert_eq!(run_at(threads).sink.expect("traced"), reference);
        }
    }

    #[test]
    fn dyn_face_round_trips_params_and_builds_reports() {
        let registry = Registry::new(&TEST_REGISTRY);
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
        let scenario = registry.get("probe").expect("registered");
        assert_eq!(scenario.describe(), "driver self-test scenario");
        assert!(matches!(
            registry.get("nope"),
            Err(ScenarioError::UnknownScenario(_))
        ));
        let params = scenario.default_params();
        let run = scenario
            .run_dyn(Some(&params), &RunOptions::default())
            .expect("params valid");
        assert_eq!(run.report.scenario, "probe");
        assert_eq!(run.report.trials, 3);
        assert_eq!(run.report.seed, 0x5CE0);
        // The report round-trips through JSON.
        let text = serde_json::to_string(&run.report).expect("serializable");
        let back: RunReport = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, run.report);
        // Bad params surface as a typed error.
        let bad = Value::Map(vec![("spins".to_owned(), Value::Str("x".to_owned()))]);
        assert!(matches!(
            scenario.run_dyn(Some(&bad), &RunOptions::default()),
            Err(ScenarioError::Params(_))
        ));
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let registry = Registry::new(&TEST_REGISTRY);
        let scenario = registry.get("probe").expect("registered");
        let report_at = |threads| {
            let opts = RunOptions {
                threads: Some(threads),
                capacity: 1 << 12,
                ..RunOptions::default()
            };
            serde_json::to_string(&scenario.run_dyn(None, &opts).expect("runs").report)
                .expect("serializable")
        };
        let reference = report_at(1);
        for threads in [2, 4] {
            assert_eq!(report_at(threads), reference);
        }
    }

    /// A scenario whose `run_batch` recycles a lane through
    /// [`with_recycled_machine`], mirroring the kaslr/covert overrides.
    struct RecycledProbe;

    impl Scenario for RecycledProbe {
        type Config = ProbeConfig;
        type TrialOutput = u64;
        type Summary = ProbeSummary;

        fn name(&self) -> &'static str {
            "recycled_probe"
        }

        fn describe(&self) -> &'static str {
            "lane-recycling self-test scenario"
        }

        fn experiment_seed(&self, _config: &ProbeConfig, requested: Option<u64>) -> u64 {
            requested.unwrap_or(0x5CE0)
        }

        fn trial_count(&self, _config: &ProbeConfig, requested: Option<usize>) -> usize {
            requested.unwrap_or(12)
        }

        fn build_machine(&self, _config: &ProbeConfig, ctx: &TrialCtx) -> Machine {
            Machine::new(MachineConfig::xiaomi_air13(), ctx.seed)
        }

        fn run_trial(&self, config: &ProbeConfig, machine: &mut Machine, _ctx: &TrialCtx) -> u64 {
            machine.spin(config.spins.max(1_000_000));
            machine.kernel_entries()
        }

        fn run_batch(
            &self,
            config: &ProbeConfig,
            ctxs: &[TrialCtx],
            fault_override: Option<FaultPlan>,
        ) -> Vec<(u64, TrialStats)> {
            ctxs.iter()
                .map(|ctx| {
                    with_recycled_machine(MachineConfig::xiaomi_air13(), ctx.seed, |machine| {
                        if let Some(plan) = fault_override {
                            machine.set_fault_plan(Some(plan));
                        }
                        let output = self.run_trial(config, machine, ctx);
                        (output, TrialStats::of(machine))
                    })
                })
                .collect()
        }

        fn summarize(&self, _config: &ProbeConfig, outputs: &[u64]) -> ProbeSummary {
            ProbeSummary {
                seeds: outputs.to_vec(),
            }
        }
    }

    #[test]
    fn recycled_batch_override_matches_fresh_machines_at_any_geometry() {
        let config = ProbeConfig { spins: 30_000_000 };
        // Reference: fresh machine per trial (what the default
        // `run_batch` would do with RecycledProbe's trial body).
        let reference: Vec<u64> = (0..12)
            .map(|i| {
                let ctx = TrialCtx {
                    index: i,
                    seed: exec::derive_seed(0x5CE0, i as u64),
                    experiment_seed: 0x5CE0,
                };
                let mut machine = RecycledProbe.build_machine(&config, &ctx);
                RecycledProbe.run_trial(&config, &mut machine, &ctx)
            })
            .collect();
        for threads in [1, 2, 4] {
            let run = run_scenario(
                &RecycledProbe,
                &config,
                &RunOptions {
                    threads: Some(threads),
                    ..RunOptions::default()
                },
            );
            assert_eq!(run.outputs, reference, "threads {threads}");
            assert_eq!(run.totals.trials, 12);
            assert_eq!(run.total_gt_deliveries(), run.gt_deliveries.iter().sum());
        }
    }

    #[test]
    fn totals_fold_matches_per_trial_deliveries() {
        let run = run_scenario(&Probe, &ProbeConfig::default(), &RunOptions::default());
        assert_eq!(run.totals.trials as usize, run.trials);
        assert_eq!(
            run.totals.ground_truth_deliveries,
            run.gt_deliveries.iter().sum::<u64>()
        );
    }

    #[test]
    fn fault_plan_override_reaches_the_machine() {
        // The override must change the run (the machine audits faults),
        // while `None` must leave the config-level wiring untouched.
        let config = ProbeConfig { spins: 80_000_000 };
        let nominal = run_scenario(&Probe, &config, &RunOptions::default());
        let faulted = run_scenario(
            &Probe,
            &config,
            &RunOptions {
                fault_plan: Some(FaultPlan::delivery_storm()),
                ..RunOptions::default()
            },
        );
        // Seeds (the outputs) are schedule-independent either way.
        assert_eq!(faulted.outputs, nominal.outputs);
        assert_eq!(nominal.trials, faulted.trials);
    }

    #[test]
    fn checkpointed_run_matches_run_scenario() {
        let config = ProbeConfig { spins: 30_000_000 };
        let opts = RunOptions {
            trials: Some(12),
            threads: Some(2),
            ..RunOptions::default()
        };
        let reference = run_scenario(&RecycledProbe, &config, &opts);
        let mut manifest = checkpoint_manifest(&RecycledProbe, &config, &opts);
        let run = run_scenario_checkpointed(&RecycledProbe, &config, &opts, &mut manifest, |_| {});
        assert!(manifest.is_complete());
        assert_eq!(run, reference);
    }

    #[test]
    fn killed_checkpointed_run_resumes_to_the_identical_report() {
        let config = ProbeConfig { spins: 30_000_000 };
        let opts = RunOptions {
            trials: Some(12),
            threads: Some(2),
            ..RunOptions::default()
        };
        let reference = run_scenario(&RecycledProbe, &config, &opts);

        // First life: run until the first persist, then "die" holding
        // only what persist saw — exactly what a kill leaves on disk.
        let mut first = checkpoint_manifest(&RecycledProbe, &config, &opts);
        let mut saved: Option<String> = None;
        let salvaged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_scenario_checkpointed(&RecycledProbe, &config, &opts, &mut first, |m| {
                if saved.is_none() {
                    saved = Some(m.to_json());
                    panic!("killed");
                }
            })
        }));
        assert!(salvaged.is_err(), "the kill must interrupt the run");
        let saved = saved.expect("one wave persisted before the kill");

        // Second life: load the persisted manifest, validate it against
        // the run geometry, and resume.
        let mut revived: exec::ChunkManifest<(u64, TrialStats)> =
            exec::ChunkManifest::from_json(&saved).expect("parses");
        let fresh = checkpoint_manifest(&RecycledProbe, &config, &opts);
        assert!(revived.matches(fresh.experiment_seed(), fresh.trials(), fresh.chunk()));
        assert!(!revived.is_complete(), "the kill left work behind");
        let resumed =
            run_scenario_checkpointed(&RecycledProbe, &config, &opts, &mut revived, |_| {});
        assert_eq!(resumed, reference);
        assert_eq!(
            serde_json::to_string(&resumed.summary).expect("serializable"),
            serde_json::to_string(&reference.summary).expect("serializable"),
        );
    }

    /// A scenario that records the chunk partition its `run_batch` sees,
    /// so tests can observe the untraced driver's actual geometry.
    struct ChunkSpy {
        chunks: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    impl Scenario for ChunkSpy {
        type Config = ProbeConfig;
        type TrialOutput = u64;
        type Summary = ProbeSummary;

        fn name(&self) -> &'static str {
            "chunk_spy"
        }

        fn describe(&self) -> &'static str {
            "records the chunk partition the driver hands run_batch"
        }

        fn experiment_seed(&self, _config: &ProbeConfig, requested: Option<u64>) -> u64 {
            requested.unwrap_or(0x5CE0)
        }

        fn trial_count(&self, _config: &ProbeConfig, requested: Option<usize>) -> usize {
            requested.unwrap_or(3)
        }

        fn build_machine(&self, _config: &ProbeConfig, ctx: &TrialCtx) -> Machine {
            Machine::new(MachineConfig::xiaomi_air13(), ctx.seed)
        }

        fn run_trial(&self, _config: &ProbeConfig, _machine: &mut Machine, ctx: &TrialCtx) -> u64 {
            ctx.seed
        }

        fn run_batch(
            &self,
            config: &ProbeConfig,
            ctxs: &[TrialCtx],
            fault_override: Option<FaultPlan>,
        ) -> Vec<(u64, TrialStats)> {
            self.chunks
                .lock()
                .unwrap()
                .push((ctxs[0].index, ctxs.len()));
            ctxs.iter()
                .map(|ctx| {
                    let mut machine = self.build_machine(config, ctx);
                    if let Some(plan) = fault_override {
                        machine.set_fault_plan(Some(plan));
                    }
                    (
                        self.run_trial(config, &mut machine, ctx),
                        TrialStats::of(&machine),
                    )
                })
                .collect()
        }

        fn summarize(&self, _config: &ProbeConfig, outputs: &[u64]) -> ProbeSummary {
            ProbeSummary {
                seeds: outputs.to_vec(),
            }
        }
    }

    /// Satellite of the campaign PR: the chunk geometry is resolved in
    /// exactly one place ([`run_geometry`]), so the untraced driver, the
    /// fresh manifest, and the checkpointed driver can never drift.
    #[test]
    fn geometry_is_shared_by_driver_manifest_and_checkpointed_run() {
        let config = ProbeConfig::default();
        for (trials, threads) in [(3usize, 1usize), (12, 2), (37, 4), (1, 8)] {
            let opts = RunOptions {
                trials: Some(trials),
                threads: Some(threads),
                ..RunOptions::default()
            };
            let geometry = run_geometry(&ChunkSpy::default(), &config, &opts);
            assert_eq!(geometry.experiment_seed, 0x5CE0);
            assert_eq!(geometry.trials, trials);
            assert_eq!(geometry.threads, threads);
            assert_eq!(geometry.chunk, trial_chunk(trials, threads));

            // The fresh checkpoint manifest carries the same geometry.
            let spy = ChunkSpy::default();
            let manifest = checkpoint_manifest(&spy, &config, &opts);
            assert!(geometry.matches(&manifest));
            assert!(manifest.matches(geometry.experiment_seed, geometry.trials, geometry.chunk));

            // And the untraced driver partitions the trials into exactly
            // the chunks that geometry describes.
            let _ = run_scenario(&spy, &config, &opts);
            let mut seen = spy.chunks.lock().unwrap().clone();
            seen.sort_unstable();
            let expected: Vec<(usize, usize)> = (0..trials)
                .step_by(geometry.chunk)
                .map(|start| (start, geometry.chunk.min(trials - start)))
                .collect();
            assert_eq!(seen, expected, "trials {trials}, threads {threads}");
        }
    }

    impl Default for ChunkSpy {
        fn default() -> Self {
            ChunkSpy {
                chunks: std::sync::Mutex::new(Vec::new()),
            }
        }
    }

    #[test]
    fn fault_log_folds_across_trials() {
        // A delivery-storm override must surface in the merged run-level
        // fault log (the campaign layer folds these across cells).
        let config = ProbeConfig { spins: 80_000_000 };
        let nominal = run_scenario(&Probe, &config, &RunOptions::default());
        assert!(nominal.fault_log.is_clean());
        let faulted = run_scenario(
            &Probe,
            &config,
            &RunOptions {
                fault_plan: Some(FaultPlan::delivery_storm()),
                ..RunOptions::default()
            },
        );
        assert!(
            faulted.fault_log.delivery_faults() > 0,
            "a delivery storm over {} deliveries must log faults",
            faulted.total_gt_deliveries(),
        );
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn checkpointed_run_rejects_a_foreign_manifest() {
        let config = ProbeConfig { spins: 30_000_000 };
        let opts = RunOptions {
            trials: Some(12),
            threads: Some(2),
            ..RunOptions::default()
        };
        let mut manifest = exec::ChunkManifest::new(0xBAD, 99, 1);
        let _ = run_scenario_checkpointed(&RecycledProbe, &config, &opts, &mut manifest, |_| {});
    }
}
