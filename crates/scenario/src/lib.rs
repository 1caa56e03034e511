//! `scenario` — the one harness all eleven SegScope case studies run on.
//!
//! Every headline experiment of the reproduction used to hand-roll the
//! same four pieces of glue: pick a [`segsim::MachineConfig`], derive
//! per-trial seeds, install the optional [`segsim::FaultPlan`] and
//! [`obs::TraceSink`], and fan the trials out over worker threads. This
//! crate folds that glue into one generic driver behind the
//! [`Scenario`] trait:
//!
//! * [`Scenario::machine`] names the trial machine's boot parameters
//!   (config and seed);
//! * [`Scenario::wire`] applies the post-boot, config-level wiring
//!   (layout draws, fault plans, load and frequency settings);
//! * [`Scenario::check_config`] refuses out-of-range configs before
//!   anything runs;
//! * [`Scenario::run_trial`] runs the attack on that machine;
//! * [`Scenario::summarize`] reduces the ordered trial outputs into a
//!   JSON-able report.
//!
//! The driver [`run_scenario`] supplies everything between, in one chunk
//! body: seed derivation via [`exec::derive_seed`], a per-worker recycled
//! machine lane ([`with_recycled_machine`]), the fault-plan override,
//! the optional per-trial trace sink, and the deterministic fan-out
//! through [`exec::parallel_trial_chunks`]. Traced and untraced runs go
//! through the same body, so they produce the same outputs, and so does
//! [`Scenario::run_one`], the single-trial entry point. The
//! determinism contract is inherited wholesale:
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
/// Like the outputs, stats are a pure function of
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

/// The context of one trial, handed to every per-trial [`Scenario`]
/// method.
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
/// per-trial machine recipe ([`machine`](Scenario::machine) plus
/// [`wire`](Scenario::wire)), the trial body, and a summary reduction.
///
/// The recipe is limited to machine construction and config-level
/// wiring: the driver installs the run-level fault-plan override and the
/// trace sink *after* [`wire`](Scenario::wire), and warm-up spins belong
/// in [`run_trial`](Scenario::run_trial) so traces cover them.
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

    /// The trial machine's boot parameters: the `(config, seed)` pair
    /// `Machine::new` (or a recycled lane's reset) boots from. The seed
    /// is usually `ctx.seed`; scenarios that keep the trial seed for
    /// their own draws boot from an auxiliary stream of it instead.
    fn machine(&self, config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64);

    /// Config-level wiring applied to the freshly booted machine, before
    /// the run-level fault override and the trace sink. Calls run in a
    /// fixed order because some draw from the machine RNG. The default
    /// wires nothing.
    fn wire(&self, _config: &Self::Config, _machine: &mut Machine, _ctx: &TrialCtx) {}

    /// The trial's machine, built fresh: `Machine::new` from
    /// [`machine`](Scenario::machine), then [`wire`](Scenario::wire).
    /// The driver never calls this — it recycles one lane per worker —
    /// but the recycled lane must match it bit for bit, so it stays the
    /// fresh-machine oracle for parity tests and the machine of callers
    /// that drive the attack themselves.
    fn build_machine(&self, config: &Self::Config, ctx: &TrialCtx) -> Machine {
        let (machine_config, seed) = self.machine(config, ctx);
        let mut machine = Machine::new(machine_config, seed);
        self.wire(config, &mut machine, ctx);
        machine
    }

    /// Checks the config's value ranges before anything runs: the
    /// trial bodies assert them, so a config this refuses would panic
    /// mid-run. [`DynScenario::check_params`] and
    /// [`DynScenario::run_dyn`] call it after deserializing. The default
    /// accepts every config.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    fn check_config(&self, _config: &Self::Config) -> Result<(), String> {
        Ok(())
    }

    /// Runs one trial on the prepared machine.
    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> Self::TrialOutput;

    /// Reduces the ordered trial outputs into the report body.
    fn summarize(&self, config: &Self::Config, outputs: &[Self::TrialOutput]) -> Self::Summary;

    /// [`summarize`](Scenario::summarize) within a thread budget:
    /// [`run_scenario`] passes the run's [`RunGeometry::threads`], so a
    /// summary that fans out keeps to the run's `threads`. The budget
    /// must not change the summary. The default ignores it.
    fn summarize_with_threads(
        &self,
        config: &Self::Config,
        outputs: &[Self::TrialOutput],
        _threads: usize,
    ) -> Self::Summary {
        self.summarize(config, outputs)
    }

    /// Runs the single trial `TrialCtx { index: 0, seed,
    /// experiment_seed: seed }` on the driver's trial body, untraced and
    /// without a fault override: one attack at one seed, from the same
    /// machine recipe every run uses.
    fn run_one(&self, config: &Self::Config, seed: u64) -> Self::TrialOutput {
        let ctx = TrialCtx {
            index: 0,
            seed,
            experiment_seed: seed,
        };
        run_on_lane(self, config, &ctx, None, 0).0
    }

    /// Runs a *chunk* of consecutive trials untraced, returning one
    /// `(output, [`TrialStats`])` pair per trial, in order: the driver's
    /// chunk body, exposed for callers that fan chunks out themselves.
    ///
    /// Every trial runs on this worker thread's recycled machine lane
    /// ([`with_recycled_machine`] booted from
    /// [`machine`](Scenario::machine)), then [`wire`](Scenario::wire),
    /// the run-level fault override, and
    /// [`run_trial`](Scenario::run_trial). Trial `i`'s pair depends only
    /// on `(config, ctxs[i], fault_override)` — never on the chunk's
    /// size, position, or lane history — and equals
    /// [`build_machine`](Scenario::build_machine) plus `run_trial`.
    /// Do not override it: [`run_scenario`] runs the same body directly.
    fn run_batch(
        &self,
        config: &Self::Config,
        ctxs: &[TrialCtx],
        fault_override: Option<FaultPlan>,
    ) -> Vec<(Self::TrialOutput, TrialStats)> {
        ctxs.iter()
            .map(|ctx| {
                let (output, stats, _) = run_on_lane(self, config, ctx, fault_override, 0);
                (output, stats)
            })
            .collect()
    }
}

/// The one trial body: boots this worker's recycled lane from
/// [`Scenario::machine`], wires it, applies `fault_override`, and runs
/// the trial. With `capacity > 0` the trial is traced into its own sink:
/// `TrialStart`, the machine's ring of `capacity - 2` events at track 0,
/// then `TrialEnd` — so a machine-full ring cannot overflow the trial
/// sink. The sink is boxed: an unboxed `Option<TraceSink>` would widen
/// every untraced trial's result by a whole sink, which long runs feel
/// in peak memory.
fn run_on_lane<S: Scenario + ?Sized>(
    scenario: &S,
    config: &S::Config,
    ctx: &TrialCtx,
    fault_override: Option<FaultPlan>,
    capacity: usize,
) -> (S::TrialOutput, TrialStats, Option<Box<obs::TraceSink>>) {
    let (machine_config, seed) = scenario.machine(config, ctx);
    with_recycled_machine(machine_config, seed, |machine| {
        scenario.wire(config, machine, ctx);
        if let Some(plan) = fault_override {
            machine.set_fault_plan(Some(plan));
        }
        if capacity > 0 {
            machine.install_trace_sink(obs::TraceSink::with_capacity(
                capacity.saturating_sub(2).max(1),
            ));
        }
        let output = scenario.run_trial(config, machine, ctx);
        let sink = (capacity > 0).then(|| {
            let ring = machine.take_trace_sink().expect("sink installed above");
            let index = ctx.index as u64;
            let mut sink = obs::TraceSink::with_capacity(capacity);
            sink.emit(0, obs::EventKind::TrialStart { index });
            sink.absorb(&ring, 0);
            let end_ps = sink.events().last().map_or(0, |e| e.at_ps);
            sink.emit(end_ps, obs::EventKind::TrialEnd { index });
            Box::new(sink)
        });
        (output, TrialStats::of(machine), sink)
    })
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
/// [`run_scenario`] and [`Scenario::run_batch`] run every trial here.
///
/// # Panics
///
/// Panics when `f` calls back into this function on the same thread:
/// the lane is borrowed for the whole closure.
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

/// The largest trial count a run may ask for. Trial outputs and seeds
/// are held in memory until the run merges them, so a count must be one
/// a host can hold; the CLI's `--trials` and a campaign spec's `trials`
/// refuse anything above it.
pub const MAX_TRIALS: usize = 1_000_000;

/// Run-level options of the generic driver (the CLI's flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Experiment seed override (`None` = the scenario's default).
    pub seed: Option<u64>,
    /// Trial-count override (`None` = the scenario's default; ignored by
    /// structured scenarios; callers keep it at most [`MAX_TRIALS`]).
    pub trials: Option<usize>,
    /// Worker threads (`None` = `SEGSCOPE_THREADS`, else all cores).
    pub threads: Option<usize>,
    /// Per-trial trace-ring capacity in events; `0` disables tracing
    /// entirely (no sinks are installed).
    pub capacity: usize,
    /// Run-level fault-plan override, installed on every trial machine
    /// *after* [`Scenario::wire`]. `None` leaves whatever the config
    /// wired in place.
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
/// [`run_scenario`] resolves it through [`run_geometry`], and so can
/// callers that fan [`Scenario::run_batch`] chunks out themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunGeometry {
    /// The resolved experiment seed every trial seed derives from.
    pub experiment_seed: u64,
    /// The resolved trial count.
    pub trials: usize,
    /// Worker threads the run fans out over.
    pub threads: usize,
    /// Consecutive trials per unit of work (chunk). Outputs are
    /// chunk-size independent (see [`Scenario::run_batch`]); the value
    /// only trades scheduling overhead against load balance.
    pub chunk: usize,
}

/// Resolves the execution geometry [`run_scenario`] uses for
/// `(scenario, config, opts)`.
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

/// How many consecutive trials one worker claims per queue operation:
/// the batch a recycled lane amortizes machine construction over.
fn trial_chunk(trials: usize, threads: usize) -> usize {
    trials
        .div_ceil(threads.max(1).saturating_mul(2))
        .clamp(1, 32)
}

/// Runs `scenario` under `config` and `opts`: derives per-trial seeds,
/// runs every trial on a recycled machine lane with the run-level
/// fault-plan override and (when `opts.capacity > 0`) a private trace
/// sink, fans the chunks out, and reduces the ordered outputs into the
/// summary.
///
/// Bit-identical at any worker count. Per-trial sinks are merged in
/// trial order with the trial index as the track, so merged traces are
/// byte-identical too.
pub fn run_scenario<S: Scenario>(
    scenario: &S,
    config: &S::Config,
    opts: &RunOptions,
) -> ScenarioRun<S::TrialOutput, S::Summary> {
    let RunGeometry {
        experiment_seed: seed,
        trials,
        threads,
        chunk,
    } = run_geometry(scenario, config, opts);
    let ran = exec::parallel_trial_chunks(seed, trials, threads, chunk, |start, seeds| {
        seeds
            .iter()
            .enumerate()
            .map(|(k, &trial_seed)| {
                let ctx = TrialCtx {
                    index: start + k,
                    seed: trial_seed,
                    experiment_seed: seed,
                };
                run_on_lane(scenario, config, &ctx, opts.fault_plan, opts.capacity)
            })
            .collect()
    });
    let mut sink = (opts.capacity > 0)
        .then(|| obs::TraceSink::with_capacity(opts.capacity.saturating_mul(trials.max(1))));
    let mut outputs = Vec::with_capacity(ran.len());
    let mut gt_deliveries = Vec::with_capacity(ran.len());
    let mut totals = RunTotals::empty();
    let mut fault_log = FaultLog::empty();
    for (i, (output, stats, trial_sink)) in ran.into_iter().enumerate() {
        if let (Some(merged), Some(trial_sink)) = (sink.as_mut(), trial_sink) {
            merged.absorb(&trial_sink, i as u32);
        }
        outputs.push(output);
        gt_deliveries.push(stats.gt_deliveries);
        totals.merge(&RunTotals::from_trial(stats.gt_deliveries));
        fault_log.merge(&stats.fault_log);
    }
    let summary = scenario.summarize_with_threads(config, &outputs, threads);
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
    /// type and passes [`Scenario::check_config`], without running
    /// anything — the upfront validation a
    /// campaign performs over every grid cell before committing to a
    /// long sweep.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Params`] when `params` does not deserialize into
    /// the scenario's config type, a `fault_plan` anywhere in it fails
    /// [`FaultPlan::validate`], the config fails
    /// [`Scenario::check_config`], or the trial machine fails
    /// [`MachineConfig::validate`].
    fn check_params(&self, params: &Value) -> Result<(), ScenarioError>;
    /// Runs the scenario from serialized params (`None` = defaults).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Params`] as for
    /// [`check_params`](DynScenario::check_params).
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
        parse_config(self, params).map(|_| ())
    }

    fn run_dyn(&self, params: Option<&Value>, opts: &RunOptions) -> Result<DynRun, ScenarioError> {
        let config = match params {
            Some(value) => parse_config(self, value)?,
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

/// Deserializes a scenario config from params, first running
/// [`FaultPlan::validate`] on every non-null `fault_plan` anywhere in the
/// tree — a plan nested in params (a channel's, a `machine`'s) gets the
/// same check as a top-level `--fault-plan`, so an unfinishable plan is
/// refused before anything runs — then [`Scenario::check_config`] on the
/// result, then [`MachineConfig::validate`] on trial 0's machine: every
/// trial boots from the one recipe, [`Scenario::machine`], so a machine
/// that cannot boot is refused here instead of panicking or hanging in
/// the first trial.
fn parse_config<S: Scenario>(scenario: &S, params: &Value) -> Result<S::Config, ScenarioError> {
    check_fault_plans(params, &mut Vec::new())?;
    let config = S::Config::from_value(params).map_err(|e| ScenarioError::Params(e.to_string()))?;
    scenario
        .check_config(&config)
        .map_err(ScenarioError::Params)?;
    let seed = scenario.experiment_seed(&config, None);
    let ctx = TrialCtx {
        index: 0,
        seed: exec::derive_seed(seed, 0),
        experiment_seed: seed,
    };
    scenario
        .machine(&config, &ctx)
        .0
        .validate()
        .map_err(|e| ScenarioError::Params(format!("trial machine: {e}")))?;
    Ok(config)
}

/// Validates every non-null `fault_plan` under `value`. `path` holds the
/// keys leading to `value` and is joined only for the error message, so
/// the walk allocates nothing on valid params.
fn check_fault_plans<'a>(value: &'a Value, path: &mut Vec<&'a str>) -> Result<(), ScenarioError> {
    match value {
        Value::Map(fields) => {
            for (key, field) in fields {
                path.push(key);
                if key == "fault_plan" && !matches!(field, Value::Null) {
                    FaultPlan::from_value(field)
                        .map_err(|e| e.to_string())
                        .and_then(|plan| plan.validate())
                        .map_err(|e| ScenarioError::Params(format!("`{}`: {e}", path.join("."))))?;
                }
                check_fault_plans(field, path)?;
                path.pop();
            }
        }
        Value::Seq(items) => {
            for item in items {
                check_fault_plans(item, path)?;
            }
        }
        _ => {}
    }
    Ok(())
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
    use rand::Rng;

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

        fn machine(&self, _config: &ProbeConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
            (MachineConfig::xiaomi_air13(), ctx.seed)
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

    /// A scenario whose trial output depends on the machine state and
    /// whose wiring draws from the machine RNG, so any lane-recycling or
    /// wiring-order slip shows up in the outputs.
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

        fn machine(&self, _config: &ProbeConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
            (MachineConfig::xiaomi_air13(), ctx.seed)
        }

        fn wire(&self, _config: &ProbeConfig, machine: &mut Machine, _ctx: &TrialCtx) {
            let load = 0.25 + f64::from(machine.rng_mut().gen::<u8>()) / 512.0;
            machine.set_local_load(load);
        }

        fn run_trial(&self, config: &ProbeConfig, machine: &mut Machine, _ctx: &TrialCtx) -> u64 {
            machine.spin(config.spins.max(1_000_000));
            machine.kernel_entries() ^ machine.rng_mut().gen::<u64>()
        }

        fn summarize(&self, _config: &ProbeConfig, outputs: &[u64]) -> ProbeSummary {
            ProbeSummary {
                seeds: outputs.to_vec(),
            }
        }
    }

    #[test]
    fn recycled_lanes_match_fresh_machines_at_any_geometry() {
        let config = ProbeConfig { spins: 30_000_000 };
        // Reference: the fresh-machine oracle, one `build_machine` per
        // trial.
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
            for capacity in [0, 1 << 10] {
                let run = run_scenario(
                    &RecycledProbe,
                    &config,
                    &RunOptions {
                        threads: Some(threads),
                        capacity,
                        ..RunOptions::default()
                    },
                );
                assert_eq!(
                    run.outputs, reference,
                    "threads {threads} capacity {capacity}"
                );
                assert_eq!(run.totals.trials, 12);
                assert_eq!(run.total_gt_deliveries(), run.gt_deliveries.iter().sum());
            }
        }
    }

    #[test]
    fn run_one_is_the_driver_trial_at_that_seed() {
        let config = ProbeConfig { spins: 30_000_000 };
        let run = run_scenario(&RecycledProbe, &config, &RunOptions::default());
        for (i, output) in run.outputs.iter().enumerate() {
            let seed = exec::derive_seed(0x5CE0, i as u64);
            let ctx = TrialCtx {
                index: 0,
                seed,
                experiment_seed: seed,
            };
            let mut machine = RecycledProbe.build_machine(&config, &ctx);
            let fresh = RecycledProbe.run_trial(&config, &mut machine, &ctx);
            let one = RecycledProbe.run_one(&config, seed);
            assert_eq!(one, *output, "trial {i}");
            assert_eq!(one, fresh, "trial {i}");
        }
    }

    #[test]
    fn traced_trials_are_bracketed_and_merged_in_trial_order() {
        let config = ProbeConfig { spins: 40_000_000 };
        let run = run_scenario(
            &Probe,
            &config,
            &RunOptions {
                threads: Some(2),
                capacity: 64,
                ..RunOptions::default()
            },
        );
        let events = run.sink.expect("traced").events();
        // Tracks ascend (trial order); each trial opens with TrialStart
        // at t = 0 and closes with TrialEnd at its last event's time.
        let tracks: Vec<u32> = events.iter().map(|e| e.track).collect();
        let mut sorted = tracks.clone();
        sorted.sort_unstable();
        assert_eq!(tracks, sorted);
        for trial in 0..run.trials as u32 {
            let own: Vec<_> = events.iter().filter(|e| e.track == trial).collect();
            let index = u64::from(trial);
            assert_eq!(own[0].kind, obs::EventKind::TrialStart { index });
            assert_eq!(own[0].at_ps, 0);
            let last = own.last().expect("bracketed");
            assert_eq!(last.kind, obs::EventKind::TrialEnd { index });
            assert_eq!(last.at_ps, own[own.len() - 2].at_ps);
            assert!(own.len() <= 64, "ring of capacity - 2 plus two brackets");
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
    fn geometry_resolves_seed_trials_threads_and_chunk() {
        let config = ProbeConfig::default();
        for (trials, threads) in [(3usize, 1usize), (12, 2), (37, 4), (1, 8)] {
            let opts = RunOptions {
                trials: Some(trials),
                threads: Some(threads),
                ..RunOptions::default()
            };
            let geometry = run_geometry(&Probe, &config, &opts);
            assert_eq!(geometry.experiment_seed, 0x5CE0);
            assert_eq!(geometry.trials, trials);
            assert_eq!(geometry.threads, threads);
            assert_eq!(geometry.chunk, trial_chunk(trials, threads));
            assert!((1..=32).contains(&geometry.chunk));
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
}
