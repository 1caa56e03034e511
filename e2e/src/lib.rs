//! End-to-end benchmark of the segscope workspace.
//!
//! Four workloads, each driven through the entry point its users call:
//!
//! * `paper-grid` — the 198-cell paper sweep through `segscope campaign run`;
//! * `many-cells` — 720 cheap cells through the same command;
//! * `sim-trials` — seven simulator-only scenarios through
//!   [`scenario::DynScenario::run_dyn`], what `segscope run` calls;
//! * `serve-stream` — open-loop session arrivals into a
//!   [`serve::SessionBatch`].
//!
//! An untraced run reports the end-to-end metrics. A traced run drives
//! the same work through public functions with host-time spans around
//! each call ([`trace`]) and reports the per-layer metrics. Every run
//! checks its outputs: repeated units must agree, traced output must
//! equal untraced output, and at [`DEFAULT_SEED`] each workload's digest
//! must equal the pinned one.

pub mod campaigns;
pub mod compare;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod trials;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads of every workload's load, whatever the host has.
pub const THREADS: usize = 2;

/// The seed the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Least time spent on set-up before each timed unit of an untraced
/// run. Set-up is repeated until this much has been spent, and
/// `setup_s` is the median of every repeat in the run: repeats spread
/// over the whole run, so one burst of host contention moves it little.
pub(crate) const SETUP_MIN_SECONDS: f64 = 0.05;

/// Runs `set_up` once, then again until [`SETUP_MIN_SECONDS`] have been
/// spent on it; appends each repeat's seconds to `times` and returns
/// the last repeat's result.
///
/// # Errors
///
/// The first error `set_up` returns.
pub(crate) fn repeat_set_up<T>(
    times: &mut Vec<f64>,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    loop {
        let repeat = Instant::now();
        let out = set_up()?;
        times.push(repeat.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS {
            return Ok(out);
        }
    }
}

/// The eleven registered scenarios, in registry order.
pub(crate) const ALL_SCENARIOS: [&str; 11] = [
    "website",
    "circl",
    "dnnsteal",
    "spectral",
    "kaslr",
    "spectre",
    "keystroke",
    "covert",
    "procfp",
    "aexcount",
    "heckler",
];

/// The scenarios whose `summarize` trains a neural network.
pub(crate) const NNET_SCENARIOS: [&str; 3] = ["website", "dnnsteal", "keystroke"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full paper grid as a closed-loop campaign batch job.
    PaperGrid,
    /// Many cheap campaign cells, where per-cell fixed costs dominate.
    ManyCells,
    /// Simulator-only scenario runs with no classifier.
    SimTrials,
    /// Open-loop streaming classification.
    ServeStream,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::ManyCells,
        Workload::SimTrials,
        Workload::ServeStream,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::ManyCells => "many-cells",
            Workload::SimTrials => "sim-trials",
            Workload::ServeStream => "serve-stream",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// FNV-1a of the workload's output at [`DEFAULT_SEED`] and full
    /// scale: the campaign `report.json`, the seven run reports, or the
    /// sequential verdicts of the held-out serving traces. A change that
    /// alters any of them re-pins these in a benchmark-only change.
    #[must_use]
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::PaperGrid => 0xfcdc_8fc9_4a92_5316,
            Workload::ManyCells => 0x7594_ef73_05a8_05aa,
            Workload::SimTrials => 0xc2a9_5a3f_2732_e49d,
            Workload::ServeStream => 0x52d2_f166_8c9a_b7e2,
        }
    }
}

/// Workload size: the benchmark's, or the smoke test's tiny one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// A few cells, trials and sessions, for the smoke test.
    Smoke,
}

/// Everything one workload run needs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement time box, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
    /// Scratch directory for campaign outputs and the trace file.
    pub work_dir: PathBuf,
    /// The `segscope` CLI binary.
    pub cli: PathBuf,
}

/// What a workload run measured before the metrics are completed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// Units of work attempted: cells, trials or sessions.
    pub attempted: u64,
    /// Attempted units whose output check failed.
    pub failed: u64,
    /// Digest of the workload's output (see [`Workload::pinned_digest`]).
    pub digest: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A finished workload run: the benchmark's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Units of work attempted.
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// The output digest.
    pub digest: u64,
    /// Every end-to-end (untraced) or per-layer (traced) metric.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result the benchmark prints last.
    #[must_use]
    pub fn to_json(&self) -> String {
        use serde::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Map(vec![
                    ("value".to_owned(), Value::Float(m.value)),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::Int(self.attempted.into())),
            ("failed".to_owned(), Value::Int(self.failed.into())),
            ("metrics".to_owned(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("finite metrics serialize")
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub(crate) const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// the workload does not execute reads 0.
#[must_use]
pub(crate) fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| out.push((name, unit));
    add("trace.overhead_share".into(), "share");
    add("trace.coverage_share".into(), "share");
    add("campaign.persist_share".into(), "share");
    add("campaign.persist_mb".into(), "MiB");
    add("campaign.report_ms".into(), "ms");
    add("campaign.wave_idle_share".into(), "share");
    add("campaign.cell_ms.p50".into(), "ms");
    add("campaign.cell_ms.p98".into(), "ms");
    for s in ALL_SCENARIOS {
        add(format!("campaign.cell_ms.{s}"), "ms");
    }
    for s in ALL_SCENARIOS {
        add(format!("attacks.{s}.summarize_share"), "share");
    }
    for s in NNET_SCENARIOS {
        add(format!("nnet.summarize_ms.{s}"), "ms");
    }
    add("segsim.boot_us".into(), "us");
    add("segsim.reset_us".into(), "us");
    for s in trials::SIM_SCENARIOS {
        add(format!("attacks.{s}.trial_us"), "us");
        add(format!("attacks.{s}.trials_per_s"), "1/s");
    }
    add("irq.deliveries".into(), "count");
    add("irq.deliveries_per_ms".into(), "1/ms");
    add("exec.busy_share".into(), "share");
    add("scenario.chunk_ms.p50".into(), "ms");
    add("serve.step_us.p50".into(), "us");
    add("serve.step_us.p99".into(), "us");
    add("serve.lane_occupancy".into(), "share");
    add("serve.queue_ms.p99".into(), "ms");
    add("serve.gen_late_ms.p99".into(), "ms");
    add("serve.collect_s".into(), "s");
    add("nnet.train_s".into(), "s");
    add("serve.closed_loop_sps".into(), "1/s");
    add("serve.unloaded_p99_ms".into(), "ms");
    add("serve.max_rate_sps".into(), "1/s");
    for stat in ["p50", "p99"] {
        for rate in serving::RATE_NAMES {
            add(format!("serve.verdict_{stat}_ms.{rate}"), "ms");
        }
    }
    out
}

/// Runs one workload and completes its metrics: the pinned-digest check
/// at [`DEFAULT_SEED`], then every metric of the run's kind in order,
/// 0 for per-layer metrics the workload has no layer for.
///
/// # Errors
///
/// A description of the first step that could not run (a missing
/// binary, an I/O error, a failed child process).
pub fn run_workload(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    std::fs::create_dir_all(&settings.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", settings.work_dir.display()))?;
    let mut measured = match workload {
        Workload::PaperGrid | Workload::ManyCells => campaigns::run(workload, settings)?,
        Workload::SimTrials => trials::run(settings)?,
        Workload::ServeStream => serving::run(settings)?,
    };
    if settings.seed == DEFAULT_SEED
        && settings.scale == Scale::Full
        && measured.digest != workload.pinned_digest()
    {
        eprintln!(
            "{}: output digest {:#018x} differs from the pinned {:#018x}",
            workload.name(),
            measured.digest,
            workload.pinned_digest()
        );
        measured.failed = measured.attempted;
    }
    let names: Vec<(String, &'static str)> = if settings.trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    for name in measured.metrics.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "{} measured an undeclared metric `{name}`",
            workload.name()
        );
    }
    let metrics = names
        .into_iter()
        .map(|(name, unit)| Metric {
            value: measured.metrics.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect();
    Ok(Outcome {
        attempted: measured.attempted.max(1),
        failed: measured.failed,
        digest: measured.digest,
        metrics,
    })
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB; `None` once
/// the process has exited.
#[must_use]
pub(crate) fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, MiB.
#[must_use]
pub(crate) fn own_peak_rss_mb() -> f64 {
    vm_hwm_kib(std::process::id()).unwrap_or(0) as f64 / 1024.0
}
