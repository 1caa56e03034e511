//! `segscope` — the single CLI driver of the eleven attack scenarios.
//!
//! ```text
//! segscope list [--names]
//! segscope describe <name>
//! segscope run <name> [--seed N] [--trials N] [--threads N]
//!                     [--params JSON] [--machine PRESET]
//!                     [--defense NAME] [--fault-plan JSON]
//!                     [--capacity N]
//!                     [--trace-out PATH] [--report PATH]
//! segscope snapshot [SPEC FLAGS] [--every K] --out PATH
//! segscope replay --in PATH [--from EVENT]
//! segscope bisect [SHARED SPEC FLAGS] [per-side -a/-b flags] [--every K]
//! segscope campaign spec|run|status|resume|report ...
//! segscope serve-bench [--sessions N] [--capacity N] [--quant i8|i16]
//! ```
//!
//! Every run goes through the same generic deterministic driver
//! ([`scenario::run_scenario`]) that library and bench callers use:
//! reports and merged traces are bit-identical at any `--threads` value.
//! The `snapshot`/`replay`/`bisect` trio drives the record-and-replay layer
//! ([`segscope_repro::replay`]) over single-machine runs, and
//! `campaign` drives the fleet-scale sweep engine
//! ([`segscope_repro::campaign`]): sharded, resumable parameter-grid
//! sweeps whose merged reports are bit-identical at any shard count,
//! thread count, and kill/resume schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use campaign::{CampaignManifest, CampaignOptions, CampaignReport, CampaignSpec};
use scenario::{RunOptions, ScenarioError};
use segscope_repro::replay::{self, InjectedIrq, RunSpec};
use segscope_repro::{attacks, campaign, irq, obs, scenario, segsim};
use serde::{Serialize, Value};
use std::process::ExitCode;

const USAGE: &str = "segscope — deterministic SegScope scenario driver

USAGE:
    segscope list [--names]
    segscope describe <name>
    segscope run <name> [OPTIONS]
    segscope snapshot [SPEC FLAGS] [--every K] --out PATH
    segscope replay --in PATH [--from EVENT]
    segscope bisect [SPEC FLAGS] [PER-SIDE FLAGS] [--every K]
    segscope campaign spec [--seed N] [--out PATH] [--defense-matrix]
    segscope campaign run --out DIR [--spec PATH] [CAMPAIGN OPTIONS]
    segscope campaign status --out DIR
    segscope campaign resume --out DIR [CAMPAIGN OPTIONS]
    segscope campaign report --out DIR
    segscope serve-bench [--sessions N] [--capacity N] [--quant i8|i16]
                         [--out PATH]

`serve-bench` collects fixed-seed website traces, serves them through
the streaming engine (the serve crate) sequentially and batched,
verifies the batched/sequential verdict identity, and prints a fully
deterministic JSON report (verdict FNV, quantized agreement — no
timing), suitable for golden comparison in CI.

`campaign spec --defense-matrix` emits the enclave attack x defense
matrix instead of the full grid: {aexcount, heckler, keystroke} x
{none, quanshield, padding} on the xiaomi_air13 preset.

CAMPAIGN OPTIONS (run, resume):
    --spec PATH        Campaign spec JSON (default for run: the full
                       11-scenario x 6-preset x 3-fault grid)
    --seed N           Override the spec's campaign seed (run only)
    --trials N         Override the spec's per-cell trial count (run only)
    --shards N         Cells run concurrently: one worker each (default 1)
    --threads N        Worker threads within each cell's run, summarize
                       included
    --stop-after-waves N  Run at most N x shards cells, checkpoint and
                       exit (resume later)

A campaign directory holds spec.json (the resolved grid), manifest.json
(the compacted per-cell progress), cells.log (every cell finished
since, one JSON line each, appended and synced in batches while the
other cells run), and report.json (the merged result, written on
completion). Completion and resume fold cells.log into manifest.json
and remove it. Every other write goes through a temporary file renamed
into place, so a kill never truncates a file; a kill mid-append leaves
a torn last line in cells.log, which resume drops and reruns. Reports
are bit-identical at any --shards/--threads value and across any
kill/resume schedule.

RUN OPTIONS:
    --seed N           Experiment seed override (default: the scenario's)
    --trials N         Trial-count override (structured scenarios ignore it)
    --threads N        Worker threads (default: SEGSCOPE_THREADS, else all cores)
    --params JSON      Full scenario config as JSON (default: the scenario's)
    --machine PRESET   Replace the config's `machine` field with a Table I
                       preset (only scenarios with a `machine` field react)
    --defense NAME     Arm a countermeasure on the config's machine
                       (none, quanshield, padding; applied after --machine)
    --fault-plan JSON  Run-level interrupt fault-plan override
    --capacity N       Per-trial trace-ring capacity in events
                       (default: 0 = untraced; 32768 when --trace-out is given)
    --trace-out PATH   Write the merged trace as Chrome trace_event JSON
    --report PATH      Also write the report JSON to PATH

SPEC FLAGS (snapshot, and the shared base of bisect):
    --machine PRESET   Table I preset to run (default: xiaomi_air13)
    --seed N           Machine seed
    --spans N          Marker/run-until-interrupt spans to execute
    --fault-plan JSON  Fault plan installed before the run
    --inject US:KIND   Inject a one-shot interrupt at US microseconds
                       (kind: timer resched perfmon network gpu keyboard
                       thermal callfunction other; repeatable)

BISECT PER-SIDE FLAGS: --seed-a/--seed-b N,
    --fault-plan-a/--fault-plan-b JSON, --inject-a/--inject-b US:KIND
    (each overrides the shared spec on that side only)

The run report JSON is always printed to stdout. Machine presets:
    xiaomi_air13 lenovo_yangtian lenovo_savior honor_magicbook
    amazon_t2_large amazon_c5_large";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("describe") => cmd_describe(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("bisect") => cmd_bisect(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("serve-bench") => cmd_serve_bench(&args[1..]),
        Some("--help" | "-h" | "help") | None => say(USAGE),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    let names_only = match args {
        [] => false,
        [flag] if flag == "--names" => true,
        _ => return Err(format!("usage: segscope list [--names]\n\n{USAGE}")),
    };
    let registry = attacks::registry();
    let width = registry
        .entries()
        .iter()
        .map(|s| s.name().len())
        .max()
        .unwrap_or(0);
    for entry in registry.entries() {
        if names_only {
            say(entry.name())?;
        } else {
            say(format_args!(
                "{:width$}  {}",
                entry.name(),
                entry.describe()
            ))?;
        }
    }
    Ok(())
}

/// Levenshtein distance between two ASCII-ish names (chars, two-row DP).
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut next = vec![0usize; b.len() + 1];
    for (i, ca) in a.chars().enumerate() {
        next[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            next[j + 1] = sub.min(prev[j + 1] + 1).min(next[j] + 1);
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev[b.len()]
}

/// A ` — did you mean \`x\`?` suffix when some candidate is close to
/// `name` (within an edit distance scaled to the name's length), else
/// an empty string.
fn did_you_mean<'a, I>(name: &str, candidates: I) -> String
where
    I: IntoIterator<Item = &'a str>,
{
    let budget = (name.chars().count() / 3).max(2);
    candidates
        .into_iter()
        .map(|c| (edit_distance(name, c), c))
        .filter(|&(d, _)| d <= budget)
        .min()
        .map(|(_, best)| format!(" — did you mean `{best}`?"))
        .unwrap_or_default()
}

/// Looks a scenario up, decorating the unknown-name error with a
/// did-you-mean suggestion over the registry.
fn lookup_scenario(name: &str) -> Result<&'static dyn scenario::DynScenario, String> {
    let registry = attacks::registry();
    registry.get(name).map_err(|e| {
        let names = registry.entries().iter().map(|s| s.name());
        format!("{e}{}", did_you_mean(name, names))
    })
}

/// Resolves a `--defense` / campaign-axis name, with a did-you-mean
/// suggestion on miss.
fn resolve_defense(name: &str) -> Result<segsim::Defense, String> {
    segsim::Defense::by_name(name).ok_or_else(|| {
        format!(
            "unknown defense `{name}` (choose from: {}){}",
            segsim::Defense::NAMES.join(", "),
            did_you_mean(name, segsim::Defense::NAMES),
        )
    })
}

/// Whether a params value has a top-level `machine` map — the field
/// countermeasures ([`segsim::Defense`]) are carried in.
fn has_machine_field(params: &Value) -> bool {
    matches!(params, Value::Map(entries) if entries.iter().any(|(k, _)| k == "machine"))
}

/// Whether a params value has a top-level `streaming` flag — the field
/// streaming-eval-capable scenarios carry (mirrors the
/// defense-applicability probe above).
fn has_streaming_field(params: &Value) -> bool {
    matches!(params, Value::Map(entries) if entries.iter().any(|(k, _)| k == "streaming"))
}

fn cmd_describe(args: &[String]) -> Result<(), String> {
    let [name] = args else {
        return Err(format!("usage: segscope describe <name>\n\n{USAGE}"));
    };
    let entry = lookup_scenario(name)?;
    say(format_args!("{}: {}", entry.name(), entry.describe()))?;
    let params = entry.default_params();
    if has_machine_field(&params) {
        say(format_args!(
            "defenses: {} (armed via --defense or the config's machine.defense)",
            segsim::Defense::NAMES.join(", ")
        ))?;
    } else {
        say("defenses: not applicable (config has no `machine` field)")?;
    }
    if has_streaming_field(&params) {
        say(
            "streaming eval: supported (set the config's `streaming` flag; \
             verdicts land in the trace as serve_verdict events)",
        )?;
    } else {
        say("streaming eval: not applicable (config has no `streaming` field)")?;
    }
    say(format_args!(
        "default params: {}",
        serde_json::to_string(&params).map_err(|e| e.to_string())?
    ))?;
    Ok(())
}

/// Parsed `segscope run` flags.
struct RunArgs {
    name: String,
    params: Option<Value>,
    machine: Option<String>,
    defense: Option<String>,
    opts: RunOptions,
    capacity_set: bool,
    trace_out: Option<String>,
    report_out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let Some((name, rest)) = args.split_first() else {
        return Err(format!("usage: segscope run <name> [OPTIONS]\n\n{USAGE}"));
    };
    let mut parsed = RunArgs {
        name: name.clone(),
        params: None,
        machine: None,
        defense: None,
        opts: RunOptions::default(),
        capacity_set: false,
        trace_out: None,
        report_out: None,
    };
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => parsed.opts.seed = Some(flags.u64()?),
            "--trials" => parsed.opts.trials = Some(flags.nonzero()?),
            "--threads" => parsed.opts.threads = Some(flags.nonzero()?),
            "--capacity" => {
                parsed.opts.capacity = flags.u64()? as usize;
                parsed.capacity_set = true;
            }
            "--params" => {
                let text = flags.value()?;
                let json: Value = serde_json::from_str(&text)
                    .map_err(|e| format!("`--params` is not valid JSON: {e}"))?;
                parsed.params = Some(json);
            }
            "--machine" => parsed.machine = Some(flags.value()?),
            "--defense" => parsed.defense = Some(flags.value()?),
            "--fault-plan" => {
                parsed.opts.fault_plan = Some(parse_fault_plan(&flags.value()?, flag)?)
            }
            "--trace-out" => parsed.trace_out = Some(flags.value()?),
            "--report" => parsed.report_out = Some(flags.value()?),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// A cursor over `--flag value` arguments: yields each flag, and reads
/// the current flag's value as text, an integer, or a nonzero count.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("`{}` needs a value", self.flag))
    }

    /// The current flag's value as an unsigned integer.
    fn u64(&mut self) -> Result<u64, String> {
        parse_u64(&self.value()?, self.flag)
    }

    /// The current flag's value as a count of at least 1.
    fn nonzero(&mut self) -> Result<usize, String> {
        match self.u64()? as usize {
            0 => Err(format!("`{}` must be at least 1", self.flag)),
            n => Ok(n),
        }
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }
}

fn parse_u64(text: &str, flag: &str) -> Result<u64, String> {
    let digits = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"));
    match digits {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|_| format!("`{flag}` needs an unsigned integer, got `{text}`"))
}

/// [`campaign::inject_machine`] with the CLI's diagnostic: a warning
/// when `params` had no `machine` key (scenarios whose config has no
/// `machine` field ignore unknown keys, so the preset has no effect).
fn inject_machine(params: &mut Value, preset: &str) -> Result<(), String> {
    let had_machine = has_machine_field(params);
    campaign::inject_machine(params, preset).map_err(|e| match e {
        campaign::CampaignError::Parse(msg) => msg,
        other => other.to_string(),
    })?;
    if !had_machine {
        eprintln!(
            "warning: scenario config has no `machine` field; `--machine {preset}` has no effect"
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut parsed = parse_run_args(args)?;
    let entry = lookup_scenario(&parsed.name)?;
    if let Some(preset) = &parsed.machine {
        let mut params = match parsed.params.take() {
            Some(params) => params,
            None => entry.default_params(),
        };
        inject_machine(&mut params, preset)?;
        parsed.params = Some(params);
    }
    // Defense after machine, so the countermeasure lands inside whatever
    // machine the run actually uses.
    if let Some(name) = &parsed.defense {
        let defense = resolve_defense(name)?;
        let mut params = match parsed.params.take() {
            Some(params) => params,
            None => entry.default_params(),
        };
        if !has_machine_field(&params) {
            eprintln!(
                "warning: scenario config has no `machine` field; `--defense {name}` has no effect"
            );
        }
        campaign::inject_defense(&mut params, &defense);
        parsed.params = Some(params);
    }
    if parsed.trace_out.is_some() && !parsed.capacity_set {
        parsed.opts.capacity = 1 << 15;
    }
    if parsed.trace_out.is_none() && parsed.opts.capacity > 0 {
        eprintln!("warning: tracing enabled (--capacity) but no --trace-out; trace is discarded");
    }
    let run = entry
        .run_dyn(parsed.params.as_ref(), &parsed.opts)
        .map_err(|e| match e {
            ScenarioError::Params(msg) => format!(
                "invalid params for `{}`: {msg}\n(see `segscope describe {}`)",
                parsed.name, parsed.name
            ),
            other => other.to_string(),
        })?;
    let report_json = serde_json::to_string(&run.report).map_err(|e| e.to_string())?;
    say(&report_json)?;
    if let Some(path) = &parsed.report_out {
        write_file(path, format!("{report_json}\n"))?;
    }
    if let Some(path) = &parsed.trace_out {
        let sink = run
            .sink
            .as_ref()
            .ok_or_else(|| "no trace collected (is --capacity 0?)".to_owned())?;
        write_file(path, obs::export::chrome_trace(sink))?;
    }
    Ok(())
}

/// Parses a `US:KIND` one-shot injection argument (microseconds plus an
/// interrupt-kind name).
fn parse_inject(text: &str, flag: &str) -> Result<InjectedIrq, String> {
    let (us, kind) = text
        .split_once(':')
        .ok_or_else(|| format!("`{flag}` needs US:KIND, got `{text}`"))?;
    let at = parse_u64(us, flag)?
        .checked_mul(1_000_000)
        .map(irq::Ps::from_ps)
        .ok_or_else(|| {
            format!("`{flag}`: {us} microseconds is past the simulator's clock range")
        })?;
    let kind = match kind.to_ascii_lowercase().as_str() {
        "timer" => irq::InterruptKind::Timer,
        "resched" => irq::InterruptKind::Resched,
        "perfmon" => irq::InterruptKind::PerfMon,
        "network" => irq::InterruptKind::Network,
        "gpu" => irq::InterruptKind::Gpu,
        "keyboard" => irq::InterruptKind::Keyboard,
        "thermal" => irq::InterruptKind::Thermal,
        "callfunction" => irq::InterruptKind::CallFunction,
        "other" => irq::InterruptKind::Other,
        unknown => return Err(format!("`{flag}`: unknown interrupt kind `{unknown}`")),
    };
    Ok(InjectedIrq { at, kind })
}

fn parse_fault_plan(text: &str, flag: &str) -> Result<segsim::FaultPlan, String> {
    serde_json::from_str(text)
        .map_err(|e| e.to_string())
        .and_then(|plan: segsim::FaultPlan| plan.validate().map(|()| plan))
        .map_err(|e| format!("`{flag}` is not a valid fault plan: {e}"))
}

/// Applies one shared spec flag to `spec`; `Ok(false)` means the flag is
/// not a spec flag and belongs to the caller.
fn apply_spec_flag(spec: &mut RunSpec, flag: &str, flags: &mut Flags) -> Result<bool, String> {
    match flag {
        "--machine" => spec.machine = flags.value()?,
        "--seed" => spec.seed = flags.u64()?,
        "--spans" => spec.spans = flags.nonzero()?,
        "--fault-plan" => spec.fault_plan = Some(parse_fault_plan(&flags.value()?, flag)?),
        "--inject" => spec.inject.push(parse_inject(&flags.value()?, flag)?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    let mut spec = RunSpec::default();
    let mut every = 8usize;
    let mut out = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        if apply_spec_flag(&mut spec, flag, &mut flags)? {
            continue;
        }
        match flag {
            "--every" => every = flags.nonzero()?,
            "--out" => out = Some(flags.value()?),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    let out = out.ok_or_else(|| "`segscope snapshot` needs --out PATH".to_owned())?;
    let recording = replay::record(&spec, every)?;
    let json = serde_json::to_string(&recording).map_err(|e| e.to_string())?;
    write_file(&out, json + "\n")?;
    say(format_args!(
        "recorded {} events over {} spans ({} snapshot rungs, digest {:#018x}) -> {out}",
        recording.events.len(),
        recording.spec.spans,
        recording.snapshots.len(),
        recording.final_digest,
    ))?;
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut input = None;
    let mut from = 0usize;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--in" => input = Some(flags.value()?),
            "--from" => from = flags.u64()? as usize,
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    let input = input.ok_or_else(|| "`segscope replay` needs --in PATH".to_owned())?;
    let text = std::fs::read_to_string(&input)
        .map_err(|e| format!("cannot read recording `{input}`: {e}"))?;
    let recording: replay::Recording = serde_json::from_str(&text)
        .map_err(|e| format!("`{input}` is not a valid recording: {e}"))?;
    if from > recording.events.len() {
        return Err(format!(
            "`--from` {from} is past the recording's {} events",
            recording.events.len()
        ));
    }
    let slice = replay::replay_from(&recording, from)?;
    if slice.matches(&recording) {
        say(format_args!(
            "replayed {} events from span {} (event {}): bit-identical to the recording",
            slice.events.len(),
            slice.from_span,
            slice.from_event,
        ))?;
        Ok(())
    } else {
        let index = slice.from_event
            + replay::first_divergence(&recording.events[slice.from_event..], &slice.events)
                .expect("mismatch implies a first divergence");
        Err(format!(
            "replay diverged from the recording at event {index} — \
             the recording no longer matches this build's simulator"
        ))
    }
}

fn cmd_bisect(args: &[String]) -> Result<(), String> {
    let mut base = RunSpec::default();
    let mut every = 8usize;
    // Per-side overrides are applied after the shared flags, so order on
    // the command line does not matter.
    let mut seed = [None, None];
    let mut fault = [None, None];
    let mut inject: [Vec<InjectedIrq>; 2] = [Vec::new(), Vec::new()];
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        if apply_spec_flag(&mut base, flag, &mut flags)? {
            continue;
        }
        match flag {
            "--every" => every = flags.nonzero()?,
            "--seed-a" => seed[0] = Some(flags.u64()?),
            "--seed-b" => seed[1] = Some(flags.u64()?),
            "--fault-plan-a" => fault[0] = Some(parse_fault_plan(&flags.value()?, flag)?),
            "--fault-plan-b" => fault[1] = Some(parse_fault_plan(&flags.value()?, flag)?),
            "--inject-a" => inject[0].push(parse_inject(&flags.value()?, flag)?),
            "--inject-b" => inject[1].push(parse_inject(&flags.value()?, flag)?),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    let side = |i: usize| {
        let mut spec = base.clone();
        if let Some(s) = seed[i] {
            spec.seed = s;
        }
        if let Some(p) = fault[i] {
            spec.fault_plan = Some(p);
        }
        spec.inject.extend(inject[i].iter().copied());
        spec
    };
    match replay::bisect(&side(0), &side(1), every)? {
        None => say("event streams are identical"),
        Some(report) => say(report),
    }
}

/// Parsed flags shared by `campaign run` and `campaign resume`.
struct CampaignArgs {
    spec_path: Option<String>,
    out: Option<String>,
    seed: Option<u64>,
    trials: Option<usize>,
    opts: CampaignOptions,
}

fn parse_campaign_args(args: &[String], verb: &str) -> Result<CampaignArgs, String> {
    let mut parsed = CampaignArgs {
        spec_path: None,
        out: None,
        seed: None,
        trials: None,
        opts: CampaignOptions::default(),
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--spec" => parsed.spec_path = Some(flags.value()?),
            "--out" => parsed.out = Some(flags.value()?),
            "--seed" => parsed.seed = Some(flags.u64()?),
            "--trials" => parsed.trials = Some(flags.nonzero()?),
            "--shards" => parsed.opts.shards = flags.nonzero()?,
            "--threads" => parsed.opts.threads = Some(flags.nonzero()?),
            "--stop-after-waves" => parsed.opts.stop_after_waves = Some(flags.nonzero()?),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    if parsed.out.is_none() {
        return Err(format!("`segscope campaign {verb}` needs --out DIR"));
    }
    Ok(parsed)
}

/// The `--out DIR` of `campaign status` and `campaign report`, which
/// read the persisted spec and take no other flag.
fn parse_campaign_dir(args: &[String], verb: &str) -> Result<String, String> {
    let mut out = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--out" => out = Some(flags.value()?),
            other => {
                return Err(format!(
                    "`segscope campaign {verb}` takes only --out DIR, not `{other}`"
                ))
            }
        }
    }
    out.ok_or_else(|| format!("`segscope campaign {verb}` needs --out DIR"))
}

/// The files of a campaign directory.
struct CampaignPaths {
    spec: String,
    manifest: String,
    log: String,
    report: String,
}

fn campaign_paths(dir: &str) -> CampaignPaths {
    CampaignPaths {
        spec: format!("{dir}/spec.json"),
        manifest: format!("{dir}/manifest.json"),
        log: format!("{dir}/cells.log"),
        report: format!("{dir}/report.json"),
    }
}

fn read_campaign_spec(path: &str) -> Result<CampaignSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read campaign spec `{path}`: {e}"))?;
    CampaignSpec::from_json(&text).map_err(|e| format!("`{path}`: {e}"))
}

/// Loads a campaign's progress: `manifest.json` with the cells of
/// `cells.log` replayed on top. Also returns whether the log exists.
fn read_campaign_manifest(paths: &CampaignPaths) -> Result<(CampaignManifest, bool), String> {
    let path = &paths.manifest;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read campaign manifest `{path}`: {e}"))?;
    let mut manifest = CampaignManifest::from_json(&text).map_err(|e| format!("`{path}`: {e}"))?;
    let path = &paths.log;
    let log = match std::fs::read(path) {
        Ok(log) => log,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((manifest, false)),
        Err(e) => return Err(format!("cannot read campaign log `{path}`: {e}")),
    };
    if manifest
        .replay_log(&log)
        .map_err(|e| format!("`{path}`: {e}"))?
    {
        eprintln!("warning: `{path}` ends in a torn line; its cell reruns on resume");
    }
    Ok((manifest, true))
}

/// Writes `text` and a newline to stdout. A failed write (a full disk, a
/// reader that closed the pipe) comes back as an error for `main` to
/// report with exit status 1, where `println!` would panic.
fn say(text: impl std::fmt::Display) -> Result<(), String> {
    use std::io::Write as _;
    writeln!(std::io::stdout().lock(), "{text}").map_err(|e| format!("cannot write to stdout: {e}"))
}

/// Writes `contents` to `path` atomically: into `PATH.tmp`, fsynced,
/// renamed over `path`, then the directory fsynced so the rename itself
/// is durable. A kill at any instant leaves either the old file or the
/// new one in place, never a truncated one — which is what lets
/// `campaign resume` trust `manifest.json` after a `SIGKILL`.
fn write_file(path: &str, contents: String) -> Result<(), String> {
    use std::io::Write as _;
    let tmp = format!("{path}.tmp");
    let error = |e: std::io::Error| format!("cannot write `{path}`: {e}");
    let mut file = std::fs::File::create(&tmp).map_err(error)?;
    file.write_all(contents.as_bytes()).map_err(error)?;
    file.sync_all().map_err(error)?;
    std::fs::rename(&tmp, path).map_err(error)?;
    sync_parent(path)
}

/// Fsyncs the directory holding `path`, making a create, rename or
/// removal of `path` durable.
fn sync_parent(path: &str) -> Result<(), String> {
    let dir = match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(|e| format!("cannot sync the directory of `{path}`: {e}"))
}

/// Removes `path` durably; a missing file is already removed.
fn remove_file(path: &str) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => sync_parent(path),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove `{path}`: {e}")),
    }
}

/// Folds `cells.log` into `manifest.json`: writes `manifest` (base plus
/// log) atomically, then removes the log. A kill in between leaves a log
/// whose every cell the new base already holds with an equal result,
/// which the next load skips.
fn compact_campaign(manifest: &CampaignManifest, paths: &CampaignPaths) -> Result<(), String> {
    write_file(&paths.manifest, manifest.to_json() + "\n")?;
    remove_file(&paths.log)
}

/// The append side of `cells.log`: the new cells of every persisted
/// batch, one [`CampaignManifest::log_line`] each, written in one append
/// and synced once (group commit).
struct CellLog {
    path: String,
    /// Opened (and its directory entry synced) on the first append.
    file: Option<std::fs::File>,
    /// Which cells the base manifest or an earlier append already holds.
    logged: Vec<bool>,
}

impl CellLog {
    fn new(path: String, manifest: &CampaignManifest) -> Self {
        let mut logged = vec![false; manifest.total_cells()];
        for (cell, _) in manifest.cells.completed() {
            logged[cell] = true;
        }
        CellLog {
            path,
            file: None,
            logged,
        }
    }

    /// Appends the cells of `manifest` not yet logged and syncs them.
    fn append_new(&mut self, manifest: &CampaignManifest) -> Result<(), String> {
        use std::io::Write as _;
        let mut lines = String::new();
        for (cell, results) in manifest.cells.completed() {
            if !std::mem::replace(&mut self.logged[cell], true) {
                lines += &CampaignManifest::log_line(&results[0]);
            }
        }
        let path = &self.path;
        let error = |e: std::io::Error| format!("cannot append to `{path}`: {e}");
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(error)?;
                sync_parent(path)?;
                self.file.insert(file)
            }
        };
        file.write_all(lines.as_bytes()).map_err(error)?;
        file.sync_data().map_err(error)
    }
}

/// Runs (or resumes) the campaign in `dir`, appending each batch of
/// finished cells to `cells.log` while the workers run on; on completion
/// compacts the log into `manifest.json`, writes `report.json` and
/// prints the summary matrix.
fn drive_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    manifest: &mut CampaignManifest,
    dir: &str,
) -> Result<(), String> {
    let paths = campaign_paths(dir);
    let registry = attacks::registry();
    let mut log = CellLog::new(paths.log.clone(), manifest);
    let mut persist_error = None;
    let outcome = campaign::run_campaign(&registry, spec, opts, manifest, |m| {
        if persist_error.is_none() {
            persist_error = log.append_new(m).err();
        }
    })
    .map_err(|e| e.to_string())?;
    if let Some(error) = persist_error {
        return Err(error);
    }
    match outcome {
        None => {
            say(format_args!(
                "checkpointed: {}/{} cells complete -> {} \
                 (resume with `segscope campaign resume --out {dir}`)",
                manifest.completed_cells(),
                manifest.total_cells(),
                paths.log,
            ))?;
        }
        Some(report) => {
            if log.file.is_some() {
                compact_campaign(manifest, &paths)?;
            }
            write_file(&paths.report, report.to_json() + "\n")?;
            print_campaign_summary(&report)?;
            say(format_args!("report -> {}", paths.report))?;
        }
    }
    Ok(())
}

fn print_campaign_summary(report: &CampaignReport) -> Result<(), String> {
    say(format_args!(
        "campaign `{}`: {} cells, {} trials, {} ground-truth deliveries, \
         {} delivery faults, {} timing faults",
        report.name,
        report.cells,
        report.totals.trials,
        report.totals.ground_truth_deliveries,
        report.fault_log.delivery_faults(),
        report.fault_log.timing_faults(),
    ))?;
    let width = report
        .matrix
        .iter()
        .map(|r| r.scenario.len())
        .max()
        .unwrap_or(0);
    for row in &report.matrix {
        let accuracy = match row.mean_accuracy {
            Some(mean) => format!("acc {mean:.3}"),
            None => "acc    --".to_owned(),
        };
        say(format_args!(
            "  {:width$}  {:16}  {:10}  cells {:3}  trials {:5}  gt {:8}  dfaults {:6}  tfaults {:6}  {accuracy}",
            row.scenario,
            row.preset,
            row.defense,
            row.cells,
            row.trials,
            row.ground_truth_deliveries,
            row.delivery_faults,
            row.timing_faults,
        ))?;
    }
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let Some(verb) = args.first() else {
        return Err(format!(
            "usage: segscope campaign spec|run|status|resume|report ...\n\n{USAGE}"
        ));
    };
    let rest = &args[1..];
    match verb.as_str() {
        "spec" => cmd_campaign_spec(rest),
        "run" => cmd_campaign_run(rest),
        "status" => cmd_campaign_status(rest),
        "resume" => cmd_campaign_resume(rest),
        "report" => cmd_campaign_report(rest),
        other => Err(format!("unknown campaign verb `{other}`\n\n{USAGE}")),
    }
}

fn cmd_campaign_spec(args: &[String]) -> Result<(), String> {
    let mut seed = 0x5E65_C09Eu64;
    let mut out = None;
    let mut matrix = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => seed = flags.u64()?,
            "--out" => out = Some(flags.value()?),
            "--defense-matrix" => matrix = true,
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    let spec = if matrix {
        CampaignSpec::defense_matrix(seed)
    } else {
        CampaignSpec::full_grid(seed)
    };
    let json = spec.to_json();
    match out {
        Some(path) => {
            write_file(&path, json + "\n")?;
            say(format_args!("{} campaign spec -> {path}", spec.name))?;
        }
        None => say(&json)?,
    }
    Ok(())
}

fn cmd_campaign_run(args: &[String]) -> Result<(), String> {
    let parsed = parse_campaign_args(args, "run")?;
    let dir = parsed.out.expect("checked by parse_campaign_args");
    let mut spec = match &parsed.spec_path {
        Some(path) => read_campaign_spec(path)?,
        None => CampaignSpec::full_grid(parsed.seed.unwrap_or(0x5E65_C09E)),
    };
    if let Some(seed) = parsed.seed {
        spec.seed = seed;
    }
    if let Some(trials) = parsed.trials {
        spec.trials = Some(trials);
    }
    // Expanding validates every axis entry and cell params, so a spec
    // that cannot run is refused before anything lands in `dir`.
    spec.expand(&attacks::registry())
        .map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    let paths = campaign_paths(&dir);
    // The resolved spec (with any --seed/--trials overrides baked in) is
    // persisted first, so resume/status/report always see the grid the
    // manifest was cut for. A log left by an earlier campaign in `dir`
    // goes before the empty manifest lands, so it never replays onto it.
    write_file(&paths.spec, spec.to_json() + "\n")?;
    remove_file(&paths.log)?;
    let mut manifest = CampaignManifest::new(&spec);
    write_file(&paths.manifest, manifest.to_json() + "\n")?;
    drive_campaign(&spec, &parsed.opts, &mut manifest, &dir)
}

fn cmd_campaign_resume(args: &[String]) -> Result<(), String> {
    let parsed = parse_campaign_args(args, "resume")?;
    if parsed.seed.is_some() || parsed.trials.is_some() {
        return Err(
            "`campaign resume` cannot override --seed/--trials — they are part of the \
             persisted spec"
                .to_owned(),
        );
    }
    let dir = parsed.out.expect("checked by parse_campaign_args");
    let paths = campaign_paths(&dir);
    let spec = match &parsed.spec_path {
        Some(path) => read_campaign_spec(path)?,
        None => read_campaign_spec(&paths.spec)?,
    };
    let (mut manifest, logged) = read_campaign_manifest(&paths)?;
    if logged {
        compact_campaign(&manifest, &paths)?;
    }
    drive_campaign(&spec, &parsed.opts, &mut manifest, &dir)
}

fn cmd_campaign_status(args: &[String]) -> Result<(), String> {
    let paths = campaign_paths(&parse_campaign_dir(args, "status")?);
    let spec = read_campaign_spec(&paths.spec)?;
    let (manifest, _) = read_campaign_manifest(&paths)?;
    if !manifest.matches(&spec) {
        return Err(campaign::CampaignError::SpecMismatch.to_string());
    }
    say(format_args!(
        "campaign `{}`: {}/{} cells complete ({})",
        spec.name,
        manifest.completed_cells(),
        manifest.total_cells(),
        if manifest.is_complete() {
            "done — see report.json"
        } else {
            "resume with `segscope campaign resume`"
        },
    ))?;
    Ok(())
}

fn cmd_campaign_report(args: &[String]) -> Result<(), String> {
    let paths = campaign_paths(&parse_campaign_dir(args, "report")?);
    let spec = read_campaign_spec(&paths.spec)?;
    let (manifest, _) = read_campaign_manifest(&paths)?;
    let report = campaign::report_from_manifest(&spec, &manifest).map_err(|e| e.to_string())?;
    write_file(&paths.report, report.to_json() + "\n")?;
    print_campaign_summary(&report)?;
    say(format_args!("report -> {}", paths.report))?;
    Ok(())
}

/// `segscope serve-bench` report. Every field is a pure function of the
/// flags (no timing), so CI compares the whole JSON line against a
/// golden.
#[derive(Serialize)]
struct ServeBenchReport {
    /// Concurrent sessions served.
    sessions: usize,
    /// Timesteps per session (the website config's pooled length).
    steps_per_session: usize,
    /// Batcher lane capacity.
    capacity: usize,
    /// FNV-1a identity of the f64 verdict sequence (batched verified
    /// identical to sequential before printing).
    verdict_fnv: String,
    /// Quantization scheme of the quantized arm.
    quant: String,
    /// FNV-1a identity of the quantized verdict sequence.
    quant_verdict_fnv: String,
    /// Fraction of sessions where the quantized verdict agrees with f64.
    quant_agreement: f64,
}

/// Auxiliary stream of the serve-bench model (distinct from every
/// scenario stream).
const SERVE_BENCH_STREAM: u64 = 0x5EBE;

fn cmd_serve_bench(args: &[String]) -> Result<(), String> {
    let mut sessions = 12usize;
    let mut capacity = 8usize;
    let mut scheme = serve::QuantScheme::I16;
    let mut out: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--sessions" => sessions = flags.nonzero()?,
            "--capacity" => capacity = flags.nonzero()?,
            "--quant" => {
                scheme = match flags.value()?.as_str() {
                    "i8" => serve::QuantScheme::I8,
                    "i16" => serve::QuantScheme::I16,
                    other => return Err(format!("`--quant` must be i8 or i16, got `{other}`")),
                };
            }
            "--out" => out = Some(flags.value()?),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    use attacks::website::{Browser, Setting, WebsiteFpConfig};
    let config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
    // One fixed-seed website trace per session, round-robin over sites;
    // the trial seeds mirror the scenario driver's derivation.
    let traces: Vec<Vec<Vec<f32>>> = (0..sessions)
        .map(|i| {
            let site = i % config.n_sites;
            let trace = attacks::website::collect_trace(
                &config,
                site,
                segscope_repro::exec::derive_seed(config.seed, i as u64),
            );
            attacks::website::trace_to_example(&trace, config.pooled_len, site).xs
        })
        .collect();
    use rand::SeedableRng as _;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(segscope_repro::exec::derive_seed(
        config.seed,
        SERVE_BENCH_STREAM,
    ));
    let model = segscope_repro::nnet::SeqClassifier::new(
        2,
        config.hidden,
        config.n_sites,
        &mut rng,
        segscope_repro::nnet::AdamConfig::default(),
    );
    let sequential = serve::serve_sequential(&model, &traces);
    let batched = serve::serve_batched(&model, &traces, capacity);
    if batched != sequential {
        return Err(format!(
            "batched serving diverged from sequential at capacity {capacity} — \
             the serve parity contract is broken"
        ));
    }
    let quantized = serve::QuantizedSeqClassifier::quantize(&model, scheme);
    let q_sequential = serve::serve_sequential(&quantized, &traces);
    let q_batched = serve::serve_batched(&quantized, &traces, capacity);
    if q_batched != q_sequential {
        return Err(format!(
            "quantized batched serving diverged from sequential at capacity {capacity}"
        ));
    }
    let agree = sequential
        .iter()
        .zip(&q_sequential)
        .filter(|(a, b)| a.class == b.class)
        .count();
    let report = ServeBenchReport {
        sessions,
        steps_per_session: config.pooled_len,
        capacity,
        verdict_fnv: format!("0x{:016x}", serve::verdict_fnv(&sequential)),
        quant: scheme.name().to_owned(),
        quant_verdict_fnv: format!("0x{:016x}", serve::verdict_fnv(&q_sequential)),
        quant_agreement: agree as f64 / sessions as f64,
    };
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    say(&json)?;
    if let Some(path) = &out {
        write_file(path, format!("{json}\n"))?;
    }
    Ok(())
}
