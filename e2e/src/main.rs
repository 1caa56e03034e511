//! `segscope-e2e` — the end-to-end benchmark's command line.
//!
//! ```text
//! segscope-e2e run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--runs N] [--out PATH]
//! segscope-e2e compare A.json B.json [--benchmark PATH]
//! ```
//!
//! `run --workload NAME` runs one workload in this process and prints
//! its result as the last line of standard output. Without
//! `--workload`, or with `--runs` or `--out`, it runs each workload
//! (all four, or the one named) `--runs` times with seeds `N, N+1, …`,
//! each in a child process, and writes every result plus the host's
//! thread count to `--out`.

use segscope_e2e::{compare, run_workload, Outcome, Scale, Settings, Workload, DEFAULT_SEED};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
    segscope-e2e run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out PATH]
    segscope-e2e compare A.json B.json [--benchmark PATH]
workloads: paper-grid many-cells sim-trials serve-stream";

/// Measurement time box when `--seconds` is not given: `run_seconds`
/// in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--runs" => parsed.runs = Some(value.parse().map_err(|_| bad())?),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// The directory holding this binary; the `segscope` CLI is built next
/// to it and scratch output goes below it.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("this binary has no parent directory")?
        .to_path_buf())
}

fn run_one(workload: Workload, args: &RunArgs) -> Result<Outcome, String> {
    let dir = exe_dir()?;
    let cli = dir.join("segscope");
    if matches!(workload, Workload::PaperGrid | Workload::ManyCells) && !cli.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release --bin segscope` into the same target directory",
            cli.display()
        ));
    }
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        work_dir: dir.join("e2e-work"),
        cli,
    };
    run_workload(workload, &settings)
}

/// Runs `workload` at `seed` in a child process; returns its result
/// line.
fn run_child(workload: Workload, seed: u64, args: &RunArgs) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_owned();
    if line.starts_with('{') {
        Ok(line)
    } else {
        Err(format!(
            "{} at seed {seed} printed no result ({})",
            workload.name(),
            output.status
        ))
    }
}

fn print_result(workload: &str, seed: u64, line: &Value) {
    let Ok(map) = line.as_map() else { return };
    let get = |k: &str| serde::get_field(map, k).ok();
    eprintln!(
        "{workload} seed {seed}: correct {:?}, attempted {:?}, failed {:?}",
        get("correct"),
        get("attempted"),
        get("failed")
    );
    if let Some(Ok(metrics)) = get("metrics").map(Value::as_map) {
        for (name, entry) in metrics {
            let Ok(entry) = entry.as_map() else { continue };
            let value = serde::get_field(entry, "value").ok();
            let unit = serde::get_field(entry, "unit")
                .ok()
                .and_then(|u| u.as_str().ok());
            if let (Some(Value::Float(v)), Some(unit)) = (value, unit) {
                eprintln!("  {name:<36} {v:>16.6} {unit}");
            }
        }
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    if let (Some(workload), None, None) = (args.workload, args.runs, &args.out) {
        let outcome = run_one(workload, &args)?;
        println!("{}", outcome.to_json());
        return Ok(outcome.correct());
    }
    let workloads = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if nproc < 2 {
        eprintln!("warning: 1-core host; these results cannot support a speed-up claim");
    }
    let mut runs = Vec::new();
    let mut correct = true;
    for workload in workloads {
        for r in 0..args.runs.unwrap_or(1) {
            let seed = args.seed + r;
            let line = run_child(workload, seed, &args)?;
            let value: Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
            print_result(workload.name(), seed, &value);
            let Value::Map(mut entries) = value else {
                return Err("a result line is not a JSON object".to_owned());
            };
            correct &= entries
                .iter()
                .any(|(k, v)| k == "correct" && *v == Value::Bool(true));
            entries.insert(0, ("seed".to_owned(), Value::Int(seed.into())));
            entries.insert(
                0,
                (
                    "workload".to_owned(),
                    Value::Str(workload.name().to_owned()),
                ),
            );
            runs.push(Value::Map(entries));
        }
    }
    if let Some(out) = &args.out {
        let results = Value::Map(vec![
            ("nproc".to_owned(), Value::Int(nproc as i128)),
            (
                "threads".to_owned(),
                Value::Int(segscope_e2e::THREADS as i128),
            ),
            ("seconds".to_owned(), Value::Float(args.seconds)),
            ("trace".to_owned(), Value::Bool(args.trace)),
            ("runs".to_owned(), Value::Seq(runs)),
        ]);
        let json = serde_json::to_string(&results).map_err(|e| e.to_string())?;
        std::fs::write(out, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        eprintln!("results -> {}", out.display());
    }
    Ok(correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or("`--benchmark` needs a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(USAGE.to_owned());
    };
    let read = |path: &PathBuf| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let rules = compare::parse_rules(&read(&benchmark)?)?;
    let a = compare::parse_results(&read(a)?)?;
    let b = compare::parse_results(&read(b)?)?;
    let (table, any_worse) = compare::compare(&a, &b, &rules);
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
