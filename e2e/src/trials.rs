//! `sim-trials`: the seven simulator-only scenarios through `run_dyn`,
//! plus the typed split (trials, then `summarize`) every traced run of a
//! scenario-running workload uses.
//!
//! Why this workload: it exercises the simulator hot path — machine
//! boot and reset, the interrupt fabric, the probe loop, cache
//! simulation and the chunked trial fan-out — with no classifier and no
//! campaign bookkeeping. Every trial starts from empty simulated caches
//! (`Machine::reset` ≡ `Machine::new`).

use crate::stats::{fnv1a, median};
use crate::trace::{Span, SpanId, Tracer};
use crate::{repeat_set_up, Measured, Scale, Settings, THREADS};
use scenario::{DynScenario, MergeReport, RunOptions, RunReport, RunTotals, Scenario, TrialCtx};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// The simulator-only scenarios, in run order.
pub(crate) const SIM_SCENARIOS: [&str; 7] = [
    "kaslr", "covert", "spectre", "circl", "spectral", "aexcount", "heckler",
];

/// Frozen trial counts of [`SIM_SCENARIOS`]: each run takes about
/// 0.3 s on two threads of a 2-core x86-64 host at the commit that
/// introduced the benchmark.
const SIM_TRIALS: [usize; 7] = [512, 4096, 64, 128, 1024, 8192, 8192];

/// Trials of the smoke scale.
const SMOKE_TRIALS: usize = 4;

/// Leading trials of each scenario that the traced run also runs one by
/// one, with spans around machine boot, the trial body and reset.
const PROBE_TRIALS: usize = 16;

/// One scenario run: the registry entry, its params and run options.
pub(crate) struct Job {
    /// The scenario.
    pub entry: &'static dyn DynScenario,
    /// Full params (the scenario's defaults).
    pub params: Value,
    /// Seed, trial count and threads of the run.
    pub opts: RunOptions,
}

/// Resolves and validates one run per name. Scenario `k`'s experiment
/// seed is derived from `seed`; `trials` overrides the trial count.
///
/// # Errors
///
/// An unknown scenario or params its config rejects.
pub(crate) fn jobs(
    names: &[&str],
    trials: &[Option<usize>],
    seed: u64,
    threads: usize,
) -> Result<Vec<Job>, String> {
    let registry = segscope_attacks::registry();
    names
        .iter()
        .zip(trials)
        .enumerate()
        .map(|(k, (&name, &trials))| {
            let entry = registry.get(name).map_err(|e| e.to_string())?;
            let params = entry.default_params();
            entry.check_params(&params).map_err(|e| e.to_string())?;
            let opts = RunOptions {
                seed: Some(exec::derive_seed(seed, k as u64)),
                trials,
                threads: Some(threads),
                ..RunOptions::default()
            };
            Ok(Job {
                entry,
                params,
                opts,
            })
        })
        .collect()
}

fn sim_jobs(settings: &Settings) -> Result<Vec<Job>, String> {
    let trials: Vec<Option<usize>> = match settings.scale {
        Scale::Full => SIM_TRIALS.iter().map(|&t| Some(t)).collect(),
        Scale::Smoke => vec![Some(SMOKE_TRIALS); SIM_SCENARIOS.len()],
    };
    jobs(&SIM_SCENARIOS, &trials, settings.seed, THREADS)
}

/// Runs every job through `run_dyn`; returns the report JSONs.
///
/// # Errors
///
/// Params the scenario rejects.
pub(crate) fn run_untraced(jobs: &[Job]) -> Result<Vec<String>, String> {
    jobs.iter()
        .map(|job| {
            let run = job
                .entry
                .run_dyn(Some(&job.params), &job.opts)
                .map_err(|e| e.to_string())?;
            Ok(serde_json::to_string(&run.report).expect("run reports serialize"))
        })
        .collect()
}

/// Digest of a list of report JSONs.
#[must_use]
pub(crate) fn reports_digest(reports: &[String]) -> u64 {
    fnv1a(reports.join("\n").as_bytes())
}

/// Runs the workload: untraced passes time-boxed to `settings.seconds`,
/// or the traced split.
///
/// # Errors
///
/// Params a scenario rejects.
pub(crate) fn run(settings: &Settings) -> Result<Measured, String> {
    if settings.trace {
        return run_traced(settings);
    }
    // Set-up: resolve and validate the params, then one warm-up run of
    // each scenario at one trial per thread, so lazy allocation and
    // page-in happen before timing.
    let set_up = || {
        let jobs = sim_jobs(settings)?;
        let warm = self::jobs(
            &SIM_SCENARIOS,
            &[Some(THREADS); SIM_SCENARIOS.len()],
            settings.seed,
            THREADS,
        )?;
        run_untraced(&warm)?;
        Ok(jobs)
    };
    // Fastest run of each scenario across the passes: host contention
    // only ever slows a run down.
    let mut best = vec![f64::INFINITY; SIM_SCENARIOS.len()];
    let (mut setups, mut passes) = (Vec::new(), 0);
    let mut trials: usize;
    let mut measured = Measured::default();
    let start = Instant::now();
    loop {
        let jobs = repeat_set_up(&mut setups, set_up)?;
        trials = jobs
            .iter()
            .map(|j| j.opts.trials.expect("sim jobs set trials"))
            .sum();
        let mut reports = Vec::with_capacity(jobs.len());
        for (job, best) in jobs.iter().zip(&mut best) {
            let run = Instant::now();
            reports.extend(run_untraced(std::slice::from_ref(job))?);
            *best = best.min(run.elapsed().as_secs_f64());
        }
        passes += 1;
        let digest = reports_digest(&reports);
        measured.attempted += trials as u64;
        if passes == 1 {
            measured.digest = digest;
        } else if digest != measured.digest {
            eprintln!("sim-trials: pass {passes} differs from pass 1");
            measured.failed += trials as u64;
        }
        if start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }
    let best_pass: f64 = best.iter().sum();
    let m = &mut measured.metrics;
    m.insert("ops_per_s".into(), trials as f64 / best_pass);
    m.insert("latency_ms".into(), best_pass * 1e3);
    m.insert("setup_s".into(), median(&setups));
    m.insert("peak_rss_mb".into(), crate::own_peak_rss_mb());
    eprintln!(
        "sim-trials: {passes} passes of {trials} trials, digest {:#018x}",
        measured.digest
    );
    Ok(measured)
}

fn run_traced(settings: &Settings) -> Result<Measured, String> {
    let jobs = sim_jobs(settings)?;
    let untraced_start = Instant::now();
    let reference = run_untraced(&jobs)?;
    let untraced_s = untraced_start.elapsed().as_secs_f64();
    let tracer = Tracer::new(true);
    let splits = tracer.span("e2e.sim_trials", "", SpanId::ROOT, 0, |root| {
        split_jobs(&jobs, &tracer, root)
    })?;
    let spans = tracer.finish();
    crate::campaigns::write_trace(settings, "sim-trials", &spans)?;
    let mut measured = Measured {
        attempted: splits.iter().map(|s| s.trials as u64).sum(),
        digest: reports_digest(&reference),
        ..Measured::default()
    };
    for (split, reference) in splits.iter().zip(&reference) {
        if &split.report_json != reference || !split.probe_matches {
            eprintln!("sim-trials: traced `{}` differs from run_dyn", split.name);
            measured.failed += split.trials as u64;
        }
    }
    let m = &mut measured.metrics;
    split_metrics(&spans, &splits, m);
    let deliveries: u64 = splits.iter().map(|s| s.deliveries).sum();
    let chunk_ms = span_sum_ms(&spans, "scenario.chunk", None);
    m.insert("irq.deliveries".into(), deliveries as f64);
    m.insert("irq.deliveries_per_ms".into(), deliveries as f64 / chunk_ms);
    let mirror_s = (span_sum_ms(&spans, "scenario.run", None)
        - span_sum_ms(&spans, "scenario.probe", None))
        / 1e3;
    m.insert("trace.overhead_share".into(), mirror_s / untraced_s - 1.0);
    m.insert(
        "trace.coverage_share".into(),
        crate::trace::coverage(&spans),
    );
    eprint!("{}", crate::trace::format_table(&spans));
    Ok(measured)
}

/// The outcome of one traced scenario run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Split {
    /// Scenario name.
    pub name: &'static str,
    /// The `RunReport` JSON, built as `run_dyn` builds it.
    pub report_json: String,
    /// Trials run.
    pub trials: usize,
    /// Ground-truth interrupt deliveries across the trials.
    pub deliveries: u64,
    /// Whether the one-by-one probe trials reproduced the chunked
    /// trials' statistics.
    pub probe_matches: bool,
}

/// Runs every job through the typed split under `parent`.
///
/// # Errors
///
/// A scenario without a typed split, or params its config rejects.
pub(crate) fn split_jobs(
    jobs: &[Job],
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Vec<Split>, String> {
    jobs.iter()
        .enumerate()
        .map(|(k, job)| split_by_name(job, tracer, parent, k as u64))
        .collect()
}

fn split_by_name(job: &Job, tracer: &Tracer, parent: SpanId, k: u64) -> Result<Split, String> {
    use segscope_attacks::*;
    let (p, o) = (&job.params, &job.opts);
    match job.entry.name() {
        "website" => split(&website::WebsiteScenario, p, o, tracer, parent, k),
        "circl" => split(&circl::CirclScenario, p, o, tracer, parent, k),
        "dnnsteal" => split(&dnnsteal::DnnStealScenario, p, o, tracer, parent, k),
        "spectral" => split(&spectral::SpectralScenario, p, o, tracer, parent, k),
        "kaslr" => split(&kaslr::KaslrScenario, p, o, tracer, parent, k),
        "spectre" => split(&spectre::SpectreScenario, p, o, tracer, parent, k),
        "keystroke" => split(&keystroke::KeystrokeScenario, p, o, tracer, parent, k),
        "covert" => split(&covert::CovertScenario, p, o, tracer, parent, k),
        "procfp" => split(&procfp::ProcFpScenario, p, o, tracer, parent, k),
        "aexcount" => split(&aexcount::AexCountScenario, p, o, tracer, parent, k),
        "heckler" => split(&heckler::HecklerScenario, p, o, tracer, parent, k),
        other => Err(format!("no typed split for scenario `{other}`")),
    }
}

/// Mirrors `scenario::run_scenario`'s untraced arm with public calls —
/// `run_geometry`, then `exec::parallel_trial_chunks` over
/// `Scenario::run_batch`, then `Scenario::summarize` — with a span
/// around each, then probes the first [`PROBE_TRIALS`] trials one by
/// one.
fn split<S: Scenario>(
    scenario: &S,
    params: &Value,
    opts: &RunOptions,
    tracer: &Tracer,
    parent: SpanId,
    k: u64,
) -> Result<Split, String> {
    let name = Scenario::name(scenario);
    let config = S::Config::from_value(params).map_err(|e| e.to_string())?;
    tracer.span("scenario.run", name, parent, k, |run| {
        let geometry = tracer.span("scenario.geometry", name, run, k, |_| {
            scenario::run_geometry(scenario, &config, opts)
        });
        let seed = geometry.experiment_seed;
        let ran = tracer.span("exec.chunks", name, run, k, |fan| {
            exec::parallel_trial_chunks(
                seed,
                geometry.trials,
                geometry.threads,
                geometry.chunk,
                |start, seeds| {
                    let chunk = (start / geometry.chunk) as u64;
                    tracer.span("scenario.chunk", name, fan, chunk, |_| {
                        let ctxs: Vec<TrialCtx> = seeds
                            .iter()
                            .enumerate()
                            .map(|(i, &s)| TrialCtx {
                                index: start + i,
                                seed: s,
                                experiment_seed: seed,
                            })
                            .collect();
                        scenario.run_batch(&config, &ctxs, opts.fault_plan)
                    })
                },
            )
        });
        let mut outputs = Vec::with_capacity(ran.len());
        let mut stats = Vec::with_capacity(ran.len());
        let mut totals = RunTotals::empty();
        for (output, trial) in ran {
            totals.merge(&RunTotals::from_trial(trial.gt_deliveries));
            outputs.push(output);
            stats.push(trial);
        }
        let summary = tracer.span("attacks.summarize", name, run, k, |_| {
            scenario.summarize(&config, &outputs)
        });
        let probe_matches = tracer.span("scenario.probe", name, run, k, |probe| {
            (0..PROBE_TRIALS.min(geometry.trials)).all(|i| {
                let ctx = TrialCtx {
                    index: i,
                    seed: exec::derive_seed(seed, i as u64),
                    experiment_seed: seed,
                };
                let mut machine = tracer.span("segsim.boot", name, probe, i as u64, |_| {
                    scenario.build_machine(&config, &ctx)
                });
                if let Some(plan) = opts.fault_plan {
                    machine.set_fault_plan(Some(plan));
                }
                tracer.span("attacks.trial", name, probe, i as u64, |_| {
                    scenario.run_trial(&config, &mut machine, &ctx)
                });
                let same = scenario::TrialStats::of(&machine) == stats[i];
                let machine_config = machine.config().clone();
                tracer.span("segsim.reset", name, probe, i as u64, |_| {
                    machine.reset(machine_config, ctx.seed);
                });
                same
            })
        });
        let report = RunReport {
            scenario: name.to_owned(),
            seed,
            trials: geometry.trials,
            ground_truth_deliveries: totals.ground_truth_deliveries,
            params: config.to_value(),
            summary: summary.to_value(),
        };
        Ok(Split {
            name,
            report_json: serde_json::to_string(&report).expect("run reports serialize"),
            trials: geometry.trials,
            deliveries: totals.ground_truth_deliveries,
            probe_matches,
        })
    })
}

/// Summed duration, ms, of the spans named `name` (with `detail`, when
/// given).
#[must_use]
pub(crate) fn span_sum_ms(spans: &[Span], name: &str, detail: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

fn span_durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Per-layer metrics of the typed split: each scenario's `summarize`
/// share, trial time and trial rate, machine boot and reset, and the
/// chunk fan-out's busy share.
pub(crate) fn split_metrics(spans: &[Span], splits: &[Split], m: &mut BTreeMap<String, f64>) {
    for split in splits {
        let name = split.name;
        let run_ms = span_sum_ms(spans, "scenario.run", Some(name))
            - span_sum_ms(spans, "scenario.probe", Some(name));
        let summarize_ms = span_sum_ms(spans, "attacks.summarize", Some(name));
        m.insert(
            format!("attacks.{name}.summarize_share"),
            summarize_ms / run_ms,
        );
        if crate::NNET_SCENARIOS.contains(&name) {
            m.insert(format!("nnet.summarize_ms.{name}"), summarize_ms);
        }
        if SIM_SCENARIOS.contains(&name) {
            let probed = spans
                .iter()
                .filter(|s| s.name == "attacks.trial" && s.detail == name)
                .count();
            let trial_ms = span_sum_ms(spans, "attacks.trial", Some(name));
            m.insert(
                format!("attacks.{name}.trial_us"),
                trial_ms * 1e3 / probed as f64,
            );
            let fan_out_s = span_sum_ms(spans, "exec.chunks", Some(name)) / 1e3;
            m.insert(
                format!("attacks.{name}.trials_per_s"),
                split.trials as f64 / fan_out_s,
            );
        }
    }
    m.insert(
        "segsim.boot_us".into(),
        median(&span_durations_ms(spans, "segsim.boot")) * 1e3,
    );
    m.insert(
        "segsim.reset_us".into(),
        median(&span_durations_ms(spans, "segsim.reset")) * 1e3,
    );
    m.insert(
        "exec.busy_share".into(),
        span_sum_ms(spans, "scenario.chunk", None)
            / (span_sum_ms(spans, "exec.chunks", None) * THREADS as f64),
    );
    m.insert(
        "scenario.chunk_ms.p50".into(),
        median(&span_durations_ms(spans, "scenario.chunk")),
    );
}
