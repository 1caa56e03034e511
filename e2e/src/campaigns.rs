//! `paper-grid` and `many-cells`: campaign sweeps through the
//! `segscope campaign run` binary, since manifest persistence lives only
//! in the CLI.
//!
//! Why two grids on one layer: the paper grid's cells differ in cost by
//! about 100× (a `website` cell trains an LSTM in `summarize`, a
//! `covert` cell takes milliseconds), so training and wave-barrier
//! stragglers should dominate it. The many-cells grid is cheap cells
//! only, so per-cell fixed costs dominate: the manifest rewritten after
//! every wave, machine boots on fresh worker threads, params decoding.

use crate::stats::{fnv1a, median, percentile};
use crate::trace::{Span, SpanId, Tracer};
use crate::trials::{self, span_sum_ms};
use crate::{repeat_set_up, Measured, Scale, Settings, Workload, THREADS};
use campaign::{CampaignManifest, CampaignSpec, FaultVariant, ScenarioSel};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Cells run concurrently per wave (`--shards`); each cell runs on one
/// thread (`--threads 1`), so the load is [`THREADS`] threads.
const SHARDS: usize = THREADS;

/// The many-cells grid's scenario axis: cheap simulator-only scenarios.
const MANY_CELL_SCENARIOS: [&str; 5] = ["kaslr", "covert", "spectral", "aexcount", "heckler"];

/// Replicates of every many-cells coordinate.
const MANY_CELL_REPLICATES: u64 = 8;

/// Trials per many-cells cell.
const MANY_CELL_TRIALS: usize = 2;

/// The workload's campaign spec, generated from `seed`.
#[must_use]
pub fn spec(workload: Workload, scale: Scale, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::full_grid(seed);
    if workload == Workload::ManyCells {
        spec.name = "many-cells".to_owned();
        spec.scenarios = MANY_CELL_SCENARIOS
            .iter()
            .map(|n| ScenarioSel::named(n))
            .collect();
        spec.replicates = MANY_CELL_REPLICATES;
        spec.trials = Some(MANY_CELL_TRIALS);
    }
    if scale == Scale::Smoke {
        spec.scenarios.truncate(2);
        spec.presets.truncate(2);
        spec.faults = vec![FaultVariant::none()];
        spec.replicates = 1;
        spec.trials = Some(MANY_CELL_TRIALS);
    }
    spec
}

/// The split pass of a traced campaign run: the grid's scenarios at
/// their default configs and the grid's trial setting.
fn split_jobs(spec: &CampaignSpec, seed: u64) -> Result<Vec<trials::Job>, String> {
    let names: Vec<&str> = spec.scenarios.iter().map(|s| s.scenario.as_str()).collect();
    trials::jobs(&names, &vec![spec.trials; names.len()], seed, THREADS)
}

/// Set-up of one sweep: generate the spec, validate it the way the CLI
/// does, and write it where `campaign run --spec` reads it.
fn set_up(
    workload: Workload,
    settings: &Settings,
    spec_path: &Path,
) -> Result<CampaignSpec, String> {
    let spec = spec(workload, settings.scale, settings.seed);
    spec.expand(&segscope_attacks::registry())
        .map_err(|e| e.to_string())?;
    write(spec_path, &(spec.to_json() + "\n"))?;
    Ok(spec)
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One `segscope campaign run` sweep: wall seconds, the child's peak
/// resident set in MiB (`VmHWM` sampled every 10 ms), and the bytes of
/// its `report.json`.
fn cli_sweep(
    settings: &Settings,
    spec_path: &Path,
    out: &Path,
) -> Result<(f64, f64, Vec<u8>), String> {
    if out.exists() {
        std::fs::remove_dir_all(out).map_err(|e| format!("cannot clear {}: {e}", out.display()))?;
    }
    let mut command = Command::new(&settings.cli);
    command
        .args(["campaign", "run", "--out"])
        .arg(out)
        .arg("--spec")
        .arg(spec_path)
        .args(["--shards", &SHARDS.to_string(), "--threads", "1"])
        .stdout(Stdio::null());
    let (wall, peak_kib, status) = run_sampled(&mut command)
        .map_err(|e| format!("cannot run {}: {e}", settings.cli.display()))?;
    if !status.success() {
        return Err(format!("`segscope campaign run` exited with {status}"));
    }
    let report_path = out.join("report.json");
    let report = std::fs::read(&report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    Ok((wall, peak_kib as f64 / 1024.0, report))
}

/// Runs `command` to completion while sampling its `VmHWM` every 10 ms.
fn run_sampled(command: &mut Command) -> std::io::Result<(f64, u64, std::process::ExitStatus)> {
    let start = Instant::now();
    let mut child = command.spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = crate::vm_hwm_kib(pid).unwrap_or(0).max(peak);
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let status = child.wait();
        let wall = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let peak = sampler.join().expect("the sampler does not panic");
        Ok((wall, peak, status?))
    })
}

/// Runs a campaign workload: untraced CLI sweeps time-boxed to
/// `settings.seconds`, or the traced mirror.
///
/// # Errors
///
/// A spec the registry rejects, an I/O error, or a failed CLI run.
pub(crate) fn run(workload: Workload, settings: &Settings) -> Result<Measured, String> {
    let name = workload.name();
    let spec_path = settings.work_dir.join(format!("{name}.spec.json"));
    let out = settings.work_dir.join(format!("{name}.out"));
    if settings.trace {
        return run_traced(workload, settings, &spec_path, &out);
    }
    let mut measured = Measured::default();
    let (mut setups, mut walls, mut peak) = (Vec::new(), Vec::new(), 0.0_f64);
    let mut cells;
    let start = Instant::now();
    loop {
        cells = repeat_set_up(&mut setups, || set_up(workload, settings, &spec_path))?.cell_count();
        let (wall, rss, report) = cli_sweep(settings, &spec_path, &out)?;
        walls.push(wall);
        peak = peak.max(rss);
        let digest = fnv1a(&report);
        measured.attempted += cells as u64;
        if walls.len() == 1 {
            measured.digest = digest;
        } else if digest != measured.digest {
            eprintln!("{name}: sweep {} report differs from sweep 1", walls.len());
            measured.failed += cells as u64;
        }
        if start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }
    std::fs::remove_dir_all(&out).map_err(|e| format!("cannot remove {}: {e}", out.display()))?;
    // Host contention only ever slows a sweep down, so the fastest sweep
    // of the run is the estimate least disturbed by it.
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let m = &mut measured.metrics;
    m.insert("ops_per_s".into(), cells as f64 / best);
    m.insert("latency_ms".into(), best * 1e3);
    m.insert("setup_s".into(), median(&setups));
    m.insert("peak_rss_mb".into(), peak);
    eprintln!(
        "{name}: {} sweeps of {cells} cells, report digest {:#018x}",
        walls.len(),
        measured.digest
    );
    Ok(measured)
}

/// The traced run: one untraced CLI sweep as the reference, the
/// mirrored campaign loop under spans, then the typed split of the
/// grid's scenarios.
fn run_traced(
    workload: Workload,
    settings: &Settings,
    spec_path: &Path,
    out: &Path,
) -> Result<Measured, String> {
    let name = workload.name();
    let spec = set_up(workload, settings, spec_path)?;
    let (untraced_s, _, cli_report) = cli_sweep(settings, spec_path, out)?;
    std::fs::remove_dir_all(out).map_err(|e| format!("cannot remove {}: {e}", out.display()))?;
    let tracer = Tracer::new(true);
    let mirror = tracer.span("e2e.campaign", "", SpanId::ROOT, 0, |root| {
        mirror_campaign(
            &spec,
            &settings.work_dir.join(format!("{name}.mirror")),
            &tracer,
            root,
        )
    })?;
    let jobs = split_jobs(&spec, settings.seed)?;
    let reference = trials::run_untraced(&jobs)?;
    let splits = tracer.span("e2e.split", "", SpanId::ROOT, 1, |root| {
        trials::split_jobs(&jobs, &tracer, root)
    })?;
    let spans = tracer.finish();
    write_trace(settings, name, &spans)?;

    let mut measured = Measured {
        attempted: spec.cell_count() as u64,
        digest: fnv1a(&cli_report),
        ..Measured::default()
    };
    if mirror.report != cli_report {
        eprintln!("{name}: the mirrored report differs from the CLI's report.json");
        measured.failed = measured.attempted;
    }
    for (split, reference) in splits.iter().zip(&reference) {
        if &split.report_json != reference || !split.probe_matches {
            eprintln!("{name}: traced `{}` differs from run_dyn", split.name);
            measured.failed = measured.attempted;
        }
    }
    let m = &mut measured.metrics;
    trials::split_metrics(&spans, &splits, m);
    campaign_metrics(&spans, &mirror, m);
    let mirror_s = span_sum_ms(&spans, "e2e.campaign", None) / 1e3;
    m.insert("trace.overhead_share".into(), mirror_s / untraced_s - 1.0);
    m.insert(
        "trace.coverage_share".into(),
        crate::trace::coverage(&spans),
    );
    eprint!("{}", crate::trace::format_table(&spans));
    Ok(measured)
}

/// What the mirrored campaign loop produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Mirror {
    /// The `report.json` bytes the loop wrote.
    pub report: Vec<u8>,
    /// Bytes written by the persist steps.
    pub persisted_bytes: usize,
    /// Ground-truth interrupt deliveries across all cells.
    pub deliveries: u64,
}

/// The CLI's `campaign run` with public calls and a span around each:
/// write the spec and the empty manifest, `CampaignSpec::expand`, then
/// per wave `exec::parallel_map` over `campaign::run_cell`,
/// `ChunkManifest::record_chunk` and the persist step (`to_json` plus a
/// file write), then `report_from_manifest` and the report write.
///
/// # Errors
///
/// A spec the registry rejects, or an I/O error.
pub fn mirror_campaign(
    spec: &CampaignSpec,
    dir: &Path,
    tracer: &Tracer,
    root: SpanId,
) -> Result<Mirror, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let registry = segscope_attacks::registry();
    let manifest_path = dir.join("manifest.json");
    let mut manifest = CampaignManifest::new(spec);
    let mut persisted_bytes = 0;
    let mut persist = |manifest: &CampaignManifest, wave: u64| {
        tracer.span("campaign.persist", "", root, wave, |_| {
            let json = manifest.to_json() + "\n";
            persisted_bytes += json.len();
            write(&manifest_path, &json)
        })
    };
    tracer.span("campaign.persist", "", root, 0, |_| {
        write(&dir.join("spec.json"), &(spec.to_json() + "\n"))
    })?;
    persist(&manifest, 0)?;
    let cells = tracer
        .span("campaign.expand", "", root, 0, |_| spec.expand(&registry))
        .map_err(|e| e.to_string())?;
    let missing = manifest.remaining_cells();
    for (w, wave) in missing.chunks(SHARDS).enumerate() {
        let results = tracer.span("campaign.wave", "", root, w as u64, |wave_span| {
            exec::parallel_map(wave.len(), SHARDS, |k| {
                let cell = &cells[wave[k]];
                let scenario = registry
                    .get(&cell.scenario)
                    .expect("expanded cells name registered scenarios")
                    .name();
                tracer.span(
                    "campaign.cell",
                    scenario,
                    wave_span,
                    cell.index as u64,
                    |_| campaign::run_cell(&registry, cell, Some(1)),
                )
            })
        });
        tracer.span("campaign.record", "", root, w as u64, |_| {
            for (k, result) in results.into_iter().enumerate() {
                manifest.cells.record_chunk(wave[k], vec![result]);
            }
        });
        persist(&manifest, w as u64)?;
    }
    let (report, deliveries) = tracer.span("campaign.report", "", root, 0, |_| {
        let report = campaign::report_from_manifest(spec, &manifest).map_err(|e| e.to_string())?;
        let json = report.to_json() + "\n";
        write(&dir.join("report.json"), &json)?;
        Ok::<_, String>((json.into_bytes(), report.totals.ground_truth_deliveries))
    })?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(Mirror {
        report,
        persisted_bytes,
        deliveries,
    })
}

fn campaign_metrics(spans: &[Span], mirror: &Mirror, m: &mut BTreeMap<String, f64>) {
    let campaign_ms = span_sum_ms(spans, "e2e.campaign", None);
    let cell_ms = span_sum_ms(spans, "campaign.cell", None);
    let wave_ms = span_sum_ms(spans, "campaign.wave", None);
    m.insert(
        "campaign.persist_share".into(),
        span_sum_ms(spans, "campaign.persist", None) / campaign_ms,
    );
    m.insert(
        "campaign.persist_mb".into(),
        mirror.persisted_bytes as f64 / (1024.0 * 1024.0),
    );
    m.insert(
        "campaign.report_ms".into(),
        span_sum_ms(spans, "campaign.report", None),
    );
    m.insert(
        "campaign.wave_idle_share".into(),
        1.0 - cell_ms / (wave_ms * SHARDS as f64),
    );
    let cells: Vec<&Span> = spans.iter().filter(|s| s.name == "campaign.cell").collect();
    let durations: Vec<f64> = cells.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    m.insert("campaign.cell_ms.p50".into(), median(&durations));
    m.insert("campaign.cell_ms.p98".into(), percentile(&durations, 98.0));
    let mut per_scenario: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for (span, ms) in cells.iter().zip(&durations) {
        let entry = per_scenario.entry(span.detail).or_default();
        entry.0 += ms;
        entry.1 += 1;
    }
    for (scenario, (total, count)) in per_scenario {
        m.insert(format!("campaign.cell_ms.{scenario}"), total / count as f64);
    }
    m.insert("irq.deliveries".into(), mirror.deliveries as f64);
    m.insert(
        "irq.deliveries_per_ms".into(),
        mirror.deliveries as f64 / cell_ms,
    );
}

/// Writes the traced run's spans as Chrome `trace_event` JSON into the
/// work directory.
///
/// # Errors
///
/// An I/O error.
pub(crate) fn write_trace(
    settings: &Settings,
    workload: &str,
    spans: &[Span],
) -> Result<(), String> {
    let path = settings
        .work_dir
        .join(format!("{workload}.seed{}.trace.json", settings.seed));
    write(&path, &crate::trace::chrome_trace(spans))?;
    eprintln!("{workload}: {} spans -> {}", spans.len(), path.display());
    Ok(())
}
