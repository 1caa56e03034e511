//! Every workload at a tiny scale through the benchmark's own code:
//! a 2×2 campaign grid, 4 trials per scenario, about 200 sessions.
//!
//! The campaign workloads drive the `segscope` CLI. Build it first
//! (`cargo build --release --offline --bin segscope` at the repository
//! root); without it the campaign runs are skipped with a note and only
//! the mirrored campaign loop is checked.

use campaign::{CampaignManifest, CampaignOptions};
use segscope_e2e::campaigns::{self, mirror_campaign};
use segscope_e2e::trace::{SpanId, Tracer};
use segscope_e2e::{run_workload, Outcome, Scale, Settings, Workload};
use serde::Value;
use std::path::{Path, PathBuf};

/// The CLI built into this test's target directory or the repository's
/// `target/`, if any.
fn cli() -> Option<PathBuf> {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_segscope-e2e"));
    let profile_dir = exe.parent()?;
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    [
        profile_dir.join("segscope"),
        profile_dir.parent()?.join("release/segscope"),
        repo.join("target/release/segscope"),
    ]
    .into_iter()
    .find(|p| p.is_file())
}

fn settings(name: &str, trace: bool, cli: PathBuf) -> Settings {
    Settings {
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Smoke,
        work_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{trace}")),
        cli,
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let top: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let top = top.as_map().expect("an object");
    serde::get_field(top, section)
        .and_then(Value::as_seq)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let m = m.as_map().expect("a metric object");
            let text = |k| {
                serde::get_field(m, k)
                    .and_then(Value::as_str)
                    .expect("a string field")
                    .to_owned()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn check_metrics(workload: Workload, outcome: &Outcome, section: &str) {
    let emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect();
    assert_eq!(emitted, declared(section), "{} {section}", workload.name());
    for m in &outcome.metrics {
        assert!(
            m.value.is_finite(),
            "{} {}: {}",
            workload.name(),
            m.name,
            m.value
        );
        assert!(!m.unit.is_empty());
    }
}

/// Untraced and traced runs both pass their output checks, emit every
/// declared metric, and agree on the output digest.
fn smoke(workload: Workload) {
    let cli = match workload {
        Workload::PaperGrid | Workload::ManyCells => match cli() {
            Some(cli) => cli,
            None => {
                eprintln!("skipping {}: no segscope CLI built", workload.name());
                return;
            }
        },
        _ => PathBuf::new(),
    };
    let name = workload.name();
    let untraced = run_workload(workload, &settings(name, false, cli.clone())).expect("runs");
    let traced = run_workload(workload, &settings(name, true, cli)).expect("runs");
    for outcome in [&untraced, &traced] {
        assert!(outcome.correct(), "{name}: {outcome:?}");
        assert!(outcome.attempted > 0);
    }
    check_metrics(workload, &untraced, "end_to_end");
    check_metrics(workload, &traced, "per_layer");
    assert_eq!(untraced.digest, traced.digest, "{name}");
    let line = untraced.to_json();
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
}

#[test]
fn paper_grid() {
    smoke(Workload::PaperGrid);
}

#[test]
fn many_cells() {
    smoke(Workload::ManyCells);
}

#[test]
fn sim_trials() {
    smoke(Workload::SimTrials);
}

#[test]
fn serve_stream() {
    smoke(Workload::ServeStream);
}

#[test]
fn mirrored_campaign_report_equals_run_campaign() {
    let spec = campaigns::spec(Workload::PaperGrid, Scale::Smoke, 11);
    let registry = segscope_attacks::registry();
    let mut manifest = CampaignManifest::new(&spec);
    let opts = CampaignOptions {
        shards: segscope_e2e::THREADS,
        threads: Some(1),
        stop_after_waves: None,
    };
    let report = campaign::run_campaign(&registry, &spec, &opts, &mut manifest, |_| {})
        .expect("the smoke grid runs")
        .expect("and completes");
    let tracer = Tracer::new(true);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-mirror");
    let mirror = mirror_campaign(&spec, &dir, &tracer, SpanId::ROOT).expect("the mirror runs");
    assert_eq!(mirror.report, (report.to_json() + "\n").into_bytes());
    assert_eq!(mirror.deliveries, report.totals.ground_truth_deliveries);
    let cells = tracer
        .finish()
        .into_iter()
        .filter(|s| s.name == "campaign.cell")
        .count();
    assert_eq!(cells, spec.cell_count());
}
