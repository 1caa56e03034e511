//! Scheduler properties of [`campaign::run_campaign`]: cells are claimed
//! one at a time by `shards` workers and persisted in group commits by
//! the calling thread, so cells finish and commit in an order that
//! depends on their costs and on the host.
//!
//! None of that may reach the report or the manifest. On a grid whose
//! cells differ several-fold in cost, every worker count gives the same
//! report bytes, every persist records at least one new cell, and each
//! cell is recorded exactly once. A complete manifest runs nothing. A
//! panicking cell stops the other workers from claiming cells, keeps
//! every cell recorded before it, and surfaces its own payload.

use campaign::{
    CampaignCell, CampaignManifest, CampaignOptions, CampaignSpec, DefenseVariant, FaultVariant,
    ScenarioSel,
};
use proptest::prelude::*;
use scenario::{DynScenario, Registry, Scenario, TrialCtx};
use segsim::{FaultPlan, Machine, MachineConfig};
use serde::{Deserialize, Serialize, Value};
use std::panic::{self, AssertUnwindSafe};

/// Segment reads per trial of the cheapest cell.
const OPS: u64 = 4_000;

/// A probe whose host cost varies per cell: a trial executes between 1x
/// and 8x `ops` segment reads, the multiple drawn from the cell's
/// experiment seed. A trial of a cell whose seed is in `panic_seeds`
/// panics before doing any work.
struct SkewProbe;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SkewConfig {
    machine: MachineConfig,
    ops: u64,
    panic_seeds: Vec<u64>,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            machine: MachineConfig::xiaomi_air13(),
            ops: OPS,
            panic_seeds: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SkewSummary {
    samples: Vec<u64>,
}

impl Scenario for SkewProbe {
    type Config = SkewConfig;
    type TrialOutput = u64;
    type Summary = SkewSummary;

    fn name(&self) -> &'static str {
        "skew_probe"
    }

    fn describe(&self) -> &'static str {
        "campaign scheduler test scenario with skewed cell costs"
    }

    fn experiment_seed(&self, _config: &SkewConfig, requested: Option<u64>) -> u64 {
        requested.unwrap_or(0x5CE3)
    }

    fn trial_count(&self, _config: &SkewConfig, requested: Option<usize>) -> usize {
        requested.unwrap_or(2)
    }

    fn machine(&self, config: &SkewConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (config.machine.clone(), ctx.seed)
    }

    fn run_trial(&self, config: &SkewConfig, machine: &mut Machine, ctx: &TrialCtx) -> u64 {
        if config.panic_seeds.contains(&ctx.experiment_seed) {
            panic!("skew probe trips at seed {:#x}", ctx.experiment_seed);
        }
        let mut fold = ctx.seed;
        for _ in 0..config.ops * (1 + ctx.experiment_seed % 8) {
            fold = fold.rotate_left(5) ^ u64::from(machine.rdgs().bits());
        }
        fold ^ machine.now().as_ps()
    }

    fn summarize(&self, _config: &SkewConfig, outputs: &[u64]) -> SkewSummary {
        SkewSummary {
            samples: outputs.to_vec(),
        }
    }
}

static PROBES: [&dyn DynScenario; 1] = [&SkewProbe];

fn registry() -> Registry {
    Registry::new(&PROBES)
}

/// A 2-preset × 2-fault × 3-replicate grid (12 cells) of the probe,
/// tripping at the cells listed in `panic_cells`.
fn spec(seed: u64, panic_cells: &[usize]) -> CampaignSpec {
    let panic_seeds = panic_cells
        .iter()
        .map(|&cell| Value::Int(i128::from(exec::derive_seed(seed, cell as u64))))
        .collect();
    CampaignSpec {
        name: "scheduler-props".to_owned(),
        seed,
        scenarios: vec![ScenarioSel {
            scenario: "skew_probe".to_owned(),
            params: Some(Value::Map(vec![
                ("ops".to_owned(), Value::Int(OPS.into())),
                ("panic_seeds".to_owned(), Value::Seq(panic_seeds)),
            ])),
        }],
        presets: vec!["xiaomi_air13".to_owned(), "amazon_t2_large".to_owned()],
        faults: vec![
            FaultVariant::none(),
            FaultVariant {
                name: "delivery_storm".to_owned(),
                plan: Some(FaultPlan::delivery_storm()),
            },
        ],
        defenses: vec![DefenseVariant::none()],
        replicates: 3,
        trials: Some(2),
    }
}

fn options(shards: usize) -> CampaignOptions {
    CampaignOptions {
        shards,
        threads: Some(1),
        stop_after_waves: None,
    }
}

/// Runs `spec` to completion from `manifest` at `shards` workers and
/// returns the report JSON plus `completed_cells()` at every persist.
fn run(
    spec: &CampaignSpec,
    shards: usize,
    manifest: &mut CampaignManifest,
) -> (String, Vec<usize>) {
    let mut seen = Vec::new();
    let report = campaign::run_campaign(&registry(), spec, &options(shards), manifest, |m| {
        seen.push(m.completed_cells());
    })
    .expect("the grid runs")
    .expect("the grid completes");
    (report.to_json(), seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any worker count, including more workers than cells, yields the
    /// same report, and the persist hook sees the completed count rise
    /// strictly from batch to batch up to the whole grid.
    #[test]
    fn any_worker_count_commits_every_cell_once_to_the_same_report(seed in 0u64..1_000_000) {
        let spec = spec(seed, &[]);
        let total = spec.cell_count();
        let mut reference = None;
        for shards in [1, 2, 3, 8, total + 3] {
            let mut manifest = CampaignManifest::new(&spec);
            let (json, seen) = run(&spec, shards, &mut manifest);
            prop_assert!(
                seen.windows(2).all(|w| w[0] < w[1]),
                "shards {}: persisted counts {:?} do not strictly increase", shards, seen
            );
            prop_assert_eq!(seen.last().copied(), Some(total), "shards {}", shards);
            prop_assert!(seen[0] >= 1);
            match &reference {
                None => reference = Some(json),
                Some(reference) => prop_assert_eq!(&json, reference, "shards {}", shards),
            }
        }
    }
}

#[test]
fn a_complete_manifest_runs_no_cell_and_never_persists() {
    let seed = 0xD0E5;
    let clean = spec(seed, &[]);
    let mut manifest = CampaignManifest::new(&clean);
    run(&clean, 2, &mut manifest);
    let reference = campaign::report_from_manifest(&clean, &manifest).expect("complete");
    // The same grid with every cell armed to panic, its manifest filled
    // from the finished run: any cell a worker ran would panic.
    let all: Vec<usize> = (0..clean.cell_count()).collect();
    let tripwire = spec(seed, &all);
    let mut complete = CampaignManifest::new(&tripwire);
    for (cell, results) in manifest.cells.completed() {
        complete.cells.record_chunk(cell, results.to_vec());
    }
    for shards in [1, 3] {
        let mut persists = 0;
        let report = campaign::run_campaign(
            &registry(),
            &tripwire,
            &options(shards),
            &mut complete,
            |_| persists += 1,
        )
        .expect("runs")
        .expect("a complete manifest reports at once");
        assert_eq!(persists, 0, "shards {shards}");
        assert_eq!(
            report.cell_results, reference.cell_results,
            "shards {shards}"
        );
    }
}

/// The cell results a manifest holds, by cell.
fn recorded(manifest: &CampaignManifest) -> Vec<(usize, campaign::CellResult)> {
    manifest
        .cells
        .completed()
        .map(|(cell, results)| (cell, results[0].clone()))
        .collect()
}

#[test]
fn a_panicking_cell_stops_the_claims_and_keeps_its_payload() {
    const TRIP: usize = 2;
    let seed = 0x7219;
    let spec = spec(seed, &[TRIP]);
    let total = spec.cell_count();
    let registry = registry();
    let cells: Vec<CampaignCell> = spec.expand(&registry).expect("valid spec");
    let expected = format!(
        "skew probe trips at seed {:#x}",
        exec::derive_seed(seed, TRIP as u64)
    );
    for shards in [1, 3] {
        let mut manifest = CampaignManifest::new(&spec);
        let mut persisted = manifest.to_json();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            campaign::run_campaign(&registry, &spec, &options(shards), &mut manifest, |m| {
                persisted = m.to_json();
            })
        }));
        let payload = outcome.expect_err("the tripping cell's panic propagates");
        assert_eq!(
            payload.downcast_ref::<String>(),
            Some(&expected),
            "shards {shards}: the original payload"
        );
        // The last batch was persisted and reloads, and each cell in it
        // is exactly the cell's own run.
        assert_eq!(persisted, manifest.to_json(), "shards {shards}");
        CampaignManifest::from_json(&persisted).expect("the manifest parses");
        let kept = recorded(&manifest);
        for (cell, result) in &kept {
            assert_ne!(*cell, TRIP);
            assert_eq!(
                *result,
                campaign::run_cell(&registry, &cells[*cell], Some(1)),
                "shards {shards}: cell {cell}"
            );
        }
        if shards == 1 {
            // One worker: exactly the cells before the trip, in order.
            let indices: Vec<usize> = kept.iter().map(|(cell, _)| *cell).collect();
            assert_eq!(indices, (0..TRIP).collect::<Vec<_>>());
        } else {
            // Without the stop flag the other workers would run every
            // other cell.
            assert!(
                kept.len() < total - 1,
                "shards {shards}: {} cells ran after the panic",
                kept.len()
            );
        }
    }
}
