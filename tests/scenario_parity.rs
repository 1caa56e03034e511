//! Parity tests of the `Scenario` registry/CLI driver (C-SCENARIO):
//!
//! 1. every registered scenario's report is **bit-identical at 1, 2, and
//!    4 worker threads** — the determinism contract the CLI inherits from
//!    `exec`;
//! 2. the type-erased face reports exactly the **typed driver's
//!    summary** for the same config;
//! 3. the machine the driver builds sits at the **same RNG position** as
//!    one built by the pre-registry construction sequence.
//!
//! That the driver's recycled lanes equal fresh `build_machine` +
//! `run_trial` for every scenario is `batch_parity.rs`'s job.

use rand::Rng;
use segscope_repro::attacks::{self, kaslr, keystroke};
use segscope_repro::exec;
use segscope_repro::memsim::KaslrLayout;
use segscope_repro::scenario::{run_scenario, RunOptions, Scenario, TrialCtx};
use segscope_repro::segsim::Machine;
use serde::Serialize;

fn report_json(name: &str, threads: usize) -> String {
    let entry = attacks::registry().get(name).expect("registered");
    let opts = RunOptions {
        threads: Some(threads),
        ..RunOptions::default()
    };
    let run = entry.run_dyn(None, &opts).expect("default params run");
    serde_json::to_string(&run.report).expect("report serializes")
}

/// The cheap scenarios cover the full 1/2/4 grid; the expensive
/// model-training ones (`website`, `dnnsteal`) prove the same contract on
/// 1 vs 2 threads to keep the suite fast.
#[test]
fn reports_are_bit_identical_across_thread_counts() {
    for name in [
        "covert",
        "kaslr",
        "keystroke",
        "procfp",
        "circl",
        "spectre",
        "spectral",
    ] {
        let reference = report_json(name, 1);
        for threads in [2, 4] {
            assert_eq!(
                report_json(name, threads),
                reference,
                "{name} report differs at {threads} threads"
            );
        }
    }
    for name in ["website", "dnnsteal"] {
        assert_eq!(
            report_json(name, 1),
            report_json(name, 2),
            "{name} report differs at 2 threads"
        );
    }
}

#[test]
fn keystroke_dyn_report_matches_typed_api() {
    let config = keystroke::KeystrokeConfig::quick();
    let summary = run_scenario(
        &keystroke::KeystrokeScenario,
        &config,
        &RunOptions::default(),
    )
    .summary;
    let entry = attacks::registry().get("keystroke").expect("registered");
    let run = entry
        .run_dyn(None, &RunOptions::default())
        .expect("default params run");
    assert_eq!(run.report.summary, summary.to_value());
}

/// The driver's `build_machine` must leave the machine RNG exactly where
/// the pre-registry construction sequence left it — one extra draw
/// anywhere would silently shift every downstream sample.
#[test]
fn built_machines_sit_at_the_direct_rng_position() {
    let cfg = kaslr::KaslrScenarioConfig::default();
    let ctx = TrialCtx {
        index: 0,
        seed: exec::derive_seed(0x6A51, 0),
        experiment_seed: 0x6A51,
    };
    let mut via_driver = kaslr::KaslrScenario.build_machine(&cfg, &ctx);
    let mut direct = Machine::new(cfg.machine.clone(), ctx.seed);
    let layout = KaslrLayout::randomize(direct.rng_mut());
    direct.set_kaslr(layout);
    assert_eq!(direct.kaslr(), via_driver.kaslr(), "same randomized layout");
    for draw in 0..4 {
        assert_eq!(
            via_driver.rng_mut().gen::<u64>(),
            direct.rng_mut().gen::<u64>(),
            "RNG streams diverge at draw {draw}"
        );
    }
}
