//! Golden scenario-report snapshots, pinned at the CLI-visible report
//! layer: the exact JSON `segscope run <name>` prints for a fixed seed
//! and trial count is blessed into `tests/golden/<name>.report.json`.
//!
//! The two enclave studies (`aexcount`, `heckler`) pin the kernel-exit
//! model, the defense layer and the enclave lifecycle. The two model-
//! training scenarios (`website`, `dnnsteal`) run their default trial
//! count, so the report pins the trained `SeqClassifier` / `SeqTagger`
//! numerics bit for bit. Any drift in those layers or in the scenario
//! driver shows up as a byte diff here. The `segscope serve-bench`
//! report, which pins the streaming engine's verdicts, is compared the
//! same way against `tests/golden/serve.report.json`.
//! Regenerate intentionally with:
//!
//! ```text
//! SEGSCOPE_BLESS=1 cargo test --test golden_enclave
//! ```

use segscope_repro::attacks;
use segscope_repro::scenario::RunOptions;
use serde::Serialize;
use std::path::PathBuf;

/// Fixed seed for every golden report run.
const GOLDEN_SEED: u64 = 0x601D;
/// Trials per golden run — small, but enough to exercise multi-trial
/// seed derivation and the summary reductions.
const GOLDEN_TRIALS: usize = 3;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.report.json"))
}

/// Checks `name`'s report at `trials` trials (`None`: the scenario's
/// default count) against its blessed golden.
fn check_golden_report(name: &str, trials: Option<usize>) {
    let entry = attacks::registry().get(name).expect("scenario registered");
    let opts = RunOptions {
        seed: Some(GOLDEN_SEED),
        trials,
        ..RunOptions::default()
    };
    let run = entry.run_dyn(None, &opts).expect("default params valid");
    let actual = serde_json::to_string(&run.report.to_value()).expect("report serializes");
    check_golden(name, actual);
}

/// Compares one report line with `tests/golden/<name>.report.json`, or
/// blesses it under `SEGSCOPE_BLESS=1`.
fn check_golden(name: &str, actual: String) {
    let path = golden_path(name);
    if std::env::var("SEGSCOPE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, actual + "\n").expect("golden file writable");
        return;
    }
    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with SEGSCOPE_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        blessed.trim_end(),
        "golden report drift for `{name}`; if intentional, regenerate with \
         SEGSCOPE_BLESS=1 cargo test --test golden_enclave"
    );
}

#[test]
fn golden_aexcount_report() {
    check_golden_report("aexcount", Some(GOLDEN_TRIALS));
}

#[test]
fn golden_heckler_report() {
    check_golden_report("heckler", Some(GOLDEN_TRIALS));
}

/// Website fingerprinting at its default dataset: four folds of
/// `SeqClassifier` training, top-1 and top-5 per fold.
#[test]
fn golden_website_report() {
    check_golden_report("website", None);
}

/// DNN layer segmentation at its default dataset: `SeqTagger` training
/// on ragged sequences, segment and Levenshtein accuracy.
#[test]
fn golden_dnnsteal_report() {
    check_golden_report("dnnsteal", None);
}

/// Streaming serving at `segscope serve-bench`'s defaults: the report
/// the built binary prints (the verdict FNV of twelve website sessions,
/// batched verified identical to sequential) is pinned byte for byte.
#[test]
fn golden_serve_bench_report() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_segscope"))
        .arg("serve-bench")
        .output()
        .expect("segscope runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "serve-bench failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("the report is UTF-8");
    check_golden("serve", stdout.trim_end().to_owned());
}
