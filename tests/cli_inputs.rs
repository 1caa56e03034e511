//! CLI input and output edges: counts that must be at least 1, an event
//! index past the end of a recording, and a stdout that cannot be
//! written. Each exits 1 with an error on stderr (naming the flag where
//! one is at fault), never 0 with a degenerate result or 101 from a
//! panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SEGSCOPE: &str = env!("CARGO_BIN_EXE_segscope");

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn segscope(args: &[&str]) -> Output {
    Command::new(SEGSCOPE)
        .args(args)
        .output()
        .expect("segscope runs")
}

/// Asserts exit status 1 with `flag` named in stderr.
fn assert_refused(output: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{flag}: {stderr}");
    assert!(stderr.contains(&format!("`{flag}`")), "{flag}: {stderr}");
}

#[test]
fn zero_trials_are_refused_by_run_and_campaign_run() {
    assert_refused(&segscope(&["run", "kaslr", "--trials", "0"]), "--trials");
    let dir = scratch("cli_zero_trials");
    let spec = dir.join("spec.json");
    let out = dir.join("out");
    let output = Command::new(SEGSCOPE)
        .args(["campaign", "spec", "--out"])
        .arg(&spec)
        .output()
        .expect("segscope runs");
    assert!(output.status.success(), "campaign spec failed");
    let output = Command::new(SEGSCOPE)
        .args(["campaign", "run", "--trials", "0", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("segscope runs");
    assert_refused(&output, "--trials");
    assert!(!out.exists(), "a refused campaign wrote its directory");
}

#[test]
fn snapshot_refuses_zero_spans() {
    let dir = scratch("cli_zero_spans");
    let out = dir.join("rec.json");
    let output = Command::new(SEGSCOPE)
        .args(["snapshot", "--spans", "0", "--out"])
        .arg(&out)
        .output()
        .expect("segscope runs");
    assert_refused(&output, "--spans");
    assert!(!out.exists(), "a refused snapshot wrote a recording");
}

/// `--from` may name any event of the recording or its end; one past the
/// end is refused instead of being clamped to the last rung.
#[test]
fn replay_refuses_an_event_past_the_recording() {
    let dir = scratch("cli_replay_from");
    let rec = dir.join("rec.json");
    let rec = rec.to_str().expect("utf-8 path");
    let output = segscope(&["snapshot", "--spans", "6", "--every", "2", "--out", rec]);
    assert!(output.status.success(), "snapshot failed");
    // "recorded N events over ..."
    let stdout = String::from_utf8_lossy(&output.stdout);
    let events: usize = stdout
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no event count in `{stdout}`"));
    let end = events.to_string();
    assert!(segscope(&["replay", "--in", rec, "--from", &end])
        .status
        .success());
    let past = (events + 1).to_string();
    for from in [past.as_str(), "99999999", "18446744073709551615"] {
        assert_refused(
            &segscope(&["replay", "--in", rec, "--from", from]),
            "--from",
        );
    }
}

/// A stdout write error (here `/dev/full`'s ENOSPC) is reported and
/// exits 1, where `println!` panicked with exit status 101.
#[test]
fn a_failed_stdout_write_exits_1() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let output = Command::new(SEGSCOPE)
        .args(["run", "covert", "--trials", "1"])
        .stdout(full)
        .output()
        .expect("segscope runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write to stdout"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
