//! Real-kill crash consistency of `segscope campaign`: a campaign killed
//! with `SIGKILL` at a random instant resumes — at another shard count —
//! to a report byte-identical to an uninterrupted run, and a corrupted
//! cell log makes `campaign resume` fail naming the bad chunk instead of
//! reporting a wrong result.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use segscope_repro::campaign::{CampaignManifest, CellResult};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

const SEGSCOPE: &str = env!("CARGO_BIN_EXE_segscope");

/// A 2-scenario × 2-preset × 2-fault grid (eight cells).
const SPEC: &str = r#"{"name":"kill-grid","seed":193,
  "scenarios":[{"scenario":"kaslr","params":null},{"scenario":"covert","params":null}],
  "presets":["lenovo_yangtian","amazon_t2_large"],
  "faults":[{"name":"none","plan":null},
            {"name":"delivery_storm","plan":{"drop_prob":0.15,"duplicate_prob":0.08,
             "duplicate_delay":50000000,"coalesce_window":800000000,"handler_jitter_std":0,
             "freq_step_clamp_khz":null,"smt_burst_prob":0,"smt_burst_factor":1,"smt_burst_ops":0}}],
  "replicates":1,"trials":null}"#;

/// A fresh scratch directory for one test, holding the grid's spec.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("spec.json"), SPEC).expect("spec written");
    dir
}

fn campaign(verb: &str, dir: &Path, out: &str, shards: usize) -> Command {
    let mut command = Command::new(SEGSCOPE);
    command
        .arg("campaign")
        .arg(verb)
        .arg("--out")
        .arg(dir.join(out));
    if matches!(verb, "run" | "resume") {
        command.args(["--shards", &shards.to_string(), "--threads", "1"]);
    }
    if verb == "run" {
        command.arg("--spec").arg(dir.join("spec.json"));
        command.args(["--trials", "2"]);
    }
    command
}

fn succeed(mut command: Command) -> Output {
    let output = command.output().expect("segscope runs");
    assert!(
        output.status.success(),
        "{command:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// The report of the finished campaign in `dir/out`, whose cell log
/// must have been compacted away.
fn finished_report(dir: &Path, out: &str) -> Vec<u8> {
    assert!(
        !dir.join(out).join("cells.log").exists(),
        "{out}: a finished campaign keeps no cells.log"
    );
    std::fs::read(dir.join(out).join("report.json")).expect("report")
}

#[test]
fn sigkill_at_random_instants_resumes_to_the_identical_report() {
    let dir = scratch("campaign_kill");
    let started = Instant::now();
    succeed(campaign("run", &dir, "reference", 1));
    let wall = started.elapsed();
    let reference = finished_report(&dir, "reference");

    let mut rng = SmallRng::seed_from_u64(0x5161_4B11);
    for attempt in 0..8 {
        let out = format!("killed-{attempt}");
        let delay = wall.mul_f64(rng.gen::<f64>());
        let mut child = campaign("run", &dir, &out, 1).spawn().expect("spawns");
        std::thread::sleep(delay);
        // SIGKILL; a run that already finished makes this a no-op.
        let _ = child.kill();
        child.wait().expect("reaped");
        let manifest = dir.join(&out).join("manifest.json");
        if manifest.exists() {
            succeed(campaign("resume", &dir, &out, 3));
        } else {
            // Killed before the first manifest landed: nothing to resume.
            succeed(campaign("run", &dir, &out, 1));
        }
        let report = finished_report(&dir, &out);
        assert!(
            report == reference,
            "attempt {attempt}: report after a kill at {delay:?} differs from the reference"
        );
    }
}

/// The `[cell, [result]]` JSON entry of one manifest chunk — one line of
/// the cell log without its `\n`.
fn entry(cell: usize, results: &[CellResult]) -> String {
    serde_json::to_string(&(cell, results.to_vec())).expect("serializable")
}

#[test]
fn corrupted_manifests_make_resume_fail_naming_the_chunk() {
    let dir = scratch("campaign_corrupt");
    succeed(campaign("run", &dir, "reference", 3));
    let reference = finished_report(&dir, "reference");
    let mut first_wave = campaign("run", &dir, "cut", 3);
    first_wave.args(["--stop-after-waves", "1"]);
    succeed(first_wave);
    // The wave's results are in the log; the compacted base is empty.
    let base = std::fs::read_to_string(dir.join("cut/manifest.json")).expect("manifest");
    let mut manifest = CampaignManifest::from_json(&base).expect("valid manifest");
    assert_eq!(manifest.completed_cells(), 0, "a cut run does not compact");
    let log_path = dir.join("cut/cells.log");
    let good = std::fs::read_to_string(&log_path).expect("cell log");
    assert_eq!(manifest.replay_log(good.as_bytes()), Ok(false));
    let r: Vec<CellResult> = manifest
        .cells
        .completed()
        .map(|(_, results)| results[0].clone())
        .collect();
    assert_eq!(r.len(), 3, "one wave of three shards");
    let mut conflicting = r[1].clone();
    conflicting.replicate += 1;
    let last = entry(2, &r[2..]);
    let cases = [
        (entry(0, &r[..1]), entry(0, &[]), "chunk 0 holds 0 outputs"),
        (
            entry(1, &r[1..2]),
            entry(1, &[r[1].clone(), r[1].clone()]),
            "chunk 1 holds 2 outputs",
        ),
        (last.clone(), entry(8, &r[2..]), "chunk 8 is out of range"),
        // Appended after every real line: cells finish in any order, so
        // only the end of the log is a fixed line number.
        (
            good.clone(),
            format!("{good}{}\n", entry(1, &[conflicting])),
            "line 4: chunk 1 is recorded twice with different results",
        ),
    ];
    for (from, to, expected) in cases {
        let corrupted = good.replace(&from, &to);
        assert_ne!(corrupted, good, "the corruption must apply");
        std::fs::write(&log_path, corrupted).expect("log written");
        let output = campaign("resume", &dir, "cut", 2)
            .output()
            .expect("segscope runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "resume accepted `{expected}`");
        assert!(stderr.contains(expected), "`{stderr}` lacks `{expected}`");
    }
    // An append cut mid-line is dropped, and its cell reruns.
    let torn = &good[..good.len() - last.len() / 2];
    std::fs::write(&log_path, torn).expect("log written");
    let status = succeed(campaign("status", &dir, "cut", 1));
    assert!(
        String::from_utf8_lossy(&status.stdout).contains("2/8 cells complete"),
        "status counts the whole lines only"
    );
    succeed(campaign("resume", &dir, "cut", 2));
    assert!(
        finished_report(&dir, "cut") == reference,
        "a resume past a torn line differs from the reference"
    );
}

/// `campaign status` and `campaign report` read the persisted spec and
/// take only `--out`: every run flag exits 1 naming the flag, instead of
/// being dropped while the verb reports the persisted grid.
#[test]
fn status_and_report_refuse_every_flag_but_out() {
    let dir = scratch("campaign_read_flags");
    succeed(campaign("run", &dir, "done", 2));
    let spec = dir.join("spec.json");
    let spec = spec.to_str().expect("utf-8 path");
    let rejected = [
        ["--spec", spec],
        ["--seed", "1"],
        ["--trials", "99"],
        ["--shards", "2"],
        ["--threads", "1"],
        ["--stop-after-waves", "1"],
    ];
    for verb in ["status", "report"] {
        for [flag, value] in rejected {
            let output = Command::new(SEGSCOPE)
                .args(["campaign", verb, "--out"])
                .arg(dir.join("done"))
                .args([flag, value])
                .output()
                .expect("segscope runs");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{verb} {flag}: {stderr}");
            assert!(
                stderr.contains(&format!("`{flag}`")),
                "{verb} {flag}: {stderr}"
            );
        }
        succeed(campaign(verb, &dir, "done", 1));
    }
}
