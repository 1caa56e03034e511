//! Hostile-input properties of the campaign cell log: what
//! `campaign resume`/`status`/`report` load is a compacted
//! `manifest.json` with `cells.log` replayed on top
//! ([`CampaignManifest::replay_log`]), and no log text may make that
//! load panic.
//!
//! A truncated log loses exactly its torn final line. A duplicated line
//! is skipped when it repeats its cell's result, and rejected naming the
//! line when it contradicts it. A deeply nested junk line is rejected
//! naming the line. A single mutated byte either fails naming a line or
//! changes only the cell of the line it hit: log lines carry no
//! checksum (they are exactly the manifest's `[cell, [result]]`
//! entries), so a mutation that leaves a well-formed result of the
//! right cell is indistinguishable from a real one.

use campaign::{
    CampaignError, CampaignManifest, CampaignSpec, CellResult, DefenseVariant, FaultVariant,
    ScenarioSel,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scenario::{RunReport, RunTotals};
use segsim::FaultLog;
use serde::Value;

/// Cells in the test grid.
const CELLS: usize = 12;

/// A one-axis grid of [`CELLS`] replicates; it is never expanded, only
/// used for its digest and cell count.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "log-props".to_owned(),
        seed: 0x10C5,
        scenarios: vec![ScenarioSel::named("probe")],
        presets: vec!["xiaomi_air13".to_owned()],
        faults: vec![FaultVariant::none()],
        defenses: vec![DefenseVariant::none()],
        replicates: CELLS as u64,
        trials: Some(2),
    }
}

/// A synthetic cell result whose every field is a function of
/// `(index, seed)`, with a nested summary of strings, integers and
/// floats for mutations to land in.
fn cell_from(index: usize, seed: u64) -> CellResult {
    let mut rng = SmallRng::seed_from_u64(seed ^ index as u64);
    let trials = rng.gen_range(1..50u64);
    let deliveries = rng.gen_range(0..10_000u64);
    let summary = Value::Map(vec![
        ("accuracy".to_owned(), Value::Float(rng.gen())),
        (
            "samples".to_owned(),
            Value::Seq(
                (0..4)
                    .map(|_| Value::Int(rng.gen_range(0..1000i64).into()))
                    .collect(),
            ),
        ),
        ("label".to_owned(), Value::Str(format!("cell \"{index}\""))),
    ]);
    CellResult {
        index,
        scenario: "probe".to_owned(),
        preset: "xiaomi_air13".to_owned(),
        fault: "none".to_owned(),
        defense: "none".to_owned(),
        replicate: index as u64,
        report: RunReport {
            scenario: "probe".to_owned(),
            seed: rng.gen(),
            trials: trials as usize,
            ground_truth_deliveries: deliveries,
            params: Value::Null,
            summary,
        },
        totals: RunTotals {
            trials,
            ground_truth_deliveries: deliveries,
        },
        fault_log: FaultLog {
            dropped: rng.gen_range(0..100),
            ..FaultLog::default()
        },
    }
}

/// A campaign caught mid-run: a base manifest holding the first `based`
/// cells of `done` (a compaction), and the log lines of the rest.
struct Fixture {
    base: CampaignManifest,
    lines: Vec<String>,
    /// Cell of each log line.
    line_cells: Vec<usize>,
}

impl Fixture {
    fn new(seed: u64, done: usize, based: usize) -> Self {
        let spec = spec();
        let mut base = CampaignManifest::new(&spec);
        let (mut lines, mut line_cells) = (Vec::new(), Vec::new());
        for index in 0..done {
            let cell = cell_from(index, seed);
            if index < based {
                base.cells.record_chunk(index, vec![cell]);
            } else {
                lines.push(CampaignManifest::log_line(&cell));
                line_cells.push(index);
            }
        }
        // The base is what `manifest.json` round-trips to.
        let base = CampaignManifest::from_json(&base.to_json()).expect("base parses");
        Fixture {
            base,
            lines,
            line_cells,
        }
    }

    fn log(&self) -> Vec<u8> {
        self.lines.concat().into_bytes()
    }

    /// The manifest the first `lines` whole log lines give.
    fn clean(&self, lines: usize) -> CampaignManifest {
        let mut manifest = self.base.clone();
        let log: String = self.lines[..lines].concat();
        assert_eq!(manifest.replay_log(log.as_bytes()), Ok(false));
        manifest
    }
}

/// The loader the CLI runs: the base manifest with `log` replayed on
/// top, or the error message of the line that failed.
fn load(base: &CampaignManifest, log: &[u8]) -> Result<(CampaignManifest, bool), String> {
    let mut manifest = base.clone();
    match manifest.replay_log(log) {
        Ok(torn) => Ok((manifest, torn)),
        Err(CampaignError::Parse(message)) => Err(message),
        Err(other) => panic!("the log loader errs with Parse only, got {other:?}"),
    }
}

/// The 1-based line an error message names.
fn named_line(message: &str) -> usize {
    message
        .strip_prefix("line ")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("`{message}` does not name a line"))
}

/// The index of the line holding byte `at` of `lines`' concatenation.
fn line_at(lines: &[String], at: usize) -> usize {
    let mut end = 0;
    lines
        .iter()
        .position(|line| {
            end += line.len();
            at < end
        })
        .expect("the byte is inside the log")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A log cut at any byte loads to the clean manifest minus the torn
    /// final line — exactly the whole lines before the cut.
    #[test]
    fn truncated_logs_lose_only_the_torn_tail(
        seed in any::<u64>(),
        done in 1usize..=CELLS,
        based in 0usize..CELLS,
        cut in any::<usize>(),
    ) {
        let fixture = Fixture::new(seed, done, based.min(done - 1));
        let log = fixture.log();
        let cut = cut % (log.len() + 1);
        // The whole lines before the cut, and the bytes they span.
        let (mut whole, mut kept) = (0, 0);
        while whole < fixture.lines.len() && kept + fixture.lines[whole].len() <= cut {
            kept += fixture.lines[whole].len();
            whole += 1;
        }
        prop_assert_eq!(load(&fixture.base, &log[..cut]), Ok((fixture.clean(whole), cut > kept)));
    }

    /// A cell logged again — after its own line, or anywhere when the
    /// base already holds it (a kill between compaction and the log's
    /// removal) — is skipped; a copy holding a different result is
    /// rejected naming the copy's line.
    #[test]
    fn duplicated_lines_are_skipped_or_rejected_naming_the_line(
        seed in any::<u64>(),
        done in 1usize..=CELLS,
        based in 0usize..CELLS,
        pick in any::<usize>(),
        at in any::<usize>(),
        conflict in any::<bool>(),
    ) {
        let based = based.min(done - 1);
        let fixture = Fixture::new(seed, done, based);
        let n = fixture.lines.len();
        let cell = pick % done;
        let first = if cell < based { 0 } else { cell - based + 1 };
        let at = first + at % (n + 1 - first);
        let mut copy = cell_from(cell, seed);
        if conflict {
            copy.replicate += 1;
        }
        let mut lines = fixture.lines.clone();
        lines.insert(at, CampaignManifest::log_line(&copy));
        let loaded = load(&fixture.base, lines.concat().as_bytes());
        if conflict {
            let message = loaded.expect_err("a conflicting duplicate is an error");
            prop_assert_eq!(named_line(&message), at + 1);
            prop_assert!(message.contains("recorded twice with different results"), "{}", message);
        } else {
            prop_assert_eq!(loaded, Ok((fixture.clean(n), false)));
        }
    }

    /// A deeply nested junk line fails naming itself, never overflowing
    /// the stack.
    #[test]
    fn deeply_nested_junk_lines_are_rejected_naming_the_line(
        seed in any::<u64>(),
        done in 1usize..=CELLS,
        at in any::<usize>(),
        depth in 129usize..50_000,
        objects in any::<bool>(),
    ) {
        let fixture = Fixture::new(seed, done, 0);
        let at = at % (fixture.lines.len() + 1);
        let junk = if objects { "{\"a\":" } else { "[" }.repeat(depth) + "\n";
        let mut lines = fixture.lines.clone();
        lines.insert(at, junk);
        let message = load(&fixture.base, lines.concat().as_bytes())
            .expect_err("junk is an error");
        prop_assert_eq!(named_line(&message), at + 1);
        prop_assert!(message.contains("nesting too deep"), "{}", message);
    }

    /// One byte of the log replaced by any other: an error naming the
    /// line hit (a `\n` it replaced joins the next line onto it), or a
    /// manifest in which only the hit line's cell can differ from the
    /// clean one.
    #[test]
    fn mutated_bytes_fail_naming_a_line_or_touch_only_their_cell(
        seed in any::<u64>(),
        done in 1usize..=CELLS,
        based in 0usize..CELLS,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let fixture = Fixture::new(seed, done, based.min(done - 1));
        let mut log = fixture.log();
        let at = at % log.len();
        prop_assume!(log[at] != byte);
        log[at] = byte;
        let hit = line_at(&fixture.lines, at);
        let clean = fixture.clean(fixture.lines.len());
        match load(&fixture.base, &log) {
            Err(message) => prop_assert_eq!(named_line(&message), hit + 1, "{}", message),
            Ok((loaded, _)) => {
                let hit_cell = fixture.line_cells[hit];
                for cell in 0..CELLS {
                    if cell != hit_cell {
                        prop_assert_eq!(loaded.cells.chunk(cell), clean.cells.chunk(cell), "cell {}", cell);
                    }
                }
            }
        }
    }

    /// The same single-byte mutations of `manifest.json` itself are an
    /// error or a manifest, never a panic.
    #[test]
    fn mutated_base_manifests_never_panic(
        seed in any::<u64>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let fixture = Fixture::new(seed, CELLS, CELLS / 2);
        let mut json = fixture.base.to_json().into_bytes();
        let at = at % json.len();
        json[at] = byte;
        if let Ok(text) = std::str::from_utf8(&json) {
            if let Ok(mut manifest) = CampaignManifest::from_json(text) {
                let _ = manifest.replay_log(&fixture.log());
            }
        }
    }
}
