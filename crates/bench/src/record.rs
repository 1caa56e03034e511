//! The one schema every `BENCH_*.json` uses.
//!
//! A [`BenchRecord`] is a flat list of measured [`Arm`]s plus the
//! [`Gate`]s the bench derives from them. [`BenchRecord::validate`]
//! knows nothing about any particular bench beyond which arms it must
//! carry; it applies the same rules to every record:
//!
//! - every arm value is finite, and every rate arm (unit ending in `/s`)
//!   is positive,
//! - all arms of one layer that carry a digest carry the same digest —
//!   two code paths that must agree bit for bit (cached vs naive fabric,
//!   recycled vs fresh trials, sharded vs serial sweeps, batched vs
//!   sequential serving, ...) are two arms of one layer,
//! - every armed gate meets its bar.
//!
//! Gates that need a multi-core host are recorded unarmed on one core,
//! so a single-core record still shows the measured value.

use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One bench run: what ran, where, every measured arm, and every gate.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    /// Bench name; the default output file is `BENCH_<bench>.json`.
    pub bench: String,
    /// The measurement host.
    pub host: Host,
    /// Whether the run used the full scale (`SEGSCOPE_BENCH_FULL=1`).
    pub full_scale: bool,
    /// The workload, in words.
    pub note: String,
    /// Measured values, in measurement order.
    pub arms: Vec<Arm>,
    /// Pass/fail claims over the arms.
    pub gates: Vec<Gate>,
}

/// The measurement host.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Hardware threads available to the process.
    pub threads: usize,
}

/// One measured value.
#[derive(Debug, Clone, Serialize)]
pub struct Arm {
    /// What ran, unique within its layer.
    pub name: String,
    /// The layer measured; digest-carrying arms of one layer must agree.
    pub layer: String,
    /// Unit of `value`; a unit ending in `/s` marks a rate.
    pub unit: String,
    /// The measurement.
    pub value: f64,
    /// FNV-1a fold of what the arm computed, as `0x`-prefixed hex.
    pub digest: Option<String>,
}

/// One claim: `value` meets `bar` from the better side.
#[derive(Debug, Clone, Serialize)]
pub struct Gate {
    /// What the gate claims.
    pub name: String,
    /// The measured value the claim is about.
    pub value: f64,
    /// The value to meet (`>=` when higher is better, else `<=`).
    pub bar: f64,
    /// Which side of the bar passes.
    pub higher_is_better: bool,
    /// Whether a miss fails the record (multi-core gates disarm on one
    /// core).
    pub armed: bool,
}

impl Gate {
    /// Whether the value meets the bar (armed or not).
    #[must_use]
    pub fn met(&self) -> bool {
        if self.higher_is_better {
            self.value >= self.bar
        } else {
            self.value <= self.bar
        }
    }
}

/// The `(layer, name)` arms a bench's claims compare: a record missing
/// one of them proves nothing about that claim.
fn required_arms(bench: &str) -> &'static [(&'static str, &'static str)] {
    match bench {
        "hotpath" => &[
            ("fabric", "naive"),
            ("fabric", "cached"),
            ("probe", "probe_n"),
            ("probe", "probe_n_into"),
            ("trials", "fresh"),
            ("trials", "recycled"),
            ("fold", "oracle"),
            ("fold", "tiled"),
        ],
        "parallel" => &[
            ("engine", "serial"),
            ("engine", "parallel"),
            ("lstm", "naive"),
            ("lstm", "optimized"),
            ("lstm", "lanes"),
            ("ragged", "one_lane"),
            ("ragged", "grouped"),
        ],
        "campaign" => &[("campaign", "shards=1")],
        "serve" => &[("serve.f64", "sequential"), ("serve.f64", "batched x64")],
        _ => &[],
    }
}

impl BenchRecord {
    /// An empty record for `bench` on this host at the scale
    /// `SEGSCOPE_BENCH_FULL` selects.
    #[must_use]
    pub fn new(bench: &str, note: String) -> Self {
        Self {
            bench: bench.to_owned(),
            host: Host {
                threads: std::thread::available_parallelism().map_or(1, usize::from),
            },
            full_scale: crate::full_scale(),
            note,
            arms: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Whether multi-core gates arm on this record's host.
    #[must_use]
    pub fn multi_core(&self) -> bool {
        self.host.threads > 1
    }

    /// Appends a measured arm.
    pub fn arm(&mut self, layer: &str, name: &str, unit: &str, value: f64, digest: Option<u64>) {
        self.arms.push(Arm {
            name: name.to_owned(),
            layer: layer.to_owned(),
            unit: unit.to_owned(),
            value,
            digest: digest.map(|d| format!("{d:#018x}")),
        });
    }

    /// Appends a gate.
    pub fn gate(&mut self, name: &str, value: f64, bar: f64, higher_is_better: bool, armed: bool) {
        self.gates.push(Gate {
            name: name.to_owned(),
            value,
            bar,
            higher_is_better,
            armed,
        });
    }

    /// Checks the record against the rules in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.arms.is_empty() {
            return Err("no arms".into());
        }
        for &(layer, name) in required_arms(&self.bench) {
            if !self.arms.iter().any(|a| a.layer == layer && a.name == name) {
                return Err(format!("missing arm `{layer}/{name}`"));
            }
        }
        for arm in &self.arms {
            if !arm.value.is_finite() {
                return Err(format!("arm `{}/{}` is {}", arm.layer, arm.name, arm.value));
            }
            if arm.unit.ends_with("/s") && arm.value <= 0.0 {
                return Err(format!(
                    "arm `{}/{}`: non-positive rate {} {}",
                    arm.layer, arm.name, arm.value, arm.unit
                ));
            }
            let reference = self
                .arms
                .iter()
                .find(|a| a.layer == arm.layer && a.digest.is_some());
            if let (Some(digest), Some(reference)) = (&arm.digest, reference) {
                if Some(digest) != reference.digest.as_ref() {
                    return Err(format!(
                        "layer `{}`: `{}` computed {digest}, `{}` computed {}",
                        arm.layer,
                        arm.name,
                        reference.name,
                        reference.digest.as_deref().unwrap_or_default()
                    ));
                }
            }
        }
        if let Some(gate) = self.gates.iter().find(|g| g.armed && !g.met()) {
            return Err(format!(
                "gate `{}`: {:.3} misses the bar {} {}",
                gate.name,
                gate.value,
                if gate.higher_is_better { ">=" } else { "<=" },
                gate.bar
            ));
        }
        Ok(())
    }

    /// Prints the record as two aligned tables, arms then gates.
    pub fn print(&self) {
        crate::header(&format!("bench {}", self.bench));
        println!(
            "{} scale, {} host threads; {}",
            if self.full_scale { "full" } else { "quick" },
            self.host.threads,
            self.note
        );
        println!(
            "\n{:<12} {:<22} {:>16} {:<10} digest",
            "layer", "arm", "value", "unit"
        );
        for arm in &self.arms {
            println!(
                "{:<12} {:<22} {:>16.3} {:<10} {}",
                arm.layer,
                arm.name,
                arm.value,
                arm.unit,
                arm.digest.as_deref().unwrap_or("-")
            );
        }
        println!("\n{:<28} {:>10}    {:>10}  verdict", "gate", "value", "bar");
        for gate in &self.gates {
            let verdict = match (gate.met(), gate.armed) {
                (true, _) => "pass",
                (false, true) => "FAIL",
                (false, false) => "miss (unarmed)",
            };
            println!(
                "{:<28} {:>10.3} {} {:>10.3}  {verdict}",
                gate.name,
                gate.value,
                if gate.higher_is_better { ">=" } else { "<=" },
                gate.bar
            );
        }
    }

    /// Writes the record as one JSON line to `SEGSCOPE_BENCH_JSON`, or to
    /// `BENCH_<bench>.json`, resolving a relative path against the
    /// workspace root (cargo runs benches from the package directory).
    ///
    /// # Errors
    ///
    /// Returns any serialization or filesystem error.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("the bench crate sits two levels below the workspace root");
        let file = std::env::var("SEGSCOPE_BENCH_JSON")
            .unwrap_or_else(|_| format!("BENCH_{}.json", self.bench));
        let path = root.join(file);
        let json = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }

    /// Prints, writes, then validates the record, exiting non-zero on a
    /// violated rule — after the write, so a failing record is on disk.
    pub fn finish(&self) {
        self.print();
        let path = self.write().expect("write bench record");
        println!("\nwrote {}", path.display());
        if let Err(e) = self.validate() {
            eprintln!("bench {}: {e}", self.bench);
            std::process::exit(1);
        }
    }
}

/// Runs `f` once to warm up (page-in, allocator steady state), then
/// `repeats` timed times, and returns the minimum wall-clock seconds —
/// the standard minimum-noise estimator on shared hosts — with the
/// warmup's result.
///
/// # Panics
///
/// If a timed run returns a different result than the warmup: every
/// timed path is deterministic, so the digest of one run stands for all.
pub fn best_of<T: PartialEq>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    best_of_each(repeats, 1, |_| f()).pop().expect("one arm")
}

/// [`best_of`] over `arms` arms timed round-robin: every arm warms up
/// once, then each of `repeats` rounds times `f(0)`, `f(1)`, … once
/// apiece, so host drift during the run reaches every arm alike. Returns
/// each arm's minimum wall-clock seconds and warmup result, in arm
/// order.
///
/// # Panics
///
/// If a timed run returns a different result than its arm's warmup.
pub fn best_of_each<T: PartialEq>(
    repeats: usize,
    arms: usize,
    mut f: impl FnMut(usize) -> T,
) -> Vec<(f64, T)> {
    let mut best: Vec<(f64, T)> = (0..arms).map(|arm| (f64::INFINITY, f(arm))).collect();
    for _ in 0..repeats.max(1) {
        for (arm, (best_s, out)) in best.iter_mut().enumerate() {
            let start = Instant::now();
            let again = f(arm);
            *best_s = best_s.min(start.elapsed().as_secs_f64());
            assert!(again == *out, "a timed run diverged from its warmup run");
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotpath::{
        FABRIC_MIN_SPEEDUP, FOLD_MIN_SPEEDUP, RECYCLED_FULL_MIN_SPEEDUP, RECYCLED_MIN_SPEEDUP,
    };
    use crate::parallel::LSTM_MIN_SPEEDUP;
    use crate::serving::BATCHED_SERVE_MIN_SPEEDUP;
    use crate::sweep::SHARDED_MIN_SPEEDUP;

    type ArmRow = (&'static str, &'static str, &'static str, f64, Option<u64>);
    type GoodRecord = fn() -> BenchRecord;

    /// A record on a 2-thread host with every gate armed.
    fn record(bench: &str, arms: &[ArmRow], gates: &[(&str, f64, f64, bool)]) -> BenchRecord {
        let mut record = BenchRecord {
            bench: bench.into(),
            host: Host { threads: 2 },
            full_scale: false,
            note: String::new(),
            arms: Vec::new(),
            gates: Vec::new(),
        };
        for &(layer, name, unit, value, digest) in arms {
            record.arm(layer, name, unit, value, digest);
        }
        for &(name, value, bar, higher_is_better) in gates {
            record.gate(name, value, bar, higher_is_better, true);
        }
        record
    }

    fn hotpath() -> BenchRecord {
        record(
            "hotpath",
            &[
                ("fabric", "naive", "events/s", 7.0e6, Some(0xF1)),
                ("fabric", "cached", "events/s", 14.0e6, Some(0xF1)),
                ("probe", "probe_n", "samples/s", 1.2e6, Some(0xF2)),
                ("probe", "probe_n_into", "samples/s", 1.2e6, Some(0xF2)),
                ("probe", "probe_n allocs", "allocs", 2020.0, None),
                ("probe", "probe_n_into allocs", "allocs", 21.0, None),
                ("trials", "fresh", "trials/s", 24e3, Some(0xF3)),
                ("trials", "recycled", "trials/s", 250e3, Some(0xF3)),
                ("fold", "oracle", "pairs/s", 1.5e6, Some(0xF4)),
                ("fold", "tiled", "pairs/s", 6e6, Some(0xF4)),
            ],
            &[
                ("fabric.speedup", 2.0, FABRIC_MIN_SPEEDUP, true),
                ("probe.allocs_saved", 1999.0, 1.0, true),
                ("trials.speedup", 10.0, RECYCLED_MIN_SPEEDUP, true),
                ("fold.speedup", 4.0, FOLD_MIN_SPEEDUP, true),
            ],
        )
    }

    fn hotpath_full() -> BenchRecord {
        let mut r = hotpath();
        r.full_scale = true;
        r.gates[2].bar = RECYCLED_FULL_MIN_SPEEDUP;
        r
    }

    fn parallel() -> BenchRecord {
        record(
            "parallel",
            &[
                ("engine", "serial", "trials/s", 300.0, Some(0xE1)),
                ("engine", "parallel", "trials/s", 550.0, Some(0xE1)),
                ("lstm", "naive", "ms/epoch", 0.39, None),
                ("lstm", "optimized", "ms/epoch", 0.31, Some(0x15)),
                ("lstm", "lanes", "ms/epoch", 0.25, Some(0x15)),
                ("ragged", "one_lane", "ms/epoch", 0.8, Some(0x16)),
                ("ragged", "grouped", "ms/epoch", 0.5, Some(0x16)),
            ],
            &[
                ("lstm.speedup", 1.25, LSTM_MIN_SPEEDUP, true),
                ("ragged.speedup", 1.6, LSTM_MIN_SPEEDUP, true),
            ],
        )
    }

    fn campaign() -> BenchRecord {
        record(
            "campaign",
            &[
                ("campaign", "shards=1", "cells/s", 300.0, Some(0xC1)),
                ("campaign", "shards=4", "cells/s", 620.0, Some(0xC1)),
                ("campaign", "shards=8", "cells/s", 640.0, Some(0xC1)),
            ],
            &[("campaign.speedup", 2.13, SHARDED_MIN_SPEEDUP, true)],
        )
    }

    fn serve() -> BenchRecord {
        record(
            "serve",
            &[
                ("serve.f64", "sequential", "sessions/s", 6e3, Some(0xA1)),
                ("serve.f64", "batched x64", "sessions/s", 20e3, Some(0xA1)),
            ],
            &[("serve.f64.speedup", 3.3, BATCHED_SERVE_MIN_SPEEDUP, true)],
        )
    }

    /// One way to break a good record.
    #[derive(Debug, Clone, Copy)]
    enum Break {
        /// Give the arm `layer/name` a different digest.
        Digest(&'static str, &'static str),
        /// Set the value of the arm `layer/name`.
        Value(&'static str, &'static str, f64),
        /// Set a gate's value.
        Gate(&'static str, f64),
        /// Drop every arm whose `layer/name` starts with the prefix.
        Drop(&'static str),
    }

    impl Break {
        fn apply(self, r: &mut BenchRecord) {
            let arm = |r: &mut BenchRecord, layer: &str, name: &str| -> usize {
                let found = r
                    .arms
                    .iter()
                    .position(|a| a.layer == layer && a.name == name);
                found.expect("arm in the good record")
            };
            match self {
                Break::Digest(layer, name) => {
                    let i = arm(r, layer, name);
                    r.arms[i].digest = Some("0x2".into());
                }
                Break::Value(layer, name, value) => {
                    let i = arm(r, layer, name);
                    r.arms[i].value = value;
                }
                Break::Gate(name, value) => {
                    let gate = r.gates.iter_mut().find(|g| g.name == name);
                    gate.expect("gate in the good record").value = value;
                }
                Break::Drop(prefix) => r
                    .arms
                    .retain(|a| !format!("{}/{}", a.layer, a.name).starts_with(prefix)),
            }
        }
    }

    #[test]
    fn validate_rejects_every_broken_check() {
        use Break::{Digest, Drop, Gate, Value};
        let table: &[(GoodRecord, Break)] = &[
            (hotpath, Digest("fabric", "cached")),
            (hotpath, Value("fabric", "naive", 0.0)),
            (hotpath, Gate("fabric.speedup", 0.97)),
            (hotpath, Digest("probe", "probe_n_into")),
            (hotpath, Gate("probe.allocs_saved", 0.0)),
            (hotpath, Digest("trials", "recycled")),
            (hotpath, Gate("trials.speedup", 1.4)),
            (hotpath_full, Gate("trials.speedup", 3.0)),
            (hotpath, Drop("fold/oracle")),
            (hotpath, Digest("fold", "tiled")),
            (hotpath, Gate("fold.speedup", 0.9)),
            (campaign, Drop("")),
            (campaign, Value("campaign", "shards=4", f64::INFINITY)),
            (campaign, Value("campaign", "shards=8", -1.0)),
            (campaign, Drop("campaign/shards=1")),
            (campaign, Digest("campaign", "shards=8")),
            (campaign, Gate("campaign.speedup", 1.46)),
            (serve, Drop("serve.f64/")),
            (serve, Drop("serve.f64/sequential")),
            (serve, Value("serve.f64", "batched x64", 0.0)),
            (serve, Digest("serve.f64", "batched x64")),
            (serve, Gate("serve.f64.speedup", 1.5)),
            (parallel, Digest("engine", "parallel")),
            (parallel, Value("engine", "serial", 0.0)),
            (parallel, Gate("lstm.speedup", 1.0)),
            (parallel, Drop("lstm/lanes")),
            (parallel, Digest("lstm", "lanes")),
            (parallel, Drop("ragged/grouped")),
            (parallel, Digest("ragged", "grouped")),
            (parallel, Gate("ragged.speedup", 0.9)),
        ];
        for &(good, mutation) in table {
            let mut broken = good();
            good().validate().expect("the good record passes");
            mutation.apply(&mut broken);
            assert!(
                broken.validate().is_err(),
                "{}: {mutation:?} passed validate",
                broken.bench
            );
        }
    }

    #[test]
    fn validate_passes_parity_and_unarmed_gates() {
        // Parity meets a `>=` bar: the cached fabric must only not lose.
        let mut parity = hotpath();
        Break::Gate("fabric.speedup", 1.0).apply(&mut parity);
        assert!(parity.validate().is_ok());
        // A multi-core gate recorded on one core is reported, not enforced.
        for mut single in [campaign(), serve()] {
            single.host.threads = 1;
            let gate = single
                .gates
                .iter_mut()
                .find(|g| g.name.ends_with(".speedup"));
            let gate = gate.expect("a speedup gate");
            gate.value = 1.0;
            gate.armed = false;
            assert!(!gate.met());
            assert!(single.validate().is_ok());
        }
    }

    #[test]
    fn best_of_keeps_the_minimum_and_the_result() {
        let mut calls = 0;
        let (s, out) = best_of(3, || {
            calls += 1;
            7
        });
        assert_eq!((calls, out), (4, 7));
        assert!(s.is_finite() && s >= 0.0);
    }

    #[test]
    fn best_of_each_times_arms_round_robin() {
        let mut order = Vec::new();
        let best = best_of_each(2, 3, |arm| {
            order.push(arm);
            arm * 10
        });
        assert_eq!(order, [0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let outs: Vec<usize> = best.iter().map(|&(_, out)| out).collect();
        assert_eq!(outs, [0, 10, 20]);
        assert!(best.iter().all(|&(s, _)| s.is_finite() && s >= 0.0));
    }
}
