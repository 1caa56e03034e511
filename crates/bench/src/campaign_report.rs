//! Machine-readable performance report for the campaign engine
//! (`BENCH_campaign.json`).
//!
//! The `bench_campaign` target regenerates the file; it records host
//! wall-clock numbers, so absolute values vary by machine. The gates in
//! [`CampaignBenchReport::validate`] are host-independent:
//!
//! - every shard count produces a bit-identical merged report (compared
//!   by an FNV fold over the serialized report JSON),
//! - on a multi-core host, sharding the sweep 8 wide beats the serial
//!   sweep by at least 2x (on a single-core host the speedup gate is
//!   informational only, mirroring `BENCH_parallel.json`).

use campaign::{CampaignManifest, CampaignOptions, CampaignSpec, FaultVariant, ScenarioSel};
use segsim::FaultPlan;
use serde::Serialize;
use std::time::Instant;

/// Minimum accepted sharded-vs-serial sweep speedup at the widest shard
/// count, enforced only on multi-core hosts.
pub const SHARDED_MIN_SPEEDUP: f64 = 2.0;

/// One sweep of the bench grid at a fixed shard count.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignArm {
    /// Cells run concurrently per wave.
    pub shards: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
    /// Sweep throughput, cells per second.
    pub cells_per_s: f64,
    /// FNV fold of the merged report's JSON — equal digests mean
    /// byte-identical reports.
    pub report_digest: u64,
}

/// The full `BENCH_campaign.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignBenchReport {
    /// Campaign label of the bench grid.
    pub spec: String,
    /// Cells in the grid.
    pub cells: usize,
    /// Trials per cell (repetition scenarios; structured ones keep
    /// their own counts).
    pub trials_per_cell: usize,
    /// One sweep per shard count, ascending.
    pub arms: Vec<CampaignArm>,
    /// Whether every arm produced a bit-identical report.
    pub identical: bool,
    /// Whether the host had more than one core (arms the speedup gate).
    pub multi_core: bool,
    /// Whether the run used the full scale (`SEGSCOPE_BENCH_FULL=1`).
    pub full_scale: bool,
    /// Human-readable caveat about the measurement host.
    pub note: String,
}

impl CampaignBenchReport {
    /// Checks the invariants the CI gate relies on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.arms.is_empty() {
            return Err("campaign arms empty".into());
        }
        for arm in &self.arms {
            if arm.cells_per_s <= 0.0 {
                return Err(format!(
                    "arm at {} shards: non-positive throughput",
                    arm.shards
                ));
            }
        }
        let digest = self.arms[0].report_digest;
        if self.arms.iter().any(|a| a.report_digest != digest) {
            return Err("shard counts disagree on the merged report".into());
        }
        if !self.identical {
            return Err("report marked non-identical".into());
        }
        if self.multi_core {
            let serial = self
                .arms
                .iter()
                .find(|a| a.shards == 1)
                .ok_or("no serial (1-shard) arm")?;
            let widest = self
                .arms
                .iter()
                .max_by_key(|a| a.shards)
                .expect("arms non-empty");
            let speedup = widest.wall_s.max(1e-9) / serial.wall_s.max(1e-9);
            let speedup = 1.0 / speedup;
            if speedup < SHARDED_MIN_SPEEDUP {
                return Err(format!(
                    "sharded sweep reached only {speedup:.2}x over serial at \
                     {} shards on a multi-core host (bar {SHARDED_MIN_SPEEDUP}x)",
                    widest.shards
                ));
            }
        }
        Ok(())
    }
}

/// The bench grid: four fast scenarios × two Table I presets × two
/// fault regimes. Full scale widens the preset axis and adds a
/// replicate, quick scale keeps the sweep CI-sized.
#[must_use]
pub fn bench_spec(full: bool) -> CampaignSpec {
    CampaignSpec {
        name: "bench-grid".to_owned(),
        seed: 0xBE9C_CA4A,
        scenarios: ["circl", "spectral", "kaslr", "covert"]
            .iter()
            .map(|n| ScenarioSel::named(n))
            .collect(),
        presets: if full {
            segsim::presets::NAMES
                .iter()
                .map(|&n| n.to_owned())
                .collect()
        } else {
            vec!["xiaomi_air13".to_owned(), "amazon_c5_large".to_owned()]
        },
        faults: vec![
            FaultVariant::none(),
            FaultVariant {
                name: "delivery_storm".to_owned(),
                plan: Some(FaultPlan::delivery_storm()),
            },
        ],
        defenses: vec![campaign::DefenseVariant::none()],
        replicates: if full { 2 } else { 1 },
        trials: Some(if full { 4 } else { 1 }),
    }
}

/// Sweeps the bench grid once at `shards`, returning the arm record.
#[must_use]
pub fn measure_campaign(spec: &CampaignSpec, shards: usize) -> CampaignArm {
    let registry = segscope_attacks::registry();
    let mut manifest = CampaignManifest::new(spec);
    let opts = CampaignOptions {
        shards,
        threads: Some(1),
        stop_after_waves: None,
    };
    let start = Instant::now();
    let report = campaign::run_campaign(&registry, spec, &opts, &mut manifest, |_| {})
        .expect("bench grid runs")
        .expect("bench grid completes");
    let wall_s = start.elapsed().as_secs_f64();
    CampaignArm {
        shards,
        wall_s,
        cells_per_s: spec.cell_count() as f64 / wall_s.max(1e-9),
        report_digest: crate::fnv1a(report.to_json().as_bytes()),
    }
}

/// Serializes a report to JSON and writes it to `path`.
///
/// # Errors
///
/// Returns any filesystem error from the write.
pub fn write_report(report: &CampaignBenchReport, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_grid_is_shard_invariant() {
        let spec = bench_spec(false);
        assert_eq!(spec.cell_count(), 4 * 2 * 2);
        let serial = measure_campaign(&spec, 1);
        let sharded = measure_campaign(&spec, 4);
        assert_eq!(serial.report_digest, sharded.report_digest);
    }

    #[test]
    fn validate_enforces_every_gate() {
        let arm = |shards: usize, wall_s: f64, digest: u64| CampaignArm {
            shards,
            wall_s,
            cells_per_s: 16.0 / wall_s,
            report_digest: digest,
        };
        let good = CampaignBenchReport {
            spec: "bench-grid".into(),
            cells: 16,
            trials_per_cell: 1,
            arms: vec![arm(1, 8.0, 0xD1), arm(4, 2.5, 0xD1), arm(8, 1.5, 0xD1)],
            identical: true,
            multi_core: true,
            full_scale: false,
            note: String::new(),
        };
        assert!(good.validate().is_ok());

        let mut divergent = good.clone();
        divergent.arms[2].report_digest = 0xD2;
        assert!(divergent.validate().is_err());

        let mut flagged = good.clone();
        flagged.identical = false;
        assert!(flagged.validate().is_err());

        // On a multi-core host the widest arm must hit 2x over serial...
        let mut slow = good.clone();
        slow.arms[2].wall_s = 7.0;
        assert!(slow.validate().is_err());
        // ...but a single-core host only gates identity.
        let mut single = slow;
        single.multi_core = false;
        assert!(single.validate().is_ok());

        let empty = CampaignBenchReport {
            arms: Vec::new(),
            ..good
        };
        assert!(empty.validate().is_err());
    }
}
