//! The campaign engine (`BENCH_campaign.json`).
//!
//! Every shard count produces a bit-identical merged report (compared by
//! an FNV fold over the serialized report JSON), and on a multi-core
//! host sharding the sweep 8 wide beats the serial sweep by at least 2x
//! (on a single-core host the speedup gate is recorded unarmed).

use crate::record::{best_of, BenchRecord};
use campaign::{CampaignManifest, CampaignOptions, CampaignSpec, FaultVariant, ScenarioSel};
use segsim::FaultPlan;

/// Minimum accepted sharded-vs-serial sweep speedup at the widest shard
/// count, enforced only on multi-core hosts.
pub const SHARDED_MIN_SPEEDUP: f64 = 2.0;

/// The shard counts swept, ascending; the gate compares the last with
/// the first.
const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

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

/// Sweeps the grid on `shards` cell workers, best of `repeats`, and
/// returns `(wall_s, report digest)`.
fn measure_campaign(spec: &CampaignSpec, shards: usize, repeats: usize) -> (f64, u64) {
    let registry = segscope_attacks::registry();
    let opts = CampaignOptions {
        shards,
        threads: Some(1),
        stop_after_waves: None,
    };
    let (wall_s, report) = best_of(repeats, || {
        let mut manifest = CampaignManifest::new(spec);
        campaign::run_campaign(&registry, spec, &opts, &mut manifest, |_| {})
            .expect("bench grid runs")
            .expect("bench grid completes")
    });
    (wall_s, crate::fnv1a(report.to_json().as_bytes()))
}

/// Measures the `campaign` layer: one arm per shard count (1, 4, 8),
/// plus the `campaign.speedup` gate, armed on multi-core hosts.
pub fn measure_sweep(record: &mut BenchRecord, spec: &CampaignSpec, repeats: usize) {
    let cells = spec.cell_count() as f64;
    let walls: Vec<f64> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let (wall_s, digest) = measure_campaign(spec, shards, repeats);
            let name = format!("shards={shards}");
            record.arm(
                "campaign",
                &name,
                "cells/s",
                cells / wall_s.max(1e-9),
                Some(digest),
            );
            wall_s
        })
        .collect();
    let speedup = walls[0] / walls[walls.len() - 1].max(1e-9);
    let armed = record.multi_core();
    record.gate(
        "campaign.speedup",
        speedup,
        SHARDED_MIN_SPEEDUP,
        true,
        armed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_grid_is_shard_invariant() {
        let spec = bench_spec(false);
        assert_eq!(spec.cell_count(), 4 * 2 * 2);
        let (_, serial) = measure_campaign(&spec, 1, 1);
        let (_, sharded) = measure_campaign(&spec, 4, 1);
        assert_eq!(serial, sharded);
    }
}
