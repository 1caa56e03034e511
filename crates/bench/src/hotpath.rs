//! The simulator hot path (`BENCH_hotpath.json`).
//!
//! - On the shipped 3-source machine and the simulator's peek-heavy
//!   dispatch pattern, the cached-head fabric and the naive linear-scan
//!   fabric deliver bit-identical streams (and leave their RNGs at the
//!   same position), and the cached head never loses to the scan.
//! - The buffer-reuse probe API (`probe_n_into`) allocates strictly less
//!   than the allocating wrapper (`probe_n`) while producing identical
//!   samples (measured in the `bench_hotpath` main, which owns the
//!   counting allocator).
//! - Recycled-machine trials produce bit-identical per-trial sample
//!   streams, fault logs, and final RNG positions (FNV-folded) to
//!   fresh-machine trials, at ≥2x the throughput on the quick scale and
//!   ≥5x at full scale.
//! - The LSTM gradient fold's register-tiled group kernel
//!   (`Mat::outer_acc_bias_group`) leaves the gradient bit for bit where
//!   the scalar per-pair `outer_acc_bias` leaves it, and never loses to
//!   it.

use crate::record::{best_of, BenchRecord};
use crate::{fnv1a_fold, FNV1A_BASIS};
use irq::{InterruptFabric, InterruptKind, NaiveFabric};
use nnet::{LaneGroup, Mat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use segsim::{FaultPlan, Machine, MachineConfig};
use x86seg::Selector;

/// Minimum accepted cached-vs-naive fabric speedup on the peek+pop arm:
/// the simulator's dispatch peeks the fabric head several times per
/// delivered interrupt, and the cached fabric answers those peeks in
/// O(1) while the naive scan pays O(sources) each time — so parity holds
/// with real margin even at 3 sources.
pub const FABRIC_MIN_SPEEDUP: f64 = 1.0;

/// Minimum accepted recycled-vs-fresh trial throughput speedup on the
/// quick scale (a deliberately loose floor for noisy CI hosts).
pub const RECYCLED_MIN_SPEEDUP: f64 = 2.0;

/// Minimum accepted recycled-vs-fresh trial throughput speedup at full
/// scale (`SEGSCOPE_BENCH_FULL=1`), where per-trial work is long enough
/// to amortize timing noise.
pub const RECYCLED_FULL_MIN_SPEEDUP: f64 = 5.0;

/// Minimum accepted tiled-vs-oracle gradient fold speedup: the tiled
/// kernel writes each gradient element back once per group where the
/// oracle rereads and rewrites the whole matrix per (lane, step) pair.
pub const FOLD_MIN_SPEEDUP: f64 = 1.0;

/// The `fold` layer's group: the website classifier's LSTM (2 inputs,
/// 16 hidden units, so a 64 × 19 gradient) over one lane group of eight
/// 64-step sequences.
pub const FOLD_SHAPE: (usize, usize, usize, usize) = (64, 19, 8, 64);

/// How many `peek_next` calls the dispatch loop issues per consumed
/// interrupt — the simulator re-peeks the head once per user span to
/// bound the span, so several peeks per pop is the representative ratio.
pub const PEEKS_PER_POP: usize = 4;

/// Builds one fabric flavor with the preset's timer, PMI, and resched
/// sources.
macro_rules! build_fabric {
    ($ty:ty, $cfg:expr, $rng:expr) => {{
        let mut fabric = <$ty>::new();
        fabric.add_periodic_timer($cfg.timer_hz, $cfg.timer_jitter, $rng);
        fabric.add_poisson(InterruptKind::PerfMon, $cfg.pmi_rate_hz, $rng);
        fabric.add_poisson(InterruptKind::Resched, $cfg.resched_rate_hz, $rng);
        fabric
    }};
}

/// Builds a fabric flavor from `seed`, consumes `events` deliveries with
/// [`PEEKS_PER_POP`] head peeks before every pop — the simulator's
/// span-bounding dispatch pattern — and folds every peeked and popped
/// event, then one final RNG draw, into an FNV hash.
macro_rules! drain_hash {
    ($ty:ty, $cfg:expr, $seed:expr, $events:expr) => {{
        let mut rng = SmallRng::seed_from_u64($seed);
        let mut fabric = build_fabric!($ty, $cfg, &mut rng);
        let mut h = FNV1A_BASIS;
        for _ in 0..$events {
            for _ in 0..PEEKS_PER_POP {
                let head = fabric.peek_next().expect("sources never run dry");
                h = fnv1a_fold(h, head.at.as_ps());
            }
            let ev = fabric.pop(&mut rng).expect("sources never run dry");
            h = fnv1a_fold(h, ev.at.as_ps());
            h = fnv1a_fold(h, ev.kind as u64);
        }
        fnv1a_fold(h, rng.gen::<u64>())
    }};
}

/// Measures the `fabric` layer on the preset's 3-source fabric: the
/// naive linear-scan fabric, then the cached-head fabric, identically
/// seeded, plus the `fabric.speedup` gate.
pub fn measure_fabric(record: &mut BenchRecord, cfg: &MachineConfig, events: usize, seed: u64) {
    let (naive_s, naive) = best_of(1, || drain_hash!(NaiveFabric, cfg, seed, events));
    let (cached_s, cached) = best_of(1, || drain_hash!(InterruptFabric, cfg, seed, events));
    let n = events as f64;
    record.arm(
        "fabric",
        "naive",
        "events/s",
        n / naive_s.max(1e-9),
        Some(naive),
    );
    record.arm(
        "fabric",
        "cached",
        "events/s",
        n / cached_s.max(1e-9),
        Some(cached),
    );
    let speedup = naive_s / cached_s.max(1e-9);
    record.gate("fabric.speedup", speedup, FABRIC_MIN_SPEEDUP, true, true);
}

/// One short probe trial — load GS once, then `slots` spin+rdgs rounds —
/// folded to an FNV hash over every sample, the fault log, and one final
/// RNG draw, so two paths agreeing on the hash agree on the full
/// architectural footprint and stream position.
fn probe_trial_hash(machine: &mut Machine, slots: usize) -> u64 {
    let mut h = FNV1A_BASIS;
    machine.wrgs(Selector::from_bits(0x3)).expect("GS loads");
    for slot in 0..slots {
        machine.spin(1_500 + (slot as u64 % 5) * 200);
        h = fnv1a_fold(h, u64::from(machine.rdgs().bits()));
    }
    let log = machine.fault_log();
    for v in [
        log.dropped,
        log.duplicated,
        log.coalesced,
        log.jittered,
        log.bursts,
        log.clamped_steps,
    ] {
        h = fnv1a_fold(h, v);
    }
    fnv1a_fold(h, machine.rng_mut().gen::<u64>())
}

/// The machine preset the trials arm runs on: a Table I machine with a
/// light delivery-fault plan, so the per-trial hash also covers the
/// fault-injection path.
#[must_use]
pub fn trials_machine() -> MachineConfig {
    MachineConfig::lenovo_yangtian().with_fault_plan(
        FaultPlan::none()
            .with_drop_prob(0.05)
            .with_duplicate_prob(0.02),
    )
}

/// Measures the `trials` layer: `trials` short probe trials fresh (a
/// [`Machine::new`] per trial) and recycled (this thread's machine
/// through [`scenario::with_recycled_machine`], the shipped
/// trial-driver mechanism), each the best of `repeats`, plus the
/// `trials.speedup` gate (≥5x at full scale, else ≥2x). The digest folds
/// every trial's hash in trial order.
pub fn measure_trials(
    record: &mut BenchRecord,
    trials: usize,
    slots: usize,
    repeats: usize,
    seed: u64,
) {
    let cfg = trials_machine();
    let trial_seed = |t: usize| seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64));
    let fold = |hashes: Vec<u64>| hashes.into_iter().fold(FNV1A_BASIS, fnv1a_fold);

    let (fresh_s, fresh) = best_of(repeats, || {
        (0..trials)
            .map(|t| probe_trial_hash(&mut Machine::new(cfg.clone(), trial_seed(t)), slots))
            .collect::<Vec<u64>>()
    });
    let (recycled_s, recycled) = best_of(repeats, || {
        (0..trials)
            .map(|t| {
                scenario::with_recycled_machine(cfg.clone(), trial_seed(t), |m| {
                    probe_trial_hash(m, slots)
                })
            })
            .collect::<Vec<u64>>()
    });
    let n = trials as f64;
    record.arm(
        "trials",
        "fresh",
        "trials/s",
        n / fresh_s.max(1e-9),
        Some(fold(fresh)),
    );
    record.arm(
        "trials",
        "recycled",
        "trials/s",
        n / recycled_s.max(1e-9),
        Some(fold(recycled)),
    );
    let bar = if record.full_scale {
        RECYCLED_FULL_MIN_SPEEDUP
    } else {
        RECYCLED_MIN_SPEEDUP
    };
    let speedup = fresh_s / recycled_s.max(1e-9);
    record.gate("trials.speedup", speedup, bar, true, true);
}

/// One traced group's deltas (`steps × rows × lanes`, row-major by lane)
/// and inputs (`steps × (cols - 1) × lanes`, feature-major). Every 251st
/// delta is an exact zero, so the zero-row skip runs at about the rate
/// (0.4%) website training's deltas show.
fn fold_group_data(rows: usize, cols: usize, lanes: usize, steps: usize) -> (Vec<f32>, Vec<f32>) {
    let g = (0..steps * rows * lanes)
        .map(|k| {
            if k % 251 == 0 {
                0.0
            } else {
                (k as f32 * 0.618).sin() * 1e-3
            }
        })
        .collect();
    let x = (0..steps * (cols - 1) * lanes)
        .map(|k| (k as f32 * 0.377).cos())
        .collect();
    (g, x)
}

/// FNV-1a fold of a matrix's bits.
fn mat_hash(m: &Mat) -> u64 {
    m.as_slice()
        .iter()
        .fold(FNV1A_BASIS, |h, v| fnv1a_fold(h, u64::from(v.to_bits())))
}

/// Measures the `fold` layer at [`FOLD_SHAPE`]: `groups` folds of one
/// traced group into a zeroed gradient, through the scalar oracle (one
/// `outer_acc_bias(g, x, 1.0)` per (lane, step) pair on pre-gathered
/// vectors, lane ascending and step descending) and through the tiled
/// group kernel (its packing included), each the best of `repeats`,
/// plus the `fold.speedup` gate. The digest folds the final gradient's
/// bits.
pub fn measure_fold(record: &mut BenchRecord, groups: usize, repeats: usize) {
    let (rows, cols, lanes, steps) = FOLD_SHAPE;
    let (g, x) = fold_group_data(rows, cols, lanes, steps);
    let feat = cols - 1;
    let pairs: Vec<(Vec<f32>, Vec<f32>)> = (0..lanes)
        .flat_map(|l| (0..steps).rev().map(move |t| (l, t)))
        .map(|(l, t)| {
            let gs = &g[t * rows * lanes..(t + 1) * rows * lanes];
            let xs = &x[t * feat * lanes..(t + 1) * feat * lanes];
            let lane = |v: &[f32]| v.iter().skip(l).step_by(lanes).copied().collect();
            (lane(gs), lane(xs))
        })
        .collect();
    let (oracle_s, oracle) = best_of(repeats, || {
        let mut grad = Mat::zeros(rows, cols);
        for _ in 0..groups {
            for (g_l, x_l) in &pairs {
                grad.outer_acc_bias(g_l, x_l, 1.0);
            }
        }
        mat_hash(&grad)
    });
    let (mut inputs, mut deltas) = (Vec::new(), Vec::new());
    let group = LaneGroup::new(&vec![steps; lanes]);
    let (tiled_s, tiled) = best_of(repeats, || {
        let mut grad = Mat::zeros(rows, cols);
        for _ in 0..groups {
            grad.outer_acc_bias_group(&g, &x, &group, &mut inputs, &mut deltas);
        }
        mat_hash(&grad)
    });
    let n = (groups * pairs.len()) as f64;
    record.arm(
        "fold",
        "oracle",
        "pairs/s",
        n / oracle_s.max(1e-9),
        Some(oracle),
    );
    record.arm(
        "fold",
        "tiled",
        "pairs/s",
        n / tiled_s.max(1e-9),
        Some(tiled),
    );
    let speedup = oracle_s / tiled_s.max(1e-9);
    record.gate("fold.speedup", speedup, FOLD_MIN_SPEEDUP, true, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_digests(record: &BenchRecord, layer: &str) -> Vec<Option<String>> {
        record
            .arms
            .iter()
            .filter(|a| a.layer == layer)
            .map(|a| a.digest.clone())
            .collect()
    }

    #[test]
    fn fabric_arm_is_identical() {
        let mut record = BenchRecord::new("hotpath", String::new());
        measure_fabric(
            &mut record,
            &MachineConfig::lenovo_yangtian(),
            5_000,
            0xB3CC_0010,
        );
        let digests = layer_digests(&record, "fabric");
        assert_eq!(digests.len(), 2);
        assert!(digests[0].is_some());
        assert_eq!(digests[0], digests[1], "cached and naive fabrics diverged");
    }

    #[test]
    fn tiled_fold_matches_the_oracle() {
        let mut record = BenchRecord::new("hotpath", String::new());
        measure_fold(&mut record, 2, 1);
        let digests = layer_digests(&record, "fold");
        assert_eq!(digests.len(), 2);
        assert!(digests[0].is_some());
        assert_eq!(digests[0], digests[1], "tiled and oracle folds diverged");
    }

    #[test]
    fn recycled_trials_match_fresh_trials() {
        let mut record = BenchRecord::new("hotpath", String::new());
        measure_trials(&mut record, 6, 120, 1, 0xBA7C_0003);
        let digests = layer_digests(&record, "trials");
        assert_eq!(digests.len(), 2);
        assert!(digests[0].is_some());
        assert_eq!(
            digests[0], digests[1],
            "recycled and fresh trial hashes diverged"
        );
    }
}
