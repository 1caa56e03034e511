//! The streaming serving engine (`BENCH_serve.json`).
//!
//! - Every batched arm reproduces the sequential baseline verdict
//!   stream bit for bit (FNV-folded) at every batch capacity — the
//!   serve crate's batch-parity contract, measured end to end.
//! - On multi-core hosts the best batched arm serves sessions at
//!   least [`BATCHED_SERVE_MIN_SPEEDUP`]x faster than the recycled
//!   single-session baseline (recorded unarmed on one core).

use crate::record::{best_of_each, BenchRecord};
use nnet::{AdamConfig, SeqClassifier, SeqExample};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use segscope_attacks::website::{self, Browser, Setting, WebsiteFpConfig};
use serve::{serve_batched, serve_sequential, verdict_fnv, Verdict};

/// Minimum accepted batched-vs-sequential session throughput speedup on
/// multi-core hosts (single-core hosts gate verdict identity alone —
/// lockstep lanes add no parallelism on one core).
pub const BATCHED_SERVE_MIN_SPEEDUP: f64 = 3.0;

/// Auxiliary seed stream for the bench's serving model, disjoint from
/// the website scenario's machine and visit streams.
const SERVE_BENCH_STREAM: u64 = 0x5EBE;

/// The trained model and the serving trace set the arms run over.
pub struct ServeWorkload {
    /// The classifier, trained on the train split.
    pub model: SeqClassifier,
    /// Held-out eval split, the source of the serving traces.
    pub eval: Vec<SeqExample>,
    /// Serving traces: eval sequences cycled up to the session count.
    pub traces: Vec<Vec<Vec<f32>>>,
    /// Timesteps per trace (the pooled sequence length).
    pub steps_per_session: usize,
}

/// Builds the Table IV-style workload: simulate website-fingerprinting
/// visit traces on the quick scenario scale, train the LSTM on the
/// train split (`train_per_site` traces per site), and keep
/// `eval_per_site` held-out traces per site. The serving trace list
/// cycles the held-out sequences up to `sessions` entries.
#[must_use]
pub fn build_workload(
    sessions: usize,
    train_per_site: usize,
    eval_per_site: usize,
    seed: u64,
) -> ServeWorkload {
    let mut config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
    config.seed = seed;
    let per_site = train_per_site + eval_per_site;
    let mut train = Vec::new();
    let mut eval = Vec::new();
    for site in 0..config.n_sites {
        for rep in 0..per_site {
            let visit = (site * per_site + rep) as u64;
            let trace =
                website::collect_trace(&config, site, exec::derive_seed(config.seed, visit));
            let example = website::trace_to_example(&trace, config.pooled_len, site);
            if rep < train_per_site {
                train.push(example);
            } else {
                eval.push(example);
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(exec::derive_seed(seed, SERVE_BENCH_STREAM));
    let mut model = SeqClassifier::new(
        2,
        config.hidden,
        config.n_sites,
        &mut rng,
        AdamConfig::default(),
    );
    for _ in 0..config.epochs {
        model.train_epoch(&train, 8);
    }
    let traces: Vec<Vec<Vec<f32>>> = (0..sessions)
        .map(|i| eval[i % eval.len()].xs.clone())
        .collect();
    ServeWorkload {
        model,
        eval,
        traces,
        steps_per_session: config.pooled_len,
    }
}

/// Serves `traces` through `threads` contiguous shards, each a
/// [`serve_batched`] batch of `capacity` lanes. Lanes never interact
/// across sessions (the batch-parity contract), and both the sharding
/// and [`serve_batched`] itself keep verdicts in trace order, so the
/// concatenated verdict stream is bit-identical to an unsharded run at
/// any shard count.
#[must_use]
pub fn serve_sharded(
    model: &SeqClassifier,
    traces: &[Vec<Vec<f32>>],
    capacity: usize,
    threads: usize,
) -> Vec<Verdict> {
    if threads <= 1 {
        return serve_batched(model, traces, capacity);
    }
    let per_shard = traces.len().div_ceil(threads).max(1);
    let shards: Vec<&[Vec<Vec<f32>>]> = traces.chunks(per_shard).collect();
    exec::parallel_map(shards.len(), threads, |i| {
        serve_batched(model, shards[i], capacity)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Batch capacities of the `batched x<capacity>` arms.
const CAPACITIES: [usize; 3] = [1, 8, 64];

/// Measures the `serve.f64` layer: the recycled single-session baseline
/// (`sequential`), then the workload's traces through `threads` shards
/// of 1, 8 and 64 lockstep lanes (`batched x<capacity>`), each the best
/// of `repeats`. The repeats run round-robin across the arms, so host
/// drift reaches both sides of the speedup alike. Returns the best
/// batched speedup over the baseline.
pub fn measure_precision(
    record: &mut BenchRecord,
    workload: &ServeWorkload,
    threads: usize,
    repeats: usize,
) -> f64 {
    const LAYER: &str = "serve.f64";
    let (model, traces) = (&workload.model, &workload.traces);
    let n = traces.len() as f64;
    // Arm 0 is the baseline; arm `k` batches at `CAPACITIES[k - 1]`.
    let arms = best_of_each(repeats, 1 + CAPACITIES.len(), |arm| match arm {
        0 => serve_sequential(model, traces),
        k => serve_sharded(model, traces, CAPACITIES[k - 1], threads),
    });
    let base_s = arms[0].0;
    let mut best = f64::NEG_INFINITY;
    for (arm, (wall_s, verdicts)) in arms.iter().enumerate() {
        let name = match arm {
            0 => "sequential".to_owned(),
            k => format!("batched x{}", CAPACITIES[k - 1]),
        };
        record.arm(
            LAYER,
            &name,
            "sessions/s",
            n / wall_s.max(1e-9),
            Some(verdict_fnv(verdicts)),
        );
        if arm > 0 {
            best = best.max(base_s / wall_s.max(1e-9));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_serving_is_shard_count_invariant() {
        let workload = build_workload(23, 2, 1, 0x5EBE_0001);
        let solo = serve_sharded(&workload.model, &workload.traces, 8, 1);
        let sharded = serve_sharded(&workload.model, &workload.traces, 8, 4);
        assert_eq!(solo, sharded, "sharding permuted or perturbed verdicts");
        assert_eq!(
            verdict_fnv(&solo),
            verdict_fnv(&serve_sequential(&workload.model, &workload.traces)),
            "batched verdict stream diverged from sequential",
        );
    }
}
