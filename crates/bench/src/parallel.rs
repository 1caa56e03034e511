//! The parallel experiment engine and the optimized LSTM kernels
//! (`BENCH_parallel.json`).
//!
//! Serial and parallel engine runs must return bit-identical results
//! regardless of the observed speedup (on a single-CPU host the speedup
//! is ~1x), and the optimized LSTM kernels must be strictly faster than
//! the naive reference.

use crate::fnv1a;
use crate::record::{best_of, BenchRecord};
use nnet::reference::NaiveLstm;
use nnet::{AdamConfig, Lstm};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use segscope_attacks::kaslr::{run_trials, KaslrConfig};
use segsim::MachineConfig;

/// Minimum accepted naive/optimized LSTM epoch-time ratio: the smallest
/// `f64` above 1.0, so the optimized kernels must be strictly faster.
pub const LSTM_MIN_SPEEDUP: f64 = 1.0 + f64::EPSILON;

/// Measures the `engine` layer: the same KASLR trial set (`c = 2`,
/// `k = 32` on `lenovo_yangtian`), serial and then on the engine's
/// resolved worker count. The digest folds each run's results.
pub fn measure_engine(record: &mut BenchRecord, trials: usize) {
    let machine = MachineConfig::lenovo_yangtian();
    let config = KaslrConfig {
        c: 2,
        k: 32,
        ..KaslrConfig::paper_default()
    };
    let seed = 0xB3CC_0001;
    let digest = |results: &[_]| fnv1a(format!("{results:?}").as_bytes());
    let (serial_s, serial) = best_of(1, || run_trials(&machine, &config, seed, trials, Some(1)));
    let (parallel_s, parallel) = best_of(1, || run_trials(&machine, &config, seed, trials, None));
    let n = trials as f64;
    record.arm(
        "engine",
        "serial",
        "trials/s",
        n / serial_s.max(1e-9),
        Some(digest(&serial)),
    );
    record.arm(
        "engine",
        "parallel",
        "trials/s",
        n / parallel_s.max(1e-9),
        Some(digest(&parallel)),
    );
}

/// Measures the `lstm` layer: mean training-epoch time (forward,
/// backward, Adam step) of the naive reference and the optimized
/// kernels at the paper's model size, plus the `lstm.speedup` gate.
pub fn measure_lstm(record: &mut BenchRecord, epochs: usize) {
    let (steps, input, hidden) = (64usize, 8usize, 32usize);
    let xs: Vec<Vec<f32>> = (0..steps)
        .map(|t| {
            (0..input)
                .map(|k| ((t * input + k) as f32 * 0.13).sin())
                .collect()
        })
        .collect();
    let dh_last = vec![1.0f32; hidden];

    let mut rng = SmallRng::seed_from_u64(0xB3CC_0002);
    let mut naive = NaiveLstm::new(input, hidden, &mut rng, AdamConfig::default());
    let mut dh = vec![vec![0.0f32; hidden]; steps];
    dh[steps - 1] = dh_last.clone();
    let (naive_s, ()) = best_of(1, || {
        for _ in 0..epochs {
            let trace = naive.forward(&xs);
            naive.backward(&trace, &dh);
            naive.apply_grads(1);
        }
    });

    let mut rng = SmallRng::seed_from_u64(0xB3CC_0002);
    let mut fast = Lstm::new(input, hidden, &mut rng, AdamConfig::default());
    let (fast_s, ()) = best_of(1, || {
        for _ in 0..epochs {
            let trace = fast.forward(&xs);
            fast.backward_last(&trace, &dh_last);
            fast.apply_grads(1);
        }
    });

    let naive_ms = naive_s * 1e3 / epochs as f64;
    let optimized_ms = fast_s * 1e3 / epochs as f64;
    record.arm("lstm", "naive", "ms/epoch", naive_ms, None);
    record.arm("lstm", "optimized", "ms/epoch", optimized_ms, None);
    let speedup = naive_ms / optimized_ms.max(1e-9);
    record.gate("lstm.speedup", speedup, LSTM_MIN_SPEEDUP, true, true);
}
