//! The parallel experiment engine and the optimized LSTM kernels
//! (`BENCH_parallel.json`).
//!
//! Serial and parallel engine runs must return bit-identical results
//! regardless of the observed speedup (on a single-CPU host the speedup
//! is ~1x). LSTM training one example at a time and in lane groups of
//! eight must leave bit-identical weights, and the optimized kernels
//! must be strictly faster than the naive reference. So must ragged
//! lane groups of the dnnsteal tagger's shape, against one lane at a
//! time.

use crate::record::{best_of, BenchRecord};
use crate::{fnv1a, fnv1a_fold, FNV1A_BASIS};
use nnet::reference::NaiveLstm;
use nnet::{AdamConfig, BiLstm, BiLstmTrace, Lstm, LstmTrace};
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use scenario::{run_scenario, RunOptions};
use segscope_attacks::kaslr::{KaslrConfig, KaslrScenario, KaslrScenarioConfig};
use segsim::MachineConfig;

/// Minimum accepted naive/optimized LSTM epoch-time ratio: the smallest
/// `f64` above 1.0, so the optimized kernels must be strictly faster.
pub const LSTM_MIN_SPEEDUP: f64 = 1.0 + f64::EPSILON;

/// Measures the `engine` layer: the same KASLR trial set (`c = 2`,
/// `k = 32` on `lenovo_yangtian`), serial and then on the engine's
/// resolved worker count. The digest folds each run's results.
pub fn measure_engine(record: &mut BenchRecord, trials: usize) {
    let machine = MachineConfig::lenovo_yangtian();
    let attack = KaslrConfig {
        c: 2,
        k: 32,
        ..KaslrConfig::paper_default()
    };
    let config = KaslrScenarioConfig { machine, attack };
    let digest = |results: &[_]| fnv1a(format!("{results:?}").as_bytes());
    let run = |threads| {
        let opts = RunOptions {
            seed: Some(0xB3CC_0001),
            trials: Some(trials),
            threads,
            ..RunOptions::default()
        };
        run_scenario(&KaslrScenario, &config, &opts).outputs
    };
    let (serial_s, serial) = best_of(1, || run(Some(1)));
    let (parallel_s, parallel) = best_of(1, || run(None));
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

/// Sequences per `lstm` minibatch: two lane groups of eight.
pub const LSTM_BATCH: usize = 16;

/// Measures the `lstm` layer: mean time to train one minibatch of
/// [`LSTM_BATCH`] sequences (forward, backward to a gradient at the last
/// step, one Adam step) at the paper's model size, for three arms — the
/// naive reference, the optimized layer one example at a time
/// (`optimized`, one-lane groups) and the optimized layer in lane groups
/// of eight (`lanes`) — plus the `lstm.speedup` gate. The `optimized`
/// and `lanes` arms carry a digest of the trained weights, so the
/// record's digest rule enforces that lanes change no bit; the naive
/// arm matches only within float tolerance and carries none.
pub fn measure_lstm(record: &mut BenchRecord, epochs: usize) {
    let (steps, input, hidden) = (64usize, 8usize, 32usize);
    let seqs: Vec<Vec<Vec<f32>>> = (0..LSTM_BATCH)
        .map(|s| {
            (0..steps)
                .map(|t| {
                    (0..input)
                        .map(|k| (((s * steps + t) * input + k) as f32 * 0.13).sin())
                        .collect()
                })
                .collect()
        })
        .collect();
    let seed = 0xB3CC_0002;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut naive = NaiveLstm::new(input, hidden, &mut rng, AdamConfig::default());
    let mut dh = vec![vec![0.0f32; hidden]; steps];
    dh[steps - 1] = vec![1.0f32; hidden];
    // Best of three timed runs: the lstm arms are milliseconds long, so
    // one run is at the mercy of host noise.
    let (naive_s, ()) = best_of(3, || {
        for _ in 0..epochs {
            for xs in &seqs {
                let trace = naive.forward(xs);
                naive.backward(&trace, &dh);
            }
            naive.apply_grads(LSTM_BATCH);
        }
    });

    // Trains a fresh layer, `group` sequences per forward/backward pass.
    let train = |group: usize| {
        let dh_last = vec![1.0f32; hidden * group];
        let groups: Vec<Vec<&[Vec<f32>]>> = seqs
            .chunks(group)
            .map(|g| g.iter().map(Vec::as_slice).collect())
            .collect();
        best_of(3, || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut lstm = Lstm::new(input, hidden, &mut rng, AdamConfig::default());
            let mut trace = LstmTrace::default();
            for _ in 0..epochs {
                for lanes in &groups {
                    lstm.forward_lanes(lanes, &mut trace);
                    lstm.backward_last(&mut trace, &dh_last[..hidden * lanes.len()]);
                }
                lstm.apply_grads(LSTM_BATCH);
            }
            lstm.weights()
                .as_slice()
                .iter()
                .fold(FNV1A_BASIS, |h, w| fnv1a_fold(h, u64::from(w.to_bits())))
        })
    };
    let (optimized_s, optimized) = train(1);
    let (lanes_s, lanes) = train(8);

    let per_epoch = |s: f64| s * 1e3 / epochs as f64;
    let (naive_ms, optimized_ms) = (per_epoch(naive_s), per_epoch(optimized_s));
    record.arm("lstm", "naive", "ms/epoch", naive_ms, None);
    record.arm(
        "lstm",
        "optimized",
        "ms/epoch",
        optimized_ms,
        Some(optimized),
    );
    record.arm("lstm", "lanes", "ms/epoch", per_epoch(lanes_s), Some(lanes));
    let speedup = naive_ms / optimized_ms.max(1e-9);
    record.gate("lstm.speedup", speedup, LSTM_MIN_SPEEDUP, true, true);
}

/// Sequences per `ragged` minibatch, as dnnsteal trains its tagger.
pub const RAGGED_BATCH: usize = 8;

/// Lanes per `ragged` lane group: `SeqTagger`'s four, which keeps a
/// group's trace (every lane-step it runs) small.
pub const RAGGED_LANES: usize = 4;

/// Minibatches per `ragged` epoch.
pub const RAGGED_MINIBATCHES: usize = 4;

/// Measures the `ragged` layer: mean time to train one epoch of
/// [`RAGGED_MINIBATCHES`] minibatches of [`RAGGED_BATCH`] sequences at
/// the dnnsteal tagger's shape (a BiLSTM of input 1 and hidden 12, a
/// gradient at every step of both directions, one Adam step per
/// minibatch), the lengths drawn from a fixed seed over 20–240 as
/// dnnsteal's traces are. Two arms: one lane at a time (`one_lane`) and
/// each minibatch as ragged lane groups of [`RAGGED_LANES`]
/// (`grouped`), both carrying a
/// digest of the trained weights, so the record's digest rule enforces
/// that ragged groups change no bit; plus the `ragged.speedup` gate.
pub fn measure_ragged(record: &mut BenchRecord, epochs: usize) {
    let (input, hidden) = (1usize, 12usize);
    let mut rng = SmallRng::seed_from_u64(0xB3CC_0003);
    let seqs: Vec<Vec<Vec<f32>>> = (0..RAGGED_BATCH * RAGGED_MINIBATCHES)
        .map(|s| {
            (0..rng.gen_range(20..=240usize))
                .map(|t| vec![((s * 241 + t) as f32 * 0.13).sin()])
                .collect()
        })
        .collect();
    // Per minibatch, every step's output gradient for each direction,
    // lane after lane: a one-lane group reads its own lane's slice.
    let grads: Vec<Vec<f32>> = seqs
        .chunks(RAGGED_BATCH)
        .map(|batch| {
            batch
                .iter()
                .enumerate()
                .flat_map(|(s, seq)| {
                    (0..seq.len() * hidden).map(move |k| ((s * 7 + k) as f32 * 0.29).cos())
                })
                .collect()
        })
        .collect();
    let seed = 0xB3CC_0004;
    let train = |group: usize| {
        best_of(3, || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut bi = BiLstm::new(input, hidden, &mut rng, AdamConfig::default());
            let mut trace = BiLstmTrace::default();
            for _ in 0..epochs {
                for (batch, d) in seqs.chunks(RAGGED_BATCH).zip(&grads) {
                    let mut first = 0;
                    for lanes in batch.chunks(group) {
                        let lanes: Vec<&[Vec<f32>]> = lanes.iter().map(Vec::as_slice).collect();
                        let pairs: usize = lanes.iter().map(|s| s.len()).sum();
                        let d = &d[first * hidden..(first + pairs) * hidden];
                        bi.forward_lanes(&lanes, &mut trace);
                        bi.backward(&mut trace, d, d);
                        first += pairs;
                    }
                    bi.apply_grads(RAGGED_BATCH);
                }
            }
            format!("{bi:?}")
                .bytes()
                .fold(FNV1A_BASIS, |h, b| fnv1a_fold(h, u64::from(b)))
        })
    };
    let (one_lane_s, one_lane) = train(1);
    let (grouped_s, grouped) = train(RAGGED_LANES);
    let per_epoch = |s: f64| s * 1e3 / epochs as f64;
    record.arm(
        "ragged",
        "one_lane",
        "ms/epoch",
        per_epoch(one_lane_s),
        Some(one_lane),
    );
    record.arm(
        "ragged",
        "grouped",
        "ms/epoch",
        per_epoch(grouped_s),
        Some(grouped),
    );
    let speedup = one_lane_s / grouped_s.max(1e-9);
    record.gate("ragged.speedup", speedup, LSTM_MIN_SPEEDUP, true, true);
}
