//! Regenerates `BENCH_parallel.json`: engine throughput (serial vs
//! parallel KASLR trials), LSTM training timing (naive vs optimized
//! one example at a time vs optimized in lane groups of eight) and
//! ragged tagger training (one lane at a time vs ragged lane groups).
//!
//! Writes to `SEGSCOPE_BENCH_JSON` (default `BENCH_parallel.json` at the
//! workspace root).

use segscope_bench::parallel::{measure_engine, measure_lstm, measure_ragged};
use segscope_bench::BenchRecord;

fn main() {
    let (trials, epochs, ragged_epochs) = if segscope_bench::full_scale() {
        (32, 400, 20)
    } else {
        (8, 100, 5)
    };
    let mut record = BenchRecord::new(
        "parallel",
        format!(
            "engine: {trials} KASLR trials (c=2, k=32) serial and on {} engine threads; \
             lstm: {epochs} minibatches of {} sequences, 64 steps x 8 inputs, 32 hidden; \
             ragged: {ragged_epochs} epochs of {} minibatches of {} sequences, 20-240 steps, \
             in lane groups of {}, BiLSTM 1 input x 12 hidden",
            exec::resolve_threads(None),
            segscope_bench::parallel::LSTM_BATCH,
            segscope_bench::parallel::RAGGED_MINIBATCHES,
            segscope_bench::parallel::RAGGED_BATCH,
            segscope_bench::parallel::RAGGED_LANES,
        ),
    );
    measure_engine(&mut record, trials);
    measure_lstm(&mut record, epochs);
    measure_ragged(&mut record, ragged_epochs);
    record.finish();
}
