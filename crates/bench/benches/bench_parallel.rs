//! Regenerates `BENCH_parallel.json`: engine throughput (serial vs
//! parallel KASLR trials) and LSTM training timing (naive vs optimized
//! one example at a time vs optimized in lane groups of eight).
//!
//! Writes to `SEGSCOPE_BENCH_JSON` (default `BENCH_parallel.json` at the
//! workspace root).

use segscope_bench::parallel::{measure_engine, measure_lstm};
use segscope_bench::BenchRecord;

fn main() {
    let (trials, epochs) = if segscope_bench::full_scale() {
        (32, 400)
    } else {
        (8, 100)
    };
    let mut record = BenchRecord::new(
        "parallel",
        format!(
            "engine: {trials} KASLR trials (c=2, k=32) serial and on {} engine threads; \
             lstm: {epochs} minibatches of {} sequences, 64 steps x 8 inputs, 32 hidden",
            exec::resolve_threads(None),
            segscope_bench::parallel::LSTM_BATCH,
        ),
    );
    measure_engine(&mut record, trials);
    measure_lstm(&mut record, epochs);
    record.finish();
}
