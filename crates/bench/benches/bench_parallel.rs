//! Regenerates `BENCH_parallel.json`: engine throughput (serial vs
//! parallel KASLR trials) and LSTM kernel timing (naive vs optimized).
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
             lstm: {epochs} training epochs, 64 steps x 8 inputs, 32 hidden",
            exec::resolve_threads(None)
        ),
    );
    measure_engine(&mut record, trials);
    measure_lstm(&mut record, epochs);
    record.finish();
}
