//! Regenerates `BENCH_serve.json`: streaming-serving session throughput
//! at batch capacities 1, 8, and 64 on the f64 reference classifier and
//! its i16-quantized variant, against a recycled single-session
//! baseline, plus post-training quantization accuracy on a Table
//! IV-style website-fingerprinting eval set.
//!
//! Writes to `SEGSCOPE_BENCH_JSON` (default `BENCH_serve.json` at the
//! workspace root). Set `SEGSCOPE_BENCH_FULL=1` for the larger session
//! count. The ≥3x batched-vs-sequential gate arms only on multi-core
//! hosts.

use segscope_bench::serving::{
    build_workload, measure_precision, measure_quant, BATCHED_SERVE_MIN_SPEEDUP,
};
use segscope_bench::BenchRecord;
use serve::{QuantScheme, QuantizedSeqClassifier};

fn main() {
    let full = segscope_bench::full_scale();
    let (sessions, repeats) = if full { (1024, 5) } else { (256, 3) };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    // Train on 6 visits per site, hold out 13 per site so the accuracy
    // delta resolves close to the 1% gate granularity (104 eval
    // sequences on the quick 8-site scale).
    let workload = build_workload(sessions, 6, 13, 0x5EBE_CA4A);
    let i16_model = QuantizedSeqClassifier::quantize(&workload.model, QuantScheme::I16);
    let mut record = BenchRecord::new(
        "serve",
        format!(
            "{sessions} sessions x {} steps, batched arms sharded over {threads} threads, \
             best of {repeats}; quantization accuracy on {} eval sequences",
            workload.steps_per_session,
            workload.eval.len(),
        ),
    );

    let best = measure_precision(
        &mut record,
        &workload.model,
        "f64",
        &workload,
        threads,
        repeats,
    );
    measure_precision(&mut record, &i16_model, "i16", &workload, threads, repeats);
    let armed = record.multi_core();
    record.gate(
        "serve.f64.speedup",
        best,
        BATCHED_SERVE_MIN_SPEEDUP,
        true,
        armed,
    );
    measure_quant(&mut record, &workload.model, &workload.eval);
    record.finish();
}
