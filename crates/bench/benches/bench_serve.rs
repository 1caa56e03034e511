//! Regenerates `BENCH_serve.json`: streaming-serving session throughput
//! at batch capacities 1, 8, and 64 on the website classifier, against
//! a recycled single-session baseline, over held-out Table IV-style
//! website-fingerprinting traces.
//!
//! Writes to `SEGSCOPE_BENCH_JSON` (default `BENCH_serve.json` at the
//! workspace root). Set `SEGSCOPE_BENCH_FULL=1` for the larger session
//! count. The ≥3x batched-vs-sequential gate arms only on multi-core
//! hosts.

use segscope_bench::serving::{build_workload, measure_precision, BATCHED_SERVE_MIN_SPEEDUP};
use segscope_bench::BenchRecord;

fn main() {
    let full = segscope_bench::full_scale();
    let (sessions, repeats) = if full { (1024, 5) } else { (256, 3) };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    // Train on 6 visits per site and serve the 13 held-out visits per
    // site (104 sequences on the quick 8-site scale), cycled.
    let workload = build_workload(sessions, 6, 13, 0x5EBE_CA4A);
    let mut record = BenchRecord::new(
        "serve",
        format!(
            "{sessions} sessions x {} steps over {} held-out sequences, batched arms \
             sharded over {threads} threads, best of {repeats}",
            workload.steps_per_session,
            workload.eval.len(),
        ),
    );

    let best = measure_precision(&mut record, &workload, threads, repeats);
    let armed = record.multi_core();
    record.gate(
        "serve.f64.speedup",
        best,
        BATCHED_SERVE_MIN_SPEEDUP,
        true,
        armed,
    );
    record.finish();
}
