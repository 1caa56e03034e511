//! Regenerates `BENCH_campaign.json`: campaign-sweep throughput
//! (cells/s) at shard counts 1, 4, and 8 over a fast four-scenario
//! grid, with an FNV fold of each merged report proving the sweeps are
//! bit-identical.
//!
//! Writes to `SEGSCOPE_BENCH_JSON` (default `BENCH_campaign.json` at the
//! workspace root). Set `SEGSCOPE_BENCH_FULL=1` for the larger grid. The
//! ≥2x sharded-vs-serial gate arms only on multi-core hosts.

use segscope_bench::sweep::{bench_spec, measure_sweep};
use segscope_bench::BenchRecord;

fn main() {
    let full = segscope_bench::full_scale();
    let spec = bench_spec(full);
    let repeats = if full { 5 } else { 3 };
    let mut record = BenchRecord::new(
        "campaign",
        format!(
            "grid `{}`: {} cells ({} scenarios x {} presets x {} faults x {} replicates), \
             {} trials per cell, 1 thread per cell, best of {repeats} sweeps per shard count",
            spec.name,
            spec.cell_count(),
            spec.scenarios.len(),
            spec.presets.len(),
            spec.faults.len(),
            spec.replicates,
            spec.trials.unwrap_or(1),
        ),
    );
    measure_sweep(&mut record, &spec, repeats);
    record.finish();
}
