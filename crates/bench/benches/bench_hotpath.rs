//! Regenerates `BENCH_hotpath.json`: cached-head fabric dispatch
//! throughput vs the naive linear-scan baseline on the shipped 3-source
//! machine, allocation counts for the buffer-reuse probe API vs the
//! allocating wrapper, recycled-machine vs fresh-machine trial
//! throughput, and the LSTM gradient fold's tiled group kernel vs its
//! scalar per-pair oracle.
//!
//! Writes to `SEGSCOPE_BENCH_JSON` (default `BENCH_hotpath.json` at the
//! workspace root). Set `SEGSCOPE_BENCH_FULL=1` for the larger scales,
//! which also raise the recycled-trials bar to ≥5x.

use segscope::SegProbe;
use segscope_bench::hotpath::{
    measure_fabric, measure_fold, measure_trials, trials_machine, FOLD_SHAPE, PEEKS_PER_POP,
};
use segscope_bench::{fnv1a_fold, BenchRecord, FNV1A_BASIS};
use segsim::{Machine, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wraps the system allocator with an allocation counter so the probe
/// arms can report exact allocation counts rather than estimates.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// and publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` once and returns `(wall_s, allocations, result)`.
fn counted<T>(f: impl FnOnce() -> T) -> (f64, u64, T) {
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    (wall_s, ALLOCS.load(Ordering::Relaxed) - allocs0, out)
}

/// Measures the `probe` layer twice from identical machine state:
/// `batches` batches of `samples` through the allocating `probe_n`, then
/// through `probe_n_into` with one reused buffer, plus the
/// `probe.allocs_saved` gate (`probe_n_into` allocates strictly less).
fn measure_probe(record: &mut BenchRecord, samples: usize, batches: usize) {
    let cfg = MachineConfig::lenovo_yangtian();
    let seed = 0xB3CC_0004;

    let mut machine = Machine::new(cfg.clone(), seed);
    let mut probe = SegProbe::new();
    let (fresh_s, allocs_fresh, fresh_hash) = counted(|| {
        let mut h = FNV1A_BASIS;
        for _ in 0..batches {
            let batch = probe.probe_n(&mut machine, samples).expect("probe works");
            h = batch.iter().fold(h, |h, s| fnv1a_fold(h, s.segcnt));
        }
        h
    });

    let mut machine = Machine::new(cfg, seed);
    let mut probe = SegProbe::new();
    let mut buf = Vec::new();
    let (reused_s, allocs_reused, reused_hash) = counted(|| {
        let mut h = FNV1A_BASIS;
        for _ in 0..batches {
            probe
                .probe_n_into(&mut machine, samples, &mut buf)
                .expect("probe works");
            h = buf.iter().fold(h, |h, s| fnv1a_fold(h, s.segcnt));
        }
        h
    });

    let total = (samples * batches) as f64;
    let (fresh, reused) = (allocs_fresh as f64, allocs_reused as f64);
    record.arm(
        "probe",
        "probe_n",
        "samples/s",
        total / fresh_s.max(1e-9),
        Some(fresh_hash),
    );
    record.arm(
        "probe",
        "probe_n_into",
        "samples/s",
        total / reused_s.max(1e-9),
        Some(reused_hash),
    );
    record.arm("probe", "probe_n allocs", "allocs", fresh, None);
    record.arm("probe", "probe_n_into allocs", "allocs", reused, None);
    record.gate("probe.allocs_saved", fresh - reused, 1.0, true, true);
}

fn main() {
    let full = segscope_bench::full_scale();
    // Short probe trials (a 32-slot burst, the per-candidate unit of the
    // scan-style attacks) are where per-trial machine construction
    // dominates — the regime the recycled machine exists for.
    let (events, samples, batches, trials, groups) = if full {
        (1_500_000, 1_000, 2_000, 2_000, 2_000)
    } else {
        (150_000, 1_000, 200, 256, 200)
    };
    let (rows, cols, lanes, steps) = FOLD_SHAPE;
    let cfg = MachineConfig::lenovo_yangtian();
    let mut record = BenchRecord::new(
        "hotpath",
        format!(
            "fabric: `{}` timer/PMI/resched sources, {events} events, {PEEKS_PER_POP} peeks per \
             pop; probe: {batches} batches x {samples} samples; trials: {trials} trials x 32 \
             slots on `{}` with a light fault plan; fold: {groups} groups of {lanes} lanes x \
             {steps} steps into a {rows} x {cols} gradient",
            cfg.name,
            trials_machine().name,
        ),
    );
    measure_fabric(&mut record, &cfg, events, 0xBA7C_0010);
    measure_probe(&mut record, samples, batches);
    measure_trials(&mut record, trials, 32, 3, 0xBA7C_0020);
    measure_fold(&mut record, groups, 3);
    record.finish();
}
