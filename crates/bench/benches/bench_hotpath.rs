//! Regenerates `BENCH_hotpath.json`: cached-head fabric dispatch
//! throughput vs the naive linear-scan baseline on the shipped 3-source
//! machine, allocation counts for the buffer-reuse probe API vs the
//! allocating wrapper, recycled-machine vs fresh-machine trial
//! throughput, and end-to-end scenario throughput.
//!
//! Writes to the path in `SEGSCOPE_BENCH_JSON` (default
//! `BENCH_hotpath.json` in the current directory). Set
//! `SEGSCOPE_BENCH_FULL=1` for the larger scales, which also arms the
//! ≥5x recycled-trials gate.

use segscope::SegProbe;
use segscope_bench::hotpath_report::{
    measure_fabric, measure_scenario, measure_trials, write_report, HotpathBenchReport, ProbeBench,
};
use segscope_bench::{fnv1a_fold, FNV1A_BASIS};
use segsim::{Machine, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wraps the system allocator with heap-traffic counters so the probe
/// arms can report exact allocation counts rather than estimates.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(wall_s, allocations, bytes, result)`.
fn counted<T>(f: impl FnOnce() -> T) -> (f64, u64, u64, T) {
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let bytes0 = BYTES.load(Ordering::Relaxed);
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    (wall_s, allocs, bytes, out)
}

/// Measures the probe loop twice from identical machine state: `batches`
/// batches of `samples` through the allocating `probe_n`, then through
/// `probe_n_into` with one reused buffer.
fn measure_probe(samples: usize, batches: usize) -> ProbeBench {
    let cfg = MachineConfig::lenovo_yangtian();
    let seed = 0xB3CC_0004;

    let mut machine = Machine::new(cfg.clone(), seed);
    let mut probe = SegProbe::new();
    let (fresh_s, allocs_fresh, alloc_bytes_fresh, fresh_hash) = counted(|| {
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
    let (reused_s, allocs_reused, alloc_bytes_reused, reused_hash) = counted(|| {
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
    ProbeBench {
        samples,
        batches,
        alloc_bytes_fresh,
        alloc_bytes_reused,
        allocs_fresh,
        allocs_reused,
        alloc_reduction: 1.0 - allocs_reused as f64 / allocs_fresh.max(1) as f64,
        fresh_samples_per_s: total / fresh_s.max(1e-9),
        reused_samples_per_s: total / reused_s.max(1e-9),
        identical: fresh_hash == reused_hash,
    }
}

fn main() {
    segscope_bench::header("Hot-path performance: fabric dispatch, probe buffers, recycled trials");
    let full = segscope_bench::full_scale();
    // Short probe trials (a 32-slot burst, the per-candidate unit of the
    // scan-style attacks) are where per-trial machine construction
    // dominates — the regime the recycled machine exists for.
    let (events, samples, batches, trials, scenario_trials) = if full {
        (1_500_000, 1_000, 2_000, 2_000, 32)
    } else {
        (150_000, 1_000, 200, 256, 4)
    };

    let cfg = MachineConfig::lenovo_yangtian();
    // Warmup pass (page-in, branch training) before the timed one.
    let _ = measure_fabric(&cfg, events / 10, 0xBA7C_0010);
    let fabric = measure_fabric(&cfg, events, 0xBA7C_0010);
    println!(
        "fabric `{}` ({} sources, {} events, {} peeks/pop): naive {:.2}M irq/s, \
         cached {:.2}M irq/s ({:.2}x), identical: {}",
        fabric.machine,
        fabric.sources,
        fabric.events,
        fabric.peeks_per_pop,
        fabric.naive_events_per_s / 1e6,
        fabric.cached_events_per_s / 1e6,
        fabric.speedup,
        fabric.identical,
    );

    let probe = measure_probe(samples, batches);
    println!(
        "probe ({} x {} samples): probe_n {:.2}M samples/s / {} allocs, \
         probe_n_into {:.2}M samples/s / {} allocs ({:.1}% fewer), identical: {}",
        probe.batches,
        probe.samples,
        probe.fresh_samples_per_s / 1e6,
        probe.allocs_fresh,
        probe.reused_samples_per_s / 1e6,
        probe.allocs_reused,
        probe.alloc_reduction * 100.0,
        probe.identical,
    );

    let trials_arm = measure_trials(trials, 32, 3, 0xBA7C_0020);
    println!(
        "trials `{}` ({} trials x {} slots): fresh {:.0} trials/s, \
         recycled {:.0} trials/s ({:.2}x), identical: {}",
        trials_arm.machine,
        trials_arm.trials,
        trials_arm.slots_per_trial,
        trials_arm.fresh_trials_per_s,
        trials_arm.recycled_trials_per_s,
        trials_arm.speedup,
        trials_arm.identical,
    );

    let scenario = measure_scenario(scenario_trials);
    println!(
        "scenario `{}`: {} trials in {:.2} s ({:.2} trials/s)",
        scenario.scenario, scenario.trials, scenario.wall_s, scenario.trials_per_s,
    );

    let note = if full {
        "full scale (SEGSCOPE_BENCH_FULL=1); wall-clock numbers are \
         host-dependent, the identity/speedup invariants are not"
            .to_string()
    } else {
        "quick scale; wall-clock numbers are host-dependent, the \
         identity/speedup invariants are not"
            .to_string()
    };
    let report = HotpathBenchReport {
        fabric,
        probe,
        trials: trials_arm,
        scenario,
        full_scale: full,
        note,
    };
    report.validate().expect("hot-path invariants hold");

    let path =
        std::env::var("SEGSCOPE_BENCH_JSON").unwrap_or_else(|_| "BENCH_hotpath.json".to_string());
    write_report(&report, &path).expect("write report");
    println!("\nwrote {path}");
}
