//! Criterion performance benches for the simulator's hot paths: probing
//! throughput, baseline probing, guarded measurements, the cache
//! hierarchy, the parallel experiment engine, and the optimized LSTM
//! kernels. These guard against performance regressions in the substrate
//! (they are about *host* performance, not paper results).

use criterion::{criterion_group, criterion_main, Criterion};
use irq::time::Ps;
use nnet::reference::NaiveLstm;
use nnet::{AdamConfig, Lstm};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use segscope::{InterruptGuard, SegProbe};
use segscope_attacks::kaslr::{run_trials, KaslrConfig};
use segsim::{Machine, MachineConfig};
use std::hint::black_box;

fn bench_probe(c: &mut Criterion) {
    c.bench_function("segscope_probe_100_interrupts", |b| {
        let mut machine = Machine::new(MachineConfig::xiaomi_air13(), 1);
        let mut probe = SegProbe::new();
        b.iter(|| {
            let samples = probe.probe_n(&mut machine, 100).expect("probe works");
            black_box(samples.len())
        });
    });
}

fn bench_user_span(c: &mut Criterion) {
    c.bench_function("run_user_until_one_tick", |b| {
        let mut machine = Machine::new(MachineConfig::xiaomi_air13(), 2);
        b.iter(|| black_box(machine.run_user_until(Ps::MAX).cycles));
    });
}

fn bench_guard(c: &mut Criterion) {
    c.bench_function("interrupt_guard_round_trip", |b| {
        let mut machine = Machine::new(MachineConfig::xiaomi_air13(), 3);
        b.iter(|| {
            let guard = InterruptGuard::arm(&mut machine).expect("arm");
            machine.spin(500);
            black_box(guard.finish(&mut machine))
        });
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("memory_hierarchy_access_mixed", |b| {
        let mut mem = memsim::MemoryHierarchy::default();
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(0x1740) & 0xf_ffff;
            black_box(mem.access(addr).cycles)
        });
    });
}

/// Serial (1 thread) vs parallel (`SEGSCOPE_THREADS` / all cores) fan-out
/// of independent KASLR trials through the `exec` engine. On a 1-CPU host
/// the two are expected to tie; on a multicore host the parallel variant
/// should approach a linear speedup.
fn bench_kaslr_trials(c: &mut Criterion) {
    let machine_cfg = MachineConfig::lenovo_yangtian();
    let config = KaslrConfig {
        slots: 64,
        c: 1,
        k: 16,
        ..KaslrConfig::paper_default()
    };
    let trials = 8;
    c.bench_function("kaslr_trials_serial", |b| {
        b.iter(|| {
            let results = run_trials(&machine_cfg, &config, 0xBE7C, trials, Some(1));
            black_box(results.len())
        });
    });
    c.bench_function("kaslr_trials_parallel", |b| {
        b.iter(|| {
            let results = run_trials(&machine_cfg, &config, 0xBE7C, trials, None);
            black_box(results.len())
        });
    });
}

fn lstm_epoch_data(steps: usize, input: usize) -> Vec<Vec<f32>> {
    (0..steps)
        .map(|t| {
            (0..input)
                .map(|k| ((t * input + k) as f32 * 0.13).sin())
                .collect()
        })
        .collect()
}

/// Old (naive, per-timestep-allocating) vs new (flat-trace, fused-gate)
/// LSTM forward+backward+update epoch at the paper's model size
/// (32 hidden units).
fn bench_lstm_epoch(c: &mut Criterion) {
    let xs = lstm_epoch_data(64, 8);
    let dh_last = vec![1.0f32; 32];
    c.bench_function("lstm_epoch_naive", |b| {
        let mut rng = SmallRng::seed_from_u64(0xE0);
        let mut lstm = NaiveLstm::new(8, 32, &mut rng, AdamConfig::default());
        let mut dh = vec![vec![0.0f32; 32]; xs.len()];
        dh[xs.len() - 1] = dh_last.clone();
        b.iter(|| {
            let trace = lstm.forward(&xs);
            lstm.backward(&trace, &dh);
            lstm.apply_grads(1);
            black_box(trace.len())
        });
    });
    c.bench_function("lstm_epoch_optimized", |b| {
        let mut rng = SmallRng::seed_from_u64(0xE0);
        let mut lstm = Lstm::new(8, 32, &mut rng, AdamConfig::default());
        b.iter(|| {
            let mut trace = lstm.forward(&xs);
            lstm.backward_last(&mut trace, &dh_last);
            lstm.apply_grads(1);
            black_box(trace.len())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_probe, bench_user_span, bench_guard, bench_cache,
        bench_kaslr_trials, bench_lstm_epoch
}
criterion_main!(benches);
