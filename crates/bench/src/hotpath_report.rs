//! Machine-readable performance report for the simulator hot path
//! (`BENCH_hotpath.json`).
//!
//! The `bench_hotpath` target regenerates the file; it records host
//! wall-clock numbers, so absolute values vary by machine. The gates in
//! [`HotpathBenchReport::validate`] are host-independent:
//!
//! - on the shipped 3-source machine and the simulator's peek-heavy
//!   dispatch pattern, the cached-head fabric and the naive linear-scan
//!   fabric deliver bit-identical streams (and leave their RNGs at the
//!   same position), and the cached head never loses to the scan,
//! - the buffer-reuse probe API (`probe_n_into`) allocates strictly less
//!   than the allocating wrapper (`probe_n`) while producing identical
//!   samples,
//! - recycled-machine trials produce bit-identical per-trial sample
//!   streams, fault logs, and final RNG positions (FNV-folded) to
//!   fresh-machine trials, at ≥2x the throughput on the quick scale and
//!   ≥5x at full scale.

use crate::{fnv1a_fold, FNV1A_BASIS};
use irq::{InterruptFabric, InterruptKind, NaiveFabric};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use segscope_attacks::kaslr::{run_trials, KaslrConfig};
use segsim::{FaultPlan, Machine, MachineConfig};
use serde::Serialize;
use std::time::Instant;
use x86seg::Selector;

/// Minimum accepted cached-vs-naive fabric speedup on the peek+pop arm:
/// the simulator's dispatch peeks the fabric head several times per
/// delivered interrupt, and the cached fabric answers those peeks in
/// O(1) while the naive scan pays O(sources) each time — so parity holds
/// with real margin even at 3 sources.
pub const FABRIC_MIN_SPEEDUP: f64 = 1.0;

/// Minimum accepted recycled-vs-fresh trial throughput speedup on the
/// quick scale (a deliberately loose floor for noisy CI hosts).
pub const RECYCLED_MIN_SPEEDUP: f64 = 2.0;

/// Minimum accepted recycled-vs-fresh trial throughput speedup at full
/// scale (`SEGSCOPE_BENCH_FULL=1`), where per-trial work is long enough
/// to amortize timing noise.
pub const RECYCLED_FULL_MIN_SPEEDUP: f64 = 5.0;

/// How many `peek_next` calls the dispatch loop issues per consumed
/// interrupt — the simulator re-peeks the head once per user span to
/// bound the span, so several peeks per pop is the representative ratio.
pub const PEEKS_PER_POP: usize = 4;

/// Cached-vs-naive fabric throughput on the peek-heavy dispatch pattern.
#[derive(Debug, Clone, Serialize)]
pub struct FabricArm {
    /// Machine preset the source set came from.
    pub machine: String,
    /// Interrupt sources on the fabric (timer, PMI, resched).
    pub sources: usize,
    /// Interrupts consumed per fabric per run.
    pub events: usize,
    /// `peek_next` calls issued per consumed interrupt.
    pub peeks_per_pop: usize,
    /// Naive linear-scan fabric wall-clock seconds.
    pub naive_s: f64,
    /// Cached-head fabric wall-clock seconds.
    pub cached_s: f64,
    /// Naive fabric throughput, consumed interrupts per second.
    pub naive_events_per_s: f64,
    /// Cached-head fabric throughput, consumed interrupts per second.
    pub cached_events_per_s: f64,
    /// Cached-head speedup over the naive scan (wall-clock ratio).
    pub speedup: f64,
    /// Whether both fabrics produced bit-identical peek+pop streams and
    /// finished with their RNGs at the same position.
    pub identical: bool,
}

/// Allocating-vs-reusing probe API comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeBench {
    /// Samples per batch.
    pub samples: usize,
    /// Batches per run (each `probe_n` batch allocates a fresh `Vec`).
    pub batches: usize,
    /// Heap bytes allocated across the `probe_n` run.
    pub alloc_bytes_fresh: u64,
    /// Heap bytes allocated across the `probe_n_into` run.
    pub alloc_bytes_reused: u64,
    /// Allocation count across the `probe_n` run.
    pub allocs_fresh: u64,
    /// Allocation count across the `probe_n_into` run.
    pub allocs_reused: u64,
    /// Fractional allocation-count reduction, `1 - reused/fresh`.
    pub alloc_reduction: f64,
    /// `probe_n` throughput, samples per second.
    pub fresh_samples_per_s: f64,
    /// `probe_n_into` throughput, samples per second.
    pub reused_samples_per_s: f64,
    /// Whether both APIs produced identical sample streams.
    pub identical: bool,
}

/// Recycled-machine trials vs fresh-machine trials.
#[derive(Debug, Clone, Serialize)]
pub struct TrialsArm {
    /// Machine preset the trials ran on.
    pub machine: String,
    /// Trials per run.
    pub trials: usize,
    /// Probe slots (spin/rdgs rounds) per trial.
    pub slots_per_trial: usize,
    /// Fresh (`Machine::new` per trial) wall-clock seconds.
    pub fresh_s: f64,
    /// Recycled (`reset` per trial) wall-clock seconds.
    pub recycled_s: f64,
    /// Fresh-machine throughput, trials per second.
    pub fresh_trials_per_s: f64,
    /// Recycled-machine throughput, trials per second.
    pub recycled_trials_per_s: f64,
    /// Recycled speedup over fresh (wall-clock ratio).
    pub speedup: f64,
    /// Whether every trial's sample stream, fault log, and final RNG
    /// position (FNV-folded) matched between the two paths.
    pub identical: bool,
}

/// End-to-end scenario throughput (full trials through the unified
/// scenario engine, serial).
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioBench {
    /// Scenario exercised.
    pub scenario: String,
    /// Trials per run.
    pub trials: usize,
    /// Wall-clock seconds for the run.
    pub wall_s: f64,
    /// Throughput, trials per second.
    pub trials_per_s: f64,
}

/// The full `BENCH_hotpath.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct HotpathBenchReport {
    /// Cached-vs-naive fabric dispatch throughput.
    pub fabric: FabricArm,
    /// Probe-buffer reuse comparison.
    pub probe: ProbeBench,
    /// Recycled-vs-fresh machine trial throughput.
    pub trials: TrialsArm,
    /// End-to-end scenario throughput.
    pub scenario: ScenarioBench,
    /// Whether the run used the full scale (`SEGSCOPE_BENCH_FULL=1`),
    /// which arms the ≥5x recycled-trials gate.
    pub full_scale: bool,
    /// Human-readable caveat about the measurement host.
    pub note: String,
}

impl HotpathBenchReport {
    /// Checks the invariants the CI gate relies on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let fabric = &self.fabric;
        if !fabric.identical {
            return Err("cached and naive fabrics diverged".into());
        }
        if fabric.naive_events_per_s <= 0.0 || fabric.cached_events_per_s <= 0.0 {
            return Err("non-positive fabric throughput".into());
        }
        if fabric.speedup < FABRIC_MIN_SPEEDUP {
            return Err(format!(
                "cached fabric lost to the naive scan at {:.2}x on the \
                 peek-heavy pattern (bar {FABRIC_MIN_SPEEDUP}x)",
                fabric.speedup
            ));
        }
        if !self.probe.identical {
            return Err("probe_n and probe_n_into sample streams diverged".into());
        }
        if self.probe.allocs_reused >= self.probe.allocs_fresh {
            return Err(format!(
                "probe_n_into must allocate less than probe_n \
                 ({} vs {} allocations)",
                self.probe.allocs_reused, self.probe.allocs_fresh
            ));
        }
        if self.probe.alloc_reduction <= 0.0 {
            return Err("probe allocation reduction must be positive".into());
        }
        if !self.trials.identical {
            return Err("recycled and fresh trial streams diverged".into());
        }
        let bar = if self.full_scale {
            RECYCLED_FULL_MIN_SPEEDUP
        } else {
            RECYCLED_MIN_SPEEDUP
        };
        if self.trials.speedup < bar {
            return Err(format!(
                "recycled trials reached only {:.2}x over fresh (bar {bar}x)",
                self.trials.speedup
            ));
        }
        if self.scenario.trials_per_s <= 0.0 {
            return Err("scenario throughput must be positive".into());
        }
        Ok(())
    }
}

fn time_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Builds one fabric flavor with the preset's timer, PMI, and resched
/// sources.
macro_rules! build_fabric {
    ($ty:ty, $cfg:expr, $rng:expr) => {{
        let mut fabric = <$ty>::new();
        fabric.add_periodic_timer($cfg.timer_hz, $cfg.timer_jitter, $rng);
        fabric.add_poisson(InterruptKind::PerfMon, $cfg.pmi_rate_hz, $rng);
        fabric.add_poisson(InterruptKind::Resched, $cfg.resched_rate_hz, $rng);
        fabric
    }};
}

/// Consumes `events` deliveries with [`PEEKS_PER_POP`] head peeks before
/// every pop — the simulator's span-bounding dispatch pattern — folding
/// every peeked and popped event into an FNV hash.
macro_rules! drain_hash {
    ($fabric:expr, $rng:expr, $events:expr) => {{
        let mut h = FNV1A_BASIS;
        for _ in 0..$events {
            for _ in 0..PEEKS_PER_POP {
                let head = $fabric.peek_next().expect("sources never run dry");
                h = fnv1a_fold(h, head.at.as_ps());
            }
            let ev = $fabric.pop($rng).expect("sources never run dry");
            h = fnv1a_fold(h, ev.at.as_ps());
            h = fnv1a_fold(h, ev.kind as u64);
        }
        h
    }};
}

/// Measures the peek+pop arm on the preset's 3-source fabric: the
/// cached-head fabric against the naive linear-scan fabric, with
/// identically seeded RNGs.
#[must_use]
pub fn measure_fabric(cfg: &MachineConfig, events: usize, seed: u64) -> FabricArm {
    let mut cached_rng = SmallRng::seed_from_u64(seed);
    let mut cached = build_fabric!(InterruptFabric, cfg, &mut cached_rng);
    let mut naive_rng = SmallRng::seed_from_u64(seed);
    let mut naive = build_fabric!(NaiveFabric, cfg, &mut naive_rng);

    let (naive_s, naive_hash) = time_s(|| drain_hash!(naive, &mut naive_rng, events));
    let (cached_s, cached_hash) = time_s(|| drain_hash!(cached, &mut cached_rng, events));
    let identical = naive_hash == cached_hash && naive_rng.gen::<u64>() == cached_rng.gen::<u64>();

    FabricArm {
        machine: cfg.name.clone(),
        sources: cached.source_count(),
        events,
        peeks_per_pop: PEEKS_PER_POP,
        naive_s,
        cached_s,
        naive_events_per_s: events as f64 / naive_s.max(1e-9),
        cached_events_per_s: events as f64 / cached_s.max(1e-9),
        speedup: naive_s / cached_s.max(1e-9),
        identical,
    }
}

/// One short probe trial — load GS once, then `slots` spin+rdgs rounds —
/// folded to an FNV hash over every sample, the fault log, and one final
/// RNG draw, so two paths agreeing on the hash agree on the full
/// architectural footprint and stream position.
fn probe_trial_hash(machine: &mut Machine, slots: usize) -> u64 {
    let mut h = FNV1A_BASIS;
    machine.wrgs(Selector::from_bits(0x3)).expect("GS loads");
    for slot in 0..slots {
        machine.spin(1_500 + (slot as u64 % 5) * 200);
        h = fnv1a_fold(h, u64::from(machine.rdgs().bits()));
    }
    let log = machine.fault_log();
    for v in [
        log.dropped,
        log.duplicated,
        log.coalesced,
        log.jittered,
        log.bursts,
        log.clamped_steps,
    ] {
        h = fnv1a_fold(h, v);
    }
    fnv1a_fold(h, machine.rng_mut().gen::<u64>())
}

/// The machine preset the trials arm runs on: a Table I machine with a
/// light delivery-fault plan, so the per-trial hash also covers the
/// fault-injection path.
#[must_use]
pub fn trials_machine() -> MachineConfig {
    MachineConfig::lenovo_yangtian().with_fault_plan(
        FaultPlan::none()
            .with_drop_prob(0.05)
            .with_duplicate_prob(0.02),
    )
}

/// Measures `trials` short probe trials both ways, keeping the
/// best-of-`repeats` timing per path (the standard minimum-noise
/// throughput estimator on shared hosts): fresh (a [`Machine::new`] per
/// trial) and recycled (this thread's machine through
/// [`scenario::with_recycled_machine`], the shipped trial-driver
/// mechanism). Per-trial hashes must match pairwise on every repeat.
#[must_use]
pub fn measure_trials(trials: usize, slots: usize, repeats: usize, seed: u64) -> TrialsArm {
    let cfg = trials_machine();
    let trial_seed = |t: usize| seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64));

    // Warm both paths (page-in, machine construction) outside the timing.
    let _ = probe_trial_hash(&mut Machine::new(cfg.clone(), trial_seed(0)), slots);
    let _ =
        scenario::with_recycled_machine(cfg.clone(), trial_seed(0), |m| probe_trial_hash(m, slots));

    let mut fresh_s = f64::INFINITY;
    let mut recycled_s = f64::INFINITY;
    let mut identical = true;
    for _ in 0..repeats.max(1) {
        let (f, fresh_hashes) = time_s(|| {
            (0..trials)
                .map(|t| probe_trial_hash(&mut Machine::new(cfg.clone(), trial_seed(t)), slots))
                .collect::<Vec<u64>>()
        });
        let (r, recycled_hashes) = time_s(|| {
            (0..trials)
                .map(|t| {
                    scenario::with_recycled_machine(cfg.clone(), trial_seed(t), |m| {
                        probe_trial_hash(m, slots)
                    })
                })
                .collect::<Vec<u64>>()
        });
        fresh_s = fresh_s.min(f);
        recycled_s = recycled_s.min(r);
        identical &= fresh_hashes == recycled_hashes;
    }

    TrialsArm {
        machine: cfg.name.clone(),
        trials,
        slots_per_trial: slots,
        fresh_s,
        recycled_s,
        fresh_trials_per_s: trials as f64 / fresh_s.max(1e-9),
        recycled_trials_per_s: trials as f64 / recycled_s.max(1e-9),
        speedup: fresh_s / recycled_s.max(1e-9),
        identical,
    }
}

/// Measures end-to-end scenario throughput: serial KASLR trials through
/// the unified engine (each trial runs the full probe loop).
#[must_use]
pub fn measure_scenario(trials: usize) -> ScenarioBench {
    let machine = MachineConfig::lenovo_yangtian();
    let config = KaslrConfig {
        c: 2,
        k: 32,
        ..KaslrConfig::paper_default()
    };
    let seed = 0xB3CC_0005;
    let _ = run_trials(&machine, &config, seed, 1.min(trials), Some(1));
    let (wall_s, _) = time_s(|| run_trials(&machine, &config, seed, trials, Some(1)));
    ScenarioBench {
        scenario: "kaslr".to_string(),
        trials,
        wall_s,
        trials_per_s: trials as f64 / wall_s.max(1e-9),
    }
}

/// Serializes a report to JSON and writes it to `path`.
///
/// # Errors
///
/// Returns any filesystem error from the write.
pub fn write_report(report: &HotpathBenchReport, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_arm_is_identical() {
        let arm = measure_fabric(&MachineConfig::lenovo_yangtian(), 5_000, 0xB3CC_0010);
        assert!(arm.identical, "cached and naive fabrics diverged");
        assert_eq!(arm.sources, 3);
        assert_eq!(arm.events, 5_000);
    }

    #[test]
    fn recycled_trials_match_fresh_trials() {
        let arm = measure_trials(6, 120, 1, 0xBA7C_0003);
        assert!(arm.identical, "recycled and fresh trial hashes diverged");
        assert_eq!(arm.trials, 6);
    }

    #[test]
    fn validate_enforces_every_gate() {
        let good = HotpathBenchReport {
            fabric: FabricArm {
                machine: "m".into(),
                sources: 3,
                events: 10,
                peeks_per_pop: PEEKS_PER_POP,
                naive_s: 1.0,
                cached_s: 0.5,
                naive_events_per_s: 10.0,
                cached_events_per_s: 20.0,
                speedup: 2.0,
                identical: true,
            },
            probe: ProbeBench {
                samples: 10,
                batches: 2,
                alloc_bytes_fresh: 100,
                alloc_bytes_reused: 10,
                allocs_fresh: 20,
                allocs_reused: 2,
                alloc_reduction: 0.9,
                fresh_samples_per_s: 1.0,
                reused_samples_per_s: 1.0,
                identical: true,
            },
            trials: TrialsArm {
                machine: "m".into(),
                trials: 8,
                slots_per_trial: 100,
                fresh_s: 1.0,
                recycled_s: 0.2,
                fresh_trials_per_s: 8.0,
                recycled_trials_per_s: 40.0,
                speedup: 5.0,
                identical: true,
            },
            scenario: ScenarioBench {
                scenario: "kaslr".into(),
                trials: 1,
                wall_s: 1.0,
                trials_per_s: 1.0,
            },
            full_scale: false,
            note: String::new(),
        };
        assert!(good.validate().is_ok());

        let mut divergent = good.clone();
        divergent.fabric.identical = false;
        assert!(divergent.validate().is_err());

        // A fabric arm below parity fails; at parity it passes.
        let mut fabric_lost = good.clone();
        fabric_lost.fabric.speedup = 0.97;
        assert!(fabric_lost.validate().is_err());
        let mut fabric_par = good.clone();
        fabric_par.fabric.speedup = 1.0;
        assert!(fabric_par.validate().is_ok());

        let mut alloc_regress = good.clone();
        alloc_regress.probe.allocs_reused = 20;
        assert!(alloc_regress.validate().is_err());

        // Trial gates: divergence, the quick 2x bar, the full-scale 5x bar.
        let mut trial_div = good.clone();
        trial_div.trials.identical = false;
        assert!(trial_div.validate().is_err());
        let mut trial_slow = good.clone();
        trial_slow.trials.speedup = 1.4;
        assert!(trial_slow.validate().is_err());
        let mut full_slow = good.clone();
        full_slow.full_scale = true;
        full_slow.trials.speedup = 3.0;
        assert!(full_slow.validate().is_err());
        let mut full_ok = good;
        full_ok.full_scale = true;
        full_ok.trials.speedup = 5.5;
        assert!(full_ok.validate().is_ok());
    }
}
