//! Workspace-level recycled-vs-fresh parity: recycling a machine across
//! trials must be architecturally invisible at every layer it touches.
//!
//! Two differential oracles:
//!
//! 1. A random sequence of trials with *random per-trial configurations*
//!    (vendor preset × fault plan × seed), run through one thread's
//!    [`with_recycled_machine`] holder at sequence lengths 1, 4, 17, and
//!    64, produces the same probe samples, the same [`FaultLog`]s, the
//!    same ground-truth records, and the same final RNG positions as a
//!    fresh [`Machine`] per trial.
//! 2. A scenario's recycled-lane `run_batch` override (the KASLR break)
//!    matches the per-trial `build_machine` + `run_trial` path at the
//!    same chunk sizes, output for output and delivery for delivery.
//!
//! [`FaultLog`]: segscope_repro::segsim::FaultLog

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use segscope_repro::attacks::kaslr::{KaslrConfig, KaslrScenario, KaslrScenarioConfig};
use segscope_repro::irq::time::Ps;
use segscope_repro::irq::IrqRecord;
use segscope_repro::replay::first_divergence;
use segscope_repro::scenario::{with_recycled_machine, Scenario, TrialCtx};
use segscope_repro::segsim::{FaultLog, FaultPlan, Machine, MachineConfig};
use segscope_repro::x86seg::Selector;

/// The sequence/chunk sizes recycling must be transparent at: a
/// degenerate single trial, a small chunk, a prime that never divides the
/// workload evenly, and a long run of config transitions.
const REQUIRED_SIZES: [usize; 4] = [1, 4, 17, 64];

/// Draws one trial's `(config, seed)` pair: vendor preset × fault plan
/// × seed, all from a dedicated generator rng so the draws never touch
/// the machine streams under test.
fn draw_lane(rng: &mut SmallRng) -> (MachineConfig, u64) {
    let presets = MachineConfig::table1();
    let mut config = presets[rng.gen_range(0..presets.len())].clone();
    config = match rng.gen_range(0u8..4) {
        0 => config, // no plan
        1 => config.with_fault_plan(FaultPlan::timing_storm()),
        2 => config.with_fault_plan(FaultPlan::delivery_storm()),
        _ => config.with_fault_plan(
            FaultPlan::none()
                .with_drop_prob(0.08)
                .with_duplicate_prob(0.04),
        ),
    };
    (config, rng.gen::<u64>())
}

/// Runs the shared probe workload on one machine: GS marker loads, spins,
/// and samples, with a 5 ms user-mode stretch every fifth round — long
/// enough that every trial takes timer deliveries at any preset's HZ.
fn drive_scalar(machine: &mut Machine, rounds: usize) -> Vec<u16> {
    let mut samples = Vec::new();
    for round in 0..rounds {
        let sel = Selector::from_bits(1 + (round % 3) as u16);
        machine.wrgs(sel).expect("flat selectors load");
        machine.spin(3_000 + (round as u64 % 7) * 500);
        samples.push(machine.rdgs().bits());
        if round % 5 == 4 {
            let deadline = machine.now() + Ps::from_ms(5);
            while machine.now() < deadline {
                let _ = machine.run_user_until(deadline);
            }
        }
    }
    samples
}

/// Everything one trial leaves behind: samples, fault audit, ground-truth
/// deliveries, and one draw past the final RNG position.
type TrialFootprint = (Vec<u16>, FaultLog, Vec<IrqRecord>, u64);

fn run_trial(machine: &mut Machine, rounds: usize) -> TrialFootprint {
    let samples = drive_scalar(machine, rounds);
    (
        samples,
        *machine.fault_log(),
        machine.ground_truth().records().to_vec(),
        machine.rng_mut().gen::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random config transitions through the thread-local recycled
    /// machine match fresh machines sample for sample, fault for fault,
    /// delivery for delivery, and draw for draw.
    #[test]
    fn recycled_machine_matches_fresh_machines_at_required_sizes(
        seed in 0u64..1_000_000,
        rounds in 10usize..25,
    ) {
        for &size in &REQUIRED_SIZES {
            let mut gen_rng = SmallRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
            for trial in 0..size {
                let (config, trial_seed) = draw_lane(&mut gen_rng);
                let recycled =
                    with_recycled_machine(config.clone(), trial_seed, |m| run_trial(m, rounds));
                let fresh = run_trial(&mut Machine::new(config, trial_seed), rounds);
                // Stream comparisons report the first diverging index
                // and both sides, not whole-vector inequality.
                if let Some(at) = first_divergence(&fresh.0, &recycled.0) {
                    prop_assert!(
                        false,
                        "size {} trial {}: samples first diverge at round {}: \
                         fresh {:?} vs recycled {:?}",
                        size, trial, at, fresh.0.get(at), recycled.0.get(at)
                    );
                }
                prop_assert_eq!(fresh.1, recycled.1, "size {} trial {} fault log", size, trial);
                if let Some(at) = first_divergence(&fresh.2, &recycled.2) {
                    prop_assert!(
                        false,
                        "size {} trial {}: deliveries first diverge at record {}: \
                         fresh {:?} vs recycled {:?}",
                        size, trial, at, fresh.2.get(at), recycled.2.get(at)
                    );
                }
                prop_assert_eq!(fresh.3, recycled.3, "size {} trial {} RNG position", size, trial);
            }
        }
    }
}

/// The KASLR scenario's recycled-lane `run_batch` override returns the
/// same outputs and ground-truth delivery counts as the per-trial
/// fresh-machine path, at every required chunk size.
#[test]
fn scenario_run_batch_matches_per_trial_path_at_required_sizes() {
    let scenario = KaslrScenario;
    let config = KaslrScenarioConfig {
        machine: MachineConfig::lenovo_yangtian(),
        attack: KaslrConfig {
            slots: 8,
            c: 1,
            k: 8,
            calibration: 16,
            ..KaslrConfig::paper_default()
        },
    };
    for &size in &REQUIRED_SIZES {
        let ctxs: Vec<TrialCtx> = (0..size)
            .map(|index| TrialCtx {
                index,
                seed: segscope_repro::exec::derive_seed(0xBA7C_9A51, index as u64),
                experiment_seed: 0xBA7C_9A51,
            })
            .collect();
        let batched = scenario.run_batch(&config, &ctxs, None);
        let reference: Vec<_> = ctxs
            .iter()
            .map(|ctx| {
                let mut machine = scenario.build_machine(&config, ctx);
                let output = scenario.run_trial(&config, &mut machine, ctx);
                (output, segscope_repro::scenario::TrialStats::of(&machine))
            })
            .collect();
        if let Some(at) = first_divergence(&batched, &reference) {
            panic!(
                "chunk size {size}: first divergence at trial {at}\n  \
                 batched:   {:?}\n  per-trial: {:?}",
                batched.get(at),
                reference.get(at),
            );
        }
    }
}
