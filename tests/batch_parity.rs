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
//! 2. Every registered scenario's `run_batch` — the driver's recycled
//!    chunk body — matches the fresh-machine `build_machine` +
//!    `run_trial` path at chunk sizes 1, 4, and 17, output for output
//!    and delivery for delivery. All eleven run back to back on one
//!    thread, so the lane crosses every scenario's machine config.
//!
//! [`FaultLog`]: segscope_repro::segsim::FaultLog
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use segscope_repro::attacks::{
    aexcount, circl, covert, dnnsteal, heckler, kaslr, keystroke, procfp, spectral, spectre,
    website,
};
use segscope_repro::irq::time::Ps;
use segscope_repro::irq::IrqRecord;
use segscope_repro::replay::first_divergence;
use segscope_repro::scenario::{with_recycled_machine, Scenario, TrialCtx, TrialStats};
use segscope_repro::segsim::{FaultLog, FaultPlan, Machine, MachineConfig};
use segscope_repro::x86seg::Selector;
use std::fmt::Debug;

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

/// Chunk sizes the scenario chunk body must be transparent at.
const CHUNK_SIZES: [usize; 3] = [1, 4, 17];

/// Runs `scenario`'s `run_batch` over consecutive chunks of
/// [`CHUNK_SIZES`] trials on this thread and checks every
/// `(output, stats)` pair against a fresh `build_machine` + `run_trial`.
/// Trial indices wrap at the scenario's trial count, so structured
/// scenarios only see indices their config defines. Returns the name.
fn assert_batch_matches_fresh<S>(
    scenario: &S,
    config: &S::Config,
    fault_override: Option<FaultPlan>,
) -> &'static str
where
    S: Scenario,
    S::TrialOutput: PartialEq + Debug,
{
    let name = scenario.name();
    let trials = scenario.trial_count(config, Some(CHUNK_SIZES.iter().sum()));
    let mut next = 0;
    for &size in &CHUNK_SIZES {
        let ctxs: Vec<TrialCtx> = (next..next + size)
            .map(|k| TrialCtx {
                index: k % trials,
                seed: segscope_repro::exec::derive_seed(0xBA7C_9A51, k as u64),
                experiment_seed: 0xBA7C_9A51,
            })
            .collect();
        next += size;
        let batched = scenario.run_batch(config, &ctxs, fault_override);
        let fresh: Vec<_> = ctxs
            .iter()
            .map(|ctx| {
                let mut machine = scenario.build_machine(config, ctx);
                if let Some(plan) = fault_override {
                    machine.set_fault_plan(Some(plan));
                }
                let output = scenario.run_trial(config, &mut machine, ctx);
                (output, TrialStats::of(&machine))
            })
            .collect();
        if let Some(at) = first_divergence(&batched, &fresh) {
            panic!(
                "{name}, chunk size {size}: first divergence at trial {at}\n  \
                 batched: {:?}\n  fresh:   {:?}",
                batched.get(at),
                fresh.get(at),
            );
        }
    }
    name
}

/// Every registered scenario's recycled chunk body returns the same
/// outputs and trial stats as the fresh-machine path, at every required
/// chunk size, with the lane carried from one scenario to the next.
#[test]
fn scenario_run_batch_matches_per_trial_path_at_required_sizes() {
    let xiaomi = MachineConfig::xiaomi_air13();
    let mut ran = vec![
        assert_batch_matches_fresh(
            &kaslr::KaslrScenario,
            &kaslr::KaslrScenarioConfig {
                machine: MachineConfig::lenovo_yangtian(),
                attack: kaslr::KaslrConfig {
                    slots: 8,
                    c: 1,
                    k: 8,
                    calibration: 16,
                    ..kaslr::KaslrConfig::paper_default()
                },
            },
            None,
        ),
        assert_batch_matches_fresh(
            &covert::CovertScenario,
            &covert::CovertScenarioConfig {
                channel: covert::CovertConfig {
                    preamble_bits: 2,
                    ..covert::CovertConfig::fast()
                },
                payload: "101".to_owned(),
            },
            Some(FaultPlan::delivery_storm()),
        ),
        assert_batch_matches_fresh(
            &spectre::SpectreScenario,
            &spectre::SpectreScenarioConfig {
                attack: spectre::SpectreConfig {
                    gadgets: 4,
                    calibration: 8,
                    candidates: 96,
                    ..spectre::SpectreConfig::quick()
                },
                secret: "S".to_owned(),
            },
            None,
        ),
        assert_batch_matches_fresh(
            &circl::CirclScenario,
            &circl::CirclConfig {
                key_bits: 4,
                samples_per_challenge: 2,
                calibration: 2,
                ..circl::CirclConfig::quick()
            },
            None,
        ),
        assert_batch_matches_fresh(
            &spectral::SpectralScenario,
            &spectral::SpectralScenarioConfig {
                bits: 24,
                ..spectral::SpectralScenarioConfig::default()
            },
            None,
        ),
        assert_batch_matches_fresh(
            &aexcount::AexCountScenario,
            &aexcount::AexCountConfig {
                machine: xiaomi.clone(),
                ..aexcount::AexCountConfig::quick()
            },
            Some(FaultPlan::timing_storm()),
        ),
        assert_batch_matches_fresh(
            &heckler::HecklerScenario,
            &heckler::HecklerConfig {
                windows: 3,
                ..heckler::HecklerConfig::quick()
            },
            None,
        ),
        assert_batch_matches_fresh(
            &keystroke::KeystrokeScenario,
            &keystroke::KeystrokeConfig {
                users: 2,
                enroll_sessions: 1,
                test_sessions: 1,
                keys_per_session: 6,
                ..keystroke::KeystrokeConfig::quick()
            },
            None,
        ),
        assert_batch_matches_fresh(
            &procfp::ProcFpScenario,
            &procfp::ProcFpConfig {
                enroll: 1,
                test: 1,
                window: Ps::from_ms(40),
                probes: 40,
                ..procfp::ProcFpConfig::quick()
            },
            None,
        ),
        assert_batch_matches_fresh(
            &website::WebsiteScenario,
            &website::WebsiteFpConfig {
                n_sites: 2,
                traces_per_site: 2,
                trace_len: 48,
                ..website::WebsiteFpConfig::quick(
                    website::Browser::Chrome,
                    website::Setting::Default,
                )
            },
            None,
        ),
        assert_batch_matches_fresh(
            &dnnsteal::DnnStealScenario,
            &dnnsteal::DnnStealConfig {
                train_models: 2,
                test_models: 1,
                ..dnnsteal::DnnStealConfig::quick()
            },
            None,
        ),
    ];
    let mut registered: Vec<&str> = segscope_repro::attacks::registry()
        .entries()
        .iter()
        .map(|s| s.name())
        .collect();
    ran.sort_unstable();
    registered.sort_unstable();
    assert_eq!(ran, registered, "every registered scenario is covered");
}
