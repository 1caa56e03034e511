//! The parallel experiment engine must be architecturally invisible in
//! experiment results: a Table VII cell run at 1, 2, 4, and 8 workers
//! returns bit-identical trial results, and its shape check still holds.

use segscope_repro::attacks::kaslr::{
    hit_rates, KaslrConfig, KaslrError, KaslrResult, KaslrScenario, KaslrScenarioConfig,
    ProbeMethod, TimerKind,
};
use segscope_repro::scenario::{run_scenario, RunOptions};
use segscope_repro::segscope::Denoise;
use segscope_repro::segsim::MachineConfig;

/// `trials` KASLR breaks of `attack` on `machine`, seeded from `seed`, on
/// `threads` workers (`None`: the environment's default).
fn run_trials(
    machine: &MachineConfig,
    attack: &KaslrConfig,
    seed: u64,
    trials: usize,
    threads: Option<usize>,
) -> Vec<Result<KaslrResult, KaslrError>> {
    let (machine, attack) = (machine.clone(), *attack);
    let config = KaslrScenarioConfig { machine, attack };
    let opts = RunOptions {
        seed: Some(seed),
        trials: Some(trials),
        threads,
        ..RunOptions::default()
    };
    run_scenario(&KaslrScenario, &config, &opts).outputs
}

/// Table VII, row "SegScope + Z-score denoising", C = 10 (reduced trial
/// count): the row that carries the paper's headline claim.
#[test]
fn table7_zscore_row_is_thread_count_invariant() {
    let config = KaslrConfig {
        method: ProbeMethod::Access,
        timer: TimerKind::SegScope(Denoise::ZScore),
        c: 10,
        k: 64,
        ..KaslrConfig::paper_default()
    };
    let machine = MachineConfig::lenovo_yangtian();
    let trials = 4;
    let seed = 0x7AB7_0001;

    let reference = run_trials(&machine, &config, seed, trials, Some(1));
    for threads in [2usize, 4, 8] {
        let parallel = run_trials(&machine, &config, seed, trials, Some(threads));
        assert_eq!(
            parallel, reference,
            "results diverged at {threads} worker threads"
        );
    }

    // The row's paper shape survives the reduced scale: Z-score denoising
    // at C = 10 recovers the KASLR base.
    let (top1, top5) = hit_rates(&reference, 5);
    assert!(top1 >= 0.75, "Z-score C=10 top-1 too low: {top1}");
    assert!(top5 >= top1, "top-5 must dominate top-1");
}

/// The `SEGSCOPE_THREADS` environment override is honored and equally
/// invisible in the results.
#[test]
fn env_thread_override_is_invisible() {
    let config = KaslrConfig {
        slots: 64,
        c: 1,
        k: 16,
        ..KaslrConfig::paper_default()
    };
    let machine = MachineConfig::xiaomi_air13();
    let explicit = run_trials(&machine, &config, 0x7AB7_0002, 3, Some(3));
    std::env::set_var(segscope_repro::exec::THREADS_ENV, "3");
    let via_env = run_trials(&machine, &config, 0x7AB7_0002, 3, None);
    std::env::remove_var(segscope_repro::exec::THREADS_ENV);
    assert_eq!(via_env, explicit);
}
