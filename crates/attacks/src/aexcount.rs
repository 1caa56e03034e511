//! Enclave attack: probabilistic AEX counting (AEX-NStep style).
//!
//! A privileged attacker single-steps an SGX-style enclave by firing
//! rapid one-shot interrupts (APIC/PMU stepping à la SGX-Step); every
//! shot that lands while the enclave runs forces an Asynchronous
//! Enclave Exit (AEX), and the malicious OS counts kernel exits. The
//! exit count is proportional to enclave execution time, so the
//! attacker recovers a secret-dependent *work count* from it: the
//! victim performs `n` identical work units, the attacker calibrates
//! exits-per-unit on a known-length prefix and estimates `n̂` from the
//! secret phase's count.
//!
//! The scenario exercises the [`segsim`] kernel-exit model end to end:
//! deliveries during [`Machine::enter_enclave`] windows are classified
//! [`segsim::ExitClass::EnclaveAex`], QuanShield destroys the enclave
//! on the first AEX (the calibration phase already trips it, so the
//! attack collapses), and deterministic padding inflates the exit
//! stream with [`segsim::ExitClass::DefensePad`] exits the attacker
//! cannot subtract.

use irq::time::Ps;
use irq::InterruptKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scenario::{Scenario, TrialCtx};
use segsim::{Machine, MachineConfig};
use serde::{Deserialize, Serialize};

/// Parameters of the AEX-counting experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AexCountConfig {
    /// The victim machine (defenses and fault plans travel inside).
    pub machine: MachineConfig,
    /// Independent trials (one secret per trial).
    pub trials: usize,
    /// Smallest secret work count (inclusive).
    pub secret_min: u64,
    /// Largest secret work count (inclusive).
    pub secret_max: u64,
    /// Cycles one work unit burns inside the enclave.
    pub unit_cycles: u64,
    /// Known-length calibration prefix, in work units.
    pub calibration_units: u64,
    /// Attacker single-step period: one one-shot interrupt is armed
    /// every `step_interval` across the enclave run.
    pub step_interval: Ps,
    /// RNG seed (per-trial secrets derive from it).
    pub seed: u64,
}

impl Default for AexCountConfig {
    /// The test-scale [`AexCountConfig::quick`] experiment.
    fn default() -> Self {
        AexCountConfig::quick()
    }
}

impl AexCountConfig {
    /// Test-scale configuration: small secrets, dense stepping.
    #[must_use]
    pub fn quick() -> Self {
        AexCountConfig {
            machine: MachineConfig::xiaomi_air13(),
            trials: 24,
            secret_min: 2,
            secret_max: 10,
            unit_cycles: 400_000,
            calibration_units: 6,
            step_interval: Ps::from_us(20),
            seed: 0xAE_C0,
        }
    }
}

/// One AEX-counting trial: the secret, the attacker's estimate, and the
/// raw exit counts behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AexCountTrial {
    /// The victim's secret work count.
    pub secret: u64,
    /// The attacker's estimate `n̂`.
    pub estimate: u64,
    /// Kernel exits observed during the calibration prefix.
    pub calibration_exits: u64,
    /// Kernel exits observed during the secret phase.
    pub secret_exits: u64,
    /// Whether a countermeasure destroyed the enclave mid-run.
    pub destroyed: bool,
}

impl AexCountTrial {
    /// Whether the attacker recovered the secret exactly.
    #[must_use]
    pub fn exact(&self) -> bool {
        self.estimate == self.secret
    }
}

/// Summary of an AEX-counting run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AexCountSummary {
    /// Fraction of trials recovering the secret exactly.
    pub accuracy: f64,
    /// Mean `|n̂ − n|` over all trials.
    pub mean_abs_error: f64,
    /// Mean calibrated exits-per-unit (diagnostic; inflated by pads).
    pub mean_exits_per_unit: f64,
    /// Fraction of trials whose enclave was destroyed by a defense.
    pub destroyed_frac: f64,
    /// Trial count.
    pub trials: usize,
}

/// Runs one AEX-counting trial on a prepared machine.
///
/// The machine must be freshly built (warm-up happens here so traces
/// cover it). The secret is drawn from the trial seed's aux stream.
pub fn count_aex_on(
    machine: &mut Machine,
    config: &AexCountConfig,
    trial_seed: u64,
) -> AexCountTrial {
    let mut rng = SmallRng::seed_from_u64(exec::derive_seed(trial_seed, exec::AUX_STREAM));
    let secret = rng.gen_range(config.secret_min..=config.secret_max);

    machine.spin(20_000_000); // warm-up: settle governor and caches

    // Arm the single-step train: generously cover calibration + secret
    // at nominal speed with 3x slack for defense-induced slowdown.
    let total_units = config.calibration_units + config.secret_max;
    let nominal = Ps::from_cycles_at(total_units * config.unit_cycles, machine.config().tsc_khz());
    let horizon = nominal * 3 + Ps::from_ms(2);
    let step = config.step_interval.max(Ps::from_us(1));
    let start = machine.now();
    let shots = (horizon.as_ps() / step.as_ps()).max(1);
    machine.inject_interrupts((1..=shots).map(|i| (start + step * i, InterruptKind::PerfMon)));

    let entered = machine.enter_enclave();

    // Calibration prefix: known unit count, attacker counts exits.
    let before_cal = machine.kernel_entries();
    for _ in 0..config.calibration_units {
        if machine.enclave_destroyed() {
            break;
        }
        machine.spin(config.unit_cycles);
    }
    let calibration_exits = machine.kernel_entries() - before_cal;

    // Secret phase — aborted outright if the enclave self-destructed
    // (the victim's computation is gone; nothing left to count).
    let before_secret = machine.kernel_entries();
    if entered && !machine.enclave_destroyed() {
        for _ in 0..secret {
            if machine.enclave_destroyed() {
                break;
            }
            machine.spin(config.unit_cycles);
        }
    }
    let secret_exits = machine.kernel_entries() - before_secret;
    let destroyed = machine.enclave_destroyed();
    machine.exit_enclave();

    // Estimate: exits scale linearly with work, so n̂ is the secret
    // count over the calibrated per-unit rate.
    let per_unit = calibration_exits as f64 / config.calibration_units.max(1) as f64;
    let estimate = if destroyed || per_unit <= 0.0 {
        0
    } else {
        (secret_exits as f64 / per_unit).round() as u64
    };

    AexCountTrial {
        secret,
        estimate,
        calibration_exits,
        secret_exits,
        destroyed,
    }
}

/// Reduces trial outputs to the run summary.
#[must_use]
pub fn summarize_aex(config: &AexCountConfig, outputs: &[AexCountTrial]) -> AexCountSummary {
    let n = outputs.len().max(1) as f64;
    let exact = outputs.iter().filter(|t| t.exact()).count() as f64;
    AexCountSummary {
        accuracy: exact / n,
        mean_abs_error: crate::mean_of(
            outputs
                .iter()
                .map(|t| (t.estimate as f64 - t.secret as f64).abs()),
        ),
        mean_exits_per_unit: crate::mean_of(
            outputs
                .iter()
                .map(|t| t.calibration_exits as f64 / config.calibration_units.max(1) as f64),
        ),
        destroyed_frac: outputs.iter().filter(|t| t.destroyed).count() as f64 / n,
        trials: outputs.len(),
    }
}

/// The registered AEX-counting scenario.
pub struct AexCountScenario;

impl Scenario for AexCountScenario {
    type Config = AexCountConfig;
    type TrialOutput = AexCountTrial;
    type Summary = AexCountSummary;

    fn name(&self) -> &'static str {
        "aexcount"
    }

    fn describe(&self) -> &'static str {
        "AEX counting: single-step an enclave with injected one-shots and recover a secret work count from kernel-exit totals (AEX-NStep style)"
    }

    fn experiment_seed(&self, config: &Self::Config, requested: Option<u64>) -> u64 {
        requested.unwrap_or(config.seed)
    }

    fn trial_count(&self, config: &Self::Config, requested: Option<usize>) -> usize {
        requested.unwrap_or(config.trials)
    }

    fn machine(&self, config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (config.machine.clone(), ctx.seed)
    }

    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> AexCountTrial {
        count_aex_on(machine, config, ctx.seed)
    }

    fn summarize(&self, config: &Self::Config, outputs: &[Self::TrialOutput]) -> AexCountSummary {
        summarize_aex(config, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::RunOptions;
    use segsim::Defense;

    fn run(config: AexCountConfig, trials: usize) -> (Vec<AexCountTrial>, AexCountSummary) {
        let opts = RunOptions {
            trials: Some(trials),
            ..RunOptions::default()
        };
        let run = scenario::run_scenario(&AexCountScenario, &config, &opts);
        (run.outputs, run.summary)
    }

    #[test]
    fn undefended_enclave_leaks_the_work_count() {
        let (outputs, summary) = run(AexCountConfig::quick(), 12);
        assert_eq!(outputs.len(), 12);
        assert!(
            summary.accuracy >= 0.75,
            "stepping should recover most secrets exactly, got {}",
            summary.accuracy
        );
        assert!(summary.destroyed_frac == 0.0);
        assert!(summary.mean_exits_per_unit > 1.0);
    }

    #[test]
    fn quanshield_collapses_the_attack() {
        let mut config = AexCountConfig::quick();
        config.machine = config.machine.with_defense(Defense::QuanShield);
        let (outputs, summary) = run(config, 8);
        assert_eq!(
            summary.destroyed_frac, 1.0,
            "calibration trips self-destruct"
        );
        assert_eq!(summary.accuracy, 0.0);
        assert!(outputs.iter().all(|t| t.estimate == 0));
    }

    #[test]
    fn padding_inflates_the_exit_stream() {
        let mut config = AexCountConfig::quick();
        config.machine = config.machine.with_defense(Defense::default_padding());
        let (_, padded) = run(config, 8);
        let (_, plain) = run(AexCountConfig::quick(), 8);
        assert!(
            padded.mean_exits_per_unit > plain.mean_exits_per_unit,
            "pads are indistinguishable extra exits: {} vs {}",
            padded.mean_exits_per_unit,
            plain.mean_exits_per_unit
        );
    }

    #[test]
    fn trials_are_deterministic() {
        let (a, _) = run(AexCountConfig::quick(), 6);
        let (b, _) = run(AexCountConfig::quick(), 6);
        assert_eq!(a, b);
    }
}
