//! Enclave attack: malicious interrupt injection into a confidential VM
//! (Heckler style).
//!
//! A malicious hypervisor *injects* interrupts into a CVM victim to
//! perturb it at chosen moments — the fault-injection machinery turned
//! offensive. The victim performs periodic sensitive windows inside an
//! enclave on a nominal schedule; the attacker predicts each window's
//! center from the schedule and fires a one-shot there (via
//! [`Machine::inject_exits`]). A shot that lands while the enclave is
//! active forces an AEX exactly inside the sensitive region — a *hit*.
//!
//! Defenses interact through timing, not filtering: QuanShield destroys
//! the enclave at the first AEX (one hit, then nothing left to hit),
//! and deterministic padding's pad exits steal victim time, drifting
//! the real windows off the nominal schedule until the attacker's
//! predicted centers miss.

use irq::time::Ps;
use irq::InterruptKind;
use scenario::{Scenario, TrialCtx};
use segsim::{ExitClass, Machine, MachineConfig};
use serde::{Deserialize, Serialize};

/// Parameters of the injection experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HecklerConfig {
    /// The victim machine (defenses and fault plans travel inside).
    pub machine: MachineConfig,
    /// Independent trials.
    pub trials: usize,
    /// Sensitive windows per trial.
    pub windows: usize,
    /// Cycles of enclave work per sensitive window.
    pub window_cycles: u64,
    /// Cycles of unprotected work between windows.
    pub idle_cycles: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HecklerConfig {
    /// The test-scale [`HecklerConfig::quick`] experiment.
    fn default() -> Self {
        HecklerConfig::quick()
    }
}

impl HecklerConfig {
    /// Test-scale configuration: ~100 µs windows spaced ~10 ms apart on
    /// the Table I Xiaomi machine.
    #[must_use]
    pub fn quick() -> Self {
        HecklerConfig {
            machine: MachineConfig::xiaomi_air13(),
            trials: 12,
            windows: 16,
            window_cycles: 340_000,
            idle_cycles: 34_000_000,
            seed: 0x4EC7,
        }
    }
}

/// One injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HecklerTrial {
    /// Windows whose enclave run suffered at least one AEX.
    pub hits: usize,
    /// Windows attempted.
    pub windows: usize,
    /// Windows the enclave refused to enter (destroyed by a defense).
    pub refused: usize,
    /// Whether a countermeasure destroyed the enclave mid-run.
    pub destroyed: bool,
}

/// Summary of an injection run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HecklerSummary {
    /// Mean per-window hit rate across trials.
    pub accuracy: f64,
    /// Fraction of trials whose enclave was destroyed by a defense.
    pub destroyed_frac: f64,
    /// Mean windows refused (enclave already destroyed) per trial.
    pub mean_refused: f64,
    /// Trial count.
    pub trials: usize,
}

/// Runs one injection trial on a prepared machine.
///
/// Per window, the attacker predicts the window center from the
/// *nominal* schedule (idle span plus half the window span at the
/// current P-state — a hypervisor sees wall-clock time and the core's
/// frequency, but not the defense's time theft) and arms one one-shot
/// there. Hits are scored from the machine's AEX counter, which only
/// advances for exits taken while the enclave is active.
pub fn inject_on(machine: &mut Machine, config: &HecklerConfig) -> HecklerTrial {
    machine.spin(20_000_000); // warm-up: settle governor and caches

    let mut hits = 0;
    let mut refused = 0;
    for _ in 0..config.windows {
        // Predict and arm before the victim runs: nominal idle plus half
        // the window at the current frequency, measured from the current
        // instant.
        let khz = machine.current_freq_khz();
        let idle_span = Ps::from_cycles_at(config.idle_cycles, khz);
        let window_span = Ps::from_cycles_at(config.window_cycles, khz);
        let predicted_center = machine.now() + idle_span + window_span / 2;
        machine.inject_exits([(predicted_center, InterruptKind::Other, ExitClass::Irq)]);

        machine.spin(config.idle_cycles);
        let aex_before = machine.aex_exits();
        if machine.enter_enclave() {
            machine.spin(config.window_cycles);
            machine.exit_enclave();
            if machine.aex_exits() > aex_before {
                hits += 1;
            }
        } else {
            refused += 1;
            machine.spin(config.window_cycles);
        }
    }

    HecklerTrial {
        hits,
        windows: config.windows,
        refused,
        destroyed: machine.enclave_destroyed(),
    }
}

/// Reduces trial outputs to the run summary.
#[must_use]
pub fn summarize_heckler(outputs: &[HecklerTrial]) -> HecklerSummary {
    let n = outputs.len().max(1) as f64;
    HecklerSummary {
        accuracy: crate::mean_of(
            outputs
                .iter()
                .map(|t| t.hits as f64 / t.windows.max(1) as f64),
        ),
        destroyed_frac: outputs.iter().filter(|t| t.destroyed).count() as f64 / n,
        mean_refused: crate::mean_of(outputs.iter().map(|t| t.refused as f64)),
        trials: outputs.len(),
    }
}

/// The registered interrupt-injection scenario.
pub struct HecklerScenario;

impl Scenario for HecklerScenario {
    type Config = HecklerConfig;
    type TrialOutput = HecklerTrial;
    type Summary = HecklerSummary;

    fn name(&self) -> &'static str {
        "heckler"
    }

    fn describe(&self) -> &'static str {
        "Heckler-style injection: a malicious hypervisor fires one-shot interrupts into a CVM's predicted sensitive windows"
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
        _ctx: &TrialCtx,
    ) -> HecklerTrial {
        inject_on(machine, config)
    }

    fn summarize(&self, _config: &Self::Config, outputs: &[Self::TrialOutput]) -> HecklerSummary {
        summarize_heckler(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::RunOptions;
    use segsim::Defense;

    fn run(config: HecklerConfig, trials: usize) -> (Vec<HecklerTrial>, HecklerSummary) {
        let opts = RunOptions {
            trials: Some(trials),
            ..RunOptions::default()
        };
        let run = scenario::run_scenario(&HecklerScenario, &config, &opts);
        (run.outputs, run.summary)
    }

    #[test]
    fn predicted_shots_land_in_undefended_windows() {
        let (_, summary) = run(HecklerConfig::quick(), 6);
        assert!(
            summary.accuracy >= 0.8,
            "nominal schedule should be hittable, got {}",
            summary.accuracy
        );
        assert_eq!(summary.destroyed_frac, 0.0);
    }

    #[test]
    fn quanshield_leaves_at_most_one_hit() {
        let mut config = HecklerConfig::quick();
        config.machine = config.machine.with_defense(Defense::QuanShield);
        let (outputs, summary) = run(config, 6);
        assert_eq!(summary.destroyed_frac, 1.0);
        assert!(outputs.iter().all(|t| t.hits <= 1));
        assert!(
            summary.mean_refused > 0.0,
            "destroyed enclave refuses re-entry"
        );
    }

    #[test]
    fn padding_drifts_the_windows_off_schedule() {
        let mut config = HecklerConfig::quick();
        config.machine = config.machine.with_defense(Defense::default_padding());
        let (_, padded) = run(config, 6);
        let (_, plain) = run(HecklerConfig::quick(), 6);
        assert!(
            padded.accuracy < plain.accuracy,
            "pad-induced drift should spoil predicted centers: {} vs {}",
            padded.accuracy,
            plain.accuracy
        );
    }

    #[test]
    fn trials_are_deterministic() {
        let (a, _) = run(HecklerConfig::quick(), 4);
        let (b, _) = run(HecklerConfig::quick(), 4);
        assert_eq!(a, b);
    }
}
