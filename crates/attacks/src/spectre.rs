//! Case study 6: leaking memory with Spectre-V1 + Flush+Reload, timed by
//! the SegScope timer (paper Section IV-F, Fig. 12).
//!
//! The SegScope timer's resolution is thousands of cycles, far coarser
//! than one cache hit/miss gap (~200 cycles). The paper amplifies the
//! difference by replicating the gadget: `G` gadget copies each leak the
//! same secret byte into their own probe array, so reloading candidate
//! `v` across all copies costs `G × hit` when `v` is the secret and
//! `G × miss` otherwise (~4000+ cycles apart at `G = 200`).

use scenario::{Scenario, TrialCtx};
use segscope::{Denoise, ProbeError, SegTimer};
use segsim::{FaultPlan, Machine, MachineConfig};
use serde::{Deserialize, Serialize};
use specsim::{GadgetConfig, SpectreV1Gadget};

/// Configuration of the amplified Spectre attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectreConfig {
    /// Number of gadget replicas (the paper uses 200).
    pub gadgets: usize,
    /// Mistraining calls before each out-of-bounds call.
    pub mistrain_calls: usize,
    /// Out-of-bounds attempts per byte before reloading.
    pub oob_attempts: usize,
    /// Timing rounds per candidate byte value.
    pub rounds_per_candidate: usize,
    /// SegScope timer calibration samples.
    pub calibration: usize,
    /// Candidate byte values tried (256 in the paper; tests may restrict
    /// to a smaller alphabet containing the secret).
    pub candidates: usize,
    /// Optional interrupt-path fault plan installed on the attacking
    /// machine (`None` = nominal fault-free run).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for SpectreConfig {
    /// The test-scale [`SpectreConfig::quick`] attack.
    fn default() -> Self {
        SpectreConfig::quick()
    }
}

impl SpectreConfig {
    /// Paper-scale: 200 gadget copies, full 256-candidate scan.
    #[must_use]
    pub fn paper_default() -> Self {
        SpectreConfig {
            gadgets: 200,
            mistrain_calls: 5,
            oob_attempts: 12,
            rounds_per_candidate: 1,
            calibration: 120,
            candidates: 256,
            fault_plan: None,
        }
    }

    /// Test-scale: fewer copies, printable-ASCII candidates only.
    #[must_use]
    pub fn quick() -> Self {
        SpectreConfig {
            gadgets: 60,
            mistrain_calls: 5,
            oob_attempts: 12,
            rounds_per_candidate: 1,
            calibration: 80,
            candidates: 128,
            fault_plan: None,
        }
    }

    /// Installs a fault plan on the attacking machine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// A bank of replicated Spectre gadgets sharing one secret.
#[derive(Debug, Clone)]
pub struct AmplifiedSpectre {
    gadgets: Vec<SpectreV1Gadget>,
}

impl AmplifiedSpectre {
    /// Builds `n` gadget copies protecting `secret`, each with a disjoint
    /// probe array.
    #[must_use]
    pub fn new(n: usize, secret: &[u8]) -> Self {
        let gadgets = (0..n)
            .map(|i| {
                // Stagger the copies by an odd multiple of the line size
                // so same-candidate lines across copies do not all land
                // in the same cache set (a power-of-two stride would make
                // the replicas evict each other).
                let config = GadgetConfig {
                    probe_base: 0x4000_0000 + (i as u64) * (0x4_0000 + 13 * 64),
                    branch_addr: 0x40_1000 + (i as u64) * 0x100,
                    ..GadgetConfig::classic()
                };
                SpectreV1Gadget::new(config, secret)
            })
            .collect();
        AmplifiedSpectre { gadgets }
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gadgets.len()
    }

    /// Whether the bank is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gadgets.is_empty()
    }

    /// Secret length.
    #[must_use]
    pub fn secret_len(&self) -> usize {
        self.gadgets.first().map_or(0, SpectreV1Gadget::secret_len)
    }

    /// Flushes every candidate probe line in every copy.
    pub fn flush_probes(&self, machine: &mut Machine, candidates: usize) {
        for gadget in &self.gadgets {
            for v in 0..candidates {
                machine.clflush(gadget.probe_addr(v as u8));
            }
        }
    }

    /// Mistrains and fires every copy at out-of-bounds offset `offset`
    /// (the victim-side transient leak; runs on the victim's core, so it
    /// costs the attacker no time).
    pub fn leak_round(&mut self, machine: &mut Machine, offset: usize, config: &SpectreConfig) {
        let array1_len = self.gadgets[0].config().array1_len;
        {
            let (mem, rng) = machine.memory_and_rng();
            for gadget in &mut self.gadgets {
                for _ in 0..config.oob_attempts {
                    for i in 0..config.mistrain_calls {
                        let _ = gadget.call(i % array1_len, mem, rng);
                    }
                    let _ = gadget.call(array1_len + offset, mem, rng);
                }
            }
        }
        // The in-bounds mistraining calls architecturally warmed the probe
        // lines of their (attacker-known) training byte values; flush
        // those again so only the transient secret line stays hot.
        for g in 0..self.gadgets.len() {
            for i in 0..config.mistrain_calls.min(array1_len) {
                let addr = self.gadgets[g].probe_addr((i % 256) as u8);
                machine.clflush(addr);
            }
        }
    }

    /// Reloads candidate `v` across all copies (the attacker-timed
    /// operation).
    pub fn reload_candidate(&self, machine: &mut Machine, v: u8) {
        for gadget in &self.gadgets {
            let _ = machine.mem_access(gadget.probe_addr(v));
        }
    }
}

/// Per-candidate reload measurements for one secret byte (the data of
/// paper Fig. 12).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ByteLeak {
    /// The recovered byte (argmin reload time).
    pub guessed: u8,
    /// Ground truth.
    pub actual: u8,
    /// Per-candidate measured ticks (lower = faster = cached). Indexed by
    /// candidate value; `f64::INFINITY` for untried candidates.
    pub ticks: Vec<f64>,
}

impl ByteLeak {
    /// Whether the byte was recovered correctly.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.guessed == self.actual
    }

    /// The Fig. 12 presentation: per-candidate *tail* SegCnt, i.e. the
    /// calibrated interval minus the measured ticks, so the cached secret
    /// shows the **highest** bar as in the paper's figure.
    #[must_use]
    pub fn fig12_series(&self, interval_ticks: f64) -> Vec<f64> {
        self.ticks
            .iter()
            .map(|&t| {
                if t.is_finite() {
                    interval_ticks - t
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// The outcome of leaking a whole secret string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectreResult {
    /// Per-byte outcomes.
    pub bytes: Vec<ByteLeak>,
    /// Fraction of bytes recovered correctly.
    pub success_rate: f64,
    /// Leak throughput, bytes per simulated second.
    pub rate_bps: f64,
}

/// Leaks `secret` on the trial's `machine` (fault plan and any trace
/// sink already installed).
///
/// # Errors
///
/// Propagates SegScope probe/calibration errors.
///
/// # Panics
///
/// Panics if `secret` is empty or a secret byte is outside the candidate
/// alphabet.
fn leak_secret_on(
    machine: &mut Machine,
    secret: &[u8],
    config: &SpectreConfig,
) -> Result<SpectreResult, ProbeError> {
    assert!(!secret.is_empty(), "need a secret to leak");
    assert!(
        secret.iter().all(|&b| (b as usize) < config.candidates),
        "secret bytes must be within the candidate alphabet"
    );
    machine.spin(50_000_000); // warm-up
    let mut timer = SegTimer::calibrate(machine, config.calibration, Denoise::ZScore)?;
    let mut bank = AmplifiedSpectre::new(config.gadgets, secret);
    let start = machine.now();
    let mut bytes = Vec::with_capacity(secret.len());
    for (offset, &actual) in secret.iter().enumerate() {
        bank.flush_probes(machine, config.candidates);
        bank.leak_round(machine, offset, config);
        let mut ticks = vec![f64::INFINITY; config.candidates];
        for (v, slot) in ticks.iter_mut().enumerate() {
            let mut best = f64::INFINITY;
            for _ in 0..config.rounds_per_candidate {
                let run = timer.time(machine, |m| bank.reload_candidate(m, v as u8))?;
                best = best.min(run.ticks);
            }
            *slot = best;
        }
        let guessed = ticks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite ticks"))
            .map(|(v, _)| v as u8)
            .expect("candidates nonempty");
        bytes.push(ByteLeak {
            guessed,
            actual,
            ticks,
        });
    }
    let elapsed = (machine.now() - start).as_secs_f64();
    let correct = bytes.iter().filter(|b| b.correct()).count();
    Ok(SpectreResult {
        success_rate: correct as f64 / secret.len() as f64,
        rate_bps: secret.len() as f64 / elapsed.max(1e-9),
        bytes,
    })
}

/// The registered Spectre scenario: each trial leaks the configured
/// secret end to end on a fresh machine.
pub struct SpectreScenario;

/// Parameters of [`SpectreScenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectreScenarioConfig {
    /// The amplified-gadget attack parameters.
    pub attack: SpectreConfig,
    /// The secret string to leak (bytes must be within the candidate
    /// alphabet).
    pub secret: String,
}

impl Default for SpectreScenarioConfig {
    /// The quick attack leaking `"SEG"`.
    fn default() -> Self {
        SpectreScenarioConfig {
            attack: SpectreConfig::quick(),
            secret: "SEG".to_owned(),
        }
    }
}

/// Summary of a [`SpectreScenario`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectreSummary {
    /// Mean per-byte success rate over successful trials.
    pub mean_success_rate: f64,
    /// Mean leak throughput over successful trials, bytes per simulated
    /// second.
    pub mean_rate_bps: f64,
    /// Trials that failed (probe mitigated).
    pub failed: usize,
}

impl Scenario for SpectreScenario {
    type Config = SpectreScenarioConfig;
    type TrialOutput = Result<SpectreResult, ProbeError>;
    type Summary = SpectreSummary;

    fn name(&self) -> &'static str {
        "spectre"
    }

    fn describe(&self) -> &'static str {
        "Spectre-V1 + Flush+Reload with replicated gadgets, timed by the SegScope timer (paper Section IV-F)"
    }

    fn experiment_seed(&self, _config: &Self::Config, requested: Option<u64>) -> u64 {
        requested.unwrap_or(0x15EC)
    }

    fn trial_count(&self, _config: &Self::Config, requested: Option<usize>) -> usize {
        requested.unwrap_or(1)
    }

    fn machine(&self, _config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (MachineConfig::xiaomi_air13(), ctx.seed)
    }

    fn wire(&self, config: &Self::Config, machine: &mut Machine, _ctx: &TrialCtx) {
        machine.set_fault_plan(config.attack.fault_plan);
    }

    fn check_config(&self, config: &Self::Config) -> Result<(), String> {
        if config.secret.is_empty() {
            return Err("`secret` must not be empty".to_owned());
        }
        let alphabet = config.attack.candidates;
        if config.secret.bytes().any(|b| usize::from(b) >= alphabet) {
            return Err(format!(
                "`attack.candidates` ({alphabet}) must exceed every `secret` byte"
            ));
        }
        Ok(())
    }

    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        _ctx: &TrialCtx,
    ) -> Result<SpectreResult, ProbeError> {
        leak_secret_on(machine, config.secret.as_bytes(), &config.attack)
    }

    fn summarize(&self, _config: &Self::Config, outputs: &[Self::TrialOutput]) -> SpectreSummary {
        let ok: Vec<&SpectreResult> = outputs.iter().filter_map(|r| r.as_ref().ok()).collect();
        SpectreSummary {
            mean_success_rate: crate::mean_of(ok.iter().map(|r| r.success_rate)),
            mean_rate_bps: crate::mean_of(ok.iter().map(|r| r.rate_bps)),
            failed: outputs.len() - ok.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(secret: &str, attack: SpectreConfig, seed: u64) -> SpectreResult {
        let secret = secret.to_owned();
        SpectreScenario
            .run_one(&SpectreScenarioConfig { attack, secret }, seed)
            .unwrap()
    }

    #[test]
    fn quick_leak_recovers_a_short_secret() {
        let result = leak("SEG", SpectreConfig::quick(), 0x15EC);
        assert_eq!(result.bytes.len(), 3);
        assert!(
            result.success_rate >= 2.0 / 3.0,
            "success rate {}",
            result.success_rate
        );
        // The paper's headline byte: 'S' must be recovered.
        assert_eq!(result.bytes[0].guessed, b'S');
    }

    #[test]
    fn secret_candidate_is_fastest_by_a_wide_margin() {
        let result = leak("S", SpectreConfig::quick(), 0x5ED);
        let leak = &result.bytes[0];
        let secret_ticks = leak.ticks[b'S' as usize];
        let mut others: Vec<f64> = leak
            .ticks
            .iter()
            .enumerate()
            .filter(|&(v, t)| v != b'S' as usize && t.is_finite())
            .map(|(_, &t)| t)
            .collect();
        others.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // The secret must beat the median non-secret candidate clearly.
        let median_other = others[others.len() / 2];
        assert!(
            secret_ticks < median_other,
            "secret {secret_ticks} !< median other {median_other}"
        );
    }

    #[test]
    fn fig12_series_peaks_at_secret() {
        let result = leak("Z", SpectreConfig::quick(), 0x5EE);
        let leak = &result.bytes[0];
        let series = leak.fig12_series(1.0e7);
        let max_idx = series
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(max_idx, usize::from(leak.guessed));
    }

    #[test]
    fn bank_geometry() {
        let bank = AmplifiedSpectre::new(10, b"AB");
        assert_eq!(bank.len(), 10);
        assert!(!bank.is_empty());
        assert_eq!(bank.secret_len(), 2);
    }

    #[test]
    #[should_panic(expected = "candidate alphabet")]
    fn secret_outside_alphabet_panics() {
        let mut config = SpectreConfig::quick();
        config.candidates = 64;
        let _ = leak("Z", config, 1);
    }
}
