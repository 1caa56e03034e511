//! Case study 2: extracting cryptographic keys from CIRCL via the
//! frequency side channel, timed by SegScope instead of any architectural
//! timer (paper Section IV-B, Fig. 8).
//!
//! The victim (Cloudflare's CIRCL, 300 concurrent goroutines) decrypts
//! attacker-crafted challenge ciphertexts. For target key bit `i`, the
//! Hertzbleed-style property is: if `m_i ≠ m_{i-1}`, the crafted challenge
//! drives an *anomalous-zero* limb through the arithmetic, which draws
//! less power, which lets the package sustain a **higher** frequency —
//! observable as a **higher** SegCnt between timer interrupts. If
//! `m_i = m_{i-1}`, no challenge produces the anomaly. Distinguishing the
//! two groups the bits; guessing the first bit then yields the whole key
//! (search space 2).

use irq::time::Ps;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scenario::{Scenario, TrialCtx};
use segscope::{ProbeSample, SegProbe};
use segsim::{FaultPlan, Machine, MachineConfig, StepFn};
use serde::{Deserialize, Serialize};

/// The simulated CIRCL victim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CirclVictim {
    key: Vec<bool>,
    /// Baseline power excess of the 300-goroutine decryption workload.
    base_power: f64,
    /// Power *reduction* when the challenge triggers an anomalous zero.
    anomaly_relief: f64,
}

impl CirclVictim {
    /// A victim with a random `bits`-bit key (the paper uses 378-bit
    /// keys).
    #[must_use]
    pub fn random_key<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        CirclVictim {
            key: (0..bits).map(|_| rng.gen()).collect(),
            base_power: 0.9,
            anomaly_relief: 0.5,
        }
    }

    /// A victim with a fixed key (tests).
    #[must_use]
    pub fn with_key(key: Vec<bool>) -> Self {
        CirclVictim {
            key,
            base_power: 0.9,
            anomaly_relief: 0.5,
        }
    }

    /// Key length in bits.
    #[must_use]
    pub fn key_bits(&self) -> usize {
        self.key.len()
    }

    /// Ground-truth key (test support).
    #[must_use]
    pub fn key(&self) -> &[bool] {
        &self.key
    }

    /// Ground truth of the distinguishing event for bit `i`: whether
    /// `m_i ≠ m_{i-1}` (for `i = 0`, compares against an implicit leading
    /// zero bit, matching the reference attack's convention).
    #[must_use]
    pub fn bit_differs(&self, i: usize) -> bool {
        let prev = if i == 0 { false } else { self.key[i - 1] };
        self.key[i] != prev
    }

    /// Runs the decryption of the challenge ciphertext targeting bit `i`
    /// for `window`, installing the resulting power schedule on
    /// `machine`. Returns whether the anomalous zero fired (ground
    /// truth).
    pub fn run_challenge(&self, machine: &mut Machine, i: usize, window: Ps) -> bool {
        let anomalous = self.bit_differs(i);
        let power = if anomalous {
            self.base_power - self.anomaly_relief
        } else {
            self.base_power
        };
        let t0 = machine.now();
        let mut schedule = StepFn::zero();
        schedule.push(t0, power);
        schedule.push(t0 + window, 0.0);
        machine.set_power_excess(schedule);
        // The goroutine army also loads the package.
        let mut load = StepFn::zero();
        load.push(t0, 0.8);
        load.push(t0 + window, 0.0);
        machine.set_victim_load(load);
        anomalous
    }
}

/// One labeled observation for Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CirclObservation {
    /// Mean SegCnt across the challenge window.
    pub mean_segcnt: f64,
    /// Ground truth: did the challenge trigger the anomalous zero?
    pub anomalous: bool,
}

/// Configuration of the key-extraction attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CirclConfig {
    /// Key size in bits (paper: 378).
    pub key_bits: usize,
    /// Decryption window the power signal persists for.
    pub window: Ps,
    /// SegCnt samples (interrupt intervals) averaged per challenge.
    pub samples_per_challenge: usize,
    /// Calibration challenges per class used to fit the threshold.
    pub calibration: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional interrupt-path fault plan installed on the simulated
    /// machine (`None` = nominal fault-free run).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for CirclConfig {
    /// The test-scale [`CirclConfig::quick`] extraction.
    fn default() -> Self {
        CirclConfig::quick()
    }
}

impl CirclConfig {
    /// Test-scale: 64-bit key.
    #[must_use]
    pub fn quick() -> Self {
        CirclConfig {
            key_bits: 64,
            window: Ps::from_ms(60),
            samples_per_challenge: 10,
            calibration: 12,
            seed: 0xC19C1,
            fault_plan: None,
        }
    }

    /// Bench-scale: the paper's 378-bit keys.
    #[must_use]
    pub fn paper() -> Self {
        CirclConfig {
            key_bits: 378,
            samples_per_challenge: 10,
            window: Ps::from_ms(60),
            calibration: 20,
            seed: 0xC19C1,
            fault_plan: None,
        }
    }

    /// Installs a fault plan on the machine the extraction runs on.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// The outcome of one full key extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CirclResult {
    /// Whether the recovered key equals the ground truth (after the 1-bit
    /// first-bit disambiguation).
    pub recovered: bool,
    /// Per-bit distinguishing accuracy (fraction of `m_i ≠ m_{i-1}`
    /// decisions that were correct).
    pub bit_accuracy: f64,
    /// The Fig. 8 observations collected along the way.
    pub observations: Vec<CirclObservation>,
}

/// Measures the mean SegCnt across one challenge window.
///
/// `probe`, `samples`, and `cnts` are owned by the extraction loop and
/// reused across its hundreds of challenges (calibration + one per key
/// bit), so a challenge allocates nothing in the steady state.
fn measure_challenge(
    machine: &mut Machine,
    victim: &CirclVictim,
    bit: usize,
    config: &CirclConfig,
    probe: &mut SegProbe,
    samples: &mut Vec<ProbeSample>,
    cnts: &mut Vec<f64>,
) -> CirclObservation {
    let anomalous = victim.run_challenge(machine, bit, config.window);
    // Skip one interval so the governor reacts to the new power level.
    probe
        .probe_n_into(machine, 3, samples)
        .expect("probe works");
    probe
        .probe_n_into(machine, config.samples_per_challenge, samples)
        .expect("probe works");
    cnts.clear();
    cnts.extend(samples.iter().map(|s| s.segcnt as f64));
    // Let the window expire before the next challenge.
    let rest = machine.now() + config.window;
    while machine.now() < rest {
        machine.spin(1_000_000);
    }
    // Median: a rescheduling/PMI interrupt occasionally truncates one
    // interval, which would drag a plain mean across the class boundary.
    cnts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    CirclObservation {
        mean_segcnt: cnts[cnts.len() / 2],
        anomalous,
    }
}

/// Runs the end-to-end key extraction on a fresh machine seeded from
/// `config.seed`'s auxiliary stream.
#[must_use]
pub fn run_extraction(config: &CirclConfig) -> CirclResult {
    let mut machine = Machine::new(
        MachineConfig::lenovo_yangtian(),
        exec::derive_seed(config.seed, exec::AUX_STREAM),
    );
    machine.set_fault_plan(config.fault_plan);
    extract_on(&mut machine, config, config.seed)
}

/// Runs the key extraction on a caller-provided `machine` (fault plan
/// and any trace sink already installed); `victim_seed` draws the
/// victim's random key.
#[must_use]
pub fn extract_on(machine: &mut Machine, config: &CirclConfig, victim_seed: u64) -> CirclResult {
    let mut rng = SmallRng::seed_from_u64(victim_seed);
    let victim = CirclVictim::random_key(config.key_bits, &mut rng);
    machine.spin(100_000_000); // warm-up
                               // Calibration: the attacker knows which crafted ciphertexts trigger
                               // the anomaly on their *own* key material; here we calibrate with
                               // planted ground truth, as the reference attack does.
                               // Pattern 1,1,0,0,1,1,… makes `bit_differs` alternate, so calibration
                               // sees both the anomalous and the non-anomalous class.
    let calib_victim = CirclVictim::with_key(
        (0..config.calibration * 2)
            .map(|i| (i / 2) % 2 == 0)
            .collect(),
    );
    // One probe and one pair of sample buffers serve every challenge in
    // the trial (calibration + attack): zero allocations per challenge.
    let mut probe = SegProbe::new();
    let mut samples = Vec::new();
    let mut cnts = Vec::new();
    let mut hi = Vec::new();
    let mut lo = Vec::new();
    for i in 0..config.calibration * 2 {
        let obs = measure_challenge(
            machine,
            &calib_victim,
            i,
            config,
            &mut probe,
            &mut samples,
            &mut cnts,
        );
        if obs.anomalous {
            hi.push(obs.mean_segcnt);
        } else {
            lo.push(obs.mean_segcnt);
        }
    }
    let threshold = (segscope::mean(&hi) + segscope::mean(&lo)) / 2.0;
    // Attack phase.
    let mut observations = Vec::with_capacity(config.key_bits);
    let mut correct = 0usize;
    let mut differs = Vec::with_capacity(config.key_bits);
    for bit in 0..config.key_bits {
        let obs = measure_challenge(
            machine,
            &victim,
            bit,
            config,
            &mut probe,
            &mut samples,
            &mut cnts,
        );
        let decided_anomalous = obs.mean_segcnt > threshold;
        if decided_anomalous == obs.anomalous {
            correct += 1;
        }
        differs.push(decided_anomalous);
        observations.push(obs);
    }
    // Reconstruct: bit_i = bit_{i-1} XOR differs_i, where differs_0
    // compares against an implicit leading 0 bit.
    let mut key = Vec::with_capacity(config.key_bits);
    let mut prev = false;
    for d in differs {
        prev ^= d;
        key.push(prev);
    }
    let recovered = key == victim.key;
    CirclResult {
        recovered,
        bit_accuracy: correct as f64 / config.key_bits as f64,
        observations,
    }
}

/// The registered CIRCL scenario: each trial extracts one fresh random
/// key on a fresh machine (the victim key draws from the trial seed, the
/// machine from its auxiliary stream).
pub struct CirclScenario;

/// Summary of a [`CirclScenario`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CirclSummary {
    /// Fraction of trials that recovered the whole key.
    pub recovered_rate: f64,
    /// Mean per-bit distinguishing accuracy across trials.
    pub mean_bit_accuracy: f64,
}

impl Scenario for CirclScenario {
    type Config = CirclConfig;
    type TrialOutput = CirclResult;
    type Summary = CirclSummary;

    fn name(&self) -> &'static str {
        "circl"
    }

    fn describe(&self) -> &'static str {
        "CIRCL key extraction via the DVFS frequency channel, timed by SegScope (paper Section IV-B)"
    }

    fn experiment_seed(&self, config: &Self::Config, requested: Option<u64>) -> u64 {
        requested.unwrap_or(config.seed)
    }

    fn trial_count(&self, _config: &Self::Config, requested: Option<usize>) -> usize {
        requested.unwrap_or(1)
    }

    fn machine(&self, _config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (
            MachineConfig::lenovo_yangtian(),
            exec::derive_seed(ctx.seed, exec::AUX_STREAM),
        )
    }

    fn wire(&self, config: &Self::Config, machine: &mut Machine, _ctx: &TrialCtx) {
        machine.set_fault_plan(config.fault_plan);
    }

    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> CirclResult {
        extract_on(machine, config, ctx.seed)
    }

    fn summarize(&self, _config: &Self::Config, outputs: &[CirclResult]) -> CirclSummary {
        let n = outputs.len().max(1) as f64;
        CirclSummary {
            recovered_rate: outputs.iter().filter(|r| r.recovered).count() as f64 / n,
            mean_bit_accuracy: outputs.iter().map(|r| r.bit_accuracy).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_differs_semantics() {
        let v = CirclVictim::with_key(vec![true, true, false, true]);
        assert!(v.bit_differs(0)); // 0 -> 1
        assert!(!v.bit_differs(1)); // 1 -> 1
        assert!(v.bit_differs(2)); // 1 -> 0
        assert!(v.bit_differs(3)); // 0 -> 1
    }

    #[test]
    fn anomalous_challenges_run_faster() {
        // The core physical claim of Fig. 8: anomalous-zero challenges
        // yield higher SegCnt.
        let config = CirclConfig::quick();
        let mut machine = Machine::new(MachineConfig::lenovo_yangtian(), 7);
        machine.spin(100_000_000);
        let victim =
            CirclVictim::with_key(vec![true, true, false, false, true, true, false, false]);
        let mut probe = SegProbe::new();
        let mut samples = Vec::new();
        let mut cnts = Vec::new();
        let mut hi = Vec::new();
        let mut lo = Vec::new();
        for i in 0..8 {
            let obs = measure_challenge(
                &mut machine,
                &victim,
                i,
                &config,
                &mut probe,
                &mut samples,
                &mut cnts,
            );
            if obs.anomalous {
                hi.push(obs.mean_segcnt);
            } else {
                lo.push(obs.mean_segcnt);
            }
        }
        assert!(!hi.is_empty() && !lo.is_empty());
        assert!(
            segscope::mean(&hi) > segscope::mean(&lo) * 1.02,
            "anomalous {} !> normal {}",
            segscope::mean(&hi),
            segscope::mean(&lo)
        );
    }

    #[test]
    fn quick_extraction_recovers_the_key() {
        let result = run_extraction(&CirclConfig::quick());
        assert!(
            result.bit_accuracy > 0.95,
            "bit accuracy {}",
            result.bit_accuracy
        );
        assert!(result.recovered, "key not recovered");
        assert_eq!(result.observations.len(), 64);
    }

    #[test]
    fn random_key_is_seed_deterministic() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        assert_eq!(
            CirclVictim::random_key(32, &mut a).key(),
            CirclVictim::random_key(32, &mut b).key()
        );
    }
}
