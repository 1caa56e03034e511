//! Case study 4: enhancing the Spectral attack with SegScope (paper
//! Section IV-D, Table VI, Fig. 9).
//!
//! Spectral leaks Spectre secrets *architecturally*: the monitoring
//! process arms `umonitor`/`umwait` on a shared cache line; the victim's
//! transiently-executed gadget writes that line iff the leaked bit is 1.
//! The wake cause encodes the bit — but a plain attacker only sees
//! `EFLAGS.CF`, which cannot distinguish a cache-line write from an
//! interrupt (paper Table VI). SegScope adds the missing bit: a planted
//! non-zero null selector survives writes and timeouts but not
//! interrupts, so interrupted measurements can be discarded instead of
//! miscounted.

use irq::time::Ps;
use rand::Rng;
use scenario::{Scenario, TrialCtx};
use segscope::InterruptGuard;
use segsim::{FaultPlan, Machine, MachineConfig};
use serde::{Deserialize, Serialize};
use specsim::{resolve_wait, ArchState};

/// Configuration of the Spectral bit-leak channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectralConfig {
    /// `umwait` timeout, cycles (the paper sweeps 20k–200k; default
    /// 100k).
    pub timeout_cycles: u64,
    /// Number of gadget invocations per bit (the paper uses 12).
    pub gadget_calls: usize,
    /// Per-call probability the speculation window completes the
    /// transient store.
    pub window_success: f64,
    /// Time from arming the monitor until the victim's transient write
    /// lands.
    pub victim_latency: Ps,
    /// Probability of a spurious write to the monitored line (prefetcher
    /// or coherence traffic) within a timeout window.
    pub spurious_write_prob: f64,
    /// Overhead per measurement beyond the wait itself (re-arming,
    /// mistraining), cycles.
    pub per_bit_overhead_cycles: u64,
    /// Optional interrupt-path fault plan installed on the monitoring
    /// machine (`None` = nominal fault-free run).
    pub fault_plan: Option<FaultPlan>,
}

impl SpectralConfig {
    /// The paper's default: 100k-cycle timeout, 12 calls per bit.
    #[must_use]
    pub fn paper_default() -> Self {
        SpectralConfig {
            timeout_cycles: 100_000,
            gadget_calls: 12,
            window_success: 0.92,
            victim_latency: Ps::from_us(2),
            spurious_write_prob: 1.0e-4,
            per_bit_overhead_cycles: 9_000,
            fault_plan: None,
        }
    }

    /// The same channel with a different timeout (the Fig. 9 sweep).
    #[must_use]
    pub fn with_timeout(mut self, cycles: u64) -> Self {
        self.timeout_cycles = cycles;
        self
    }

    /// Installs a fault plan on the monitoring machine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig::paper_default()
    }
}

/// The outcome of leaking one secret bit-string.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectralResult {
    /// Bits attempted.
    pub bits: usize,
    /// Bits decided incorrectly.
    pub errors: usize,
    /// Bit error rate.
    pub error_rate: f64,
    /// Leakage rate, bits per simulated second (decided bits only).
    pub leak_rate_bps: f64,
    /// Measurements discarded as interrupted (enhanced mode only).
    pub discarded: usize,
}

/// Whether SegScope filtering is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpectralMode {
    /// The original Spectral: carry flag only (interrupts alias to
    /// writes).
    Original,
    /// SegScope-enhanced: interrupted wake-ups are detected via the
    /// selector footprint and re-measured.
    Enhanced,
}

/// Leaks one bit. Returns `(decision, discarded_measurements)`.
fn leak_bit<R: Rng + ?Sized>(
    machine: &mut Machine,
    bit: bool,
    config: &SpectralConfig,
    mode: SpectralMode,
    ext_rng: &mut R,
) -> (bool, usize) {
    let mut discarded = 0usize;
    loop {
        // Mistrain + arm overhead.
        machine.spin(config.per_bit_overhead_cycles);
        // SegScope marker (the enhanced attacker plants it; the original
        // attacker doesn't need it, but arming costs nothing either way).
        let guard = InterruptGuard::arm(machine).expect("unmitigated machine");
        let armed_at = machine.now();
        let khz = machine.current_freq_khz();
        let timeout = Ps::from_cycles_at(config.timeout_cycles, khz);
        // Victim side: will any of the gadget calls land the transient
        // write? (12 calls at 92% each ≈ certain when bit = 1.)
        let mut write_at = None;
        if bit {
            let success =
                (0..config.gadget_calls).any(|_| ext_rng.gen::<f64>() < config.window_success);
            if success {
                write_at = Some(armed_at + config.victim_latency);
            }
        } else if ext_rng.gen::<f64>() < config.spurious_write_prob {
            // Rare spurious coherence traffic on the monitored line.
            write_at = Some(armed_at + timeout / 2);
        }
        let irq_at = machine.next_interrupt_at();
        let (cause, wake_at) = resolve_wait(armed_at, timeout, write_at, irq_at);
        // Sleep until the wake event; if the cause is an interrupt the
        // machine delivers it (scrubbing the planted selector).
        while machine.now() < wake_at {
            let _ = machine.run_user_until(wake_at);
        }
        let arch = ArchState::of(cause);
        // The attacker-visible check. It almost always agrees with
        // Table VI's `selector_preserved`, but an interrupt can land in
        // the few cycles *between* the umwait return and the selector
        // read; the guard then sees a scrubbed selector on a wake that
        // was architecturally a timeout/write. The enhanced attacker
        // conservatively discards such measurements, which is exactly
        // the right call.
        let selector_survived = guard.finish(machine);
        match mode {
            SpectralMode::Original => return (arch.naive_write_detected(), discarded),
            SpectralMode::Enhanced => {
                if selector_survived {
                    return (arch.naive_write_detected(), discarded);
                }
                // Interrupted: discard and re-measure.
                discarded += 1;
            }
        }
    }
}

/// Leaks `bits` random secret bits on the trial's monitoring machine and
/// reports the error statistics. `seed` only derives the secret/victim
/// RNG stream; the machine's own stream was fixed at construction.
fn run_attack_on(
    machine: &mut Machine,
    config: &SpectralConfig,
    mode: SpectralMode,
    bits: usize,
    seed: u64,
) -> SpectralResult {
    machine.spin(50_000_000); // warm-up
    let mut secret_rng = {
        use rand::SeedableRng;
        rand::rngs::SmallRng::seed_from_u64(exec::derive_seed(seed, exec::AUX_STREAM))
    };
    let secret: Vec<bool> = (0..bits).map(|_| secret_rng.gen()).collect();
    let start = machine.now();
    let mut errors = 0usize;
    let mut discarded = 0usize;
    for &bit in &secret {
        let (decided, d) = leak_bit(machine, bit, config, mode, &mut secret_rng);
        discarded += d;
        if decided != bit {
            errors += 1;
        }
    }
    let elapsed = (machine.now() - start).as_secs_f64();
    SpectralResult {
        bits,
        errors,
        error_rate: errors as f64 / bits.max(1) as f64,
        leak_rate_bps: bits as f64 / elapsed.max(1e-9),
        discarded,
    }
}

/// Parameters of the registered [`SpectralScenario`]: the channel itself,
/// the filtering mode and the secret length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectralScenarioConfig {
    /// Channel configuration.
    pub attack: SpectralConfig,
    /// Whether SegScope filtering is applied.
    pub mode: SpectralMode,
    /// Secret bits leaked per trial.
    pub bits: usize,
}

impl Default for SpectralScenarioConfig {
    fn default() -> Self {
        SpectralScenarioConfig {
            attack: SpectralConfig::paper_default(),
            mode: SpectralMode::Enhanced,
            bits: 2_000,
        }
    }
}

/// Aggregate over the trials of a [`SpectralScenario`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectralSummary {
    /// Mean bit error rate across trials.
    pub mean_error_rate: f64,
    /// Mean leakage rate, bits per simulated second.
    pub mean_leak_rate_bps: f64,
    /// Total measurements discarded as interrupted.
    pub total_discarded: usize,
}

/// [`Scenario`] face of the Spectral enhancement study.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectralScenario;

impl Scenario for SpectralScenario {
    type Config = SpectralScenarioConfig;
    type TrialOutput = SpectralResult;
    type Summary = SpectralSummary;

    fn name(&self) -> &'static str {
        "spectral"
    }

    fn describe(&self) -> &'static str {
        "Spectral enhancement: filter interrupted umwait wake-ups via the \
         planted-selector footprint (paper Section IV-D, Table VI, Fig. 9)"
    }

    fn experiment_seed(&self, _config: &SpectralScenarioConfig, requested: Option<u64>) -> u64 {
        requested.unwrap_or(0x57A1)
    }

    fn trial_count(&self, _config: &SpectralScenarioConfig, requested: Option<usize>) -> usize {
        requested.unwrap_or(1)
    }

    fn machine(&self, _config: &SpectralScenarioConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
        // The i9-12900H is the only Table I machine with umonitor/umwait.
        (MachineConfig::lenovo_savior(), ctx.seed)
    }

    fn wire(&self, config: &SpectralScenarioConfig, machine: &mut Machine, _ctx: &TrialCtx) {
        machine.set_fault_plan(config.attack.fault_plan);
    }

    fn run_trial(
        &self,
        config: &SpectralScenarioConfig,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> SpectralResult {
        run_attack_on(machine, &config.attack, config.mode, config.bits, ctx.seed)
    }

    fn summarize(
        &self,
        _config: &SpectralScenarioConfig,
        outputs: &[SpectralResult],
    ) -> SpectralSummary {
        SpectralSummary {
            mean_error_rate: crate::mean_of(outputs.iter().map(|r| r.error_rate)),
            mean_leak_rate_bps: crate::mean_of(outputs.iter().map(|r| r.leak_rate_bps)),
            total_discarded: outputs.iter().map(|r| r.discarded).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(attack: SpectralConfig, mode: SpectralMode, bits: usize, seed: u64) -> SpectralResult {
        SpectralScenario.run_one(&SpectralScenarioConfig { attack, mode, bits }, seed)
    }

    #[test]
    fn enhanced_mode_reduces_error_rate() {
        let config = SpectralConfig::paper_default();
        let original = leak(config, SpectralMode::Original, 12_000, 0xA);
        let enhanced = leak(config, SpectralMode::Enhanced, 12_000, 0xA);
        assert!(
            original.error_rate > 0.001,
            "original should show interrupt noise: {}",
            original.error_rate
        );
        assert!(
            enhanced.error_rate < original.error_rate / 4.0,
            "enhanced {} !<< original {}",
            enhanced.error_rate,
            original.error_rate
        );
        assert!(
            enhanced.discarded > 0,
            "some measurements must be discarded"
        );
    }

    #[test]
    fn longer_timeouts_mean_more_interrupt_errors() {
        let leak_at = |timeout| {
            let attack = SpectralConfig::paper_default().with_timeout(timeout);
            leak(attack, SpectralMode::Original, 8_000, 0xB)
        };
        let (short, long) = (leak_at(20_000), leak_at(200_000));
        assert!(
            long.error_rate > short.error_rate,
            "short {} vs long {}",
            short.error_rate,
            long.error_rate
        );
    }

    #[test]
    fn leak_rate_is_tens_of_kbps() {
        let config = SpectralConfig::paper_default();
        let result = leak(config, SpectralMode::Enhanced, 4_000, 0xC);
        // Paper: ~53 kbit/s. Demand the right order of magnitude.
        assert!(
            (5_000.0..500_000.0).contains(&result.leak_rate_bps),
            "leak rate {} b/s",
            result.leak_rate_bps
        );
    }

    #[test]
    fn enhanced_never_misreads_interrupts_as_writes() {
        // With bit=0 and no spurious writes, every decision must be 0.
        let mut config = SpectralConfig::paper_default();
        config.spurious_write_prob = 0.0;
        let mut machine = Machine::new(MachineConfig::lenovo_savior(), 0xD);
        machine.spin(10_000_000);
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(1)
        };
        for _ in 0..300 {
            let (decided, _) = leak_bit(
                &mut machine,
                false,
                &config,
                SpectralMode::Enhanced,
                &mut rng,
            );
            assert!(
                !decided,
                "enhanced mode decided 1 on a 0 bit without any write"
            );
        }
    }
}
