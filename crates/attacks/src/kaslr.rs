//! Case study 5: breaking KASLR with the SegScope-based timer (paper
//! Section IV-E, Figs. 10–11, Tables VII–VIII).
//!
//! The attacker times repeated accesses (or prefetches) to each of the
//! 512 candidate kernel-text base addresses. Mapped addresses are faster;
//! amplifying with `K` repetitions and `C` timing rounds per slot makes
//! the gap visible even to the noisy SegScope timer.

use irq::time::Ps;
use memsim::{KaslrLayout, KASLR_SLOTS};
use scenario::{Scenario, TrialCtx};
use segscope::{CountingThreadTimer, Denoise, ProbeError, SegTimer};
use segsim::{Machine, MachineConfig, SimError};
use serde::{Deserialize, Serialize};

/// How candidate kernel addresses are probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeMethod {
    /// Direct memory access (faults; absorbed by a user SIGSEGV handler).
    Access,
    /// Software prefetch (never faults).
    Prefetch,
}

/// The timer used to measure probe latencies (the rows of paper
/// Table VII).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimerKind {
    /// The SegScope timer with a denoising mode.
    SegScope(Denoise),
    /// The SMT counting-thread timer.
    CountingThread,
    /// The architectural high-resolution timer (`rdtsc`/`rdpru`).
    HighRes,
    /// A coarse architectural clock with the given resolution.
    Coarse(Ps),
}

impl TimerKind {
    /// The row label used in Table VII.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TimerKind::SegScope(Denoise::None) => "Our timer without any denoising".to_owned(),
            TimerKind::SegScope(Denoise::ZScore) => "Our timer with Z-score (default)".to_owned(),
            TimerKind::SegScope(Denoise::Freq) => "Our timer with frequency".to_owned(),
            TimerKind::SegScope(Denoise::ZScoreAndFreq) => {
                "Our timer with Z-score and frequency".to_owned()
            }
            TimerKind::CountingThread => "Counting thread".to_owned(),
            TimerKind::HighRes => "Architectural high-resolution timer".to_owned(),
            TimerKind::Coarse(res) => format!("Architectural timer ({res})"),
        }
    }
}

/// Configuration of one KASLR-break run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KaslrConfig {
    /// Probing method.
    pub method: ProbeMethod,
    /// Probes per timing (K).
    pub k: usize,
    /// Timings per candidate slot (C).
    pub c: usize,
    /// Timer under test.
    pub timer: TimerKind,
    /// Number of candidate slots scanned (512 in the paper; tests may
    /// scan fewer, always including the secret).
    pub slots: usize,
    /// SegScope timer calibration samples.
    pub calibration: usize,
}

impl Default for KaslrConfig {
    /// The reduced [`KaslrConfig::quick`] scan.
    fn default() -> Self {
        KaslrConfig::quick()
    }
}

impl KaslrConfig {
    /// The paper's default: prefetch probing, SegScope timer with
    /// Z-score, K=64, C=5, all 512 slots (Fig. 11 shows the timing gap
    /// needs a "proper K" to clear the timer's noise floor).
    #[must_use]
    pub fn paper_default() -> Self {
        KaslrConfig {
            method: ProbeMethod::Prefetch,
            k: 64,
            c: 5,
            timer: TimerKind::SegScope(Denoise::ZScore),
            slots: KASLR_SLOTS,
            calibration: 120,
        }
    }

    /// A reduced scan for unit tests (64 slots).
    #[must_use]
    pub fn quick() -> Self {
        KaslrConfig {
            slots: 64,
            c: 3,
            ..KaslrConfig::paper_default()
        }
    }
}

/// The outcome of one KASLR-break run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KaslrResult {
    /// Candidate slots ordered best (fastest) first.
    pub ranking: Vec<usize>,
    /// The true base slot.
    pub secret_slot: usize,
    /// Simulated wall-clock the attack took, seconds.
    pub elapsed_s: f64,
}

impl KaslrResult {
    /// Whether the top-ranked candidate is the true base.
    #[must_use]
    pub fn top1_hit(&self) -> bool {
        self.ranking.first() == Some(&self.secret_slot)
    }

    /// Whether the true base ranks within the top `n` candidates.
    #[must_use]
    pub fn top_n_hit(&self, n: usize) -> bool {
        self.ranking.iter().take(n).any(|&s| s == self.secret_slot)
    }
}

/// Errors of the KASLR attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KaslrError {
    /// The configured timer is architecturally unavailable (e.g. `rdtsc`
    /// under `CR4.TSD`).
    TimerUnavailable,
    /// The SegScope probe failed (mitigated machine).
    Probe(ProbeError),
}

impl From<ProbeError> for KaslrError {
    fn from(e: ProbeError) -> Self {
        KaslrError::Probe(e)
    }
}

impl From<SimError> for KaslrError {
    fn from(_: SimError) -> Self {
        KaslrError::TimerUnavailable
    }
}

impl std::fmt::Display for KaslrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KaslrError::TimerUnavailable => write!(f, "configured timer is unavailable"),
            KaslrError::Probe(e) => write!(f, "segscope probe failed: {e}"),
        }
    }
}

impl std::error::Error for KaslrError {}

fn probe_k(machine: &mut Machine, method: ProbeMethod, addr: u64, k: usize) {
    for _ in 0..k {
        match method {
            ProbeMethod::Access => machine.kernel_probe_access(addr),
            ProbeMethod::Prefetch => machine.kernel_probe_prefetch(addr),
        }
    }
}

/// Runs one KASLR break on `machine` (which must have a KASLR layout
/// installed). Fails with [`KaslrError::TimerUnavailable`] when the
/// configured timer cannot be read and [`KaslrError::Probe`] when the
/// SegScope probe is mitigated.
///
/// # Panics
///
/// Panics if no KASLR layout is installed.
fn break_kaslr(machine: &mut Machine, config: &KaslrConfig) -> Result<KaslrResult, KaslrError> {
    let secret_slot = machine
        .kaslr()
        .expect("KASLR layout installed")
        .secret_slot();
    // Scan a contiguous window of candidate slots that always contains
    // the secret (the full 512 in paper scale).
    let first = if config.slots >= KASLR_SLOTS {
        0
    } else {
        secret_slot
            .saturating_sub(config.slots / 2)
            .min(KASLR_SLOTS - config.slots)
    };
    let candidates: Vec<usize> = (first..first + config.slots.min(KASLR_SLOTS)).collect();
    let start = machine.now();
    let mut seg_timer = match config.timer {
        TimerKind::SegScope(denoise) => {
            Some(SegTimer::calibrate(machine, config.calibration, denoise)?)
        }
        _ => None,
    };
    let mut scores: Vec<(usize, f64)> = Vec::with_capacity(candidates.len());
    for &slot in &candidates {
        let addr = machine.kaslr().expect("layout").slot_base(slot);
        let mut estimates = Vec::with_capacity(config.c);
        for _ in 0..config.c {
            let ticks = match (&mut seg_timer, config.timer) {
                (Some(timer), TimerKind::SegScope(_)) => {
                    timer
                        .time(machine, |m| probe_k(m, config.method, addr, config.k))?
                        .ticks
                }
                (_, TimerKind::CountingThread) => {
                    let (_, delta) = CountingThreadTimer::time(machine, |m| {
                        probe_k(m, config.method, addr, config.k)
                    });
                    delta as f64
                }
                (_, TimerKind::HighRes) => {
                    let t0 = machine.rdtsc()?;
                    probe_k(machine, config.method, addr, config.k);
                    let t1 = machine.rdtsc()?;
                    (t1 - t0) as f64
                }
                (_, TimerKind::Coarse(res)) => {
                    let t0 = machine.clock_read(res)?;
                    probe_k(machine, config.method, addr, config.k);
                    let t1 = machine.clock_read(res)?;
                    (t1 - t0) as f64
                }
                _ => unreachable!("seg timer initialized iff TimerKind::SegScope"),
            };
            estimates.push(ticks);
        }
        // Per-slot aggregation. With denoising, use the median (robust to
        // the occasional non-timer-edge outlier); the "without any
        // denoising" Table VII row takes the raw mean.
        let denoised = !matches!(config.timer, TimerKind::SegScope(Denoise::None));
        let score = if denoised && estimates.len() >= 2 {
            estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            estimates[estimates.len() / 2]
        } else {
            segscope::mean(&estimates)
        };
        scores.push((slot, score));
    }
    // The kernel image spans KERNEL_TEXT_SLOTS consecutive mapped slots,
    // all of which probe fast — the *base* is where the slow→fast
    // transition happens. Rank candidates by the (most negative)
    // transition `score[b] - score[b-1]`.
    let mut transitions: Vec<(usize, f64)> = Vec::with_capacity(scores.len());
    for w in scores.windows(2) {
        let (_, prev_score) = w[0];
        let (slot, score) = w[1];
        transitions.push((slot, score - prev_score));
    }
    // The window's first slot has no left neighbour: neutral transition.
    if let Some(&(first_slot, _)) = scores.first() {
        transitions.push((first_slot, 0.0));
    }
    transitions.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"));
    Ok(KaslrResult {
        ranking: transitions.into_iter().map(|(s, _)| s).collect(),
        secret_slot,
        elapsed_s: (machine.now() - start).as_secs_f64(),
    })
}

/// The registered KASLR scenario: each trial is one fresh-machine break
/// with a freshly randomized layout.
pub struct KaslrScenario;

/// Parameters of [`KaslrScenario`]: the full machine configuration (so
/// bench sweeps can vary `CR4.TSD`, frequency pinning, or fault plans)
/// plus the attack parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KaslrScenarioConfig {
    /// The victim machine (fault plans travel inside, via
    /// [`MachineConfig::with_fault_plan`]).
    pub machine: MachineConfig,
    /// The attack parameters.
    pub attack: KaslrConfig,
}

impl Default for KaslrScenarioConfig {
    /// The Table I Xiaomi machine under the quick scan.
    fn default() -> Self {
        KaslrScenarioConfig {
            machine: MachineConfig::xiaomi_air13(),
            attack: KaslrConfig::quick(),
        }
    }
}

/// Summary of a [`KaslrScenario`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KaslrSummary {
    /// Fraction of trials whose top-ranked candidate was the true base.
    pub top1_rate: f64,
    /// Fraction of trials ranking the true base within the top 5.
    pub top5_rate: f64,
    /// Trials that failed (timer unavailable / probe mitigated).
    pub failed: usize,
    /// Mean simulated attack duration over successful trials, seconds.
    pub mean_elapsed_s: f64,
}

impl Scenario for KaslrScenario {
    type Config = KaslrScenarioConfig;
    type TrialOutput = Result<KaslrResult, KaslrError>;
    type Summary = KaslrSummary;

    fn name(&self) -> &'static str {
        "kaslr"
    }

    fn describe(&self) -> &'static str {
        "KASLR de-randomization by timing candidate kernel bases with the SegScope timer (paper Section IV-E)"
    }

    fn experiment_seed(&self, _config: &Self::Config, requested: Option<u64>) -> u64 {
        requested.unwrap_or(0x6A51)
    }

    fn trial_count(&self, _config: &Self::Config, requested: Option<usize>) -> usize {
        requested.unwrap_or(8)
    }

    fn machine(&self, config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (config.machine.clone(), ctx.seed)
    }

    fn check_config(&self, config: &Self::Config) -> Result<(), String> {
        crate::at_least_one("attack.slots", config.attack.slots)?;
        crate::at_least_one("attack.c", config.attack.c)
    }

    fn wire(&self, _config: &Self::Config, machine: &mut Machine, _ctx: &TrialCtx) {
        let layout = KaslrLayout::randomize(machine.rng_mut());
        machine.set_kaslr(layout);
    }

    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        _ctx: &TrialCtx,
    ) -> Result<KaslrResult, KaslrError> {
        machine.spin(50_000_000); // warm-up
        break_kaslr(machine, &config.attack)
    }

    fn summarize(&self, _config: &Self::Config, outputs: &[Self::TrialOutput]) -> KaslrSummary {
        let (top1_rate, top5_rate) = hit_rates(outputs, 5);
        let elapsed: Vec<f64> = outputs
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|k| k.elapsed_s))
            .collect();
        KaslrSummary {
            top1_rate,
            top5_rate,
            failed: outputs.iter().filter(|r| r.is_err()).count(),
            mean_elapsed_s: segscope::mean(&elapsed),
        }
    }
}

/// Top-1 and top-`n` hit rates over a batch of [`KaslrScenario`] trial
/// outcomes (failed trials count as misses).
#[must_use]
pub fn hit_rates(results: &[Result<KaslrResult, KaslrError>], n: usize) -> (f64, f64) {
    let total = results.len().max(1) as f64;
    let top1 = results
        .iter()
        .filter(|r| r.as_ref().is_ok_and(KaslrResult::top1_hit))
        .count() as f64;
    let topn = results
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|k| k.top_n_hit(n)))
        .count() as f64;
    (top1 / total, topn / total)
}

/// Collects SegCnt-tick distributions for mapped vs unmapped probing at a
/// given `K` (the data of paper Figs. 10 and 11).
///
/// # Errors
///
/// Propagates probe errors.
pub fn k_sweep_distributions(
    method: ProbeMethod,
    k: usize,
    rounds: usize,
    seed: u64,
) -> Result<(Vec<f64>, Vec<f64>), KaslrError> {
    let mut machine = Machine::new(MachineConfig::xiaomi_air13(), seed);
    machine.set_kaslr(KaslrLayout::with_slot(100));
    machine.spin(50_000_000);
    let mut timer = SegTimer::calibrate(&mut machine, 100, Denoise::ZScore)?;
    let mapped_addr = machine.kaslr().expect("layout").slot_base(100);
    let unmapped_addr = machine.kaslr().expect("layout").slot_base(400);
    let mut mapped = Vec::with_capacity(rounds);
    let mut unmapped = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        mapped.push(
            timer
                .time(&mut machine, |m| probe_k(m, method, mapped_addr, k))?
                .ticks,
        );
        unmapped.push(
            timer
                .time(&mut machine, |m| probe_k(m, method, unmapped_addr, k))?
                .ticks,
        );
    }
    Ok((mapped, unmapped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::RunOptions;

    fn break_fresh(
        machine: MachineConfig,
        attack: &KaslrConfig,
        seed: u64,
    ) -> Result<KaslrResult, KaslrError> {
        let attack = *attack;
        KaslrScenario.run_one(&KaslrScenarioConfig { machine, attack }, seed)
    }

    #[test]
    fn quick_break_ranks_secret_highly() {
        let config = KaslrConfig::quick();
        let result = break_fresh(MachineConfig::xiaomi_air13(), &config, 0x6A51).unwrap();
        assert!(
            result.top_n_hit(5),
            "secret slot {} not in top-5 of {:?}",
            result.secret_slot,
            &result.ranking[..5]
        );
    }

    #[test]
    fn rdtsc_timer_breaks_kaslr_easily() {
        let config = KaslrConfig {
            timer: TimerKind::HighRes,
            c: 3,
            slots: 64,
            ..KaslrConfig::paper_default()
        };
        let result = break_fresh(MachineConfig::xiaomi_air13(), &config, 0x6A52).unwrap();
        assert!(
            result.top1_hit(),
            "rdtsc should nail it: {:?}",
            &result.ranking[..3]
        );
    }

    #[test]
    fn millisecond_timer_fails() {
        // A 1 ms clock cannot see sub-microsecond probe differences: the
        // secret should rank no better than chance-ish.
        let config = KaslrConfig {
            timer: TimerKind::Coarse(Ps::from_ms(1)),
            c: 2,
            k: 4,
            slots: 64,
            ..KaslrConfig::paper_default()
        };
        let result = break_fresh(MachineConfig::xiaomi_air13(), &config, 0x6A53).unwrap();
        assert!(
            !result.top1_hit(),
            "a 1 ms timer should not reliably find the slot"
        );
    }

    #[test]
    fn cr4_tsd_blocks_rdtsc_but_not_segscope() {
        let machine_cfg = MachineConfig::xiaomi_air13().with_cr4_tsd(true);
        let rdtsc_cfg = KaslrConfig {
            timer: TimerKind::HighRes,
            slots: 16,
            ..KaslrConfig::quick()
        };
        assert_eq!(
            break_fresh(machine_cfg.clone(), &rdtsc_cfg, 1).unwrap_err(),
            KaslrError::TimerUnavailable
        );
        let seg_cfg = KaslrConfig {
            slots: 16,
            ..KaslrConfig::quick()
        };
        let result = break_fresh(machine_cfg, &seg_cfg, 1).unwrap();
        assert!(result.top_n_hit(5), "SegScope must work under CR4.TSD");
    }

    #[test]
    fn larger_k_separates_distributions_better() {
        let (m1, u1) = k_sweep_distributions(ProbeMethod::Prefetch, 1, 12, 3).unwrap();
        let (m64, u64_) = k_sweep_distributions(ProbeMethod::Prefetch, 64, 12, 3).unwrap();
        let median = |xs: &[f64]| {
            let mut s = xs.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        let gap = |m: &[f64], u: &[f64]| median(u) - median(m);
        assert!(
            gap(&m64, &u64_) > gap(&m1, &u1),
            "K=64 gap {} !> K=1 gap {}",
            gap(&m64, &u64_),
            gap(&m1, &u1)
        );
    }

    #[test]
    fn traced_break_matches_untraced_and_records_probes() {
        let cfg = KaslrScenarioConfig {
            attack: KaslrConfig {
                slots: 16,
                ..KaslrConfig::quick()
            },
            ..KaslrScenarioConfig::default()
        };
        let opts = RunOptions {
            seed: Some(0x6A54),
            trials: Some(1),
            ..RunOptions::default()
        };
        let plain = scenario::run_scenario(&KaslrScenario, &cfg, &opts);
        let traced = scenario::run_scenario(
            &KaslrScenario,
            &cfg,
            &RunOptions {
                capacity: 1 << 16,
                ..opts
            },
        );
        assert_eq!(
            traced.outputs, plain.outputs,
            "tracing must not perturb the attack"
        );
        let sink = traced.sink.expect("traced run");
        assert!(sink.count_class(obs::EventClass::ProbeSample) > 0);
        assert!(sink.count_class(obs::EventClass::IrqDelivered) > 0);
        assert_eq!(sink.metrics.counter("timer.calibrations"), 1);
    }

    #[test]
    fn timer_labels_are_distinct() {
        let labels = [
            TimerKind::SegScope(Denoise::None).label(),
            TimerKind::SegScope(Denoise::ZScore).label(),
            TimerKind::SegScope(Denoise::Freq).label(),
            TimerKind::SegScope(Denoise::ZScoreAndFreq).label(),
            TimerKind::CountingThread.label(),
            TimerKind::HighRes.label(),
            TimerKind::Coarse(Ps::from_us(1)).label(),
            TimerKind::Coarse(Ps::from_ms(1)).label(),
        ];
        let mut sorted = labels.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }
}
