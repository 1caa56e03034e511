//! Extension case study: process fingerprinting (paper Section I cites
//! interrupt-based process fingerprinting as one of the side channels
//! SegScope replaces the probing primitive of).
//!
//! Different applications drive different interrupt mixes — a download
//! manager hammers the NIC, a video player ticks with vsync, a compiler
//! is compute-bound with occasional disk bursts. The attacker probes with
//! SegScope, extracts a feature vector from the (unlabeled!) SegCnt
//! trace, and matches it against enrolled application profiles.

use irq::time::Ps;
use irq::InterruptKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scenario::{Scenario, TrialCtx};
use segscope::SegProbe;
use segsim::{FaultPlan, Machine, MachineConfig, StepFn};
use serde::{Deserialize, Serialize};

/// The application classes the attacker distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppClass {
    /// Bulk download: dense NIC interrupt train, light CPU.
    Downloader,
    /// Video playback: regular GPU cadence, medium CPU.
    VideoPlayer,
    /// Compilation: heavy CPU, sparse bursty disk/NIC activity.
    Compiler,
    /// Idle desktop: almost nothing beyond the tick.
    Idle,
}

impl AppClass {
    /// All classes, stable order.
    pub const ALL: [AppClass; 4] = [
        AppClass::Downloader,
        AppClass::VideoPlayer,
        AppClass::Compiler,
        AppClass::Idle,
    ];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AppClass::Downloader => "downloader",
            AppClass::VideoPlayer => "video",
            AppClass::Compiler => "compiler",
            AppClass::Idle => "idle",
        }
    }

    /// Generates `window` worth of this application's activity starting
    /// at `t0`: device interrupts plus a CPU-load schedule.
    pub fn activity<R: Rng + ?Sized>(
        self,
        t0: Ps,
        window: Ps,
        rng: &mut R,
    ) -> (Vec<(Ps, InterruptKind)>, StepFn) {
        let mut events = Vec::new();
        let mut load = StepFn::zero();
        let end = t0 + window;
        match self {
            AppClass::Downloader => {
                // ~1200 NIC interrupts/s with slight pacing jitter.
                let mut t = t0;
                while t < end {
                    t += Ps::from_us(rng.gen_range(600..1_100));
                    events.push((t, InterruptKind::Network));
                }
                load.push(t0, 0.25);
            }
            AppClass::VideoPlayer => {
                // 60 Hz vblank cadence plus a small audio/NIC trickle.
                let mut t = t0;
                while t < end {
                    t += Ps::from_us(16_667);
                    events.push((t, InterruptKind::Gpu));
                }
                let mut t = t0;
                while t < end {
                    t += Ps::from_ms(rng.gen_range(40..120));
                    events.push((t, InterruptKind::Network));
                }
                load.push(t0, 0.45);
            }
            AppClass::Compiler => {
                // CPU-bound with bursty I/O completions.
                let mut t = t0;
                while t < end {
                    t += Ps::from_ms(rng.gen_range(30..150));
                    for _ in 0..rng.gen_range(2..8) {
                        t += Ps::from_us(rng.gen_range(100..600));
                        events.push((t, InterruptKind::Network));
                    }
                }
                load.push(t0, 0.95);
            }
            AppClass::Idle => {
                load.push(t0, 0.02);
            }
        }
        load.push(end, 0.0);
        events.retain(|&(at, _)| at < end);
        (events, load)
    }
}

/// The attacker-visible feature vector of one observation window: the
/// 10th/50th/90th percentiles of the probed SegCnt distribution,
/// normalized by the quiet-calibration median.
///
/// This captures both axes of the signal with no labels and no timer:
/// device-interrupt density *shortens* intervals (pulling the quantiles
/// down) while victim CPU load *raises* the frequency (pushing them up),
/// and the spread between q10 and q90 encodes cadence vs burstiness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcFeatures {
    /// 10th percentile of normalized SegCnt.
    pub q10: f64,
    /// Median of normalized SegCnt.
    pub q50: f64,
    /// 90th percentile of normalized SegCnt.
    pub q90: f64,
}

impl ProcFeatures {
    /// Squared distance in (log-)feature space.
    #[must_use]
    pub fn distance2(&self, other: &ProcFeatures) -> f64 {
        let d = |a: f64, b: f64| (a.max(1e-6).ln() - b.max(1e-6).ln()).powi(2);
        d(self.q10, other.q10) + d(self.q50, other.q50) + d(self.q90, other.q90)
    }
}

/// Extracts features from one observation window of `app` on a fresh
/// [`ProcFpScenario`] machine booted at `seed` (`config.enroll` and
/// `config.test` play no part).
#[must_use]
pub fn observe(config: &ProcFpConfig, app: AppClass, seed: u64) -> ProcFeatures {
    let ctx = TrialCtx {
        index: 0,
        seed,
        experiment_seed: seed,
    };
    let mut machine = ProcFpScenario.build_machine(config, &ctx);
    observe_on(&mut machine, app, seed, config.window, config.probes)
}

/// Extracts features from one observation window on an already-built spy
/// machine. `seed` only drives the victim's activity schedule; the
/// machine's own RNG stream was fixed at construction.
fn observe_on(
    machine: &mut Machine,
    app: AppClass,
    seed: u64,
    window: Ps,
    probes: usize,
) -> ProcFeatures {
    machine.spin(100_000_000);
    // Calibrate the quiet baseline (the spy alone): robust SegCnt level.
    let mut probe = SegProbe::new();
    let mut calib = Vec::new();
    probe
        .probe_n_into(machine, 200, &mut calib)
        .expect("probe works");
    let mut calib_cnts: Vec<f64> = calib.iter().map(|s| s.segcnt as f64).collect();
    calib_cnts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let calib_median = calib_cnts[calib_cnts.len() / 2];
    // Start the victim application and record the raw SegCnt stream.
    let t0 = machine.now();
    let mut rng = SmallRng::seed_from_u64(exec::derive_seed(seed, exec::AUX_STREAM));
    let (events, load) = app.activity(t0, window, &mut rng);
    machine.inject_interrupts(events);
    machine.set_victim_load(load);
    // Observe only while the application is running: the window bounds
    // the probe budget.
    let mut cnts = Vec::with_capacity(probes);
    let obs_end = t0 + window;
    for _ in 0..probes {
        if machine.now() >= obs_end {
            break;
        }
        let Ok(s) = probe.probe_once(machine) else {
            break;
        };
        cnts.push(s.segcnt as f64);
    }
    let mut sorted = cnts;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let quantile = |q: f64| -> f64 {
        if sorted.is_empty() {
            return 1.0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx] / calib_median.max(1.0)
    };
    ProcFeatures {
        q10: quantile(0.1),
        q50: quantile(0.5),
        q90: quantile(0.9),
    }
}

/// Result of the fingerprinting experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcFpResult {
    /// Fraction of windows attributed to the right application.
    pub accuracy: f64,
    /// Per-class accuracy in [`AppClass::ALL`] order.
    pub per_class: Vec<f64>,
    /// Windows evaluated.
    pub windows: usize,
}

/// Configuration of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcFpConfig {
    /// Enrollment windows per class.
    pub enroll: usize,
    /// Test windows per class.
    pub test: usize,
    /// Observation window length.
    pub window: Ps,
    /// Probe budget per window.
    pub probes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional interrupt-path fault plan installed on every observation
    /// machine (`None` = nominal fault-free run).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ProcFpConfig {
    fn default() -> Self {
        ProcFpConfig::quick()
    }
}

impl ProcFpConfig {
    /// Test-scale configuration.
    #[must_use]
    pub fn quick() -> Self {
        ProcFpConfig {
            enroll: 3,
            test: 3,
            window: Ps::from_ms(400),
            probes: 300,
            seed: 0x9F0C,
            fault_plan: None,
        }
    }

    /// Installs a fault plan on every observation machine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// [`Scenario`] face of the process-fingerprinting experiment. Each task
/// observes one `(class, window)` pair — enrollment windows occupy task
/// indices `0..classes * enroll`, test windows continue from there — and
/// [`Scenario::summarize`] fits the per-class centroids and runs
/// nearest-centroid identification.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcFpScenario;

impl ProcFpScenario {
    /// Application class observed by task `index` under `config`.
    fn class_for(config: &ProcFpConfig, index: usize) -> AppClass {
        let enroll_tasks = AppClass::ALL.len() * config.enroll;
        if index < enroll_tasks {
            AppClass::ALL[(index / config.enroll.max(1)) % AppClass::ALL.len()]
        } else {
            AppClass::ALL[((index - enroll_tasks) / config.test.max(1)) % AppClass::ALL.len()]
        }
    }
}

impl Scenario for ProcFpScenario {
    type Config = ProcFpConfig;
    type TrialOutput = ProcFeatures;
    type Summary = ProcFpResult;

    fn name(&self) -> &'static str {
        "procfp"
    }

    fn describe(&self) -> &'static str {
        "Process fingerprinting: match unlabeled SegCnt quantile features \
         against enrolled application profiles (extension study)"
    }

    fn experiment_seed(&self, config: &ProcFpConfig, requested: Option<u64>) -> u64 {
        requested.unwrap_or(config.seed)
    }

    fn trial_count(&self, config: &ProcFpConfig, _requested: Option<usize>) -> usize {
        // The enroll/test split is structural: the trial count follows the
        // config, not the CLI `--trials` knob.
        AppClass::ALL.len() * (config.enroll + config.test)
    }

    fn machine(&self, _config: &ProcFpConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (MachineConfig::xiaomi_air13(), ctx.seed)
    }

    fn wire(&self, config: &ProcFpConfig, machine: &mut Machine, _ctx: &TrialCtx) {
        machine.set_fault_plan(config.fault_plan);
        machine.set_local_load(0.3); // the spy keeps a low profile
    }

    fn check_config(&self, config: &ProcFpConfig) -> Result<(), String> {
        crate::at_least_one("enroll", config.enroll)
    }

    fn run_trial(
        &self,
        config: &ProcFpConfig,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> ProcFeatures {
        let app = Self::class_for(config, ctx.index);
        observe_on(machine, app, ctx.seed, config.window, config.probes)
    }

    fn summarize(&self, config: &ProcFpConfig, outputs: &[ProcFeatures]) -> ProcFpResult {
        let classes = AppClass::ALL.len();
        let enroll_tasks = classes * config.enroll;
        let (enroll_feats, test_feats) = outputs.split_at(enroll_tasks.min(outputs.len()));
        let centroids: Vec<(AppClass, ProcFeatures)> = AppClass::ALL
            .iter()
            .zip(enroll_feats.chunks(config.enroll.max(1)))
            .map(|(&app, feats)| {
                let centroid = ProcFeatures {
                    q10: segscope::mean(&feats.iter().map(|f| f.q10).collect::<Vec<_>>()),
                    q50: segscope::mean(&feats.iter().map(|f| f.q50).collect::<Vec<_>>()),
                    q90: segscope::mean(&feats.iter().map(|f| f.q90).collect::<Vec<_>>()),
                };
                (app, centroid)
            })
            .collect();
        let test_tasks = classes * config.test;
        let mut hits = 0usize;
        let mut per_class = Vec::with_capacity(classes);
        for (c, &app) in AppClass::ALL.iter().enumerate() {
            let class_hits = test_feats[c * config.test..(c + 1) * config.test]
                .iter()
                .filter(|f| {
                    centroids
                        .iter()
                        .min_by(|a, b| {
                            f.distance2(&a.1)
                                .partial_cmp(&f.distance2(&b.1))
                                .expect("finite")
                        })
                        .map(|(app, _)| *app)
                        .expect("non-empty")
                        == app
                })
                .count();
            hits += class_hits;
            per_class.push(class_hits as f64 / config.test as f64);
        }
        ProcFpResult {
            accuracy: hits as f64 / test_tasks.max(1) as f64,
            per_class,
            windows: test_tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_respects_window() {
        let mut rng = SmallRng::seed_from_u64(1);
        for app in AppClass::ALL {
            let (events, _) = app.activity(Ps::from_ms(10), Ps::from_ms(100), &mut rng);
            for &(at, _) in &events {
                assert!(
                    at >= Ps::from_ms(10) && at < Ps::from_ms(110),
                    "{app:?} event at {at}"
                );
            }
        }
    }

    #[test]
    fn downloader_shortens_intervals() {
        // A dense NIC train cuts timer periods into short pieces: the
        // median normalized SegCnt collapses well below idle's.
        let config = ProcFpConfig::quick();
        let dl = observe(&config, AppClass::Downloader, 7);
        let idle = observe(&config, AppClass::Idle, 7);
        assert!(
            dl.q50 < idle.q50 * 0.6,
            "downloader q50 {} vs idle {}",
            dl.q50,
            idle.q50
        );
    }

    #[test]
    fn compiler_raises_the_level() {
        // Heavy victim CPU load raises the shared-domain frequency, so
        // intervals hold more iterations than the quiet calibration.
        let config = ProcFpConfig::quick();
        let compiler = observe(&config, AppClass::Compiler, 8);
        let idle = observe(&config, AppClass::Idle, 8);
        assert!(
            compiler.q90 > idle.q90 * 1.2,
            "compiler q90 {} vs idle {}",
            compiler.q90,
            idle.q90
        );
    }

    #[test]
    fn quick_experiment_identifies_apps() {
        let opts = scenario::RunOptions::default();
        let result = scenario::run_scenario(&ProcFpScenario, &ProcFpConfig::quick(), &opts).summary;
        assert_eq!(result.windows, 12);
        assert!(
            result.accuracy >= 0.75,
            "accuracy {} (chance 0.25)",
            result.accuracy
        );
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = AppClass::ALL.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
