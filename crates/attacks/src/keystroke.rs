//! Extension case study: keystroke monitoring (paper Section V, "Other
//! security implications": SegScope can mount the interrupt side
//! channels of Trostle / Lipp et al. / Schwarz et al., i.e. recover
//! keystroke timings).
//!
//! The victim types on the keyboard; every key press raises a keyboard
//! interrupt on the attacker's core. The attacker probes with SegScope
//! and classifies each probed edge as *timer* (periodic, concentrated
//! SegCnt) or *other*; the non-timer edges' timestamps recover the
//! inter-keystroke timing — the signal classical keystroke-dynamics
//! attacks use to infer what (or who) is typing.
//!
//! Timestamps are reconstructed **without any clock** by summing SegCnt:
//! the cumulative tick count at each edge is a monotone time axis (ticks
//! ≈ cycles / k), which is all inter-keystroke *ratios* need.

use irq::time::Ps;
use irq::InterruptKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scenario::{Scenario, TrialCtx};
use segscope::{SegProbe, TimerEdgeClassifier};
use segsim::{FaultPlan, Machine, MachineConfig};
use serde::{Deserialize, Serialize};

/// A typing-rhythm profile: per-user inter-keystroke timing parameters.
///
/// Keystroke-dynamics literature models inter-key delays as log-normal;
/// the (mu, sigma) pair is a stable biometric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TypistProfile {
    /// Log-normal mu of the inter-keystroke delay (ln seconds).
    pub mu: f64,
    /// Log-normal sigma.
    pub sigma: f64,
}

impl TypistProfile {
    /// A deterministic profile for user `id` (used to build a cohort).
    #[must_use]
    pub fn for_user(id: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(0x7E57_u64 ^ (id as u64).wrapping_mul(0x9E37_79B9));
        TypistProfile {
            // Mean inter-key delay between ~90 ms and ~260 ms.
            mu: rng.gen_range(-2.4..-1.35),
            sigma: rng.gen_range(0.18..0.42),
        }
    }

    /// Draws one typing session of `keys` keystrokes starting at `t0`,
    /// returning the key-press instants.
    pub fn type_session<R: Rng + ?Sized>(&self, t0: Ps, keys: usize, rng: &mut R) -> Vec<Ps> {
        let mut t = t0;
        let mut out = Vec::with_capacity(keys);
        for _ in 0..keys {
            let delay_s = irq::dist::log_normal(rng, self.mu, self.sigma);
            t += Ps::from_secs_f64(delay_s.clamp(0.02, 2.0));
            out.push(t);
        }
        out
    }
}

/// One recovered keystroke trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeystrokeTrace {
    /// Recovered keystroke instants on the attacker's tick axis
    /// (cumulative SegCnt at each detected keystroke edge).
    pub tick_times: Vec<f64>,
    /// Ground truth: how many keystrokes the victim actually typed.
    pub actual_keys: usize,
    /// Ground truth: true keystroke instants.
    pub actual_times: Vec<Ps>,
}

impl KeystrokeTrace {
    /// Number of keystrokes detected.
    #[must_use]
    pub fn detected_keys(&self) -> usize {
        self.tick_times.len()
    }

    /// Inter-keystroke intervals on the tick axis.
    #[must_use]
    pub fn tick_intervals(&self) -> Vec<f64> {
        self.tick_times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Normalized timing signature: each interval divided by the mean
    /// interval (scale-free, so no tick↔second conversion is needed).
    #[must_use]
    pub fn signature(&self) -> Vec<f64> {
        let intervals = self.tick_intervals();
        let mean = segscope::mean(&intervals).max(1e-9);
        intervals.into_iter().map(|x| x / mean).collect()
    }

    /// Log-statistics of the intervals `(mean of ln, std of ln)` — the
    /// biometric feature pair.
    #[must_use]
    pub fn log_stats(&self) -> (f64, f64) {
        let logs: Vec<f64> = self
            .tick_intervals()
            .into_iter()
            .filter(|&x| x > 0.0)
            .map(f64::ln)
            .collect();
        (segscope::mean(&logs), segscope::std_dev(&logs))
    }
}

/// The keystroke monitor: SegScope probing plus Z-score edge
/// classification.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeystrokeMonitor {
    /// Calibration probes used to learn the timer-edge band.
    pub calibration: usize,
}

impl KeystrokeMonitor {
    /// A monitor with the default calibration budget.
    #[must_use]
    pub fn new() -> Self {
        KeystrokeMonitor { calibration: 300 }
    }

    /// Monitors a typing session: the victim types `session` while the
    /// attacker probes; returns the recovered trace.
    ///
    /// # Panics
    ///
    /// Panics if the probe is mitigated (stock machines never are).
    pub fn monitor(&self, machine: &mut Machine, session: &[Ps]) -> KeystrokeTrace {
        let mut probe = SegProbe::new();
        // Calibrate the timer-edge classifier on pre-session quiet. The
        // calibration buffer doubles as the f64 scratch's source, and the
        // session loop below probes one sample at a time (no allocation).
        let mut calib = Vec::new();
        probe
            .probe_n_into(machine, self.calibration, &mut calib)
            .expect("probe works");
        let segcnts: Vec<f64> = calib.iter().map(|s| s.segcnt as f64).collect();
        let classifier = TimerEdgeClassifier::fit(&segcnts);
        // Inject the keyboard interrupts and monitor until the session
        // ends (plus one period of slack).
        machine.inject_interrupts(session.iter().map(|&t| (t, InterruptKind::Keyboard)));
        let session_end = *session.last().expect("non-empty session") + Ps::from_ms(20);
        let mut ticks = 0.0f64;
        let mut tick_times = Vec::new();
        // A keystroke splits one timer period into two short intervals:
        // the piece *ending at* the keystroke and the complement ending
        // at the next timer tick. Only the first piece is a keystroke
        // edge; a short interval that completes the period (the running
        // sum returns to the timer band) is the complement and must not
        // be double-counted.
        let mut since_timer_edge: Option<f64> = None;
        while machine.now() < session_end {
            let Ok(sample) = probe.probe_once(machine) else {
                break;
            };
            let cnt = sample.segcnt as f64;
            ticks += cnt;
            if classifier.is_timer_edge(cnt) {
                since_timer_edge = None;
                continue;
            }
            match since_timer_edge {
                Some(sum) if classifier.is_timer_edge(sum + cnt) => {
                    // Complement piece: the period is complete.
                    since_timer_edge = None;
                }
                Some(sum) => {
                    tick_times.push(ticks);
                    since_timer_edge = Some(sum + cnt);
                }
                None => {
                    tick_times.push(ticks);
                    since_timer_edge = Some(cnt);
                }
            }
        }
        KeystrokeTrace {
            tick_times,
            actual_keys: session.len(),
            actual_times: session.to_vec(),
        }
    }
}

/// Result of the user-identification experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdentifyResult {
    /// Fraction of sessions attributed to the right user.
    pub accuracy: f64,
    /// Number of users in the cohort.
    pub users: usize,
    /// Sessions evaluated.
    pub sessions: usize,
}

/// Configuration of the identification experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeystrokeConfig {
    /// The monitored machine. Countermeasures ([`segsim::Defense`]) and
    /// enclave state travel inside, so a campaign defense axis reaches
    /// the monitor without new plumbing.
    pub machine: MachineConfig,
    /// Cohort size.
    pub users: usize,
    /// Enrollment sessions per user.
    pub enroll_sessions: usize,
    /// Test sessions per user.
    pub test_sessions: usize,
    /// Keystrokes per session.
    pub keys_per_session: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional interrupt-path fault plan installed on every monitoring
    /// machine (`None` = nominal fault-free run).
    pub fault_plan: Option<FaultPlan>,
    /// Streaming-eval mode: each monitored session's normalized timing
    /// signature is streamed through a config-seeded [`serve`]
    /// classifier and the verdict is recorded as a
    /// [`obs::EventKind::ServeVerdict`] in the trial's trace sink. The
    /// classifier draws only from its own auxiliary stream and serving
    /// is RNG-free, so recovered traces — and golden dumps — are
    /// byte-identical with the flag off or on.
    #[serde(default)]
    pub streaming: bool,
}

impl Default for KeystrokeConfig {
    /// The test-scale [`KeystrokeConfig::quick`] experiment.
    fn default() -> Self {
        KeystrokeConfig::quick()
    }
}

impl KeystrokeConfig {
    /// Test-scale configuration.
    #[must_use]
    pub fn quick() -> Self {
        KeystrokeConfig {
            machine: MachineConfig::xiaomi_air13(),
            users: 5,
            enroll_sessions: 3,
            test_sessions: 2,
            keys_per_session: 40,
            seed: 0x5E55,
            fault_plan: None,
            streaming: false,
        }
    }

    /// Installs a fault plan on every monitoring machine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// The keystroke trial body: spin to governor steady state, draw the
/// victim's typing session, and monitor it.
fn monitor_session_on(
    machine: &mut Machine,
    profile: &TypistProfile,
    keys: usize,
    trial_seed: u64,
) -> KeystrokeTrace {
    machine.spin(100_000_000);
    let mut rng = SmallRng::seed_from_u64(exec::derive_seed(trial_seed, exec::AUX_STREAM));
    let start = machine.now() + Ps::from_ms(1_600); // calibration quiet time
    let session = profile.type_session(start, keys, &mut rng);
    KeystrokeMonitor::new().monitor(machine, &session)
}

/// The registered keystroke scenario: the full user-identification
/// experiment. Trials `0..users * enroll_sessions` are enrollment
/// sessions (user `i / enroll_sessions`); the remaining
/// `users * test_sessions` trials are test sessions — one uniform seed
/// stream, so the two sets never share a seed.
pub struct KeystrokeScenario;

impl Scenario for KeystrokeScenario {
    type Config = KeystrokeConfig;
    type TrialOutput = (f64, f64);
    type Summary = IdentifyResult;

    fn name(&self) -> &'static str {
        "keystroke"
    }

    fn describe(&self) -> &'static str {
        "keystroke-timing recovery and typist identification from interrupt edges (paper Section V)"
    }

    fn experiment_seed(&self, config: &Self::Config, requested: Option<u64>) -> u64 {
        requested.unwrap_or(config.seed)
    }

    fn trial_count(&self, config: &Self::Config, _requested: Option<usize>) -> usize {
        // Structured: one trial per (user, session) pair, enrollment
        // first. `--trials` cannot change the experiment's shape.
        config.users * (config.enroll_sessions + config.test_sessions)
    }

    fn machine(&self, config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (config.machine.clone(), ctx.seed)
    }

    fn wire(&self, config: &Self::Config, machine: &mut Machine, _ctx: &TrialCtx) {
        if config.fault_plan.is_some() {
            machine.set_fault_plan(config.fault_plan);
        }
    }

    fn check_config(&self, config: &Self::Config) -> Result<(), String> {
        crate::at_least_one("keys_per_session", config.keys_per_session)?;
        crate::at_least_one("enroll_sessions", config.enroll_sessions)
    }

    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> (f64, f64) {
        let enroll_tasks = config.users * config.enroll_sessions;
        let user = if ctx.index < enroll_tasks {
            ctx.index / config.enroll_sessions.max(1)
        } else {
            (ctx.index - enroll_tasks) / config.test_sessions.max(1)
        };
        let profile = TypistProfile::for_user(user);
        let trace = monitor_session_on(machine, &profile, config.keys_per_session, ctx.seed);
        if config.streaming {
            let xs: Vec<Vec<f32>> = trace.signature().iter().map(|&x| vec![x as f32]).collect();
            crate::emit_serve_verdict(
                machine,
                config.seed,
                (1, 8, config.users.max(2)),
                ctx.index,
                &xs,
            );
        }
        trace.log_stats()
    }

    fn summarize(&self, config: &Self::Config, outputs: &[(f64, f64)]) -> IdentifyResult {
        let enroll_tasks = config.users * config.enroll_sessions;
        let (enroll_stats, test_stats) = outputs.split_at(enroll_tasks.min(outputs.len()));
        let centroids: Vec<(f64, f64)> = enroll_stats
            .chunks(config.enroll_sessions.max(1))
            .map(|stats| {
                let mus: Vec<f64> = stats.iter().map(|s| s.0).collect();
                let sigmas: Vec<f64> = stats.iter().map(|s| s.1).collect();
                (segscope::mean(&mus), segscope::mean(&sigmas))
            })
            .collect();
        let test_tasks = config.users * config.test_sessions;
        let mut hits = 0usize;
        for (i, &(m, sd)) in test_stats.iter().enumerate() {
            let u = i / config.test_sessions.max(1);
            let guess = centroids
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    let da = (a.1 .0 - m).powi(2) + 4.0 * (a.1 .1 - sd).powi(2);
                    let db = (b.1 .0 - m).powi(2) + 4.0 * (b.1 .1 - sd).powi(2);
                    da.partial_cmp(&db).expect("finite")
                })
                .map(|(i, _)| i)
                .expect("non-empty cohort");
            hits += usize::from(guess == u);
        }
        IdentifyResult {
            accuracy: hits as f64 / test_tasks.max(1) as f64,
            users: config.users,
            sessions: test_tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::RunOptions;

    /// Monitors one `keys`-keystroke session of `profile` on a fresh
    /// quick-config monitoring machine booted at `seed`.
    fn session_trace(profile: &TypistProfile, seed: u64, keys: usize) -> KeystrokeTrace {
        let ctx = TrialCtx {
            index: 0,
            seed,
            experiment_seed: seed,
        };
        let mut machine = KeystrokeScenario.build_machine(&KeystrokeConfig::quick(), &ctx);
        monitor_session_on(&mut machine, profile, keys, seed)
    }

    /// A compact traced run: two users, one enrollment and one test
    /// session of eight keys each.
    fn traced_config() -> KeystrokeConfig {
        KeystrokeConfig {
            users: 2,
            enroll_sessions: 1,
            test_sessions: 1,
            keys_per_session: 8,
            ..KeystrokeConfig::quick()
        }
    }

    fn traced_run(
        config: &KeystrokeConfig,
        threads: usize,
    ) -> scenario::ScenarioRun<(f64, f64), IdentifyResult> {
        let opts = RunOptions {
            threads: Some(threads),
            capacity: 1 << 15,
            ..RunOptions::default()
        };
        scenario::run_scenario(&KeystrokeScenario, config, &opts)
    }

    #[test]
    fn traced_sessions_reconcile_and_are_thread_invariant() {
        let config = traced_config();
        let reference = traced_run(&config, 1);
        assert_eq!(reference.outputs.len(), 4);
        let sink = reference.sink.as_ref().expect("tracing enabled");
        assert_eq!(sink.dropped(), 0, "ring must not overflow");
        // Every ground-truth delivery shows up in the merged trace.
        assert_eq!(
            sink.count_class(obs::EventClass::IrqDelivered) as u64,
            reference.total_gt_deliveries()
        );
        assert!(sink.count_class(obs::EventClass::ProbeSample) > 0);
        for threads in [2, 4] {
            assert_eq!(
                traced_run(&config, threads),
                reference,
                "trace differs at {threads} threads"
            );
        }
    }

    #[test]
    fn monitor_recovers_keystroke_count() {
        let profile = TypistProfile::for_user(0);
        let trace = session_trace(&profile, 0xAB, 30);
        // Detected count within a small tolerance of the truth (PMIs add
        // the occasional extra edge; overlapping keys may merge).
        let detected = trace.detected_keys() as i64;
        let actual = trace.actual_keys as i64;
        assert!(
            (detected - actual).abs() <= 3,
            "detected {detected} vs actual {actual}"
        );
    }

    #[test]
    fn recovered_intervals_correlate_with_truth() {
        let profile = TypistProfile {
            mu: -1.6,
            sigma: 0.4,
        };
        let trace = session_trace(&profile, 0xC21, 35);
        // Compare normalized signatures where counts line up.
        let recovered = trace.signature();
        let truth: Vec<f64> = trace
            .actual_times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let tmean = segscope::mean(&truth);
        let truth_norm: Vec<f64> = truth.iter().map(|x| x / tmean).collect();
        if recovered.len() == truth_norm.len() {
            // Pearson correlation of normalized interval sequences.
            let n = recovered.len() as f64;
            let mx = segscope::mean(&recovered);
            let my = segscope::mean(&truth_norm);
            let mut sxy = 0.0;
            let mut sxx = 0.0;
            let mut syy = 0.0;
            for (x, y) in recovered.iter().zip(&truth_norm) {
                sxy += (x - mx) * (y - my);
                sxx += (x - mx) * (x - mx);
                syy += (y - my) * (y - my);
            }
            let r = sxy / (sxx * syy).sqrt().max(1e-12);
            assert!(r > 0.9, "interval correlation {r} (n = {n})");
        } else {
            // Counts differ by a merged/extra edge: still demand close
            // length agreement.
            assert!((recovered.len() as i64 - truth_norm.len() as i64).abs() <= 3);
        }
    }

    #[test]
    fn users_are_identifiable_from_rhythm() {
        let config = KeystrokeConfig::quick();
        let result = scenario::run_scenario(&KeystrokeScenario, &config, &RunOptions::default());
        let result = result.summary;
        let chance = 1.0 / result.users as f64;
        assert!(
            result.accuracy > 2.0 * chance,
            "accuracy {} vs chance {chance}",
            result.accuracy
        );
    }

    #[test]
    fn profiles_are_deterministic_and_distinct() {
        assert_eq!(TypistProfile::for_user(2), TypistProfile::for_user(2));
        assert_ne!(TypistProfile::for_user(2), TypistProfile::for_user(3));
    }

    /// Streaming eval rides along as pure observability: one
    /// `ServeVerdict` per monitored session, with every other event —
    /// and the recovered traces themselves — byte-identical to a
    /// non-streaming run.
    #[test]
    fn streaming_sessions_emit_verdicts_without_perturbing_traces() {
        let mut config = traced_config();
        let baseline = traced_run(&config, 1);
        config.streaming = true;
        let streamed = traced_run(&config, 1);
        assert_eq!(streamed.outputs, baseline.outputs);
        assert_eq!(streamed.summary, baseline.summary);
        let events = streamed.sink.expect("tracing enabled").events();
        let verdicts: Vec<_> = events
            .iter()
            .filter(|e| e.class() == obs::EventClass::ServeVerdict)
            .collect();
        assert_eq!(verdicts.len(), 4, "one verdict per session");
        for (session, verdict) in verdicts.iter().enumerate() {
            let obs::EventKind::ServeVerdict {
                session: s, class, ..
            } = verdict.kind
            else {
                unreachable!()
            };
            assert_eq!(s as usize, session);
            assert!((class as usize) < config.users);
        }
        let without_verdicts: Vec<_> = events
            .iter()
            .filter(|e| e.class() != obs::EventClass::ServeVerdict)
            .copied()
            .collect();
        assert_eq!(
            without_verdicts,
            baseline.sink.expect("tracing enabled").events()
        );
    }

    #[test]
    fn session_generation_is_ordered() {
        let profile = TypistProfile::for_user(1);
        let mut rng = SmallRng::seed_from_u64(5);
        let session = profile.type_session(Ps::from_ms(10), 20, &mut rng);
        assert_eq!(session.len(), 20);
        assert!(session.windows(2).all(|w| w[0] < w[1]));
        assert!(session[0] > Ps::from_ms(10));
    }
}
