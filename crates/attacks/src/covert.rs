//! Extension case study: a cross-core covert channel (paper Section V,
//! "Other security implications": "SegScope can also be used to
//! demonstrate other frequency-based attacks such as building covert
//! channels").
//!
//! The *sender* — an unprivileged process on another core of the same
//! frequency domain — modulates its power draw in fixed time slots
//! (bit 1 = power-hungry computation, bit 0 = light computation). The
//! *receiver* spins a SegScope probe and decodes each slot from the
//! median SegCnt: lower SegCnt ⇔ lower frequency ⇔ heavy slot ⇔ bit 1.
//! No timer, no shared memory, no syscalls beyond scheduling.

use irq::time::Ps;
use scenario::{Scenario, TrialCtx};
use segscope::SegProbe;
use segsim::{FaultPlan, Machine, MachineConfig, StepFn};
use serde::{Deserialize, Serialize};

/// Channel configuration shared by sender and receiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CovertConfig {
    /// Slot duration (one bit per slot).
    pub slot: Ps,
    /// Power excess drawn during a `1` slot.
    pub high_power: f64,
    /// Power excess drawn during a `0` slot.
    pub low_power: f64,
    /// Number of alternating calibration slots preceding the payload
    /// (`1010…`, also the synchronization preamble).
    pub preamble_bits: usize,
    /// Optional interrupt-path fault plan installed on the receiver's
    /// machine (`None` = nominal fault-free run).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for CovertConfig {
    /// The conservative [`CovertConfig::slow`] channel.
    fn default() -> Self {
        CovertConfig::slow()
    }
}

impl CovertConfig {
    /// A conservative 50 bit/s channel (20 ms slots).
    #[must_use]
    pub fn slow() -> Self {
        CovertConfig {
            slot: Ps::from_ms(20),
            high_power: 0.8,
            low_power: 0.1,
            preamble_bits: 8,
            fault_plan: None,
        }
    }

    /// A faster channel (12 ms slots, ~83 bit/s raw) — the quickest slot
    /// that stays clearly above the governor-lag cliff (shorter slots
    /// leave the frequency no time to settle and the error rate explodes,
    /// as the `ext_covert` sweep shows).
    #[must_use]
    pub fn fast() -> Self {
        CovertConfig {
            slot: Ps::from_ms(12),
            high_power: 0.8,
            low_power: 0.1,
            preamble_bits: 8,
            fault_plan: None,
        }
    }

    /// Installs a fault plan on the receiver's machine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Raw channel rate, bits per second.
    #[must_use]
    pub fn raw_bps(&self) -> f64 {
        1.0 / self.slot.as_secs_f64()
    }
}

/// Encodes `message` as the sender's power schedule starting at `t0`.
/// Returns the schedule and the instant the transmission ends.
#[must_use]
pub fn sender_schedule(config: &CovertConfig, message: &[bool], t0: Ps) -> (StepFn, Ps) {
    let mut schedule = StepFn::zero();
    let mut t = t0;
    for i in 0..config.preamble_bits {
        schedule.push(
            t,
            if i % 2 == 0 {
                config.high_power
            } else {
                config.low_power
            },
        );
        t += config.slot;
    }
    for &bit in message {
        schedule.push(
            t,
            if bit {
                config.high_power
            } else {
                config.low_power
            },
        );
        t += config.slot;
    }
    schedule.push(t, 0.0);
    (schedule, t)
}

/// The outcome of one transmission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CovertResult {
    /// Decoded payload bits.
    pub decoded: Vec<bool>,
    /// Ground-truth payload.
    pub sent: Vec<bool>,
    /// Bit errors.
    pub errors: usize,
    /// Bit error rate.
    pub error_rate: f64,
    /// Effective goodput, bits per simulated second (payload only).
    pub goodput_bps: f64,
    /// Decode diagnostics: the per-slot medians (preamble + payload).
    pub slot_medians: Vec<f64>,
    /// Decode diagnostics: the preamble-derived decision threshold.
    pub threshold: f64,
}

/// Runs one full transmission on the trial's `machine` (fault plan and
/// any trace sink already installed) and decodes it.
///
/// # Panics
///
/// Panics if `message` is empty.
fn transmit_on(machine: &mut Machine, config: &CovertConfig, message: &[bool]) -> CovertResult {
    assert!(!message.is_empty(), "need a payload");
    machine.spin(200_000_000); // governor steady state
    let t0 = machine.now() + Ps::from_ms(2);
    let (schedule, _end) = sender_schedule(config, message, t0);
    machine.set_power_excess(schedule);
    let start = machine.now();

    // Receiver: sample median SegCnt per slot. Slot boundaries come from
    // counting probe ticks against the calibrated slot length — here we
    // use the shared simulation timeline (sender and receiver agree on
    // slot boundaries after preamble sync; the preamble's alternation
    // also yields the decision threshold).
    let mut probe = SegProbe::new();
    let mut slot_medians = Vec::new();
    let total_slots = config.preamble_bits + message.len();
    for slot_idx in 0..total_slots {
        let slot_end = t0 + config.slot * (slot_idx as u64 + 1);
        let mut cnts = Vec::new();
        while machine.now() < slot_end {
            // Bound the probe by the slot end so a quiet slot cannot
            // swallow the next one.
            let remaining = slot_end.saturating_sub(machine.now());
            match probe.probe_once_bounded(machine, remaining) {
                Ok(s) => cnts.push(s.segcnt as f64),
                Err(_) => break, // deadline inside the slot: move on
            }
        }
        // The slot's early intervals straddle the governor's response to
        // the power step, so prefer the settled tail — but short slots
        // only hold a couple of intervals, where averaging beats a biased
        // order statistic.
        let median = match cnts.len() {
            0 => f64::NAN,
            // Short slots: the chronologically-last interval is the most
            // settled one (everything earlier straddles the power step).
            n if n <= 4 => cnts[n - 1],
            n => {
                let tail = &mut cnts[n / 2..];
                tail.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                tail[tail.len() / 2]
            }
        };
        slot_medians.push(median);
    }

    // Threshold from the preamble (known 1010… pattern).
    let mut highs = Vec::new();
    let mut lows = Vec::new();
    for (i, &m) in slot_medians.iter().take(config.preamble_bits).enumerate() {
        if m.is_nan() {
            continue;
        }
        if i % 2 == 0 {
            lows.push(m); // high power => LOW SegCnt
        } else {
            highs.push(m);
        }
    }
    // Medians, not means: a rescheduling/PMI interrupt occasionally
    // splits an interval inside a preamble slot, and a single corrupted
    // class mean would poison the threshold for the whole transmission.
    let robust = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if xs.is_empty() {
            f64::NAN
        } else {
            xs[xs.len() / 2]
        }
    };
    let threshold = (robust(&mut highs.clone()) + robust(&mut lows.clone())) / 2.0;
    let decoded: Vec<bool> = slot_medians
        .iter()
        .skip(config.preamble_bits)
        .map(|&m| m < threshold) // low SegCnt => heavy slot => bit 1
        .collect();
    let errors = decoded.iter().zip(message).filter(|(d, s)| d != s).count();
    let elapsed = (machine.now() - start).as_secs_f64();
    CovertResult {
        errors,
        error_rate: errors as f64 / message.len() as f64,
        goodput_bps: message.len() as f64 / elapsed.max(1e-9),
        decoded,
        sent: message.to_vec(),
        slot_medians,
        threshold,
    }
}

/// Transmits with an `r`-fold repetition code and majority-vote decode:
/// the standard fix for the channel's ~1 % residual bit errors, trading
/// rate for reliability. The coded bits go out as one
/// [`CovertScenario`] trial at `seed`.
///
/// # Panics
///
/// Panics if `message` is empty or `repetition` is even/zero.
#[must_use]
pub fn transmit_reliable(
    config: &CovertConfig,
    message: &[bool],
    repetition: usize,
    seed: u64,
) -> CovertResult {
    assert!(
        repetition % 2 == 1 && repetition > 0,
        "repetition must be odd"
    );
    let coded: Vec<bool> = message
        .iter()
        .flat_map(|&b| std::iter::repeat_n(b, repetition))
        .collect();
    let (channel, payload) = (*config, bits_to_bitstring(&coded));
    let raw = CovertScenario.run_one(&CovertScenarioConfig { channel, payload }, seed);
    let slot_medians = raw.slot_medians.clone();
    let threshold = raw.threshold;
    let decoded: Vec<bool> = raw
        .decoded
        .chunks(repetition)
        .map(|chunk| chunk.iter().filter(|&&b| b).count() * 2 > repetition)
        .collect();
    let errors = decoded.iter().zip(message).filter(|(d, s)| d != s).count();
    CovertResult {
        errors,
        error_rate: errors as f64 / message.len() as f64,
        goodput_bps: raw.goodput_bps / repetition as f64,
        decoded,
        sent: message.to_vec(),
        slot_medians,
        threshold,
    }
}

/// Renders bits as an ASCII `'0'`/`'1'` string (the JSON-friendly
/// payload encoding of [`CovertScenarioConfig`]).
#[must_use]
pub fn bits_to_bitstring(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Parses an ASCII bitstring back into bits, ignoring any characters
/// other than `'0'` and `'1'` (so `"1011 0010"` reads naturally).
#[must_use]
pub fn bitstring_to_bits(s: &str) -> Vec<bool> {
    s.chars()
        .filter(|c| matches!(c, '0' | '1'))
        .map(|c| c == '1')
        .collect()
}

/// The registered covert-channel scenario: each trial is one full
/// transmission of the configured payload over a fresh machine.
pub struct CovertScenario;

/// Parameters of [`CovertScenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CovertScenarioConfig {
    /// Channel timing and power parameters.
    pub channel: CovertConfig,
    /// Payload as an ASCII bitstring (`'0'`/`'1'`; other characters are
    /// separators), so arbitrary bit patterns survive a JSON round trip.
    pub payload: String,
}

impl Default for CovertScenarioConfig {
    /// The slow channel carrying the bits of `b"SEG"`.
    fn default() -> Self {
        CovertScenarioConfig {
            channel: CovertConfig::slow(),
            payload: bits_to_bitstring(&bytes_to_bits(b"SEG")),
        }
    }
}

/// Summary of a [`CovertScenario`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CovertSummary {
    /// Payload length in bits.
    pub payload_bits: usize,
    /// Per-trial bit-error rates, in trial order.
    pub error_rates: Vec<f64>,
    /// Mean bit-error rate across trials.
    pub mean_error_rate: f64,
    /// Mean goodput across trials, bits per simulated second.
    pub mean_goodput_bps: f64,
    /// Total bit errors across trials.
    pub total_errors: usize,
}

impl Scenario for CovertScenario {
    type Config = CovertScenarioConfig;
    type TrialOutput = CovertResult;
    type Summary = CovertSummary;

    fn name(&self) -> &'static str {
        "covert"
    }

    fn describe(&self) -> &'static str {
        "cross-core covert channel over the DVFS frequency side effect (paper Section V)"
    }

    fn experiment_seed(&self, _config: &Self::Config, requested: Option<u64>) -> u64 {
        requested.unwrap_or(0xC07E)
    }

    fn trial_count(&self, _config: &Self::Config, requested: Option<usize>) -> usize {
        requested.unwrap_or(3)
    }

    fn machine(&self, _config: &Self::Config, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (MachineConfig::lenovo_yangtian(), ctx.seed)
    }

    fn wire(&self, config: &Self::Config, machine: &mut Machine, _ctx: &TrialCtx) {
        machine.set_fault_plan(config.channel.fault_plan);
    }

    fn check_config(&self, config: &Self::Config) -> Result<(), String> {
        if bitstring_to_bits(&config.payload).is_empty() {
            return Err("`payload` must carry at least one `0`/`1` bit".to_owned());
        }
        Ok(())
    }

    fn run_trial(
        &self,
        config: &Self::Config,
        machine: &mut Machine,
        _ctx: &TrialCtx,
    ) -> CovertResult {
        transmit_on(
            machine,
            &config.channel,
            &bitstring_to_bits(&config.payload),
        )
    }

    fn summarize(&self, config: &Self::Config, outputs: &[CovertResult]) -> CovertSummary {
        CovertSummary {
            payload_bits: bitstring_to_bits(&config.payload).len(),
            error_rates: outputs.iter().map(|r| r.error_rate).collect(),
            mean_error_rate: crate::mean_of(outputs.iter().map(|r| r.error_rate)),
            mean_goodput_bps: crate::mean_of(outputs.iter().map(|r| r.goodput_bps)),
            total_errors: outputs.iter().map(|r| r.errors).sum(),
        }
    }
}

/// Encodes a byte string little-bit-first.
#[must_use]
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|&b| (0..8).map(move |i| (b >> i) & 1 == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::RunOptions;

    /// Decodes bits back into bytes (inverse of [`bytes_to_bits`]).
    fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
        bits.chunks(8)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u8, |acc, (i, &b)| acc | (u8::from(b) << i))
            })
            .collect()
    }

    fn send(channel: CovertConfig, message: &[bool], seed: u64) -> CovertResult {
        let payload = bits_to_bitstring(message);
        CovertScenario.run_one(&CovertScenarioConfig { channel, payload }, seed)
    }

    #[test]
    fn bit_byte_round_trip() {
        let data = b"SegScope!";
        assert_eq!(bits_to_bytes(&bytes_to_bits(data)), data);
        assert!(bytes_to_bits(&[0b1010_0001])[0]);
        assert!(!bytes_to_bits(&[0b1010_0001])[1]);
    }

    #[test]
    fn slow_channel_has_low_raw_error() {
        let message = bytes_to_bits(b"COVERT CHANNEL TEST MESSAGE");
        let result = send(CovertConfig::slow(), &message, 0xC07E);
        assert!(
            result.error_rate <= 0.05,
            "raw error rate {} too high",
            result.error_rate
        );
        // Goodput close to the raw slot rate.
        assert!(
            result.goodput_bps > 0.5 * CovertConfig::slow().raw_bps(),
            "goodput {}",
            result.goodput_bps
        );
    }

    #[test]
    fn repetition_code_delivers_error_free() {
        let message = bytes_to_bits(b"COVERT");
        let result = transmit_reliable(&CovertConfig::slow(), &message, 3, 0xC07F);
        assert_eq!(
            result.errors,
            0,
            "decoded {:?}",
            bits_to_bytes(&result.decoded)
        );
        assert_eq!(bits_to_bytes(&result.decoded), b"COVERT");
    }

    #[test]
    #[should_panic(expected = "repetition must be odd")]
    fn even_repetition_rejected() {
        let _ = transmit_reliable(&CovertConfig::slow(), &[true], 2, 0);
    }

    #[test]
    fn faster_slots_trade_errors_for_rate() {
        let message: Vec<bool> = (0..96).map(|i| (i * 7) % 3 == 0).collect();
        let slow = send(CovertConfig::slow(), &message, 0x51);
        let fast = send(CovertConfig::fast(), &message, 0x51);
        assert!(fast.goodput_bps > slow.goodput_bps * 1.5);
        assert!(
            fast.error_rate <= 0.25,
            "fast channel unusable: {}",
            fast.error_rate
        );
        assert!(slow.error_rate <= fast.error_rate + 0.05);
    }

    #[test]
    fn traced_transmission_matches_untraced() {
        let cfg = CovertScenarioConfig {
            channel: CovertConfig::slow(),
            payload: bits_to_bitstring(&bytes_to_bits(b"OBS")),
        };
        let opts = RunOptions {
            seed: Some(0xC080),
            trials: Some(1),
            ..RunOptions::default()
        };
        let plain = scenario::run_scenario(&CovertScenario, &cfg, &opts);
        let traced = scenario::run_scenario(
            &CovertScenario,
            &cfg,
            &RunOptions {
                capacity: 1 << 16,
                ..opts
            },
        );
        assert_eq!(
            traced.outputs, plain.outputs,
            "tracing must not perturb the channel"
        );
        let sink = traced.sink.expect("traced run");
        assert!(
            sink.count_class(obs::EventClass::FreqTransition) > 0,
            "sender modulation must surface as frequency transitions"
        );
        assert!(sink.count_class(obs::EventClass::ProbeSample) > 0);
    }

    #[test]
    fn bitstring_round_trip() {
        let bits = bytes_to_bits(b"SegScope");
        assert_eq!(bitstring_to_bits(&bits_to_bitstring(&bits)), bits);
        assert_eq!(bitstring_to_bits("10 1x1"), vec![true, false, true, true]);
    }

    #[test]
    fn schedule_shape() {
        let cfg = CovertConfig::slow();
        let (schedule, end) = sender_schedule(&cfg, &[true, false, true], Ps::from_ms(10));
        // Preamble 8 + payload 3 slots of 20 ms starting at 10 ms.
        assert_eq!(end, Ps::from_ms(10 + 11 * 20));
        assert_eq!(schedule.value_at(Ps::from_ms(10)), cfg.high_power); // preamble 1
        assert_eq!(schedule.value_at(Ps::from_ms(30)), cfg.low_power); // preamble 0
        assert_eq!(schedule.value_at(end), 0.0);
    }
}
