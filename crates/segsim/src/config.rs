//! Machine configurations, including presets for the paper's Table I
//! test machines.

use crate::freq::FreqConfig;
use irq::time::Ps;
use irq::{FaultPlan, HandlerCostModel};
use serde::{Deserialize, Serialize};

/// CPU vendor: selects which high-resolution timestamp instruction the
/// machine offers (`rdtsc` on Intel, `rdpru` on AMD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// Intel CPUs: `rdtsc`/`rdtscp`.
    Intel,
    /// AMD CPUs: `rdpru` (and `rdtsc` with reduced resolution since Zen).
    Amd,
}

/// Hypervisor hosting the guest, if any (the Amazon instances of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Hypervisor {
    /// Xen-based virtualization (t2 instances): adds steal-time noise.
    Xen,
    /// KVM/Nitro-based virtualization (c5 instances): lighter noise.
    Kvm,
}

/// Microarchitectural noise parameters for guest operations.
///
/// The tail component is what produces the false positives of the
/// timestamp-jump detector (paper Fig. 5a): even without an interrupt, a
/// loop iteration occasionally stalls long enough to cross an empirical
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Gaussian jitter applied per operation, cycles (std).
    pub op_jitter_std: f64,
    /// Probability any single operation hits a heavy-tail stall.
    pub tail_prob: f64,
    /// Scale of tail stalls, cycles (log-uniform between `tail_min` and
    /// `tail_max`).
    pub tail_min: f64,
    /// Upper bound of tail stalls, cycles.
    pub tail_max: f64,
    /// Extra multiplicative noise from an active SMT sibling (1.0 = none).
    pub smt_factor: f64,
    /// Mean user-side cycle loss after an interrupt (pipeline + cache
    /// refill once execution resumes). This is what makes a loop counter
    /// "plunge" in interrupted windows (paper Fig. 5b).
    pub refill_mean: f64,
    /// Standard deviation of the refill loss, cycles.
    pub refill_std: f64,
}

impl NoiseModel {
    /// A quiet physical machine.
    #[must_use]
    pub fn quiet() -> Self {
        NoiseModel {
            op_jitter_std: 1.2,
            tail_prob: 3.0e-7,
            tail_min: 600.0,
            tail_max: 24_000.0,
            smt_factor: 1.0,
            refill_mean: 10_000.0,
            refill_std: 1_500.0,
        }
    }

    /// A noisy virtualized instance (steal time, nested paging).
    #[must_use]
    pub fn virtualized() -> Self {
        NoiseModel {
            op_jitter_std: 2.5,
            tail_prob: 9.0e-7,
            tail_min: 900.0,
            tail_max: 60_000.0,
            smt_factor: 1.0,
            refill_mean: 18_000.0,
            refill_std: 4_000.0,
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::quiet()
    }
}

/// Interrupt-side countermeasure applied at the delivery boundary.
///
/// Defenses model what a *defender* (enclave runtime, kernel, or
/// trusted hypervisor) does about the kernel exits the attacker counts.
/// They are orthogonal to the victim-side mitigations already on
/// [`MachineConfig`] (`preserve_selectors`, `restrict_segment_writes`):
/// those remove the architectural footprint, defenses remove or drown
/// the *signal* in the exit stream itself.
///
/// `Defense::None` takes zero extra branches on the delivery path and
/// draws no RNG, so a machine configured without a defense reproduces
/// the pre-defense trace bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Defense {
    /// No countermeasure — the SegScope baseline.
    #[default]
    None,
    /// QuanShield-style self-destructing enclave: the first asynchronous
    /// enclave exit permanently tears the enclave down, so an
    /// interrupt-counting attacker gets at most one AEX worth of signal.
    QuanShield,
    /// Deterministic interrupt padding: synthetic kernel exits are
    /// inserted on a fixed time grid so that the exit stream the
    /// attacker observes is (nearly) independent of the victim's
    /// secret-dependent work. Pads are fully deterministic — they draw
    /// no RNG — so enabling padding shifts *when* real interrupts land
    /// relative to the victim but never perturbs the RNG stream order.
    Padding {
        /// Grid period: one synthetic exit every `quantum` of simulated
        /// time while the machine runs.
        quantum: Ps,
        /// Fixed kernel-side cost charged per synthetic exit.
        exit_cost: Ps,
    },
}

impl Defense {
    /// Stable names accepted by `Defense::by_name` (CLI `--defense`
    /// values, campaign defense-axis names).
    pub const NAMES: [&'static str; 3] = ["none", "quanshield", "padding"];

    /// Default padding grid: 4 synthetic exits per timer tick at HZ=250.
    #[must_use]
    pub fn default_padding() -> Self {
        Defense::Padding {
            quantum: Ps::from_ms(1),
            exit_cost: Ps::from_us(4),
        }
    }

    /// Looks a defense up by its stable name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Defense> {
        match name {
            "none" => Some(Defense::None),
            "quanshield" => Some(Defense::QuanShield),
            "padding" => Some(Defense::default_padding()),
            _ => None,
        }
    }

    /// The stable name (`NAMES` entry) of this defense.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Defense::None => "none",
            Defense::QuanShield => "quanshield",
            Defense::Padding { .. } => "padding",
        }
    }

    /// `true` for [`Defense::None`] — the delivery path's fast-path
    /// check.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, Defense::None)
    }
}

/// Full static configuration of a simulated machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable machine name (Table I row).
    pub name: String,
    /// CPU vendor.
    pub vendor: Vendor,
    /// Hypervisor, if the machine is a cloud instance.
    pub hypervisor: Option<Hypervisor>,
    /// Frequency-domain configuration.
    pub freq: FreqConfig,
    /// APIC timer frequency (HZ), ticks per second.
    pub timer_hz: f64,
    /// Gaussian jitter on timer edges.
    pub timer_jitter: Ps,
    /// Interrupt-handler cost model.
    pub handler_model: HandlerCostModel,
    /// Rate of performance-monitoring interrupts on an idle isolated core
    /// (the paper's baseline observes ~3 per 10 s).
    pub pmi_rate_hz: f64,
    /// Rate of rescheduling IPIs on an idle isolated core.
    pub resched_rate_hz: f64,
    /// Cycles one iteration of the SegScope check loop costs (`k` in
    /// Eq. 1; fractional because the unrolled loop retires more than one
    /// increment per cycle on wide cores).
    pub probe_iter_cycles: f64,
    /// Cycles one iteration of a counting-thread increment costs on the
    /// SMT sibling.
    pub counting_thread_iter_cycles: f64,
    /// Relative noise of the counting thread (SMT port contention), as a
    /// fraction of elapsed cycles (std).
    pub counting_thread_noise: f64,
    /// Counting-thread disturbance per kernel entry on the sibling
    /// (counter increments, std per entry): faults and interrupts on the
    /// attacker's logical core stall the SMT sibling, which is why the
    /// counting thread collapses under the fault storm of direct-access
    /// KASLR probing (paper Table VII).
    pub counting_thread_kick: f64,
    /// Cost of `rdtsc`/`rdpru`, cycles.
    pub rdtsc_cycles: u64,
    /// Cost of writing a data-segment register, cycles.
    pub wrseg_cycles: u64,
    /// Cost of reading a data-segment register's visible selector, cycles.
    pub rdseg_cycles: u64,
    /// Cost of a coarse clock read (vDSO `clock_gettime`), cycles.
    pub clock_read_cycles: u64,
    /// Microarchitectural noise parameters.
    pub noise: NoiseModel,
    /// `CR4.TSD` set: unprivileged `rdtsc`/`rdpru` fault (the
    /// timer-constrained threat model).
    pub cr4_tsd: bool,
    /// Tickless (NOHZ_FULL) mode: the timer source is suppressed while a
    /// single task runs.
    pub tickless: bool,
    /// Future-architecture mitigation: `iret` preserves non-zero null
    /// selectors instead of clearing them (paper Section V).
    pub preserve_selectors: bool,
    /// Mitigation: unprivileged writes to data-segment registers fault.
    pub restrict_segment_writes: bool,
    /// Opt-in interrupt-path fault injection (conformance testing only;
    /// `None` preserves the machine's RNG stream bit-for-bit).
    pub fault_plan: Option<FaultPlan>,
    /// Interrupt-side countermeasure applied at the delivery boundary
    /// (`Defense::None` preserves the machine's trace and RNG stream
    /// bit-for-bit).
    pub defense: Defense,
}

impl MachineConfig {
    /// The highest interrupt rate [`MachineConfig::validate`] accepts
    /// for the timer and each Poisson source: 100 kHz, a hundred times
    /// the fastest preset's 1 kHz timer. A KASLR trial at this rate on
    /// every source takes seconds; at 10^12 Hz one never finishes.
    pub const MAX_RATE_HZ: f64 = 1e5;

    /// The frequency the invariant TSC ticks at, kHz.
    ///
    /// Modeled as the sustained single-core turbo frequency: under the
    /// attack's pinned spin load the core runs there, so one TSC tick ≈
    /// one executed cycle — which is what makes the Table III granularity
    /// ratios land near `1 / probe_iter_cycles`.
    #[must_use]
    pub fn tsc_khz(&self) -> u64 {
        self.freq.max_khz
    }

    /// Checks the ranges a machine needs to boot and run: a booted
    /// machine asserts some of them (a positive timer rate, ordered
    /// frequency and handler-cost bounds) and loops forever without
    /// others (a zero P-state step or governor period, or an interrupt
    /// source firing faster than a trial can ever drain: every rate is
    /// at most [`MachineConfig::MAX_RATE_HZ`]). Every preset passes.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field by its path in this
    /// config (`freq.max_khz`).
    pub fn validate(&self) -> Result<(), String> {
        if self.timer_hz <= 0.0 {
            return Err(format!(
                "`timer_hz` must be positive, got {}",
                self.timer_hz
            ));
        }
        for (field, rate) in [
            ("timer_hz", self.timer_hz),
            ("pmi_rate_hz", self.pmi_rate_hz),
            ("resched_rate_hz", self.resched_rate_hz),
        ] {
            if rate.is_nan() || rate > Self::MAX_RATE_HZ {
                return Err(format!(
                    "`{field}` must be at most {} Hz, got {rate}",
                    Self::MAX_RATE_HZ
                ));
            }
        }
        let f = &self.freq;
        if f.max_khz < f.min_khz {
            return Err(format!(
                "`freq.max_khz` ({}) must not be below `freq.min_khz` ({})",
                f.max_khz, f.min_khz
            ));
        }
        if f.step_khz == 0 {
            return Err("`freq.step_khz` must be at least 1".to_owned());
        }
        if f.update_period == Ps::ZERO {
            return Err("`freq.update_period` must be at least 1 ps".to_owned());
        }
        for (kind, p) in self.handler_model.named_params() {
            if p.body_lo > p.body_hi {
                return Err(format!(
                    "`handler_model.{kind}.body_lo` ({}) must not exceed \
                     `handler_model.{kind}.body_hi` ({})",
                    p.body_lo, p.body_hi
                ));
            }
        }
        Ok(())
    }

    /// Table I row 1: Xiaomi Air 13.3 — Intel Core i5-8250U, HZ=250.
    #[must_use]
    pub fn xiaomi_air13() -> Self {
        MachineConfig {
            name: "Xiaomi Air 13.3 (i5-8250U)".to_owned(),
            vendor: Vendor::Intel,
            hypervisor: None,
            freq: FreqConfig::mobile(1_600, 3_400),
            timer_hz: 250.0,
            timer_jitter: Ps::from_ns(80),
            handler_model: HandlerCostModel::paper_default(),
            pmi_rate_hz: 0.3,
            resched_rate_hz: 0.02,
            probe_iter_cycles: 1.075, // granularity ~0.93
            counting_thread_iter_cycles: 1.85,
            counting_thread_noise: 1.1e-5,
            counting_thread_kick: 1_500.0,
            rdtsc_cycles: 24,
            wrseg_cycles: 60,
            rdseg_cycles: 5,
            clock_read_cycles: 40,
            noise: NoiseModel {
                refill_std: 1_600.0,
                ..NoiseModel::quiet()
            },
            cr4_tsd: false,
            tickless: false,
            preserve_selectors: false,
            restrict_segment_writes: false,
            fault_plan: None,
            defense: Defense::None,
        }
    }

    /// Table I row 2: Lenovo Yangtian 4900v — Intel Core i7-4790, HZ=250.
    #[must_use]
    pub fn lenovo_yangtian() -> Self {
        MachineConfig {
            name: "Lenovo Yangtian 4900v (i7-4790)".to_owned(),
            vendor: Vendor::Intel,
            hypervisor: None,
            freq: FreqConfig::desktop(3_600, 4_000),
            timer_hz: 250.0,
            timer_jitter: Ps::from_ns(80),
            handler_model: HandlerCostModel::paper_default(),
            pmi_rate_hz: 0.3,
            resched_rate_hz: 0.02,
            probe_iter_cycles: 0.64, // granularity ~1.56
            counting_thread_iter_cycles: 1.08,
            counting_thread_noise: 6.0e-4,
            counting_thread_kick: 2_200.0,
            rdtsc_cycles: 24,
            wrseg_cycles: 55,
            rdseg_cycles: 5,
            clock_read_cycles: 38,
            noise: NoiseModel {
                refill_std: 5_000.0,
                ..NoiseModel::quiet()
            },
            cr4_tsd: false,
            tickless: false,
            preserve_selectors: false,
            restrict_segment_writes: false,
            fault_plan: None,
            defense: Defense::None,
        }
    }

    /// Table I row 3: Lenovo Savior Y9000P — Intel Core i9-12900H, HZ=250.
    /// The only Table I machine with `umonitor`/`umwait` (Spectral).
    #[must_use]
    pub fn lenovo_savior() -> Self {
        MachineConfig {
            name: "Lenovo Savior Y9000P (i9-12900H)".to_owned(),
            vendor: Vendor::Intel,
            hypervisor: None,
            freq: FreqConfig::mobile(2_500, 5_000),
            timer_hz: 250.0,
            timer_jitter: Ps::from_ns(80),
            handler_model: HandlerCostModel::paper_default(),
            pmi_rate_hz: 0.3,
            resched_rate_hz: 0.02,
            probe_iter_cycles: 0.9,
            counting_thread_iter_cycles: 1.0,
            counting_thread_noise: 8.0e-5,
            counting_thread_kick: 1_500.0,
            rdtsc_cycles: 22,
            wrseg_cycles: 50,
            rdseg_cycles: 4,
            clock_read_cycles: 35,
            noise: NoiseModel::quiet(),
            cr4_tsd: false,
            tickless: false,
            preserve_selectors: false,
            restrict_segment_writes: false,
            fault_plan: None,
            defense: Defense::None,
        }
    }

    /// Table I row 4: Honor Magicbook 16 Pro — AMD Ryzen 7 5800H, HZ=250.
    #[must_use]
    pub fn honor_magicbook() -> Self {
        MachineConfig {
            name: "Honor Magicbook 16 Pro (Ryzen 7 5800H)".to_owned(),
            vendor: Vendor::Amd,
            hypervisor: None,
            freq: FreqConfig::mobile(3_200, 4_400),
            timer_hz: 250.0,
            timer_jitter: Ps::from_ns(80),
            handler_model: HandlerCostModel::paper_default(),
            pmi_rate_hz: 0.3,
            resched_rate_hz: 0.02,
            probe_iter_cycles: 0.98, // granularity ~1.02
            counting_thread_iter_cycles: 0.94,
            counting_thread_noise: 1.3e-3,
            counting_thread_kick: 2_500.0,
            rdtsc_cycles: 28,
            wrseg_cycles: 62,
            rdseg_cycles: 5,
            clock_read_cycles: 42,
            noise: NoiseModel {
                refill_std: 6_000.0,
                ..NoiseModel::quiet()
            },
            cr4_tsd: false,
            tickless: false,
            preserve_selectors: false,
            restrict_segment_writes: false,
            fault_plan: None,
            defense: Defense::None,
        }
    }

    /// Table I row 5: Amazon t2.large (Xen) — Intel Xeon E5-2686, HZ=250.
    #[must_use]
    pub fn amazon_t2_large() -> Self {
        MachineConfig {
            name: "Amazon t2.large (Xeon E5-2686, Xen)".to_owned(),
            vendor: Vendor::Intel,
            hypervisor: Some(Hypervisor::Xen),
            freq: FreqConfig::desktop(2_300, 3_000),
            timer_hz: 250.0,
            timer_jitter: Ps::from_ns(400),
            handler_model: HandlerCostModel::paper_default(),
            pmi_rate_hz: 0.3,
            resched_rate_hz: 0.05,
            probe_iter_cycles: 0.675, // granularity ~1.48
            counting_thread_iter_cycles: 1.16,
            counting_thread_noise: 6.6e-3,
            counting_thread_kick: 7_000.0,
            rdtsc_cycles: 30,
            wrseg_cycles: 70,
            rdseg_cycles: 6,
            clock_read_cycles: 60,
            noise: NoiseModel {
                refill_std: 5_500.0,
                ..NoiseModel::virtualized()
            },
            cr4_tsd: false,
            tickless: false,
            preserve_selectors: false,
            restrict_segment_writes: false,
            fault_plan: None,
            defense: Defense::None,
        }
    }

    /// Table I row 6: Amazon c5.large (KVM) — Intel Xeon 8275CL, HZ=250.
    #[must_use]
    pub fn amazon_c5_large() -> Self {
        MachineConfig {
            name: "Amazon c5.large (Xeon 8275CL, KVM)".to_owned(),
            vendor: Vendor::Intel,
            hypervisor: Some(Hypervisor::Kvm),
            freq: FreqConfig::desktop(3_000, 3_600),
            timer_hz: 250.0,
            timer_jitter: Ps::from_ns(250),
            handler_model: HandlerCostModel::paper_default(),
            pmi_rate_hz: 0.3,
            resched_rate_hz: 0.04,
            probe_iter_cycles: 0.68, // granularity ~1.47
            counting_thread_iter_cycles: 1.19,
            counting_thread_noise: 3.7e-3,
            counting_thread_kick: 4_500.0,
            rdtsc_cycles: 26,
            wrseg_cycles: 64,
            rdseg_cycles: 5,
            clock_read_cycles: 50,
            noise: NoiseModel {
                refill_std: 3_000.0,
                ..NoiseModel::virtualized()
            },
            cr4_tsd: false,
            tickless: false,
            preserve_selectors: false,
            restrict_segment_writes: false,
            fault_plan: None,
            defense: Defense::None,
        }
    }

    /// All six Table I machines, in row order.
    #[must_use]
    pub fn table1() -> Vec<MachineConfig> {
        vec![
            MachineConfig::xiaomi_air13(),
            MachineConfig::lenovo_yangtian(),
            MachineConfig::lenovo_savior(),
            MachineConfig::honor_magicbook(),
            MachineConfig::amazon_t2_large(),
            MachineConfig::amazon_c5_large(),
        ]
    }

    /// Sets the APIC timer frequency (builder style).
    #[must_use]
    pub fn with_hz(mut self, hz: f64) -> Self {
        self.timer_hz = hz;
        self
    }

    /// Sets `CR4.TSD` (builder style): the timer-constrained threat model.
    #[must_use]
    pub fn with_cr4_tsd(mut self, tsd: bool) -> Self {
        self.cr4_tsd = tsd;
        self
    }

    /// Enables tickless (NOHZ_FULL) mode (builder style).
    #[must_use]
    pub fn with_tickless(mut self, tickless: bool) -> Self {
        self.tickless = tickless;
        self
    }

    /// Enables the future-architecture selector-preserving mitigation
    /// (builder style).
    #[must_use]
    pub fn with_preserve_selectors(mut self, preserve: bool) -> Self {
        self.preserve_selectors = preserve;
        self
    }

    /// Restricts unprivileged segment-register writes (builder style).
    #[must_use]
    pub fn with_restricted_segment_writes(mut self, restrict: bool) -> Self {
        self.restrict_segment_writes = restrict;
        self
    }

    /// Installs an interrupt-path fault-injection plan (builder style).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Installs an interrupt-side countermeasure (builder style).
    #[must_use]
    pub fn with_defense(mut self, defense: Defense) -> Self {
        self.defense = defense;
        self
    }
}

impl Default for MachineConfig {
    /// Defaults to the Xiaomi Air 13.3 (the paper's website-fingerprinting
    /// machine).
    fn default() -> Self {
        MachineConfig::xiaomi_air13()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_machines_with_unique_names() {
        let machines = MachineConfig::table1();
        assert_eq!(machines.len(), 6);
        let mut names: Vec<_> = machines.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
        assert!(
            machines.iter().all(|m| m.timer_hz == 250.0),
            "Table I: HZ=250"
        );
    }

    #[test]
    fn exactly_one_amd_machine() {
        let machines = MachineConfig::table1();
        let amd = machines.iter().filter(|m| m.vendor == Vendor::Amd).count();
        assert_eq!(amd, 1);
    }

    #[test]
    fn cloud_instances_are_virtualized() {
        assert_eq!(
            MachineConfig::amazon_t2_large().hypervisor,
            Some(Hypervisor::Xen)
        );
        assert_eq!(
            MachineConfig::amazon_c5_large().hypervisor,
            Some(Hypervisor::Kvm)
        );
        assert_eq!(MachineConfig::xiaomi_air13().hypervisor, None);
    }

    #[test]
    fn builders_compose() {
        let cfg = MachineConfig::default()
            .with_hz(1000.0)
            .with_cr4_tsd(true)
            .with_tickless(true)
            .with_preserve_selectors(true)
            .with_restricted_segment_writes(true);
        assert_eq!(cfg.timer_hz, 1000.0);
        assert!(
            cfg.cr4_tsd && cfg.tickless && cfg.preserve_selectors && cfg.restrict_segment_writes
        );
    }

    /// Each out-of-range field is refused by name.
    #[test]
    fn validate_names_the_offending_field() {
        type Spoil = fn(&mut MachineConfig);
        let cases: [(&str, Spoil); 6] = [
            ("timer_hz", |m| m.timer_hz = -250.0),
            ("timer_hz", |m| m.timer_hz = 1e12),
            ("pmi_rate_hz", |m| m.pmi_rate_hz = 1e15),
            ("resched_rate_hz", |m| m.resched_rate_hz = f64::NAN),
            ("freq.max_khz", |m| m.freq.min_khz = m.freq.max_khz + 1),
            ("handler_model.device.body_lo", |m| {
                let kind = irq::InterruptKind::Network;
                let mut p = *m.handler_model.params(kind);
                p.body_lo = p.body_hi + Ps::from_ps(1);
                m.handler_model = m.handler_model.clone().with_params(kind, p);
            }),
        ];
        for (field, spoil) in cases {
            let mut machine = MachineConfig::default();
            spoil(&mut machine);
            let message = machine.validate().expect_err(field);
            assert!(
                message.contains(&format!("`{field}`")),
                "{field}: {message}"
            );
        }
    }

    #[test]
    fn granularity_targets_are_encoded() {
        // Table III: granularity = 1 / probe_iter_cycles (increments per
        // TSC cycle at base frequency, roughly).
        let g = 1.0 / MachineConfig::lenovo_yangtian().probe_iter_cycles;
        assert!((g - 1.56).abs() < 0.01);
    }
}
