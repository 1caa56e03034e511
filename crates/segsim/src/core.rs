//! The simulated machine: one attacker-observable logical core, its
//! frequency domain, interrupt fabric, segment registers, caches, and
//! kernel entry/exit behaviour.

use crate::config::{Defense, MachineConfig, Vendor};
use crate::error::SimError;
use crate::freq::{FreqModel, StepFn};
use irq::time::Ps;
use irq::{
    ExitClass, FaultLog, FaultPlan, FaultedPop, GroundTruth, InterruptFabric, InterruptKind,
    KernelExit, SourceId,
};
use memsim::{AccessOutcome, KaslrLayout, MemoryHierarchy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use x86seg::{
    load_data_segment, protected_mode_return, DataSegReg, DescriptorTables, PrivilegeLevel,
    ReturnFootprint, SegmentRegisterFile, Selector,
};

/// Most near-miss interrupts one kernel stint may absorb through the
/// fault plan's coalescing window (rate-limit style coalescing merges a
/// bounded burst, it does not stall delivery forever).
const COALESCE_BURST_CAP: u32 = 4;

/// Maps the architectural register id onto its observability mirror.
fn seg_reg_id(reg: DataSegReg) -> obs::SegRegId {
    match reg {
        DataSegReg::Ds => obs::SegRegId::Ds,
        DataSegReg::Es => obs::SegRegId::Es,
        DataSegReg::Fs => obs::SegRegId::Fs,
        DataSegReg::Gs => obs::SegRegId::Gs,
    }
}

/// One interrupt delivered to the simulated core, as the simulator (not
/// the attacker) sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveredIrq {
    /// Kind of the interrupt that ended the user span.
    pub kind: InterruptKind,
    /// Kernel-exit class of the delivery ([`ExitClass::Irq`] for every
    /// ordinary interrupt; [`ExitClass::EnclaveAex`] when the core was
    /// inside an enclave; [`ExitClass::DefensePad`] for synthetic
    /// padding exits).
    pub class: ExitClass,
    /// Delivery instant.
    pub at: Ps,
    /// Handler routine cost (`w` in paper Eq. 1).
    pub handler_cost: Ps,
    /// Total time spent away from user space (handler + cascaded
    /// interrupts + scheduler preemption).
    pub kernel_span: Ps,
    /// The segment-register footprint the return to user space left.
    pub footprint: ReturnFootprint,
}

/// Why a [`Machine::run_user_until`] span ended.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpanEnd {
    /// An interrupt was delivered (and handled; the span's end is the
    /// moment user execution resumed).
    Interrupt(DeliveredIrq),
    /// The requested deadline was reached without any interrupt.
    Deadline,
}

/// A span of uninterrupted user-mode execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserSpan {
    /// When user execution started.
    pub start: Ps,
    /// When the span ended (interrupt delivery or deadline).
    pub end: Ps,
    /// CPU cycles the user code executed during the span, integrated over
    /// the (piecewise-constant) DVFS frequency.
    pub cycles: f64,
    /// What ended the span.
    pub ended_by: SpanEnd,
}

/// A victim task sharing the attacker's logical core (the "default"
/// setting of paper Table IV pins browser and attacker together).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoResident {
    /// The scheduler preempts the attacker every this-many timer ticks…
    pub preempt_every_ticks: u32,
    /// …for a timeslice of this length.
    pub slice: Ps,
    /// If set, the victim occasionally leaves this (valid) selector in GS
    /// instead of the scrubbed zero — the paper's observation that the
    /// probe must detect *change*, not specifically zero.
    pub gs_reload: Option<Selector>,
    /// Probability per preemption that `gs_reload` happens.
    pub gs_reload_prob: f64,
}

impl CoResident {
    /// A browser-like co-resident: preempted every 2 ticks for 1.5 ms.
    #[must_use]
    pub fn browser() -> Self {
        CoResident {
            preempt_every_ticks: 2,
            slice: Ps::from_us(1_500),
            gs_reload: None,
            gs_reload_prob: 0.0,
        }
    }
}

/// The simulated machine.
///
/// All stochastic behaviour draws from one seeded RNG, so a `(config,
/// seed)` pair fully determines every experiment.
///
/// Guest code drives the machine through *operations* (`wrgs`, `rdgs`,
/// `rdtsc`, `mem_access`, `spin`, …), each of which consumes simulated
/// cycles at the current DVFS frequency; interrupts are delivered whenever
/// simulated time crosses an arrival, running the kernel path and applying
/// the segment-protection scrub of Algorithm 1 on the return to user
/// space.
///
/// # Example
///
/// ```
/// use segsim::{Machine, MachineConfig};
/// use x86seg::Selector;
///
/// let mut m = Machine::new(MachineConfig::default(), 42);
/// m.wrgs(Selector::from_bits(0x1)).unwrap();
/// // Run until the first interrupt: the marker must be scrubbed.
/// let span = m.run_user_until(irq::Ps::MAX);
/// assert!(matches!(span.ended_by, segsim::SpanEnd::Interrupt(_)));
/// assert_eq!(m.rdgs().bits(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    // Fields are `pub(crate)` so the sibling `snapshot` module can
    // capture and restore them; everything outside the crate still goes
    // through the accessor API.
    pub(crate) config: MachineConfig,
    pub(crate) rng: SmallRng,
    pub(crate) now: Ps,
    pub(crate) freq: FreqModel,
    pub(crate) fabric: InterruptFabric,
    pub(crate) timer_source: Option<SourceId>,
    pub(crate) ground_truth: GroundTruth,
    pub(crate) regs: SegmentRegisterFile,
    pub(crate) tables: DescriptorTables,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) kaslr: Option<KaslrLayout>,
    pub(crate) co_resident: Option<CoResident>,
    pub(crate) timer_ticks_seen: u32,
    pub(crate) kernel_entries: u64,
    /// Total cycles elapsed in the frequency domain since t = 0 (user +
    /// kernel), used by the counting-thread model.
    pub(crate) domain_cycles: f64,
    /// Accumulated counting-thread drift (SMT contention random walk).
    pub(crate) ct_drift: f64,
    /// Kernel-entry count at the last counting-thread read (stall kicks).
    pub(crate) ct_last_kernel_entries: u64,
    /// User-side cycles still owed to pipeline/cache refill after the last
    /// interrupt (consumed before guest work makes progress).
    pub(crate) pending_refill: f64,
    /// Opt-in interrupt-path fault injection (`None` = nominal machine,
    /// bit-identical RNG stream to a build without fault injection).
    pub(crate) fault_plan: Option<FaultPlan>,
    /// Accounting of every fault actually injected.
    pub(crate) fault_log: FaultLog,
    /// Remaining guest operations in the current SMT-noise burst.
    pub(crate) smt_burst_left: u32,
    /// Whether the core is currently executing inside an SGX-like
    /// enclave: interrupt deliveries become AEX-classified exits.
    pub(crate) enclave_active: bool,
    /// Set when the QuanShield defense tore the enclave down (permanent
    /// for the machine's lifetime; `enter_enclave` refuses afterwards).
    pub(crate) enclave_destroyed: bool,
    /// Total AEX-classified deliveries.
    pub(crate) aex_exits: u64,
    /// Total synthetic padding exits inserted by the padding defense.
    pub(crate) padded_exits: u64,
    /// Next instant the padding defense inserts a synthetic exit
    /// (`None` = padding disabled; the common fast path).
    pub(crate) next_pad_at: Option<Ps>,
    /// Optional observability sink. `None` (the default) keeps every
    /// hook a dead branch: no RNG draws, no timing change, bit-identical
    /// behaviour to a build without instrumentation.
    pub(crate) sink: Option<Box<obs::TraceSink>>,
}

impl Machine {
    /// Builds a machine from a configuration and an RNG seed.
    ///
    /// Delegates to [`reset`](Machine::reset) so the two can never drift:
    /// a fresh machine and an in-place reset go through the same boot
    /// routine by construction.
    #[must_use]
    pub fn new(config: MachineConfig, seed: u64) -> Self {
        let mut machine = Machine {
            rng: SmallRng::seed_from_u64(seed),
            now: Ps::ZERO,
            freq: FreqModel::new(config.freq),
            fabric: InterruptFabric::new(),
            timer_source: None,
            ground_truth: GroundTruth::new(),
            regs: SegmentRegisterFile::flat_user(),
            tables: DescriptorTables::linux_flat(),
            mem: MemoryHierarchy::default(),
            kaslr: None,
            co_resident: None,
            timer_ticks_seen: 0,
            kernel_entries: 0,
            domain_cycles: 0.0,
            ct_drift: 0.0,
            ct_last_kernel_entries: 0,
            pending_refill: 0.0,
            fault_plan: None,
            fault_log: FaultLog::default(),
            smt_burst_left: 0,
            enclave_active: false,
            enclave_destroyed: false,
            aex_exits: 0,
            padded_exits: 0,
            next_pad_at: None,
            sink: None,
            config: config.clone(),
        };
        machine.reset(config, seed);
        machine
    }

    /// Re-initialises this machine in place to exactly the state
    /// [`Machine::new(config, seed)`](Machine::new) produces, reusing the
    /// existing heap allocations (cache arrays, ground-truth buffer)
    /// instead of re-allocating them.
    ///
    /// Batched trial runners lean on this: a lane runs one trial, is
    /// reset, and runs the next — with the cache hierarchy's O(1)
    /// epoch-clear the reset costs nanoseconds where a fresh
    /// [`Machine::new`] pays the full allocation bill. The RNG-draw order
    /// (seed, timer, PMI, resched, frequency model) replays `new`'s
    /// exactly, so a reset machine is draw-for-draw indistinguishable
    /// from a fresh one.
    pub fn reset(&mut self, config: MachineConfig, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.fabric = InterruptFabric::new();
        self.timer_source = if config.tickless {
            None
        } else {
            Some(self.fabric.add_periodic_timer(
                config.timer_hz,
                config.timer_jitter,
                &mut self.rng,
            ))
        };
        if config.pmi_rate_hz > 0.0 {
            self.fabric
                .add_poisson(InterruptKind::PerfMon, config.pmi_rate_hz, &mut self.rng);
        }
        if config.resched_rate_hz > 0.0 {
            self.fabric.add_poisson(
                InterruptKind::Resched,
                config.resched_rate_hz,
                &mut self.rng,
            );
        }
        self.freq = FreqModel::new(config.freq);
        // The attacker is a spin loop: full local load unless told
        // otherwise.
        self.freq.set_local_load(1.0);
        self.freq
            .set_step_clamp(config.fault_plan.and_then(|p| p.freq_step_clamp_khz));
        self.now = Ps::ZERO;
        self.ground_truth.clear();
        self.regs = SegmentRegisterFile::flat_user();
        self.tables = DescriptorTables::linux_flat();
        self.mem.clear();
        self.kaslr = None;
        self.co_resident = None;
        self.timer_ticks_seen = 0;
        self.kernel_entries = 0;
        self.domain_cycles = 0.0;
        self.ct_drift = 0.0;
        self.ct_last_kernel_entries = 0;
        self.pending_refill = 0.0;
        self.fault_plan = config.fault_plan;
        self.fault_log = FaultLog::default();
        self.smt_burst_left = 0;
        self.enclave_active = false;
        self.enclave_destroyed = false;
        self.aex_exits = 0;
        self.padded_exits = 0;
        // The padding grid starts one quantum in: t = 0 itself is not a
        // pad instant (a pad before any user work would be pure cost).
        self.next_pad_at = match config.defense {
            Defense::Padding { quantum, .. } if quantum > Ps::ZERO => Some(quantum),
            _ => None,
        };
        self.sink = None;
        self.config = config;
    }

    // ------------------------------------------------------------------
    // Simulation-side accessors (not attacker-visible primitives).
    // ------------------------------------------------------------------

    /// Current simulated time. **Simulator API** — attacker code must not
    /// use this as a timing source (that is the whole point of SegScope).
    #[inline]
    #[must_use]
    pub fn now(&self) -> Ps {
        self.now
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Instantaneous core frequency, kHz (simulator API).
    #[must_use]
    pub fn current_freq_khz(&self) -> u64 {
        self.freq.current_khz()
    }

    /// The ground-truth interrupt trace (the eBPF analogue).
    #[must_use]
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.ground_truth
    }

    /// Mutable access to the ground-truth trace (to clear it).
    pub fn ground_truth_mut(&mut self) -> &mut GroundTruth {
        &mut self.ground_truth
    }

    /// Number of kernel entries so far.
    #[must_use]
    pub fn kernel_entries(&self) -> u64 {
        self.kernel_entries
    }

    /// The active fault-injection plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Installs or removes a fault-injection plan at runtime.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
        self.freq
            .set_step_clamp(plan.and_then(|p| p.freq_step_clamp_khz));
        if plan.is_none() {
            self.smt_burst_left = 0;
        }
    }

    /// Accounting of every fault injected so far (the auditor's view;
    /// attacker code never reads this).
    #[must_use]
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Installs an observability sink. Hooks throughout the machine
    /// stream typed [`obs::Event`]s into it, stamped with simulated time
    /// only. Tracing consumes no RNG draws and perturbs no timing, so a
    /// traced run is bit-identical to an untraced one.
    pub fn install_trace_sink(&mut self, sink: obs::TraceSink) {
        self.sink = Some(Box::new(sink));
    }

    /// The installed observability sink, if any.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&obs::TraceSink> {
        self.sink.as_deref()
    }

    /// Mutable access to the installed sink (for emitting layer-specific
    /// events, e.g. the probe's `ProbeSample`s).
    pub fn trace_sink_mut(&mut self) -> Option<&mut obs::TraceSink> {
        self.sink.as_deref_mut()
    }

    /// Removes and returns the installed sink (typically at the end of a
    /// run, to export the trace).
    pub fn take_trace_sink(&mut self) -> Option<obs::TraceSink> {
        self.sink.take().map(|boxed| *boxed)
    }

    /// The cache hierarchy (for ground-truth inspection in tests).
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Mutable cache hierarchy (victim-side effects, e.g. a Spectre
    /// gadget running in another process touching shared lines).
    pub fn memory_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// The machine's RNG (victim models share it for determinism).
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Disjoint mutable borrows of the cache hierarchy and the RNG, for
    /// victim models (e.g. a Spectre gadget) that need both at once.
    pub fn memory_and_rng(&mut self) -> (&mut MemoryHierarchy, &mut SmallRng) {
        (&mut self.mem, &mut self.rng)
    }

    /// Arrival time of the next pending interrupt, if any (simulator API;
    /// used to model `umwait` wake-cause arbitration).
    #[inline]
    #[must_use]
    pub fn next_interrupt_at(&self) -> Option<Ps> {
        self.fabric.peek_next().map(|p| p.at)
    }

    // ------------------------------------------------------------------
    // Environment / victim hooks.
    // ------------------------------------------------------------------

    /// Injects one-shot device interrupts (victim activity).
    pub fn inject_interrupts<I: IntoIterator<Item = (Ps, InterruptKind)>>(&mut self, events: I) {
        self.fabric.inject_all(events);
    }

    /// Injects one-shot *classified* kernel exits — the Heckler-style
    /// offensive direction, where a malicious hypervisor drives exits
    /// into a confidential-VM victim on a schedule of its choosing.
    pub fn inject_exits<I: IntoIterator<Item = (Ps, InterruptKind, ExitClass)>>(
        &mut self,
        events: I,
    ) {
        self.fabric.inject_exit_all(events);
    }

    // ------------------------------------------------------------------
    // Enclave lifecycle (AEX modeling).
    // ------------------------------------------------------------------

    /// Enters SGX-like enclave mode: until [`Machine::exit_enclave`],
    /// every interrupt delivery is an [`ExitClass::EnclaveAex`] exit.
    ///
    /// Returns `false` (and stays outside the enclave) if the QuanShield
    /// defense already destroyed the enclave.
    pub fn enter_enclave(&mut self) -> bool {
        if self.enclave_destroyed {
            return false;
        }
        self.enclave_active = true;
        true
    }

    /// Leaves enclave mode (a synchronous, victim-initiated EEXIT; it is
    /// not a kernel exit and produces no footprint).
    pub fn exit_enclave(&mut self) {
        self.enclave_active = false;
    }

    /// Whether the core is currently executing inside the enclave.
    #[must_use]
    pub fn enclave_active(&self) -> bool {
        self.enclave_active
    }

    /// Whether the QuanShield defense tore the enclave down.
    #[must_use]
    pub fn enclave_destroyed(&self) -> bool {
        self.enclave_destroyed
    }

    /// Total AEX-classified deliveries so far.
    #[must_use]
    pub fn aex_exits(&self) -> u64 {
        self.aex_exits
    }

    /// Total synthetic padding exits inserted by the padding defense.
    #[must_use]
    pub fn padded_exits(&self) -> u64 {
        self.padded_exits
    }

    /// Sets the attacker task's contribution to the frequency governor's
    /// load input (1.0 = spin loop, the default).
    pub fn set_local_load(&mut self, load: f64) {
        self.freq.set_local_load(load);
    }

    /// Installs a victim load schedule on the shared frequency domain.
    pub fn set_victim_load(&mut self, schedule: StepFn) {
        self.freq.set_external_load(schedule);
    }

    /// Installs a data-dependent power-draw schedule (Hertzbleed input).
    pub fn set_power_excess(&mut self, schedule: StepFn) {
        self.freq.set_power_excess(schedule);
    }

    /// Pins the core frequency (the "frequency scaling disabled" setting),
    /// or unpins with `None`.
    pub fn pin_frequency(&mut self, khz: Option<u64>) {
        self.freq.pin(khz);
    }

    /// Installs or removes a co-resident victim task on this logical core.
    pub fn set_co_resident(&mut self, victim: Option<CoResident>) {
        self.co_resident = victim;
    }

    /// Reprograms the APIC timer frequency (HZ), effective immediately.
    ///
    /// # Panics
    ///
    /// Panics in tickless mode (there is no timer source to reprogram).
    pub fn set_timer_hz(&mut self, hz: f64) {
        let src = self.timer_source.expect("tickless machine has no timer");
        self.fabric.set_timer_hz(src, hz, self.now, &mut self.rng);
        self.config.timer_hz = hz;
    }

    /// Suppresses or re-enables the periodic timer at runtime (tickless
    /// mode entering/leaving, e.g. when a co-located busy task appears).
    pub fn set_timer_enabled(&mut self, enabled: bool) {
        if let Some(src) = self.timer_source {
            self.fabric
                .set_enabled(src, enabled, self.now, &mut self.rng);
        } else if enabled {
            self.timer_source = Some(self.fabric.add_periodic_timer(
                self.config.timer_hz,
                self.config.timer_jitter,
                &mut self.rng,
            ));
        }
    }

    /// Installs a KASLR'd kernel layout for the kernel-probing ops.
    pub fn set_kaslr(&mut self, layout: KaslrLayout) {
        self.kaslr = Some(layout);
    }

    /// The installed KASLR layout, if any.
    #[must_use]
    pub fn kaslr(&self) -> Option<&KaslrLayout> {
        self.kaslr.as_ref()
    }

    // ------------------------------------------------------------------
    // Guest operations (the attacker's instruction set).
    // ------------------------------------------------------------------

    /// Writes a selector into GS (`mov gs, r16`). The SegScope marker
    /// placement.
    ///
    /// # Errors
    ///
    /// [`SimError::SegmentWriteRestricted`] under the restriction
    /// mitigation; [`SimError::Segment`] for an architecturally faulting
    /// load.
    pub fn wrgs(&mut self, selector: Selector) -> Result<(), SimError> {
        self.wrseg(DataSegReg::Gs, selector)
    }

    /// Writes a selector into any data-segment register.
    ///
    /// # Errors
    ///
    /// See [`Machine::wrgs`].
    pub fn wrseg(&mut self, reg: DataSegReg, selector: Selector) -> Result<(), SimError> {
        self.exec_op(self.config.wrseg_cycles);
        if self.config.restrict_segment_writes {
            return Err(SimError::SegmentWriteRestricted);
        }
        load_data_segment(
            &mut self.regs,
            reg,
            selector,
            &self.tables,
            PrivilegeLevel::Ring3,
        )
        .map_err(SimError::Segment)
    }

    /// Reads the visible selector of GS (`mov r16, gs`). The SegScope
    /// footprint check.
    #[inline]
    pub fn rdgs(&mut self) -> Selector {
        self.rdseg(DataSegReg::Gs)
    }

    /// Reads the visible selector of any data-segment register.
    pub fn rdseg(&mut self, reg: DataSegReg) -> Selector {
        self.exec_op(self.config.rdseg_cycles);
        self.regs.selector(reg)
    }

    /// The high-resolution timestamp (`rdtsc` on Intel, `rdpru` on AMD):
    /// invariant TSC cycles at the base frequency.
    ///
    /// # Errors
    ///
    /// [`SimError::TimerRestricted`] when `CR4.TSD` is set (the paper's
    /// timer-constrained threat model).
    pub fn rdtsc(&mut self) -> Result<u64, SimError> {
        if self.config.cr4_tsd {
            return Err(SimError::TimerRestricted);
        }
        self.exec_op(self.config.rdtsc_cycles);
        Ok(self.tsc_value())
    }

    /// The name of the high-resolution timestamp instruction this machine
    /// offers.
    #[must_use]
    pub fn hires_timer_name(&self) -> &'static str {
        match self.config.vendor {
            Vendor::Intel => "rdtsc",
            Vendor::Amd => "rdpru",
        }
    }

    /// A coarse architectural clock read (vDSO `clock_gettime` truncated
    /// to `resolution`), returning nanoseconds.
    ///
    /// # Errors
    ///
    /// [`SimError::TimerRestricted`] when `CR4.TSD` is set — the paper's
    /// defenders constrain all architectural timers.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn clock_read(&mut self, resolution: Ps) -> Result<u64, SimError> {
        assert!(resolution > Ps::ZERO, "clock resolution must be positive");
        if self.config.cr4_tsd {
            return Err(SimError::TimerRestricted);
        }
        self.exec_op(self.config.clock_read_cycles);
        let res_ps = resolution.as_ps();
        let truncated = self.now.as_ps() / res_ps * res_ps;
        Ok(truncated / 1_000)
    }

    /// Reads `scaling_cur_freq` through sysfs (unprivileged; ~10 ms stale),
    /// returning kHz. Costs a few thousand cycles of syscall + file I/O.
    pub fn scaling_cur_freq(&mut self) -> u64 {
        self.exec_op(2_400);
        self.freq.sysfs_khz(self.now)
    }

    /// Spins for `cycles` cycles of plain computation.
    pub fn spin(&mut self, cycles: u64) {
        self.exec_op(cycles);
    }

    /// Performs a demand load of `addr` through the cache hierarchy,
    /// consuming its latency.
    pub fn mem_access(&mut self, addr: u64) -> AccessOutcome {
        let outcome = self.mem.access(addr);
        self.exec_op(outcome.cycles);
        outcome
    }

    /// Issues `clflush addr`.
    pub fn clflush(&mut self, addr: u64) {
        self.exec_op(45);
        self.mem.clflush(addr);
    }

    /// Issues a software prefetch of `addr`.
    pub fn prefetch(&mut self, addr: u64) {
        let outcome = self.mem.prefetch(addr);
        self.exec_op(outcome.cycles);
    }

    /// Probes a kernel address by *direct access* (faults; the registered
    /// user SIGSEGV handler absorbs it). Requires [`Machine::set_kaslr`].
    ///
    /// # Panics
    ///
    /// Panics if no KASLR layout is installed.
    pub fn kernel_probe_access(&mut self, addr: u64) {
        let layout = self.kaslr.as_mut().expect("no KASLR layout installed");
        let cycles = layout.probe_access(addr);
        // The faulting access enters the kernel (SIGSEGV delivery): this
        // is what disturbs an SMT-sibling counting thread so badly.
        self.kernel_entries += 1;
        self.exec_op(cycles);
    }

    /// Probes a kernel address by *prefetch* (never faults). Requires
    /// [`Machine::set_kaslr`].
    ///
    /// # Panics
    ///
    /// Panics if no KASLR layout is installed.
    pub fn kernel_probe_prefetch(&mut self, addr: u64) {
        let layout = self.kaslr.as_mut().expect("no KASLR layout installed");
        let cycles = layout.probe_prefetch(addr);
        self.exec_op(cycles);
    }

    /// Reads the SMT-sibling counting thread's counter (the Lipp/Schwarz
    /// timer baseline). The read costs a cross-core cache-line transfer.
    pub fn counting_thread_read(&mut self) -> u64 {
        self.exec_op(70);
        // The sibling increments once per `counting_thread_iter_cycles`
        // of domain cycles, perturbed by a port-contention random walk...
        let ideal = self.domain_cycles / self.config.counting_thread_iter_cycles;
        let step_std = ideal.max(1.0).sqrt() * self.config.counting_thread_noise * 40.0;
        self.ct_drift += irq::dist::normal(&mut self.rng, 0.0, step_std);
        // ...plus a stall kick per kernel entry on the shared physical
        // core (faults/interrupts freeze the sibling's pipeline slots).
        let kicks = self.kernel_entries - self.ct_last_kernel_entries;
        self.ct_last_kernel_entries = self.kernel_entries;
        if kicks > 0 {
            let kick_std = self.config.counting_thread_kick * (kicks as f64).sqrt();
            self.ct_drift += irq::dist::normal(&mut self.rng, 0.0, kick_std);
        }
        (ideal + self.ct_drift).max(0.0) as u64
    }

    /// Cycles per iteration of the SegScope check loop on this machine
    /// (`k` in paper Eq. 1).
    #[inline]
    #[must_use]
    pub fn probe_iter_cycles(&self) -> f64 {
        self.config.probe_iter_cycles
    }

    // ------------------------------------------------------------------
    // The analytic fast path.
    // ------------------------------------------------------------------

    /// Runs user code until `deadline` or the next interrupt, whichever
    /// comes first, returning the executed span.
    ///
    /// This is the analytic primitive the SegScope probe and the baseline
    /// probers build on: instead of simulating millions of loop
    /// iterations, callers convert the span's integrated `cycles` into
    /// iteration counts.
    pub fn run_user_until(&mut self, deadline: Ps) -> UserSpan {
        let start = self.now;
        let mut cycles = 0.0f64;
        loop {
            // Governor updates due now?
            while self.freq.next_update_at() <= self.now {
                let at = self.freq.next_update_at();
                self.governor_tick(at);
            }
            // Span batching: the fabric cannot change until a delivery, so
            // one O(1) peek pins the stopping point for the whole batch of
            // governor intervals between here and the next interrupt (or
            // the deadline). The inner loop then integrates interval by
            // interval — keeping the exact per-interval f64 arithmetic and
            // the one freq-noise RNG draw per governor tick, so traces
            // stay byte-identical — without re-consulting the fabric.
            let next_irq = self.fabric.peek_next();
            let irq_at = next_irq.map_or(Ps::MAX, |p| p.at.max(self.now));
            // The padding defense's grid is a second delivery source; with
            // no defense `pad_at` is `Ps::MAX` and this is the old
            // two-way minimum bit-for-bit.
            let pad_at = self.next_pad_at.map_or(Ps::MAX, |p| p.max(self.now));
            let stop = deadline.min(irq_at).min(pad_at);
            loop {
                let khz = self.freq.current_khz();
                let boundary = stop.min(self.freq.next_update_at());
                if boundary > self.now {
                    let span = boundary - self.now;
                    let mut c = span.as_ps() as f64 * khz as f64 / 1e9;
                    self.domain_cycles += c;
                    // Cycles owed to post-interrupt pipeline/cache refill
                    // do not advance guest work.
                    let refill = self.pending_refill.min(c);
                    self.pending_refill -= refill;
                    c -= refill;
                    cycles += c;
                    self.now = boundary;
                }
                if boundary == stop {
                    break;
                }
                // Governor boundary: tick and keep integrating.
                while self.freq.next_update_at() <= self.now {
                    let at = self.freq.next_update_at();
                    self.governor_tick(at);
                }
            }
            if stop == irq_at && next_irq.is_some() {
                // A real interrupt wins a tie against a pad instant.
                if let Some(delivered) = self.deliver_interrupt() {
                    return UserSpan {
                        start,
                        end: self.now,
                        cycles,
                        ended_by: SpanEnd::Interrupt(delivered),
                    };
                }
                // The fault plan dropped the interrupt: user execution
                // continues, unaware anything was pending.
                continue;
            }
            if stop == pad_at && self.next_pad_at.is_some() {
                let delivered = self.deliver_pad_exit();
                return UserSpan {
                    start,
                    end: self.now,
                    cycles,
                    ended_by: SpanEnd::Interrupt(delivered),
                };
            }
            return UserSpan {
                start,
                end: self.now,
                cycles,
                ended_by: SpanEnd::Deadline,
            };
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn tsc_value(&self) -> u64 {
        self.now.cycles_at(self.config.tsc_khz())
    }

    /// Runs one governor update, tracking fault-injection step clamps.
    fn governor_tick(&mut self, at: Ps) {
        let khz_before = self.freq.current_khz();
        let clamped = self.freq.tick(at, &mut self.rng);
        if clamped {
            self.fault_log.clamped_steps += 1;
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            let khz_after = self.freq.current_khz();
            if khz_after != khz_before {
                sink.emit(
                    at.as_ps(),
                    obs::EventKind::FreqTransition {
                        from_khz: khz_before,
                        to_khz: khz_after,
                    },
                );
                sink.metrics.incr("freq.transitions", 1);
            }
            if clamped {
                sink.emit(
                    at.as_ps(),
                    obs::EventKind::FaultInjected {
                        fault: obs::FaultKind::ClampedFreqStep,
                    },
                );
            }
        }
    }

    /// Executes one guest operation of `nominal` cycles, applying the
    /// machine's noise model and delivering any interrupts the elapsed
    /// time crosses.
    fn exec_op(&mut self, nominal: u64) {
        let noise = &self.config.noise;
        let mut cycles = nominal as f64
            + irq::dist::normal(&mut self.rng, 0.0, noise.op_jitter_std)
                .max(-(nominal as f64) * 0.5);
        if self.rng.gen::<f64>() < noise.tail_prob {
            let u: f64 = self.rng.gen();
            cycles += (noise.tail_min.ln() + u * (noise.tail_max.ln() - noise.tail_min.ln())).exp();
        }
        cycles *= noise.smt_factor;
        // Fault injection: SMT-noise bursts stretch a run of operations.
        if let Some(plan) = self.fault_plan {
            if plan.smt_burst_prob > 0.0 {
                if self.smt_burst_left == 0 && self.rng.gen::<f64>() < plan.smt_burst_prob {
                    self.smt_burst_left = plan.smt_burst_ops;
                    self.fault_log.bursts += 1;
                    if let Some(sink) = self.sink.as_deref_mut() {
                        sink.emit(
                            self.now.as_ps(),
                            obs::EventKind::FaultInjected {
                                fault: obs::FaultKind::SmtBurst,
                            },
                        );
                    }
                }
                if self.smt_burst_left > 0 {
                    self.smt_burst_left -= 1;
                    cycles *= plan.smt_burst_factor;
                }
            }
        }
        // The first work after an interrupt stalls on cold pipeline/caches.
        cycles += std::mem::take(&mut self.pending_refill);
        self.advance_cycles(cycles.max(0.0));
    }

    /// Advances simulated time by `cycles` of user execution, delivering
    /// interrupts and governor updates on the way.
    fn advance_cycles(&mut self, cycles: f64) {
        let mut remaining = cycles;
        while remaining > 0.0 {
            while self.freq.next_update_at() <= self.now {
                let at = self.freq.next_update_at();
                self.governor_tick(at);
            }
            // As in `run_user_until`, one peek covers every governor
            // interval up to the next delivery (nothing else mutates the
            // fabric), so the inner loop crosses tick boundaries without
            // re-scanning.
            let next_irq = self
                .fabric
                .peek_next()
                .map_or(Ps::MAX, |p| p.at.max(self.now));
            // With no padding defense `pad_at` is `Ps::MAX`: the stop
            // point collapses to the pre-defense `next_irq` exactly.
            let pad_at = self.next_pad_at.map_or(Ps::MAX, |p| p.max(self.now));
            let next_stop = next_irq.min(pad_at);
            loop {
                let khz = self.freq.current_khz();
                let boundary = self.freq.next_update_at().min(next_stop);
                let span_to_boundary = boundary.saturating_sub(self.now);
                let cycles_to_boundary = span_to_boundary.as_ps() as f64 * khz as f64 / 1e9;
                if cycles_to_boundary >= remaining {
                    let ps = (remaining * 1e9 / khz as f64).ceil() as u64;
                    self.now += Ps::from_ps(ps);
                    self.domain_cycles += remaining;
                    remaining = 0.0;
                    break;
                }
                remaining -= cycles_to_boundary;
                self.domain_cycles += cycles_to_boundary;
                self.now = boundary;
                if boundary == next_stop
                    && next_irq <= pad_at
                    && self.fabric.peek_next().is_some_and(|p| p.at <= self.now)
                {
                    // A real interrupt wins a tie against a pad instant.
                    let _ = self.deliver_interrupt();
                    // The fabric changed: fall back out to re-peek.
                    break;
                }
                if boundary == next_stop && pad_at <= self.now && self.next_pad_at.is_some() {
                    let _ = self.deliver_pad_exit();
                    // The pad grid advanced: fall back out to re-peek.
                    break;
                }
                // Governor boundary: tick and keep integrating.
                while self.freq.next_update_at() <= self.now {
                    let at = self.freq.next_update_at();
                    self.governor_tick(at);
                }
            }
        }
    }

    /// Pops the due interrupt through the fault plan's delivery faults.
    /// `None` means the plan dropped it (the core never sees it).
    fn pop_due_interrupt(&mut self) -> Option<irq::PendingInterrupt> {
        match self.fault_plan.filter(FaultPlan::has_delivery_faults) {
            Some(plan) => {
                let popped = self
                    .fabric
                    .pop_with_faults_traced(
                        &plan,
                        &mut self.fault_log,
                        &mut self.rng,
                        self.sink.as_deref_mut(),
                    )
                    .expect("deliver_interrupt called with nothing pending");
                match popped {
                    FaultedPop::Delivered(p) => Some(p),
                    FaultedPop::Dropped(_) => None,
                }
            }
            None => Some(
                self.fabric
                    .pop(&mut self.rng)
                    .expect("deliver_interrupt called with nothing pending"),
            ),
        }
    }

    /// Samples one handler routine cost, applying fault-injection jitter.
    fn sample_handler_cost(&mut self, kind: InterruptKind) -> Ps {
        let w = self.config.handler_model.sample(kind, &mut self.rng);
        match self.fault_plan {
            Some(plan) if plan.handler_jitter_std > 0.0 => {
                self.fault_log.jittered += 1;
                let factor = irq::dist::normal(&mut self.rng, 0.0, plan.handler_jitter_std).exp();
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.emit(
                        self.now.as_ps(),
                        obs::EventKind::FaultInjected {
                            fault: obs::FaultKind::HandlerJitter,
                        },
                    );
                }
                Ps::from_ps(((w.as_ps() as f64 * factor) as u64).max(1))
            }
            _ => w,
        }
    }

    /// Delivers the due interrupt: kernel entry, handler, cascades,
    /// scheduler preemption, and the Algorithm 1 scrub on return.
    ///
    /// Returns `None` when the fault plan dropped the interrupt before it
    /// reached the core (no kernel entry, no footprint, no ground-truth
    /// record — exactly like a lost wakeup on real hardware).
    fn deliver_interrupt(&mut self) -> Option<DeliveredIrq> {
        let pending = self.pop_due_interrupt()?;
        self.kernel_entries += 1;
        let first_kind = pending.kind;
        let first_at = pending.at;
        let handler_cost = self.sample_handler_cost(first_kind);
        let first_class = self.classify_delivery(pending.class, first_at);
        self.ground_truth.record_exit(
            first_at,
            KernelExit {
                kind: first_kind,
                class: first_class,
            },
            handler_cost,
        );
        self.emit_delivery(first_at, first_kind, first_class, handler_cost);
        let mut kernel_span = handler_cost;
        if first_kind == InterruptKind::Timer {
            self.timer_ticks_seen = self.timer_ticks_seen.wrapping_add(1);
        }
        // Scheduler preemption by a co-resident task.
        let mut gs_reload: Option<Selector> = None;
        if let Some(co) = self.co_resident {
            if first_kind == InterruptKind::Timer
                && co.preempt_every_ticks > 0
                && self.timer_ticks_seen.is_multiple_of(co.preempt_every_ticks)
            {
                kernel_span += co.slice;
                if let Some(sel) = co.gs_reload {
                    if self.rng.gen::<f64>() < co.gs_reload_prob {
                        gs_reload = Some(sel);
                    }
                }
            }
        }
        // Cascaded interrupts that land while we're still in the kernel
        // are handled back-to-back (one combined return to user space).
        // The fault plan's coalescing window widens what counts as
        // "still in the kernel", merging near-misses into this stint —
        // bounded per stint so a window wider than a periodic source's
        // period cannot swallow the rest of the run in one cascade.
        let window = self.fault_plan.map_or(Ps::ZERO, |p| p.coalesce_window);
        let mut coalesce_budget: u32 = if window > Ps::ZERO {
            COALESCE_BURST_CAP
        } else {
            0
        };
        loop {
            let horizon = if coalesce_budget > 0 {
                kernel_span + window
            } else {
                kernel_span
            };
            let due = match self.fabric.peek_next() {
                Some(p) if p.at <= self.now + horizon => p,
                _ => break,
            };
            let natural = due.at <= self.now + kernel_span;
            let Some(p) = self.pop_due_interrupt() else {
                continue;
            };
            if !natural {
                self.fault_log.coalesced += 1;
                coalesce_budget -= 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.emit(
                        due.at.as_ps(),
                        obs::EventKind::IrqCoalesced { irq: p.kind.into() },
                    );
                    sink.metrics.incr("irq.coalesced", 1);
                }
            }
            self.kernel_entries += 1;
            let w = self.sample_handler_cost(p.kind);
            let cascade_at = due.at.max(self.now);
            let cascade_class = self.classify_delivery(p.class, cascade_at);
            self.ground_truth.record_exit(
                cascade_at,
                KernelExit {
                    kind: p.kind,
                    class: cascade_class,
                },
                w,
            );
            self.emit_delivery(cascade_at, p.kind, cascade_class, w);
            if p.kind == InterruptKind::Timer {
                self.timer_ticks_seen = self.timer_ticks_seen.wrapping_add(1);
            }
            kernel_span = kernel_span.max(due.at.saturating_sub(self.now)) + w;
        }
        // Kernel time elapses at the domain frequency too.
        let kernel_end = self.now + kernel_span;
        while self.freq.next_update_at() <= kernel_end {
            let at = self.freq.next_update_at();
            self.governor_tick(at);
        }
        self.domain_cycles += kernel_span.as_ps() as f64 * self.freq.current_khz() as f64 / 1e9;
        self.now = kernel_end;
        // Resuming user code pays a pipeline/cache refill penalty.
        let noise = self.config.noise;
        self.pending_refill +=
            irq::dist::normal(&mut self.rng, noise.refill_mean, noise.refill_std).max(0.0);
        // The return to user space: Algorithm 1 (unless the
        // future-architecture mitigation preserves selectors).
        let footprint = if self.config.preserve_selectors {
            ReturnFootprint::default()
        } else {
            protected_mode_return(&mut self.regs, PrivilegeLevel::Ring3, PrivilegeLevel::Ring0)
        };
        // The co-resident may have reloaded GS with a *valid* selector the
        // scrub keeps (the paper's "still observable as a change" note).
        if let Some(sel) = gs_reload {
            let _ = load_data_segment(
                &mut self.regs,
                DataSegReg::Gs,
                sel,
                &self.tables,
                PrivilegeLevel::Ring3,
            );
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            let at_ps = self.now.as_ps();
            for reg in DataSegReg::ALL {
                if footprint.was_cleared(reg) {
                    sink.emit(
                        at_ps,
                        obs::EventKind::SegClear {
                            reg: seg_reg_id(reg),
                            null: footprint.cleared_as_null(reg),
                        },
                    );
                }
            }
            sink.emit(
                at_ps,
                obs::EventKind::KernelReturn {
                    cleared: footprint.cleared_count() as u8,
                    kernel_span_ps: kernel_span.as_ps(),
                },
            );
            sink.metrics.incr("kernel.returns", 1);
            sink.metrics.observe("kernel.span_ps", kernel_span.as_ps());
        }
        Some(DeliveredIrq {
            kind: first_kind,
            class: first_class,
            at: first_at,
            handler_cost,
            kernel_span,
            footprint,
        })
    }

    /// Classifies one delivery against the enclave state and applies
    /// AEX-triggered defense effects (QuanShield self-destruction).
    ///
    /// No RNG draws: on a machine that never enters an enclave this is
    /// the identity on `pending_class` and the whole exit-class model
    /// costs one predictable branch.
    fn classify_delivery(&mut self, pending_class: ExitClass, at: Ps) -> ExitClass {
        if !self.enclave_active {
            return pending_class;
        }
        self.aex_exits += 1;
        if matches!(self.config.defense, Defense::QuanShield) {
            // First AEX: the enclave self-destructs, permanently. Later
            // deliveries (including cascades of this very stint) are
            // ordinary IRQs against a dead enclave.
            self.enclave_active = false;
            self.enclave_destroyed = true;
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.emit(at.as_ps(), obs::EventKind::EnclaveDestroyed);
                sink.metrics.incr("defense.enclave_destroyed", 1);
            }
        }
        ExitClass::EnclaveAex
    }

    /// Emits the per-delivery trace event (class-dependent kind).
    fn emit_delivery(&mut self, at: Ps, kind: InterruptKind, class: ExitClass, cost: Ps) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        if class == ExitClass::EnclaveAex {
            sink.emit(
                at.as_ps(),
                obs::EventKind::AexExit {
                    irq: kind.into(),
                    handler_cost_ps: cost.as_ps(),
                },
            );
            sink.metrics.incr("irq.aex", 1);
        } else {
            sink.emit(
                at.as_ps(),
                obs::EventKind::IrqDelivered {
                    irq: kind.into(),
                    handler_cost_ps: cost.as_ps(),
                },
            );
            sink.metrics.incr("irq.delivered", 1);
        }
        sink.metrics.observe("irq.handler_cost_ps", cost.as_ps());
    }

    /// Inserts one synthetic padding exit: kernel entry, fixed cost,
    /// Algorithm 1 scrub on return — everything the probe observes from
    /// a real interrupt, with **zero RNG draws** (the padding defense
    /// must never perturb the machine's RNG stream).
    fn deliver_pad_exit(&mut self) -> DeliveredIrq {
        let Defense::Padding { quantum, exit_cost } = self.config.defense else {
            unreachable!("pad scheduled without the padding defense");
        };
        let pad_at = self.next_pad_at.expect("pad scheduled");
        // Fixed grid: the next pad lands one quantum later regardless of
        // how long this stint runs (grid instants swallowed by a long
        // stint fire immediately afterwards, back to back).
        self.next_pad_at = Some(pad_at + quantum);
        self.kernel_entries += 1;
        self.padded_exits += 1;
        let kernel_span = exit_cost;
        self.ground_truth
            .record_exit(pad_at, KernelExit::pad(), exit_cost);
        // Kernel time elapses at the domain frequency (governor ticks
        // fire at the same absolute instants they would have anyway).
        let kernel_end = self.now + kernel_span;
        while self.freq.next_update_at() <= kernel_end {
            let at = self.freq.next_update_at();
            self.governor_tick(at);
        }
        self.domain_cycles += kernel_span.as_ps() as f64 * self.freq.current_khz() as f64 / 1e9;
        self.now = kernel_end;
        // Deterministic refill: the mean, no noise draw.
        self.pending_refill += self.config.noise.refill_mean.max(0.0);
        let footprint = if self.config.preserve_selectors {
            ReturnFootprint::default()
        } else {
            protected_mode_return(&mut self.regs, PrivilegeLevel::Ring3, PrivilegeLevel::Ring0)
        };
        if let Some(sink) = self.sink.as_deref_mut() {
            let at_ps = self.now.as_ps();
            for reg in DataSegReg::ALL {
                if footprint.was_cleared(reg) {
                    sink.emit(
                        at_ps,
                        obs::EventKind::SegClear {
                            reg: seg_reg_id(reg),
                            null: footprint.cleared_as_null(reg),
                        },
                    );
                }
            }
            sink.emit(
                at_ps,
                obs::EventKind::DefensePad {
                    kernel_span_ps: kernel_span.as_ps(),
                },
            );
            sink.emit(
                at_ps,
                obs::EventKind::KernelReturn {
                    cleared: footprint.cleared_count() as u8,
                    kernel_span_ps: kernel_span.as_ps(),
                },
            );
            sink.metrics.incr("defense.pads", 1);
            sink.metrics.incr("kernel.returns", 1);
            sink.metrics.observe("kernel.span_ps", kernel_span.as_ps());
        }
        DeliveredIrq {
            kind: InterruptKind::Other,
            class: ExitClass::DefensePad,
            at: pad_at,
            handler_cost: exit_cost,
            kernel_span,
            footprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default(), 0x5e65c0de)
    }

    #[test]
    fn marker_survives_until_first_interrupt() {
        let mut m = machine();
        m.wrgs(Selector::from_bits(0x3)).unwrap();
        assert_eq!(m.rdgs().bits(), 0x3, "no interrupt yet at t≈0");
        let span = m.run_user_until(Ps::MAX);
        match span.ended_by {
            SpanEnd::Interrupt(irq) => {
                assert!(irq.footprint.cleared_as_null(DataSegReg::Gs));
            }
            SpanEnd::Deadline => panic!("expected an interrupt"),
        }
        assert_eq!(m.rdgs().bits(), 0);
    }

    #[test]
    fn deadline_span_reports_cycles() {
        let mut m = machine();
        let span = m.run_user_until(Ps::from_us(100));
        assert!(matches!(span.ended_by, SpanEnd::Deadline));
        assert!(span.cycles > 0.0);
        // ~100 us at 1.6-3.4 GHz: between 1.6e5 and 3.4e5 cycles.
        assert!(
            (1.0e5..4.0e5).contains(&span.cycles),
            "cycles {}",
            span.cycles
        );
    }

    #[test]
    fn timer_interrupts_arrive_at_hz() {
        let mut m = machine();
        let mut timers = 0;
        loop {
            let span = m.run_user_until(Ps::from_secs(2));
            match span.ended_by {
                SpanEnd::Interrupt(irq) if irq.kind == InterruptKind::Timer => timers += 1,
                SpanEnd::Interrupt(_) => {}
                SpanEnd::Deadline => break,
            }
        }
        // 250 Hz for 2 s.
        assert!((495..=505).contains(&timers), "timer count {timers}");
        assert_eq!(
            m.ground_truth().of_kind(InterruptKind::Timer).count(),
            timers
        );
    }

    #[test]
    fn rdtsc_is_monotone_and_tsd_gated() {
        let mut m = machine();
        let a = m.rdtsc().unwrap();
        m.spin(10_000);
        let b = m.rdtsc().unwrap();
        assert!(b > a);
        let mut restricted = Machine::new(MachineConfig::default().with_cr4_tsd(true), 1);
        assert_eq!(restricted.rdtsc(), Err(SimError::TimerRestricted));
        assert_eq!(
            restricted.clock_read(Ps::from_ms(1)),
            Err(SimError::TimerRestricted)
        );
    }

    #[test]
    fn clock_read_truncates_to_resolution() {
        let mut m = machine();
        m.spin(5_000_000);
        let ns = m.clock_read(Ps::from_ms(1)).unwrap();
        assert_eq!(ns % 1_000_000, 0, "1 ms resolution leaves ms multiples");
    }

    #[test]
    fn preserve_selectors_mitigation_kills_footprint() {
        let cfg = MachineConfig::default().with_preserve_selectors(true);
        let mut m = Machine::new(cfg, 2);
        m.wrgs(Selector::from_bits(0x1)).unwrap();
        for _ in 0..5 {
            let _ = m.run_user_until(Ps::MAX);
        }
        assert_eq!(
            m.rdgs().bits(),
            0x1,
            "mitigated machine preserves the marker"
        );
    }

    #[test]
    fn restricted_segment_writes_fault() {
        let cfg = MachineConfig::default().with_restricted_segment_writes(true);
        let mut m = Machine::new(cfg, 3);
        assert_eq!(
            m.wrgs(Selector::from_bits(0x1)),
            Err(SimError::SegmentWriteRestricted)
        );
    }

    #[test]
    fn tickless_machine_has_no_timer_until_reenabled() {
        let cfg = MachineConfig::default().with_tickless(true);
        let mut m = Machine::new(cfg, 4);
        m.wrgs(Selector::from_bits(0x1)).unwrap();
        let _span = m.run_user_until(Ps::from_secs(1));
        // Only PMI/resched (rare) can arrive; overwhelmingly the deadline.
        let timer_irqs = m.ground_truth().of_kind(InterruptKind::Timer).count();
        assert_eq!(timer_irqs, 0);
        // Co-locating a busy task re-activates the tick.
        m.set_timer_enabled(true);
        let mut saw_timer = false;
        for _ in 0..10 {
            if let SpanEnd::Interrupt(irq) = m.run_user_until(Ps::MAX).ended_by {
                saw_timer |= irq.kind == InterruptKind::Timer;
            }
        }
        assert!(saw_timer);
    }

    #[test]
    fn co_resident_preemption_stretches_kernel_span() {
        let mut m = machine();
        m.set_co_resident(Some(CoResident::browser()));
        let mut max_kernel = Ps::ZERO;
        for _ in 0..10 {
            if let SpanEnd::Interrupt(irq) = m.run_user_until(Ps::MAX).ended_by {
                max_kernel = max_kernel.max(irq.kernel_span);
            }
        }
        assert!(
            max_kernel >= Ps::from_us(1_500),
            "preemption slice should appear, max {max_kernel}"
        );
    }

    #[test]
    fn co_resident_gs_reload_still_changes_value() {
        let mut m = machine();
        let valid = DescriptorTables::user_data_selector();
        m.set_co_resident(Some(CoResident {
            preempt_every_ticks: 1,
            slice: Ps::from_us(500),
            gs_reload: Some(valid),
            gs_reload_prob: 1.0,
        }));
        let marker = Selector::from_bits(0x2);
        m.wrgs(marker).unwrap();
        // Wait for a timer interrupt (PMI/resched don't preempt).
        loop {
            if let SpanEnd::Interrupt(irq) = m.run_user_until(Ps::MAX).ended_by {
                if irq.kind == InterruptKind::Timer {
                    break;
                }
            }
        }
        let after = m.rdgs();
        assert_ne!(after, marker, "value changed even though it is not zero");
        assert_eq!(after, valid);
    }

    #[test]
    fn injected_device_interrupts_are_delivered() {
        let mut m = machine();
        m.inject_interrupts([
            (Ps::from_us(50), InterruptKind::Network),
            (Ps::from_us(90), InterruptKind::Gpu),
        ]);
        let mut kinds = Vec::new();
        for _ in 0..2 {
            if let SpanEnd::Interrupt(irq) = m.run_user_until(Ps::from_ms(1)).ended_by {
                kinds.push(irq.kind);
            }
        }
        assert_eq!(kinds, vec![InterruptKind::Network, InterruptKind::Gpu]);
    }

    #[test]
    fn counting_thread_advances_with_time() {
        let mut m = machine();
        let a = m.counting_thread_read();
        m.spin(1_000_000);
        let b = m.counting_thread_read();
        assert!(b > a, "counting thread must advance: {a} -> {b}");
        let delta = (b - a) as f64;
        // Roughly 1e6 / ct_iter_cycles increments.
        let expected = 1.0e6 / m.config().counting_thread_iter_cycles;
        assert!(
            (delta / expected - 1.0).abs() < 0.2,
            "delta {delta} vs expected {expected}"
        );
    }

    #[test]
    fn mem_ops_cost_cache_latencies() {
        let mut m = machine();
        let cold = m.mem_access(0x9000);
        assert_eq!(cold.level, memsim::CacheLevel::Dram);
        let warm = m.mem_access(0x9000);
        assert_eq!(warm.level, memsim::CacheLevel::L1);
        m.clflush(0x9000);
        let cold2 = m.mem_access(0x9000);
        assert_eq!(cold2.level, memsim::CacheLevel::Dram);
    }

    #[test]
    fn seed_determinism() {
        let run = |seed| {
            let mut m = Machine::new(MachineConfig::default(), seed);
            m.wrgs(Selector::from_bits(0x1)).unwrap();
            let mut ends = Vec::new();
            for _ in 0..20 {
                ends.push(m.run_user_until(Ps::MAX).end);
            }
            ends
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// Counts spans ending in an interrupt over a fixed horizon.
    fn observed_returns(mut m: Machine, horizon: Ps) -> (u64, Machine) {
        let mut observed = 0;
        while let SpanEnd::Interrupt(_) = m.run_user_until(horizon).ended_by {
            observed += 1;
        }
        (observed, m)
    }

    #[test]
    fn no_fault_plan_preserves_rng_stream() {
        // A machine with no plan must behave bit-identically to the seed
        // repo: compare against a machine with an inert (zeroed) plan
        // removed at runtime before any event fires.
        let mut plain = Machine::new(MachineConfig::default(), 0xFA117);
        let mut cleared = Machine::new(
            MachineConfig::default().with_fault_plan(irq::FaultPlan::none()),
            0xFA117,
        );
        cleared.set_fault_plan(None);
        for _ in 0..50 {
            let a = plain.run_user_until(Ps::MAX);
            let b = cleared.run_user_until(Ps::MAX);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        // A zeroed plan has no delivery faults, so the machine never takes
        // the fault-rolling pop path and the stream is preserved too.
        let mut plain = Machine::new(MachineConfig::default(), 0xFA118);
        let mut inert = Machine::new(
            MachineConfig::default().with_fault_plan(irq::FaultPlan::none()),
            0xFA118,
        );
        for _ in 0..50 {
            assert_eq!(plain.run_user_until(Ps::MAX), inert.run_user_until(Ps::MAX));
        }
        assert!(inert.fault_log().is_clean());
    }

    #[test]
    fn dropped_interrupts_never_reach_the_core() {
        let horizon = Ps::from_ms(400);
        let clean = Machine::new(MachineConfig::default(), 0xD10);
        let (clean_observed, clean_m) = observed_returns(clean, horizon);
        let faulted = Machine::new(
            MachineConfig::default().with_fault_plan(irq::FaultPlan::none().with_drop_prob(0.4)),
            0xD10,
        );
        let (observed, m) = observed_returns(faulted, horizon);
        let log = m.fault_log();
        assert!(log.dropped > 0, "40% drops over 100 ticks must fire");
        assert!(observed < clean_observed);
        // Every delivery is recorded; drops are not.
        assert_eq!(m.ground_truth().len() as u64, observed);
        // Intended = delivered + dropped reproduces the clean tick count
        // (jitter can shift the boundary tick by one).
        let intended = observed + log.dropped;
        assert!(
            intended.abs_diff(clean_observed) <= 1,
            "intended {intended} vs clean {clean_observed}"
        );
        drop(clean_m);
    }

    #[test]
    fn duplicated_interrupts_add_spurious_returns() {
        let horizon = Ps::from_ms(400);
        let faulted = Machine::new(
            MachineConfig::default()
                .with_fault_plan(irq::FaultPlan::none().with_duplicate_prob(0.5)),
            0xD11,
        );
        let (observed, m) = observed_returns(faulted, horizon);
        let log = m.fault_log();
        assert!(log.duplicated > 0);
        // Ghost deliveries inflate the observed count past the intended
        // one (ghosts still pending at the horizon stay unobserved).
        let intended = observed + log.dropped - log.duplicated;
        assert!(observed > intended);
    }

    #[test]
    fn coalescing_merges_near_misses_into_one_return() {
        // A window wider than the 4 ms tick period merges every
        // subsequent tick into the first kernel stint.
        let faulted = Machine::new(
            MachineConfig::default()
                .with_fault_plan(irq::FaultPlan::none().with_coalesce_window(Ps::from_ms(5))),
            0xD12,
        );
        let (observed, m) = observed_returns(faulted, Ps::from_ms(100));
        assert!(m.fault_log().coalesced > 0);
        // Many deliveries, few observable returns.
        assert!(m.ground_truth().len() as u64 > observed);
    }

    #[test]
    fn timing_faults_keep_per_interrupt_exactness() {
        let horizon = Ps::from_ms(400);
        let faulted = Machine::new(
            MachineConfig::default().with_fault_plan(irq::FaultPlan::timing_storm()),
            0xD13,
        );
        let (observed, m) = observed_returns(faulted, horizon);
        let log = *m.fault_log();
        assert!(log.jittered > 0 && log.clamped_steps > 0);
        assert_eq!(log.delivery_faults(), 0);
        // Every intended interrupt produced exactly one observable return.
        assert_eq!(m.ground_truth().len() as u64, observed);
    }

    #[test]
    fn smt_bursts_stretch_operations() {
        let cfg = MachineConfig::default()
            .with_fault_plan(irq::FaultPlan::none().with_smt_bursts(1.0, 3.0, 8));
        let mut m = Machine::new(cfg, 0xD14);
        let t0 = m.now();
        m.spin(10_000);
        let stretched = m.now() - t0;
        let mut clean = Machine::new(MachineConfig::default(), 0xD14);
        let c0 = clean.now();
        clean.spin(10_000);
        let nominal = clean.now() - c0;
        assert!(m.fault_log().bursts > 0);
        assert!(
            stretched.as_ps() > nominal.as_ps() * 2,
            "burst factor 3 must show: {stretched} vs {nominal}"
        );
    }

    #[test]
    fn tracing_is_rng_and_timing_neutral() {
        // A traced machine must replay the untraced machine's behaviour
        // bit for bit: the sink is consulted only after every RNG draw.
        let mut plain = Machine::new(MachineConfig::default(), 0x0B5);
        let mut traced = Machine::new(MachineConfig::default(), 0x0B5);
        traced.install_trace_sink(obs::TraceSink::with_capacity(1 << 14));
        plain.wrgs(Selector::from_bits(0x2)).unwrap();
        traced.wrgs(Selector::from_bits(0x2)).unwrap();
        for _ in 0..40 {
            assert_eq!(
                plain.run_user_until(Ps::MAX),
                traced.run_user_until(Ps::MAX)
            );
        }
        assert_eq!(plain.now(), traced.now());
        // And the streams stay aligned for direct RNG reads afterwards.
        assert_eq!(plain.rng_mut().gen::<u64>(), traced.rng_mut().gen::<u64>());
    }

    #[test]
    fn trace_delivery_events_match_ground_truth() {
        let mut m = Machine::new(MachineConfig::default(), 0x0B6);
        m.install_trace_sink(obs::TraceSink::with_capacity(1 << 14));
        for _ in 0..30 {
            let _ = m.run_user_until(Ps::MAX);
        }
        let sink = m.take_trace_sink().unwrap();
        let delivered = sink.filtered(
            obs::ClassSet::of(obs::EventClass::IrqDelivered),
            0,
            u64::MAX,
        );
        assert_eq!(delivered.len(), m.ground_truth().len());
        for (event, record) in delivered.iter().zip(m.ground_truth().records()) {
            let obs::EventKind::IrqDelivered {
                irq,
                handler_cost_ps,
            } = event.kind
            else {
                unreachable!("filter returned only deliveries");
            };
            assert_eq!(event.at_ps, record.at.as_ps());
            assert_eq!(irq, obs::IrqClass::from(record.kind));
            assert_eq!(handler_cost_ps, record.handler_cost.as_ps());
        }
        assert_eq!(
            sink.metrics.counter("irq.delivered"),
            m.ground_truth().len() as u64
        );
        // Every observable return produced one KernelReturn event, and the
        // GS marker scrub produced SegClear events.
        assert!(sink.metrics.counter("kernel.returns") > 0);
    }

    #[test]
    fn trace_records_seg_clears_for_parked_marker() {
        let mut m = Machine::new(MachineConfig::default(), 0x0B7);
        m.install_trace_sink(obs::TraceSink::with_capacity(1 << 12));
        m.wrgs(Selector::from_bits(0x1)).unwrap();
        let span = m.run_user_until(Ps::MAX);
        assert!(matches!(span.ended_by, SpanEnd::Interrupt(_)));
        let sink = m.take_trace_sink().unwrap();
        let clears = sink.filtered(obs::ClassSet::of(obs::EventClass::SegClear), 0, u64::MAX);
        assert!(
            clears.iter().any(|e| matches!(
                e.kind,
                obs::EventKind::SegClear {
                    reg: obs::SegRegId::Gs,
                    null: true,
                }
            )),
            "the scrubbed GS marker must appear as a null SegClear"
        );
    }

    #[test]
    fn trace_mirrors_delivery_faults() {
        let plan = irq::FaultPlan::none()
            .with_drop_prob(0.3)
            .with_duplicate_prob(0.2);
        let mut m = Machine::new(MachineConfig::default().with_fault_plan(plan), 0x0B8);
        m.install_trace_sink(obs::TraceSink::with_capacity(1 << 14));
        while m.now() < Ps::from_ms(400) {
            let _ = m.run_user_until(Ps::from_ms(400));
        }
        let log = *m.fault_log();
        assert!(log.dropped > 0 && log.duplicated > 0);
        let sink = m.take_trace_sink().unwrap();
        assert_eq!(
            sink.count_class(obs::EventClass::IrqDropped) as u64,
            log.dropped
        );
        assert_eq!(
            sink.count_class(obs::EventClass::IrqDuplicated) as u64,
            log.duplicated
        );
    }

    #[test]
    fn kaslr_probe_ops_consume_time() {
        use memsim::KaslrLayout;
        let mut m = machine();
        m.set_kaslr(KaslrLayout::with_slot(17));
        let base = m.kaslr().unwrap().slot_base(17);
        let t0 = m.now();
        m.kernel_probe_access(base);
        assert!(m.now() > t0);
        let t1 = m.now();
        m.kernel_probe_prefetch(base);
        assert!(m.now() > t1);
    }

    /// Runs the same deterministic workload on both machines and asserts
    /// every observable (spans, selectors, cache state, fault log, ground
    /// truth, the RNG position) agrees step for step.
    fn assert_machines_equivalent(a: &mut Machine, b: &mut Machine) {
        for round in 0..40u64 {
            a.wrgs(Selector::from_bits(0x3)).unwrap();
            b.wrgs(Selector::from_bits(0x3)).unwrap();
            let sa = a.run_user_until(a.now() + Ps::from_us(800));
            let sb = b.run_user_until(b.now() + Ps::from_us(800));
            assert_eq!(sa, sb, "span diverged at round {round}");
            assert_eq!(a.rdgs(), b.rdgs(), "selector diverged at round {round}");
            a.spin(10_000);
            b.spin(10_000);
            let addr = 0x4000 + round * 0x140;
            assert_eq!(a.memory_mut().access(addr), b.memory_mut().access(addr));
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.kernel_entries(), b.kernel_entries());
        assert_eq!(a.fault_log(), b.fault_log());
        assert_eq!(a.ground_truth().records(), b.ground_truth().records());
        assert_eq!(a.memory(), b.memory());
        assert_eq!(
            a.rng_mut().gen::<u64>(),
            b.rng_mut().gen::<u64>(),
            "RNG positions diverged"
        );
    }

    #[test]
    fn reset_is_indistinguishable_from_fresh() {
        let plan = irq::FaultPlan::none()
            .with_drop_prob(0.2)
            .with_duplicate_prob(0.1);
        let target = crate::presets::by_name("honor_magicbook")
            .unwrap()
            .with_fault_plan(plan);
        // Dirty the machine thoroughly under a *different* config first:
        // kaslr layout, co-resident victim, trace sink, recorded ground
        // truth, cache contents, fault accounting, advanced time.
        let mut reused = Machine::new(MachineConfig::default(), 0xDEAD);
        reused.set_kaslr(memsim::KaslrLayout::with_slot(3));
        reused.set_co_resident(Some(CoResident::browser()));
        reused.install_trace_sink(obs::TraceSink::with_capacity(64));
        for _ in 0..20 {
            let deadline = reused.now() + Ps::from_ms(1);
            let _ = reused.run_user_until(deadline);
            reused.memory_mut().access(0x9000);
        }
        reused.reset(target.clone(), 0xF00D);
        let mut fresh = Machine::new(target, 0xF00D);
        assert!(reused.kaslr().is_none());
        assert!(reused.trace_sink().is_none());
        assert_machines_equivalent(&mut reused, &mut fresh);
    }

    #[test]
    fn reset_clears_a_fault_plan_when_the_new_config_has_none() {
        let plan = irq::FaultPlan::none().with_drop_prob(0.5);
        let mut reused = Machine::new(MachineConfig::default().with_fault_plan(plan), 0x11);
        while reused.fault_log().dropped == 0 {
            let deadline = reused.now() + Ps::from_ms(10);
            let _ = reused.run_user_until(deadline);
        }
        reused.reset(MachineConfig::default(), 0x11);
        assert_eq!(reused.fault_plan(), None);
        assert_eq!(*reused.fault_log(), FaultLog::default());
        let mut fresh = Machine::new(MachineConfig::default(), 0x11);
        assert_machines_equivalent(&mut reused, &mut fresh);
    }

    #[test]
    fn enclave_deliveries_classify_as_aex() {
        let mut m = machine();
        assert!(m.enter_enclave());
        let SpanEnd::Interrupt(irq) = m.run_user_until(Ps::MAX).ended_by else {
            panic!("unbounded span must end in an interrupt");
        };
        assert_eq!(irq.class, ExitClass::EnclaveAex);
        assert_eq!(m.aex_exits(), 1);
        assert!(m.enclave_active(), "no defense: the enclave survives AEX");
        m.exit_enclave();
        let SpanEnd::Interrupt(after) = m.run_user_until(Ps::MAX).ended_by else {
            panic!("unbounded span must end in an interrupt");
        };
        assert_eq!(after.class, ExitClass::Irq, "EEXIT ends AEX classification");
        assert_eq!(m.aex_exits(), 1);
        assert_eq!(m.ground_truth().count_class(ExitClass::EnclaveAex), 1);
    }

    #[test]
    fn quanshield_destroys_the_enclave_on_first_aex() {
        let cfg = MachineConfig::default().with_defense(Defense::QuanShield);
        let mut m = Machine::new(cfg, 0xAE1);
        assert!(m.enter_enclave());
        let SpanEnd::Interrupt(first) = m.run_user_until(Ps::MAX).ended_by else {
            panic!("unbounded span must end in an interrupt");
        };
        assert_eq!(first.class, ExitClass::EnclaveAex);
        assert!(m.enclave_destroyed());
        assert!(!m.enclave_active());
        assert!(!m.enter_enclave(), "a destroyed enclave refuses re-entry");
        let SpanEnd::Interrupt(later) = m.run_user_until(Ps::MAX).ended_by else {
            panic!("unbounded span must end in an interrupt");
        };
        assert_eq!(later.class, ExitClass::Irq, "dead enclave: ordinary IRQs");
        assert_eq!(m.aex_exits(), 1, "exactly one AEX worth of signal");
    }

    #[test]
    fn padding_fills_the_grid_and_reconciles_the_counters() {
        let cfg = MachineConfig::default().with_defense(Defense::default_padding());
        let mut m = Machine::new(cfg, 0xDA9);
        m.spin(20_000_000);
        let elapsed_ms = m.now().as_ps() / 1_000_000_000;
        let pads = m.padded_exits();
        // One pad per 1 ms quantum, up to grid-phase slack at both ends.
        assert!(
            pads.abs_diff(elapsed_ms) <= 2,
            "pads {pads} vs elapsed {elapsed_ms} ms"
        );
        assert_eq!(
            m.ground_truth().count_class(ExitClass::DefensePad) as u64,
            pads
        );
        assert_eq!(
            m.kernel_entries(),
            m.ground_truth().len() as u64,
            "every kernel entry (pad or IRQ) is one ground-truth record"
        );
    }

    #[test]
    fn padding_draws_no_rng() {
        // Two padded machines and one plain machine, same seed: pads must
        // be deterministic, and a padded machine's RNG position after a
        // fixed workload must equal the plain machine's (the padding path
        // performs zero draws; deliveries draw the same stream).
        let run = |defense: Defense| {
            let cfg = MachineConfig::default().with_defense(defense);
            let mut m = Machine::new(cfg, 0x9AD);
            m.spin(30_000_000);
            let tail = m.rng_mut().gen::<u64>();
            (m.now(), m.kernel_entries(), m.padded_exits(), tail)
        };
        let a = run(Defense::default_padding());
        let b = run(Defense::default_padding());
        assert_eq!(a, b, "padding must be bit-deterministic");
        let plain = run(Defense::None);
        assert_eq!(a.3, plain.3, "pads must not move the RNG position");
        assert!(a.2 > 0 && plain.2 == 0);
    }

    #[test]
    fn enclave_windows_preserve_timing_and_rng() {
        // Entering/leaving the enclave only re-labels deliveries; span
        // timing and the RNG stream must match a machine that never
        // touches the enclave API.
        let mut plain = Machine::new(MachineConfig::default(), 0xE9C);
        let mut enclaved = Machine::new(MachineConfig::default(), 0xE9C);
        for round in 0..30 {
            if round % 3 == 0 {
                assert!(enclaved.enter_enclave());
            } else if round % 3 == 2 {
                enclaved.exit_enclave();
            }
            let a = plain.run_user_until(Ps::MAX);
            let b = enclaved.run_user_until(Ps::MAX);
            assert_eq!(a.end, b.end, "span timing diverged at round {round}");
            assert_eq!(a.cycles, b.cycles);
        }
        assert!(enclaved.aex_exits() > 0);
        assert_eq!(plain.now(), enclaved.now());
        assert_eq!(
            plain.rng_mut().gen::<u64>(),
            enclaved.rng_mut().gen::<u64>(),
            "RNG positions diverged"
        );
    }

    #[test]
    fn reset_after_restore_is_indistinguishable_from_fresh() {
        // `restore` swaps in snapshot state wholesale (fabric rebuilt
        // from a snapshot, RNG forced to an arbitrary mid-stream
        // position); a later `reset` must still reproduce `Machine::new`
        // exactly, leaving no residue of the restored image behind.
        let target = crate::presets::by_name("amazon_t2_large")
            .unwrap()
            .with_fault_plan(irq::FaultPlan::none().with_drop_prob(0.25));
        let mut reused = Machine::new(crate::presets::by_name("lenovo_savior").unwrap(), 0xBEEF);
        reused.set_kaslr(memsim::KaslrLayout::with_slot(7));
        for _ in 0..15 {
            let deadline = reused.now() + Ps::from_ms(1);
            let _ = reused.run_user_until(deadline);
            reused.memory_mut().access(0xA000);
        }
        let snap = reused.snapshot();
        // Drift past the snapshot, then restore into the past.
        reused.spin(2_000_000);
        reused.restore(&snap);
        reused.reset(target.clone(), 0xF00D);
        let mut fresh = Machine::new(target, 0xF00D);
        assert_machines_equivalent(&mut reused, &mut fresh);
    }
}
