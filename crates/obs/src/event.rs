//! Typed simulation events.
//!
//! Every event is stamped with **simulated** picoseconds only — never
//! wall-clock time — so a trace is a pure function of `(config, seed)`
//! and is bit-reproducible across machines, reruns, and worker-thread
//! counts. Events are `Copy` so the ring buffer never allocates per
//! record.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Compact interrupt taxonomy mirror.
///
/// `obs` sits below every simulation crate, so it cannot name
/// `irq::InterruptKind`; the `irq` crate provides the lossless
/// `From<InterruptKind>` conversion instead. Variant order matches
/// `InterruptKind::ALL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IrqClass {
    /// Local APIC timer tick.
    Timer,
    /// Rescheduling IPI.
    Resched,
    /// Performance-monitoring interrupt.
    PerfMon,
    /// Network device interrupt.
    Network,
    /// Graphics device interrupt.
    Gpu,
    /// Keyboard/input device interrupt.
    Keyboard,
    /// Thermal event interrupt.
    Thermal,
    /// TLB-shootdown / call-function IPI.
    CallFunction,
    /// Anything else.
    Other,
}

impl IrqClass {
    /// Every class, in a stable order.
    pub const ALL: [IrqClass; 9] = [
        IrqClass::Timer,
        IrqClass::Resched,
        IrqClass::PerfMon,
        IrqClass::Network,
        IrqClass::Gpu,
        IrqClass::Keyboard,
        IrqClass::Thermal,
        IrqClass::CallFunction,
        IrqClass::Other,
    ];

    /// A short stable label (used by the exporters).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IrqClass::Timer => "timer",
            IrqClass::Resched => "resched",
            IrqClass::PerfMon => "perfmon",
            IrqClass::Network => "network",
            IrqClass::Gpu => "gpu",
            IrqClass::Keyboard => "keyboard",
            IrqClass::Thermal => "thermal",
            IrqClass::CallFunction => "callfn",
            IrqClass::Other => "other",
        }
    }
}

impl fmt::Display for IrqClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which data-segment register a [`EventKind::SegClear`] touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SegRegId {
    /// DS.
    Ds,
    /// ES.
    Es,
    /// FS.
    Fs,
    /// GS.
    Gs,
}

impl SegRegId {
    /// Every register, in descriptor order.
    pub const ALL: [SegRegId; 4] = [SegRegId::Ds, SegRegId::Es, SegRegId::Fs, SegRegId::Gs];

    /// A short stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SegRegId::Ds => "ds",
            SegRegId::Es => "es",
            SegRegId::Fs => "fs",
            SegRegId::Gs => "gs",
        }
    }
}

/// A *timing*-family fault injection (delivery faults have their own
/// dedicated event kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Log-normal jitter applied to one handler-cost sample.
    HandlerJitter,
    /// An SMT-noise burst started.
    SmtBurst,
    /// A governor update hit the frequency-step clamp.
    ClampedFreqStep,
}

impl FaultKind {
    /// A short stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::HandlerJitter => "handler_jitter",
            FaultKind::SmtBurst => "smt_burst",
            FaultKind::ClampedFreqStep => "clamped_freq_step",
        }
    }
}

/// The payload of one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// An interrupt reached the core and its handler ran.
    IrqDelivered {
        /// Interrupt class.
        irq: IrqClass,
        /// Handler routine cost (`w` in paper Eq. 1), ps.
        handler_cost_ps: u64,
    },
    /// The fault plan dropped an interrupt before it reached the core.
    IrqDropped {
        /// Interrupt class.
        irq: IrqClass,
    },
    /// An interrupt was merged into an earlier kernel stint by the fault
    /// plan's coalescing window (delivered, but no own return to user).
    IrqCoalesced {
        /// Interrupt class.
        irq: IrqClass,
    },
    /// The fault plan scheduled a ghost re-delivery of an interrupt.
    IrqDuplicated {
        /// Interrupt class.
        irq: IrqClass,
        /// When the ghost will land, ps.
        ghost_at_ps: u64,
    },
    /// Algorithm 1 scrubbed one data-segment register on a kernel→user
    /// return.
    SegClear {
        /// The scrubbed register.
        reg: SegRegId,
        /// `true` when cleared for holding a (non-zero) null selector —
        /// the SegScope marker path; `false` for the sensitive-descriptor
        /// path.
        null: bool,
    },
    /// A protected-mode return to user space completed (the IRET edge the
    /// probe observes).
    KernelReturn {
        /// How many registers the scrub cleared.
        cleared: u8,
        /// Total time spent away from user space, ps.
        kernel_span_ps: u64,
    },
    /// The DVFS governor moved the core frequency.
    FreqTransition {
        /// Previous frequency, kHz.
        from_khz: u64,
        /// New frequency, kHz.
        to_khz: u64,
    },
    /// The SegScope probe completed one interval measurement.
    ProbeSample {
        /// The attacker-visible SegCnt of the interval.
        segcnt: u64,
        /// Ground truth: the interrupt class that ended the interval.
        irq: IrqClass,
    },
    /// A timing-family fault was injected.
    FaultInjected {
        /// Which fault.
        fault: FaultKind,
    },
    /// A fan-out trial started (trial engine instrumentation).
    TrialStart {
        /// Task index within the experiment.
        index: u64,
    },
    /// A fan-out trial finished.
    TrialEnd {
        /// Task index within the experiment.
        index: u64,
    },
    /// An asynchronous enclave exit: an interrupt landed while the core
    /// was executing inside an enclave, forcing the AEX return path
    /// instead of an ordinary handler-and-resume (AEX-NStep's countable
    /// event).
    AexExit {
        /// The interrupt class that forced the exit.
        irq: IrqClass,
        /// Handler routine cost, ps.
        handler_cost_ps: u64,
    },
    /// The deterministic-padding defense inserted a synthetic kernel
    /// exit (not caused by any interrupt source).
    DefensePad {
        /// Total time spent away from user space for the pad, ps.
        kernel_span_ps: u64,
    },
    /// The QuanShield-style defense tore the enclave down on its first
    /// asynchronous exit.
    EnclaveDestroyed,
    /// The streaming inference engine classified a completed session
    /// (a `serve::StreamSession` emitted its verdict).
    ServeVerdict {
        /// The serving-side session identifier (lane the session ran in).
        session: u32,
        /// Predicted class index.
        class: u32,
        /// Timesteps the session consumed before the verdict.
        steps: u32,
    },
}

impl EventKind {
    /// The payload-free class of this event.
    #[must_use]
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::IrqDelivered { .. } => EventClass::IrqDelivered,
            EventKind::IrqDropped { .. } => EventClass::IrqDropped,
            EventKind::IrqCoalesced { .. } => EventClass::IrqCoalesced,
            EventKind::IrqDuplicated { .. } => EventClass::IrqDuplicated,
            EventKind::SegClear { .. } => EventClass::SegClear,
            EventKind::KernelReturn { .. } => EventClass::KernelReturn,
            EventKind::FreqTransition { .. } => EventClass::FreqTransition,
            EventKind::ProbeSample { .. } => EventClass::ProbeSample,
            EventKind::FaultInjected { .. } => EventClass::FaultInjected,
            EventKind::TrialStart { .. } => EventClass::TrialStart,
            EventKind::TrialEnd { .. } => EventClass::TrialEnd,
            EventKind::AexExit { .. } => EventClass::AexExit,
            EventKind::DefensePad { .. } => EventClass::DefensePad,
            EventKind::EnclaveDestroyed => EventClass::EnclaveDestroyed,
            EventKind::ServeVerdict { .. } => EventClass::ServeVerdict,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulated time of the event, picoseconds. Never wall clock.
    pub at_ps: u64,
    /// Logical lane the event belongs to (0 for a standalone machine;
    /// the trial index when merged by the trial engine). Exporters map
    /// it to a display track.
    pub track: u32,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// An event on track 0.
    #[must_use]
    pub fn new(at_ps: u64, kind: EventKind) -> Self {
        Event {
            at_ps,
            track: 0,
            kind,
        }
    }

    /// The payload-free class of this event.
    #[must_use]
    pub fn class(&self) -> EventClass {
        self.kind.class()
    }
}

/// The class tag of an [`EventKind`] variant (payload-free): the
/// exporter's event name and the key of [`TraceSink::count_class`](crate::TraceSink::count_class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventClass {
    /// [`EventKind::IrqDelivered`].
    IrqDelivered,
    /// [`EventKind::IrqDropped`].
    IrqDropped,
    /// [`EventKind::IrqCoalesced`].
    IrqCoalesced,
    /// [`EventKind::IrqDuplicated`].
    IrqDuplicated,
    /// [`EventKind::SegClear`].
    SegClear,
    /// [`EventKind::KernelReturn`].
    KernelReturn,
    /// [`EventKind::FreqTransition`].
    FreqTransition,
    /// [`EventKind::ProbeSample`].
    ProbeSample,
    /// [`EventKind::FaultInjected`].
    FaultInjected,
    /// [`EventKind::TrialStart`].
    TrialStart,
    /// [`EventKind::TrialEnd`].
    TrialEnd,
    /// [`EventKind::AexExit`].
    AexExit,
    /// [`EventKind::DefensePad`].
    DefensePad,
    /// [`EventKind::EnclaveDestroyed`].
    EnclaveDestroyed,
    /// [`EventKind::ServeVerdict`].
    ServeVerdict,
}

impl EventClass {
    /// Every class, in declaration order.
    pub const ALL: [EventClass; 15] = [
        EventClass::IrqDelivered,
        EventClass::IrqDropped,
        EventClass::IrqCoalesced,
        EventClass::IrqDuplicated,
        EventClass::SegClear,
        EventClass::KernelReturn,
        EventClass::FreqTransition,
        EventClass::ProbeSample,
        EventClass::FaultInjected,
        EventClass::TrialStart,
        EventClass::TrialEnd,
        EventClass::AexExit,
        EventClass::DefensePad,
        EventClass::EnclaveDestroyed,
        EventClass::ServeVerdict,
    ];

    /// A short stable label (the Chrome exporter's event name prefix).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventClass::IrqDelivered => "irq_delivered",
            EventClass::IrqDropped => "irq_dropped",
            EventClass::IrqCoalesced => "irq_coalesced",
            EventClass::IrqDuplicated => "irq_duplicated",
            EventClass::SegClear => "seg_clear",
            EventClass::KernelReturn => "kernel_return",
            EventClass::FreqTransition => "freq_transition",
            EventClass::ProbeSample => "probe_sample",
            EventClass::FaultInjected => "fault_injected",
            EventClass::TrialStart => "trial_start",
            EventClass::TrialEnd => "trial_end",
            EventClass::AexExit => "aex_exit",
            EventClass::DefensePad => "defense_pad",
            EventClass::EnclaveDestroyed => "enclave_destroyed",
            EventClass::ServeVerdict => "serve_verdict",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_maps_to_its_class() {
        let kinds = [
            (
                EventKind::IrqDelivered {
                    irq: IrqClass::Timer,
                    handler_cost_ps: 1,
                },
                EventClass::IrqDelivered,
            ),
            (
                EventKind::IrqDropped {
                    irq: IrqClass::Network,
                },
                EventClass::IrqDropped,
            ),
            (
                EventKind::SegClear {
                    reg: SegRegId::Gs,
                    null: true,
                },
                EventClass::SegClear,
            ),
            (
                EventKind::FreqTransition {
                    from_khz: 1,
                    to_khz: 2,
                },
                EventClass::FreqTransition,
            ),
            (EventKind::TrialStart { index: 3 }, EventClass::TrialStart),
            (
                EventKind::AexExit {
                    irq: IrqClass::Timer,
                    handler_cost_ps: 7,
                },
                EventClass::AexExit,
            ),
            (
                EventKind::DefensePad { kernel_span_ps: 5 },
                EventClass::DefensePad,
            ),
            (EventKind::EnclaveDestroyed, EventClass::EnclaveDestroyed),
            (
                EventKind::ServeVerdict {
                    session: 2,
                    class: 1,
                    steps: 40,
                },
                EventClass::ServeVerdict,
            ),
        ];
        for (kind, class) in kinds {
            assert_eq!(kind.class(), class);
            assert_eq!(Event::new(9, kind).class(), class);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = EventClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventClass::ALL.len());
        let mut irqs: Vec<_> = IrqClass::ALL.iter().map(|c| c.label()).collect();
        irqs.sort_unstable();
        irqs.dedup();
        assert_eq!(irqs.len(), IrqClass::ALL.len());
    }
}
