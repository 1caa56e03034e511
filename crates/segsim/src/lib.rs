//! `segsim` — the deterministic discrete-event x86 machine simulator the
//! SegScope reproduction runs on.
//!
//! One [`Machine`] models the attacker-observable logical core of a
//! Table I test machine:
//!
//! * picosecond-resolution time with CPU cycles integrated over a
//!   piecewise-constant DVFS frequency ([`FreqModel`]),
//! * a per-core interrupt fabric (APIC timer, PMIs, rescheduling IPIs,
//!   injected device interrupts) from the [`irq`] crate,
//! * the x86 segment-register file with Algorithm 1's selector scrub on
//!   every kernel→user return (from [`x86seg`]),
//! * an invariant TSC (`rdtsc`/`rdpru`) optionally gated by `CR4.TSD`,
//! * a cache hierarchy and KASLR layout (from [`memsim`]),
//! * microarchitectural noise models (per-op jitter, heavy-tail stalls,
//!   SMT-sibling contention, hypervisor steal time).
//!
//! Guest code drives the machine through operations ([`Machine::wrgs`],
//! [`Machine::rdgs`], [`Machine::rdtsc`], [`Machine::mem_access`], …),
//! while the analytic fast path [`Machine::run_user_until`] lets probing
//! loops cover millions of interrupts cheaply and exactly.
//!
//! # Example: the SegScope footprint end to end
//!
//! ```
//! use segsim::{Machine, MachineConfig, SpanEnd};
//! use x86seg::Selector;
//!
//! let mut m = Machine::new(MachineConfig::xiaomi_air13(), 1234);
//! m.wrgs(Selector::from_bits(0x1))?; // plant a non-zero null selector
//! let span = m.run_user_until(irq::Ps::MAX);
//! assert!(matches!(span.ended_by, SpanEnd::Interrupt(_)));
//! assert!(m.rdgs().is_zero()); // the footprint
//! # Ok::<(), segsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core;
mod error;
mod freq;
pub mod presets;
mod snapshot;

pub use crate::core::{CoResident, DeliveredIrq, Machine, SpanEnd, UserSpan};
pub use config::{Defense, Hypervisor, MachineConfig, NoiseModel, Vendor};
pub use error::SimError;
pub use freq::{FreqConfig, FreqModel, StepFn};
pub use snapshot::Snapshot;

// Re-export the time unit so downstream crates need not spell `irq::Ps`.
pub use irq::Ps;

// Re-export the fault-injection types configured via
// [`MachineConfig::with_fault_plan`] and audited via
// [`Machine::fault_log`].
pub use irq::{FaultLog, FaultPlan};

// Re-export the kernel-exit taxonomy so scenario code can classify
// deliveries without depending on `irq` directly.
pub use irq::{ExitClass, KernelExit};

// Re-export the observability sink installed via
// [`Machine::install_trace_sink`] so callers need not depend on `obs`
// directly for the common case.
pub use obs::TraceSink;
