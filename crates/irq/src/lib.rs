//! Interrupt substrate for the SegScope reproduction.
//!
//! Models everything about interrupts that the paper's experiments depend
//! on, without modeling electrical details:
//!
//! * [`time`] — picosecond-resolution simulated time ([`Ps`]), the base
//!   clock unit shared by the whole workspace.
//! * [`dist`] — small deterministic sampling helpers (normal, exponential,
//!   mixtures) built on `rand`, used by every stochastic model.
//! * [`InterruptKind`] — the interrupt taxonomy the paper's eBPF analysis
//!   distinguishes (timer, rescheduling, performance-monitoring, devices…).
//! * [`ExitClass`]/[`KernelExit`] — the kernel-exit taxonomy layered above
//!   it: ordinary IRQ, enclave AEX, synthetic padding exit (room is left
//!   for syscalls/faults), so enclave attacks and countermeasures share
//!   one delivery pipeline.
//! * [`HandlerCostModel`] — the time an interrupt handler routine steals
//!   from user space (`w` in paper Eq. 1, distribution of paper Fig. 4).
//! * [`InterruptFabric`] — a per-core APIC-like fabric combining a periodic
//!   timer source, stochastic sources (rescheduling IPIs, PMIs), and
//!   trace-driven device sources (network/GPU bursts from victim activity).
//! * [`GroundTruth`] — an in-simulator recorder playing the role the paper
//!   assigns to eBPF: perfect knowledge of every delivered interrupt, used
//!   for calibration and accuracy accounting only, never by the attacker.
//!
//! # Example
//!
//! ```
//! use irq::{InterruptFabric, InterruptKind, Ps};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! // A 250 Hz APIC timer plus a 0.3/s performance-monitoring source.
//! let mut fabric = InterruptFabric::new();
//! fabric.add_periodic_timer(250.0, Ps::from_us(2), &mut rng);
//! fabric.add_poisson(InterruptKind::PerfMon, 0.3, &mut rng);
//!
//! let first = fabric.peek_next().expect("timer is armed");
//! assert!(first.at > Ps::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
mod exit;
mod fabric;
mod fault;
mod handler;
mod kind;
pub mod naive;
pub mod time;
mod trace;

pub use exit::{ExitClass, KernelExit};
pub use fabric::{FabricSnapshot, InterruptFabric, PendingInterrupt, SourceId};
pub use fault::{FaultLog, FaultPlan, FaultedPop};
pub use handler::{HandlerCostModel, HandlerCostParams};
pub use kind::InterruptKind;
pub use naive::NaiveFabric;
pub use time::Ps;
pub use trace::{GroundTruth, IrqRecord};
