//! Deterministic observability for the SegScope reproduction.
//!
//! Every simulation crate can stream typed [`Event`]s into a
//! [`TraceSink`] — a fixed-capacity ring buffer with an embedded
//! [`Metrics`] registry of counters and phases — and export the result
//! as a Chrome `trace_event` JSON document. Replay and bisection compare
//! runs through an [`EventDigest`] of the same events.
//!
//! # Determinism rules
//!
//! The whole layer is built around three invariants:
//!
//! 1. **Simulated time only.** Events carry [`Event::at_ps`] stamped
//!    from the simulation clock; nothing in this crate ever reads wall
//!    clock, so traces are a pure function of `(config, seed)`.
//! 2. **Zero overhead when disabled.** Instrumentation hooks upstream
//!    are `if let Some(sink)` branches on an `Option`; with no sink
//!    installed they consume no RNG draws and perturb no simulated
//!    timing, keeping every existing seed and golden trace bit-stable.
//! 3. **Bounded memory.** The ring overwrites its oldest event when
//!    full and counts the overwrite in [`TraceSink::dropped`], so
//!    arbitrarily long runs trace in constant space.
//!
//! # Example
//!
//! ```
//! use obs::{EventClass, EventKind, IrqClass, TraceSink};
//!
//! let mut sink = TraceSink::with_capacity(1024);
//! sink.emit(1_000, EventKind::IrqDelivered {
//!     irq: IrqClass::Timer,
//!     handler_cost_ps: 500,
//! });
//! sink.emit(2_000, EventKind::ProbeSample { segcnt: 1, irq: IrqClass::Timer });
//! sink.metrics.incr("probe.samples", 1);
//!
//! assert_eq!(sink.count_class(EventClass::IrqDelivered), 1);
//! let json = obs::export::chrome_trace(&sink);
//! assert!(json.contains("\"irq_delivered\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
mod event;
pub mod export;
pub mod metrics;
mod ring;

pub use digest::{digest_events, fnv1a_extend, EventDigest, FNV1A_BASIS};
pub use event::{Event, EventClass, EventKind, FaultKind, IrqClass, SegRegId};
pub use metrics::{Metrics, PhaseStats};
pub use ring::{TraceSink, DEFAULT_CAPACITY};
