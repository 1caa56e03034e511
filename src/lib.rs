//! `segscope-repro` — the umbrella crate of the SegScope (HPCA 2024)
//! reproduction.
//!
//! This crate re-exports the whole workspace so the examples and
//! integration tests have a single dependency, plus the [`replay`]
//! module — record-and-replay and divergence bisection over whole
//! machine runs, which needs every layer and so lives at the top:
//!
//! * [`exec`] — the deterministic parallel experiment engine;
//! * [`x86seg`] — segmentation semantics (selectors, Algorithm 1);
//! * [`irq`] — interrupt fabric, handler-cost model, ground truth;
//! * [`memsim`] — caches, TLB, KASLR layout;
//! * [`specsim`] — branch prediction, Spectre gadget, umonitor/umwait;
//! * [`obs`] — the deterministic observability layer (typed event
//!   traces, metrics, Chrome `trace_event` export);
//! * [`segsim`] — the machine simulator tying the substrates together;
//! * [`segscope`] — the paper's contribution: the probe, the guard, the
//!   timer, and the timer-based baselines;
//! * [`nnet`] — the LSTM/BiLSTM classifiers;
//! * [`serve`] — the streaming inference engine: cross-session SoA
//!   batching and lane recycling, bit-identical to the batch
//!   classifier;
//! * [`scenario`] — the uniform `Scenario` trait, generic deterministic
//!   driver, and registry machinery behind the `segscope` CLI;
//! * [`attacks`] — the six end-to-end case studies plus three extension
//!   studies, all registered as scenarios;
//! * [`campaign`] — the fleet-scale campaign engine: sharded, resumable
//!   parameter-grid sweeps over the registry.
//!
//! See `README.md` for a tour and `DESIGN.md` for the per-experiment
//! index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;

pub use campaign;
pub use exec;
pub use irq;
pub use memsim;
pub use nnet;
pub use obs;
pub use scenario;
pub use segscope;
pub use segsim;
pub use serve;
pub use specsim;
pub use x86seg;

/// The case-study crate, re-exported under its module name.
pub use segscope_attacks as attacks;
