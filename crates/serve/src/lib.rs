//! `serve` — the streaming inference engine for the SegScope
//! classifiers: interrupt-trace timesteps arrive incrementally across
//! many concurrent sessions and advance in lockstep through the
//! [`nnet`] LSTM.
//!
//! Two layers over the full-precision [`nnet::SeqClassifier`], each
//! bit-identical to the one below:
//!
//! * [`StreamSession`] — one session's hidden/cell state with an
//!   incremental [`StreamSession::push`]`(timestep) -> Option<Verdict>`
//!   API, exactly matching [`nnet::SeqClassifier::predict`] on the same
//!   trace (the parity oracle test pins this bit-for-bit);
//! * [`SessionBatch`] — the cross-session batcher: SoA state lanes, one
//!   blocked kernel call per gate matrix per step for the whole batch,
//!   lane recycling as sessions finish and new ones attach.
//!
//! The trace-level drivers [`serve_batched`]/[`serve_sequential`] and
//! the [`verdict_fnv`] identity back the `bench_serve` throughput gate
//! and the CI smoke.
//!
//! # Example
//!
//! ```
//! use nnet::{AdamConfig, SeqClassifier};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let model = SeqClassifier::new(2, 8, 3, &mut rng, AdamConfig::default());
//! let trace = vec![vec![0.3, -0.1], vec![0.9, 0.2], vec![0.0, 0.4]];
//!
//! // Incremental serving, verdict on the final timestep…
//! let mut session = serve::StreamSession::new(&model, trace.len());
//! let mut verdict = None;
//! for x in &trace {
//!     verdict = session.push(&model, x);
//! }
//! // …bit-identical to the batch classifier.
//! assert_eq!(verdict.unwrap().class, model.predict(&trace));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod engine;
mod session;

pub use batch::{SessionBatch, SessionId};
pub use engine::{serve_batched, serve_sequential, verdict_fnv};
pub use session::{StreamSession, Verdict};
