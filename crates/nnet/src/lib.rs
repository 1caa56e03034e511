//! `nnet` — a minimal, dependency-free neural-network library for the
//! SegScope reproduction's classifiers.
//!
//! The paper trains two models on side-channel traces:
//!
//! * a **32-unit LSTM** sequence classifier for website fingerprinting
//!   (paper Table IV) — provided here as [`SeqClassifier`];
//! * a **BiLSTM** per-timestep segmenter that recovers DNN layer types
//!   from SegCnt traces (paper Table V) — provided as [`SeqTagger`].
//!
//! Rather than depending on a deep-learning framework, this crate
//! implements exactly what those models need: a row-major [`Mat`],
//! [`Dense`] and [`Lstm`]/[`BiLstm`] layers with full BPTT, softmax
//! cross-entropy, the [`Adam`] optimizer, dataset helpers
//! ([`average_pool`], [`k_fold_indices`], …), and the paper's metrics
//! (top-k accuracy, [`levenshtein_accuracy`] (LDA), [`segment_accuracy`]
//! (SA)). Gradients are verified against finite differences in the test
//! suite.
//!
//! Training runs each minibatch as feature-major lane groups of
//! consecutive examples of any lengths, up to eight for the classifier
//! and four for the tagger (an [`LstmTrace`] holds one group; [`gate_step`] is the one cell step training, inference and
//! `crates/serve` share). A group's lanes are sorted by length for
//! compute only ([`LaneGroup`]): step `t` runs the lanes still running
//! as one contiguous prefix, so no lane is padding. Every lane keeps
//! the scalar operation order, and one register-tiled kernel
//! ([`Mat::outer_acc_bias_group`]) folds a group's gradients in
//! per-example order, so the trained weights are bit-identical to
//! training one example at a time. The gate step runs as whole-block
//! passes: its `tanh`, eight elements at a time, is a branch-free port
//! of glibc's `tanhf`, and its `sigmoid`, sixteen at a time, computes
//! `1/(1 + expf(-x))` over a port of glibc's FMA `expf`, both returning
//! the libm bits for every `f32` input (checked exhaustively by ignored
//! tests). The `expf` port needs the x86-64-v3 build target the
//! workspace's `.cargo/config.toml` sets.
//!
//! # Example
//!
//! ```
//! use nnet::{AdamConfig, SeqClassifier, SeqExample};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mut model = SeqClassifier::new(1, 8, 2, &mut rng, AdamConfig::default());
//! let examples = vec![
//!     SeqExample { xs: vec![vec![0.0]; 5], label: 0 },
//!     SeqExample { xs: vec![vec![1.0]; 5], label: 1 },
//! ];
//! for _ in 0..20 { model.train_epoch(&examples, 2); }
//! assert_eq!(model.predict(&examples[1].xs), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classifier;
mod data;
mod dense;
mod expf;
mod loss;
mod lstm;
mod mat;
mod metrics;
mod optim;
pub mod reference;
mod tanh;

pub use classifier::{SeqClassifier, SeqExample, SeqTagger, TaggedExample};
pub use data::{average_pool, k_fold_indices, standardize, to_features};
pub use dense::Dense;
pub use loss::{argmax, softmax, softmax_cross_entropy, softmax_cross_entropy_into, top_k};
pub use lstm::{gate_step, BiLstm, BiLstmTrace, Lstm, LstmTrace};
pub use mat::{LaneGroup, Mat};
pub use metrics::{
    collapse_runs, levenshtein, levenshtein_accuracy, per_class_segment_accuracy, segment_accuracy,
    ConfusionMatrix,
};
pub use optim::{Adam, AdamConfig};
