//! A single streaming session: incremental timesteps in, one verdict
//! out, bit-identical to the batch classifier on the same trace.

use nnet::SeqClassifier;
use serde::{Deserialize, Serialize};

/// The engine's classification result for one finished session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Predicted class (the argmax of the head logits, with
    /// [`nnet::argmax`] tie-breaking — last maximal logit wins).
    pub class: usize,
    /// Timesteps consumed to produce the verdict.
    pub steps: usize,
}

/// One streaming inference session: holds the per-session hidden/cell
/// state and consumes timesteps incrementally via
/// [`StreamSession::push`], returning the [`Verdict`] once the declared
/// trace length has been consumed.
///
/// The verdict is **bit-identical** to
/// [`nnet::SeqClassifier::predict`] on the accumulated trace: each push
/// replicates one iteration of the batch forward loop (same
/// concatenation, same kernel per-lane order, same fused gate
/// arithmetic), and the head + argmax run on the same final hidden
/// state. The parity oracle test in `tests/parity.rs` pins this, the
/// same pattern as `NaiveFabric` and `nnet::reference`.
#[derive(Debug, Clone)]
pub struct StreamSession {
    input: usize,
    expected: usize,
    seen: usize,
    h: Vec<f32>,
    c: Vec<f32>,
    concat: Vec<f32>,
    pre: Vec<f32>,
    tc: Vec<f32>,
    logits: Vec<f32>,
}

impl StreamSession {
    /// Opens a session against `model` for a trace of `expected_steps`
    /// timesteps.
    ///
    /// # Panics
    ///
    /// Panics when `expected_steps` is zero (an empty sequence cannot be
    /// classified — same contract as [`nnet::SeqClassifier::logits`]).
    #[must_use]
    pub fn new(model: &SeqClassifier, expected_steps: usize) -> Self {
        assert!(expected_steps > 0, "cannot classify an empty sequence");
        let (input, hidden) = (model.lstm().input_dim(), model.lstm().hidden_dim());
        StreamSession {
            input,
            expected: expected_steps,
            seen: 0,
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
            concat: vec![0.0; input + hidden],
            pre: vec![0.0; 4 * hidden],
            tc: vec![0.0; hidden],
            logits: vec![0.0; model.classes()],
        }
    }

    /// Timesteps consumed so far.
    #[must_use]
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Declared trace length.
    #[must_use]
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Whether the session has produced its verdict.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.seen == self.expected
    }

    /// Feeds one timestep; returns the verdict on the final one.
    ///
    /// `model` must be the model the session was opened against.
    ///
    /// # Panics
    ///
    /// Panics on an input-dimension mismatch or when pushing into a
    /// session that already produced its verdict.
    pub fn push(&mut self, model: &SeqClassifier, x: &[f32]) -> Option<Verdict> {
        assert_eq!(x.len(), self.input, "session input dimension");
        assert!(!self.finished(), "session already produced its verdict");
        self.concat[..self.input].copy_from_slice(x);
        self.concat[self.input..].copy_from_slice(&self.h);
        gate_pre_soa(model, &self.concat, 1, &mut self.pre);
        nnet::gate_step(&mut self.pre, &mut self.c, &mut self.tc, &mut self.h);
        self.seen += 1;
        if self.seen < self.expected {
            return None;
        }
        model.head().forward_into(&self.h, &mut self.logits);
        Some(Verdict {
            class: nnet::argmax(&self.logits),
            steps: self.seen,
        })
    }

    /// Rewinds the session to serve a fresh trace of `expected_steps`
    /// timesteps, reusing every buffer.
    ///
    /// # Panics
    ///
    /// Panics when `expected_steps` is zero.
    pub fn reset(&mut self, expected_steps: usize) {
        assert!(expected_steps > 0, "cannot classify an empty sequence");
        self.h.fill(0.0);
        self.c.fill(0.0);
        self.seen = 0;
        self.expected = expected_steps;
    }
}

/// Writes the stacked gate pre-activations for `lanes` lockstep
/// sessions: `concat` holds `[x, h_prev]` feature-major
/// (`concat[f * lanes + l]`), and `pre` receives the `[i, f, g, o]` rows
/// row-major (`pre[row * lanes + l]`). A lane's slice is bit-identical
/// to the batch forward pass on that lane alone at any `lanes`, because
/// [`nnet::Mat::matvec_bias_acc_soa`] keeps a width-independent per-lane
/// floating-point order; the cell arithmetic after it is
/// [`nnet::gate_step`], the one gate step training runs too.
pub(crate) fn gate_pre_soa(model: &SeqClassifier, concat: &[f32], lanes: usize, pre: &mut [f32]) {
    pre.fill(0.0);
    model
        .lstm()
        .weights()
        .matvec_bias_acc_soa(concat, lanes, pre);
}
