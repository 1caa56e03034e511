//! The model face the streaming engine serves. The cell arithmetic after
//! the gate pre-activations is [`nnet::gate_step`], the one gate step
//! training and batch inference run too, so its operation order — which
//! the bit-parity guarantee rests on — has a single definition.

use nnet::SeqClassifier;

/// A many-to-one recurrent classifier the streaming engine can drive.
///
/// The engine owns the per-session hidden/cell state and the lockstep
/// batching; the model provides exactly two computations per step:
///
/// 1. [`StepModel::gate_pre_soa`] — the stacked gate pre-activations
///    for a block of lanes, and
/// 2. [`StepModel::head_logits`] — the dense head over one finished
///    session's hidden state.
///
/// **Parity contract:** for any lane `l`, the lane's slice of the
/// `gate_pre_soa` output must be bit-identical to what the model's
/// batch forward pass computes for that lane's input alone, regardless
/// of `lanes`. [`SeqClassifier`] satisfies this via
/// [`nnet::Mat::matvec_bias_acc_soa`] (width-independent per-lane
/// floating-point order); the quantized model satisfies it trivially
/// because integer accumulation is exact.
pub trait StepModel {
    /// Per-timestep feature dimensionality.
    fn input_dim(&self) -> usize;

    /// Hidden dimensionality.
    fn hidden_dim(&self) -> usize;

    /// Output class count.
    fn classes(&self) -> usize;

    /// Writes the stacked gate pre-activations for `lanes` lockstep
    /// sessions: `concat` holds `[x, h_prev]` feature-major
    /// (`concat[f * lanes + l]`, `(input + hidden) × lanes` long), and
    /// `pre` receives the `[i, f, g, o]` rows row-major
    /// (`pre[row * lanes + l]`, `4·hidden × lanes` long).
    fn gate_pre_soa(&self, concat: &[f32], lanes: usize, pre: &mut [f32]);

    /// Writes the class logits for one hidden state into `out`
    /// (`out.len() == classes`).
    fn head_logits(&self, hidden: &[f32], out: &mut [f32]);
}

impl StepModel for SeqClassifier {
    fn input_dim(&self) -> usize {
        self.lstm().input_dim()
    }

    fn hidden_dim(&self) -> usize {
        self.lstm().hidden_dim()
    }

    fn classes(&self) -> usize {
        SeqClassifier::classes(self)
    }

    fn gate_pre_soa(&self, concat: &[f32], lanes: usize, pre: &mut [f32]) {
        pre.fill(0.0);
        self.lstm()
            .weights()
            .matvec_bias_acc_soa(concat, lanes, pre);
    }

    fn head_logits(&self, hidden: &[f32], out: &mut [f32]) {
        self.head().forward_into(hidden, out);
    }
}
