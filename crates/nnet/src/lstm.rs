//! LSTM and bidirectional LSTM layers with truncated-free full BPTT.

#[cfg(test)]
use crate::expf::sigmoid;
use crate::expf::{sigmoid16, SIGMOID_LANES};
use crate::mat::{LaneGroup, Mat};
use crate::optim::{Adam, AdamConfig};
use crate::tanh::{tanh8, LANES};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single-layer LSTM.
///
/// Gate layout in the stacked weight matrix is `[i, f, g, o]` over the
/// concatenated input `[x, h_prev, 1]` (the trailing 1 folds the bias in).
/// The forget-gate bias is initialized to +1, the standard trick for
/// stable early training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lstm {
    input: usize,
    hidden: usize,
    /// `4h × (input + hidden + 1)` stacked gate weights.
    w: Mat,
    grad: Mat,
    adam: Adam,
}

/// Cached activations of one lane group's forward pass — the state BPTT
/// needs — plus the BPTT scratch. Reusing one trace across minibatches
/// makes it the trainer's arena: buffers only grow to the largest group.
///
/// A group is `lanes` sequences of any lengths. Step `t` runs the
/// `w_t` lanes still running, the prefix of the lanes sorted by length,
/// descending ([`LaneGroup`]), so no lane is padding. Each per-step
/// block is feature-major (SoA) over those `w_t` lanes: element
/// `(feature f, sorted position p)` sits at `f * w_t + p`, and step `t`'s
/// blocks start at `start(t)` (the pairs of the earlier steps) times the
/// block height:
///
/// * `xh`: per step `(input + hidden) × w_t`, `[x_t, h_t]` — exactly step
///   `t`'s matvec input (`h_0 = 0`). Step `t` writes `h_{t+1}` into step
///   `t + 1`'s block when every lane runs on; when the width shrinks,
///   the rows are re-strided to `w_{t+1}` and each ending lane's final
///   hidden state goes to `h_end`.
/// * `cs`: per step `c_t`, `hidden × w_t`; re-strided like `h` when the
///   width shrinks. `tc`: per step `tanh(c_{t+1})`, kept from the
///   forward pass, so BPTT does not recompute it.
/// * `gates`: per step `4·hidden × w_t` post-nonlinearity `[i, f, g, o]`
///   rows; BPTT overwrites each step with its gate deltas.
/// * `h_end`: every lane's hidden state after its last step, `hidden ×
///   lanes` by sorted position.
///
/// After the delta pass, `cs` and `tc` are dead, so the gradient fold
/// ([`Mat::outer_acc_bias_group`]) packs into them: `cs` takes every
/// (lane, step) pair's inputs (18 floats per pair at the website shape,
/// against 16 of cell state) and `tc` one 8-row tile of its deltas.
/// Nothing reads either before the next forward pass writes it.
#[derive(Debug, Clone, Default)]
pub struct LstmTrace {
    input: usize,
    hidden: usize,
    group: LaneGroup,
    xh: Vec<f32>,
    cs: Vec<f32>,
    tc: Vec<f32>,
    gates: Vec<f32>,
    h_end: Vec<f32>,
    // BPTT's recurrent deltas; a shrinking forward step stages its new
    // cell and hidden state in them.
    dh_next: Vec<f32>,
    dc_next: Vec<f32>,
}

impl LstmTrace {
    /// Hidden state after step `t` (0-based step index) of a trace whose
    /// lanes share one length: a feature-major `hidden × lanes` block,
    /// i.e. the plain hidden vector for a one-lane trace.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range or the lanes differ in length.
    #[must_use]
    pub fn hidden(&self, t: usize) -> &[f32] {
        let (g, lanes) = (&self.group, self.group.lanes());
        assert!(t < g.steps(), "trace step out of range");
        assert_eq!(g.width(t), lanes, "hidden block of a ragged trace");
        if t + 1 == g.steps() {
            return &self.h_end[..self.hidden * lanes];
        }
        assert_eq!(g.width(t + 1), lanes, "hidden block of a ragged trace");
        let block = (self.input + self.hidden) * g.start(t + 1);
        &self.xh[block + self.input * lanes..][..self.hidden * lanes]
    }

    /// Copies lane `lane`'s hidden state after its step `t` into `out`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range, `t` is not below the lane's
    /// length or `out.len() != hidden`.
    pub fn hidden_lane(&self, t: usize, lane: usize, out: &mut [f32]) {
        let g = &self.group;
        assert!(lane < g.lanes(), "trace lane out of range");
        assert!(t < g.len(lane), "trace step out of range");
        assert_eq!(out.len(), self.hidden, "hidden dimension");
        let p = g.position(lane);
        let (src, w) = if t + 1 == g.len(lane) {
            (&self.h_end[..], g.lanes())
        } else {
            let w = g.width(t + 1);
            let block = (self.input + self.hidden) * g.start(t + 1);
            (&self.xh[block + self.input * w..], w)
        };
        for (o, &v) in out.iter_mut().zip(src.iter().skip(p).step_by(w)) {
            *o = v;
        }
    }

    /// Lane `lane`'s length.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    #[must_use]
    pub fn lane_len(&self, lane: usize) -> usize {
        self.group.len(lane)
    }

    /// Number of timesteps traced: the longest lane's length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.group.steps()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.group.steps() == 0
    }
}

/// One LSTM cell step over SoA lanes, shared by training, batch inference
/// and the streaming server (`crates/serve`).
///
/// `c`, `tc` and `h` are feature-major `hidden × lanes` blocks; `gates`
/// stacks four such blocks, the `[i, f, g, o]` pre-activations, and
/// receives the activations. `c` holds the previous cell state on entry
/// and the new one on exit; `tc` receives `tanh(c)` and `h` the new
/// hidden state. Every lane runs `sigmoid`/`tanh` per gate, `f·c + i·g`
/// into the cell and `o·tanh(c)` into the hidden state — one fixed
/// operation order per element, so a lane's state does not depend on
/// how many lanes run.
///
/// The step runs as passes over whole blocks: `sigmoid` over the `i`
/// and `f` blocks (one pass) and the `o` block sixteen elements at a
/// time, `tanh` over `g` eight
/// at a time, the cell update, then `tanh(c)` and the hidden state.
/// `tanh` is a branch-free port of glibc's `tanhf` and `sigmoid`
/// computes `1/(1 + expf(-x))` over a port of glibc's FMA `expf`; both
/// return the libm bits for every input, so the chunk width does not
/// change a bit.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn gate_step(gates: &mut [f32], c: &mut [f32], tc: &mut [f32], h: &mut [f32]) {
    let n = c.len();
    assert_eq!(gates.len(), 4 * n, "gate rows");
    assert_eq!(tc.len(), n, "tanh(c) length");
    assert_eq!(h.len(), n, "hidden length");
    let (gif, rest) = gates.split_at_mut(2 * n);
    let (gg, go) = rest.split_at_mut(n);
    // `i` and `f` are adjacent: one pass, at most one partial chunk.
    map::<SIGMOID_LANES>(gif, sigmoid16);
    map::<LANES>(gg, tanh8);
    map::<SIGMOID_LANES>(go, sigmoid16);
    let (gi, gf) = gif.split_at(n);
    for (((c, &f), &i), &g) in c.iter_mut().zip(gf).zip(gi).zip(&*gg) {
        *c = f * *c + i * g;
    }
    tc.copy_from_slice(c);
    map::<LANES>(tc, tanh8);
    for ((h, &o), &t) in h.iter_mut().zip(&*go).zip(&*tc) {
        *h = o * t;
    }
}

/// Runs `kernel` over `xs` in place, `N` elements at a time; a partial
/// last chunk runs zero-padded and only its real elements are written
/// back.
#[inline(always)]
fn map<const N: usize>(xs: &mut [f32], kernel: impl Fn(&mut [f32; N])) {
    let mut chunks = xs.chunks_exact_mut(N);
    for chunk in &mut chunks {
        kernel(chunk.try_into().expect("chunk of N"));
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        let mut v = [0.0f32; N];
        v[..rest.len()].copy_from_slice(rest);
        kernel(&mut v);
        rest.copy_from_slice(&v[..rest.len()]);
    }
}

/// Copies the first `to` lanes of each row of a feature-major block of
/// `from` lanes (`src`) into a block of `to` lanes (`dst`).
fn restride(src: &[f32], from: usize, dst: &mut [f32], to: usize) {
    for (d, s) in dst.chunks_exact_mut(to).zip(src.chunks_exact(from)) {
        d.copy_from_slice(&s[..to]);
    }
}

/// Widens a feature-major block of `rows` rows in place from `from` to
/// `to >= from` lanes, giving the new lanes `+0.0`.
fn widen(buf: &mut Vec<f32>, rows: usize, from: usize, to: usize) {
    if from == to {
        return;
    }
    buf.resize(rows * to, 0.0);
    for j in (0..rows).rev() {
        buf.copy_within(j * from..(j + 1) * from, j * to);
        buf[j * to + from..(j + 1) * to].fill(0.0);
    }
}

/// Where [`Lstm::backward_impl`] reads each step's hidden-output
/// gradient.
#[derive(Clone, Copy)]
enum DhSrc<'a> {
    /// Every step's, lane after lane in group order, each lane `len ×
    /// hidden`.
    Steps(&'a [f32]),
    /// `lanes × hidden` in group order, applied at each lane's last step
    /// only.
    Last(&'a [f32]),
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        let cols = input + hidden + 1;
        let mut w = Mat::xavier(4 * hidden, cols, rng);
        // Forget-gate bias = +1.
        for r in hidden..2 * hidden {
            *w.get_mut(r, cols - 1) = 1.0;
        }
        let len = w.as_slice().len();
        Lstm {
            input,
            hidden,
            w,
            grad: Mat::zeros(4 * hidden, cols),
            adam: Adam::new(len, adam),
        }
    }

    /// Input dimensionality.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimensionality.
    #[must_use]
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// The stacked `4h × (input + hidden + 1)` gate weight matrix
    /// (`[i, f, g, o]` row blocks, bias folded into the last column).
    ///
    /// Read-only access for inference engines that replicate the forward
    /// pass outside this struct (e.g. the streaming server in
    /// `crates/serve`, which must reproduce [`Lstm::forward`]
    /// bit-for-bit).
    #[must_use]
    pub fn weights(&self) -> &Mat {
        &self.w
    }

    /// Runs the layer over `xs`, returning a one-lane activation trace.
    ///
    /// # Panics
    ///
    /// Panics if any input vector has the wrong dimensionality.
    #[must_use]
    pub fn forward(&self, xs: &[Vec<f32>]) -> LstmTrace {
        let mut trace = LstmTrace::default();
        self.forward_lanes(&[xs], &mut trace);
        trace
    }

    /// Runs the layer over a group of sequences of any lengths, one lane
    /// each, into `trace` (reusing its buffers). Each lane's activations
    /// are bit-identical to [`Lstm::forward`] on that sequence alone.
    ///
    /// # Panics
    ///
    /// Panics if any input vector has the wrong dimensionality.
    pub fn forward_lanes(&self, seqs: &[&[Vec<f32>]], trace: &mut LstmTrace) {
        self.forward_group(seqs, false, trace);
    }

    /// [`Lstm::forward_lanes`], optionally feeding every lane its
    /// sequence back to front (the reverse direction of [`BiLstm`]).
    fn forward_group(&self, seqs: &[&[Vec<f32>]], reverse: bool, trace: &mut LstmTrace) {
        let (n, h, lanes) = (self.input, self.hidden, seqs.len());
        trace.input = n;
        trace.hidden = h;
        trace.group.set(seqs.iter().map(|s| s.len()));
        let g = &trace.group;
        let pairs = g.pairs();
        // Zero h_0 and c_0; every other element that is read is written
        // below first.
        trace.xh.clear();
        trace.xh.resize(pairs * (n + h), 0.0);
        trace.cs.resize(pairs * h, 0.0);
        trace.cs[..g.width(0) * h].fill(0.0);
        trace.tc.resize(pairs * h, 0.0);
        trace.gates.resize(pairs * 4 * h, 0.0);
        trace.h_end.resize(lanes * h, 0.0);
        for (l, seq) in seqs.iter().enumerate() {
            let (p, len) = (g.position(l), seq.len());
            for (t, x) in seq.iter().enumerate() {
                assert_eq!(x.len(), n, "lstm input dimension");
                let step = if reverse { len - 1 - t } else { t };
                let w = g.width(step);
                let xs = &mut trace.xh[(n + h) * g.start(step)..][..n * w];
                for (f, &v) in x.iter().enumerate() {
                    xs[f * w + p] = v;
                }
            }
        }
        for t in 0..g.steps() {
            let (w, next) = (g.width(t), g.width(t + 1));
            let (s0, s1) = (g.start(t), g.start(t + 1));
            let (done, later) = trace.xh.split_at_mut((n + h) * s1);
            let gates = &mut trace.gates[4 * h * s0..4 * h * s1];
            gates.fill(0.0);
            self.w.matvec_bias_acc_soa(&done[(n + h) * s0..], w, gates);
            let tc = &mut trace.tc[h * s0..h * s1];
            let (c_prev, c_later) = trace.cs.split_at_mut(h * s1);
            let c_prev = &c_prev[h * s0..];
            if next == w {
                // Every lane runs on: step in place into step t + 1's
                // blocks.
                let c = &mut c_later[..h * w];
                c.copy_from_slice(c_prev);
                gate_step(gates, c, tc, &mut later[n * w..(n + h) * w]);
                continue;
            }
            // The width shrinks: stage the step, then re-stride the
            // running lanes' state to `next` lanes and move each ending
            // lane's final hidden state to `h_end`.
            let (c, h_new) = (&mut trace.dc_next, &mut trace.dh_next);
            c.clear();
            c.extend_from_slice(c_prev);
            h_new.clear();
            h_new.resize(h * w, 0.0);
            gate_step(gates, c, tc, h_new);
            if next > 0 {
                restride(c, w, &mut c_later[..h * next], next);
                restride(h_new, w, &mut later[n * next..(n + h) * next], next);
            }
            for (end, row) in trace
                .h_end
                .chunks_exact_mut(lanes)
                .zip(h_new.chunks_exact(w))
            {
                end[next..w].copy_from_slice(&row[next..]);
            }
        }
    }

    /// Backpropagates through the traced group and accumulates the weight
    /// gradient until [`Lstm::apply_grads`].
    ///
    /// `dh` is the loss gradient w.r.t. each step's hidden output, lane
    /// after lane in group order, each lane `len × hidden` by step (for
    /// one lane, `steps × hidden`). The trace's gates are overwritten
    /// with the gate deltas and its cell states with the fold's packing,
    /// so a trace backpropagates once; its hidden states stay readable.
    ///
    /// Bit-identical to backpropagating each lane alone, in group order:
    /// a lane enters the reverse walk at its own last step with `+0.0`
    /// recurrent deltas, the delta pass keeps each lane's scalar
    /// operation order, and the gradient is folded lane after lane in
    /// group order, step descending — the order a one-lane-at-a-time
    /// loop accumulates in.
    ///
    /// # Panics
    ///
    /// Panics if the trace came from a different layer shape or `dh`
    /// has the wrong length.
    pub fn backward(&mut self, trace: &mut LstmTrace, dh: &[f32]) {
        assert_eq!(dh.len(), trace.group.pairs() * trace.hidden, "dh length");
        self.backward_impl(trace, DhSrc::Steps(dh));
    }

    /// [`Lstm::backward`] with a gradient only at each lane's final
    /// hidden state — the many-to-one classifier case. `dh_last` is
    /// `lanes × hidden`, lane after lane in group order.
    ///
    /// # Panics
    ///
    /// Panics if `dh_last` does not match the hidden size times lanes.
    pub fn backward_last(&mut self, trace: &mut LstmTrace, dh_last: &[f32]) {
        assert_eq!(
            dh_last.len(),
            trace.hidden * trace.group.lanes(),
            "dh dimension"
        );
        self.backward_impl(trace, DhSrc::Last(dh_last));
    }

    fn backward_impl(&mut self, trace: &mut LstmTrace, src: DhSrc<'_>) {
        let (n, h) = (self.input, self.hidden);
        assert_eq!(trace.input, n, "trace from a different layer shape");
        assert_eq!(trace.hidden, h, "trace from a different layer shape");
        let g = &trace.group;
        let dh_next = &mut trace.dh_next;
        let dc_next = &mut trace.dc_next;
        dh_next.clear();
        dc_next.clear();
        for t in (0..g.steps()).rev() {
            let (w, next) = (g.width(t), g.width(t + 1));
            let (s0, s1) = (g.start(t), g.start(t + 1));
            // Lanes whose last step this is enter with +0.0 deltas.
            widen(dh_next, h, next, w);
            widen(dc_next, h, next, w);
            let c_prev = &trace.cs[h * s0..h * s1];
            let tcs = &trace.tc[h * s0..h * s1];
            let dpre = &mut trace.gates[4 * h * s0..4 * h * s1];
            let (gi, rest) = dpre.split_at_mut(h * w);
            let (gf, rest) = rest.split_at_mut(h * w);
            let (gg, go) = rest.split_at_mut(h * w);
            // This step's hidden-output gradient of sorted position `p`'s
            // lane, row `j`.
            let dh_t = |p: usize, j: usize| match src {
                DhSrc::Steps(d) => d[(g.first(g.lane_at(p)) + t) * h + j],
                DhSrc::Last(d) if p >= next => d[g.lane_at(p) * h + j],
                DhSrc::Last(_) => 0.0,
            };
            for j in 0..h {
                for p in 0..w {
                    let k = j * w + p;
                    let dh_total = dh_t(p, j) + dh_next[k];
                    let i_g = gi[k];
                    let f_g = gf[k];
                    let g_g = gg[k];
                    let o_g = go[k];
                    let tc = tcs[k];
                    let dc = dh_total * o_g * (1.0 - tc * tc) + dc_next[k];
                    // Gate pre-activation gradients, written over the gates.
                    gi[k] = dc * g_g * i_g * (1.0 - i_g);
                    gf[k] = dc * c_prev[k] * f_g * (1.0 - f_g);
                    gg[k] = dc * i_g * (1.0 - g_g * g_g);
                    go[k] = dh_total * tc * o_g * (1.0 - o_g);
                    dc_next[k] = dc * f_g;
                }
            }
            dh_next.fill(0.0);
            self.w.matvec_t_acc_soa(dpre, w, n, dh_next);
        }
        // The ordered gradient fold: lane after lane in group order, step
        // descending.
        let pairs = g.pairs();
        self.grad.outer_acc_bias_group(
            &trace.gates[..pairs * 4 * h],
            &trace.xh[..pairs * (n + h)],
            g,
            &mut trace.cs,
            &mut trace.tc,
        );
    }

    /// Applies accumulated gradients (scaled by `1/batch`) with Adam and
    /// clears the buffer.
    pub fn apply_grads(&mut self, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        for g in self.grad.as_mut_slice() {
            *g *= scale;
        }
        self.adam
            .step(self.w.as_mut_slice(), self.grad.as_mut_slice());
        self.grad.fill_zero();
    }
}

/// A bidirectional LSTM: forward and reverse passes concatenated per
/// timestep (output dimension `2 × hidden`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
}

/// Cached activations of a bidirectional pass over a lane group: the
/// forward direction's trace and the reverse direction's, whose step `s`
/// of a lane of length `len` saw input `len - 1 - s`.
#[derive(Debug, Clone, Default)]
pub struct BiLstmTrace {
    fwd: LstmTrace,
    bwd: LstmTrace,
}

impl BiLstmTrace {
    /// Writes lane `lane`'s concatenated `[h_fwd(t), h_bwd(t)]` output at
    /// its timestep `t` into `out` (`2 × hidden` long).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `2 × hidden`, `lane` is out of range
    /// or `t` is not below the lane's length.
    pub fn output_into(&self, lane: usize, t: usize, out: &mut [f32]) {
        let len = self.fwd.lane_len(lane);
        assert!(t < len, "trace step out of range");
        let (f, b) = out.split_at_mut(self.fwd.hidden);
        self.fwd.hidden_lane(t, lane, f);
        self.bwd.hidden_lane(len - 1 - t, lane, b);
    }

    /// Lane `lane`'s length.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    #[must_use]
    pub fn lane_len(&self, lane: usize) -> usize {
        self.fwd.lane_len(lane)
    }

    /// Number of timesteps: the longest lane's length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fwd.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty()
    }
}

impl BiLstm {
    /// Creates a bidirectional LSTM.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        BiLstm {
            fwd: Lstm::new(input, hidden, rng, adam),
            bwd: Lstm::new(input, hidden, rng, adam),
        }
    }

    /// Hidden dimensionality of each direction.
    #[must_use]
    pub fn hidden_dim(&self) -> usize {
        self.fwd.hidden_dim()
    }

    /// Output dimensionality (`2 × hidden`).
    #[must_use]
    pub fn output_dim(&self) -> usize {
        2 * self.fwd.hidden_dim()
    }

    /// Runs both directions over `xs` (a one-lane trace).
    #[must_use]
    pub fn forward(&self, xs: &[Vec<f32>]) -> BiLstmTrace {
        let mut trace = BiLstmTrace::default();
        self.forward_lanes(&[xs], &mut trace);
        trace
    }

    /// Runs both directions over a group of sequences of any lengths,
    /// one lane each, into `trace` (reusing its buffers).
    ///
    /// # Panics
    ///
    /// Panics if any input vector has the wrong dimensionality.
    pub fn forward_lanes(&self, seqs: &[&[Vec<f32>]], trace: &mut BiLstmTrace) {
        self.fwd.forward_group(seqs, false, &mut trace.fwd);
        self.bwd.forward_group(seqs, true, &mut trace.bwd);
    }

    /// Backpropagates per-direction output gradients, each lane after
    /// lane in group order and `len × hidden` per lane (see
    /// [`Lstm::backward`]): a lane's `d_fwd` at forward step `t` is the
    /// gradient of its output `t`'s first half, and its `d_bwd` at
    /// reverse step `s` that of its output `len - 1 - s`'s second half.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward(&mut self, trace: &mut BiLstmTrace, d_fwd: &[f32], d_bwd: &[f32]) {
        self.fwd.backward(&mut trace.fwd, d_fwd);
        self.bwd.backward(&mut trace.bwd, d_bwd);
    }

    /// Applies accumulated gradients in both directions.
    pub fn apply_grads(&mut self, batch: usize) {
        self.fwd.apply_grads(batch);
        self.bwd.apply_grads(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// [`gate_step`] at several widths, with and without partial chunks
    /// of eight and sixteen: each element holds bit for bit what the
    /// scalar cell step with libm `tanh` and `expf` computes.
    /// Pre-activations span every `tanh` branch.
    #[test]
    fn gate_step_matches_the_scalar_cell_step() {
        let hidden = 5;
        let value = |k: usize, salt: usize| {
            let scale = [1e-9, 0.3, 2.0, 9.0, 30.0][(k + salt) % 5];
            ((k * 37 + salt) as f32 * 0.731).sin() * scale
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for lanes in [1usize, 3, 4, 8, 17, 64] {
            let n = hidden * lanes;
            let gates0: Vec<f32> = (0..4 * n).map(|k| value(k, 1)).collect();
            let c0: Vec<f32> = (0..n).map(|k| value(k, 2)).collect();
            let (mut gates, mut c) = (gates0.clone(), c0.clone());
            let (mut tc, mut h) = (vec![-7.5f32; n], vec![7.5f32; n]);
            gate_step(&mut gates, &mut c, &mut tc, &mut h);
            for k in 0..n {
                let at = [k, n + k, 2 * n + k, 3 * n + k];
                let got = [at.map(|i| gates[i]).as_slice(), &[c[k], tc[k], h[k]]].concat();
                let i_g = sigmoid(gates0[at[0]]);
                let f_g = sigmoid(gates0[at[1]]);
                let g_g = gates0[at[2]].tanh();
                let o_g = sigmoid(gates0[at[3]]);
                let cv = f_g * c0[k] + i_g * g_g;
                let t = cv.tanh();
                let want = [i_g, f_g, g_g, o_g, cv, t, o_g * t];
                assert_eq!(bits(&got), bits(&want), "width {lanes}, element {k}");
            }
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let lstm = Lstm::new(3, 5, &mut rng, AdamConfig::default());
        let xs = vec![vec![0.1, 0.2, 0.3]; 7];
        let trace = lstm.forward(&xs);
        assert_eq!(trace.len(), 7);
        assert_eq!(trace.hidden(6).len(), 5);
        assert_eq!(lstm.input_dim(), 3);
        assert_eq!(lstm.hidden_dim(), 5);
    }

    #[test]
    fn hidden_states_are_bounded() {
        let mut rng = SmallRng::seed_from_u64(2);
        let lstm = Lstm::new(2, 4, &mut rng, AdamConfig::default());
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![(i as f32).sin(), 1.0]).collect();
        let trace = lstm.forward(&xs);
        for t in 0..trace.len() {
            for &v in trace.hidden(t) {
                assert!(v.abs() <= 1.0, "lstm hidden out of tanh range: {v}");
            }
        }
    }

    /// Finite-difference check of the LSTM gradient on a tiny network.
    #[test]
    fn bptt_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut lstm = Lstm::new(2, 3, &mut rng, AdamConfig::default());
        let xs = vec![vec![0.5, -0.3], vec![0.1, 0.9], vec![-0.7, 0.2]];
        // Loss = sum of final hidden state.
        let loss = |l: &Lstm| -> f32 { l.forward(&xs).hidden(2).iter().sum() };
        let mut trace = lstm.forward(&xs);
        lstm.backward_last(&mut trace, &[1.0; 3]);
        // Compare a few analytic gradient entries to finite differences.
        let eps = 1e-3f32;
        for idx in [0usize, 7, 20, 41] {
            let analytic = lstm.grad.as_slice()[idx];
            let mut perturbed = lstm.clone();
            perturbed.w.as_mut_slice()[idx] += eps;
            let up = loss(&perturbed);
            perturbed.w.as_mut_slice()[idx] -= 2.0 * eps;
            let down = loss(&perturbed);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "grad[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn bilstm_output_concatenates_directions() {
        let mut rng = SmallRng::seed_from_u64(4);
        let bi = BiLstm::new(2, 3, &mut rng, AdamConfig::default());
        let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let trace = bi.forward(&xs);
        assert_eq!(trace.len(), 3);
        assert_eq!(bi.output_dim(), 6);
        let mut out = [0.0f32; 6];
        trace.output_into(0, 0, &mut out);
        // The backward direction at t=0 saw the whole reversed sequence.
        let full_bwd = bi
            .bwd
            .forward(&[xs[2].clone(), xs[1].clone(), xs[0].clone()]);
        assert_eq!(&out[3..], full_bwd.hidden(2));
        assert_eq!(&out[..3], bi.fwd.forward(&xs).hidden(0));
    }

    /// Every lane of a nine-lane ragged group (lengths with ties and a
    /// length-1 lane), in both directions, holds bit for bit the hidden
    /// states a one-lane pass over its sequence computes.
    #[test]
    fn lane_forward_matches_one_lane_forward() {
        let mut rng = SmallRng::seed_from_u64(10);
        let bi = BiLstm::new(3, 5, &mut rng, AdamConfig::default());
        let lens = [4, 7, 1, 7, 3, 5, 2, 4, 6];
        let seqs: Vec<Vec<Vec<f32>>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                (0..len)
                    .map(|t| {
                        (0..3)
                            .map(|k| ((i * 17 + t * 3 + k) as f32 * 0.29).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let group: Vec<&[Vec<f32>]> = seqs.iter().map(Vec::as_slice).collect();
        let mut lanes = BiLstmTrace::default();
        bi.forward_lanes(&group, &mut lanes);
        assert_eq!(lanes.len(), 7);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut got, mut want) = ([0.0f32; 10], [0.0f32; 10]);
        for (l, seq) in seqs.iter().enumerate() {
            assert_eq!(lanes.lane_len(l), seq.len());
            let alone = bi.forward(seq);
            let mut h = [0.0f32; 5];
            for t in 0..seq.len() {
                lanes.fwd.hidden_lane(t, l, &mut h);
                assert_eq!(
                    bits(&h),
                    bits(bi.fwd.forward(seq).hidden(t)),
                    "lane {l} step {t}"
                );
                lanes.output_into(l, t, &mut got);
                alone.output_into(0, t, &mut want);
                assert_eq!(bits(&got), bits(&want), "lane {l} output {t}");
            }
        }
    }

    /// The optimized forward/backward must agree with the naive reference
    /// implementation (identical weights, same inputs) to float tolerance.
    #[test]
    fn optimized_path_matches_naive_reference() {
        use crate::reference::NaiveLstm;
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let mut fast = Lstm::new(3, 6, &mut rng_a, AdamConfig::default());
        let mut naive = NaiveLstm::new(3, 6, &mut rng_b, AdamConfig::default());
        let xs: Vec<Vec<f32>> = (0..12)
            .map(|t| (0..3).map(|k| ((t * 3 + k) as f32 * 0.37).sin()).collect())
            .collect();
        let mut ft = fast.forward(&xs);
        let nt = naive.forward(&xs);
        for t in 0..xs.len() {
            for (a, b) in ft.hidden(t).iter().zip(nt.hidden(t)) {
                assert!((a - b).abs() < 1e-5, "h[{t}]: {a} vs {b}");
            }
        }
        let mut dh = vec![vec![0.0f32; 6]; xs.len()];
        dh[xs.len() - 1] = vec![1.0; 6];
        fast.backward(&mut ft, &dh.concat());
        naive.backward(&nt, &dh);
        for (i, (a, b)) in fast
            .grad
            .as_slice()
            .iter()
            .zip(naive.grad_slice())
            .enumerate()
        {
            assert!((a - b).abs() < 1e-4, "grad[{i}]: {a} vs {b}");
        }
        // backward_last is equivalent to a per-step dh that is zero
        // everywhere but the final step.
        let mut fast2 = {
            let mut rng = SmallRng::seed_from_u64(9);
            Lstm::new(3, 6, &mut rng, AdamConfig::default())
        };
        let mut ft2 = fast2.forward(&xs);
        fast2.backward_last(&mut ft2, &[1.0; 6]);
        assert_eq!(fast2.grad.as_slice(), fast.grad.as_slice());
    }

    #[test]
    fn training_reduces_loss_on_a_toy_task() {
        // Learn to output +1 on the last step for ascending sequences and
        // -1 for descending ones (squared loss on h_T[0]).
        let mut rng = SmallRng::seed_from_u64(5);
        let mut lstm = Lstm::new(
            1,
            4,
            &mut rng,
            AdamConfig {
                lr: 0.05,
                ..AdamConfig::default()
            },
        );
        let make = |up: bool| -> Vec<Vec<f32>> {
            (0..6)
                .map(|i| vec![if up { i as f32 } else { 5.0 - i as f32 } / 5.0])
                .collect()
        };
        let loss_of = |l: &Lstm| {
            let mut total = 0.0f32;
            for (xs, target) in [(make(true), 1.0f32), (make(false), -1.0f32)] {
                let out = l.forward(&xs).hidden(5)[0];
                total += (out - target) * (out - target);
            }
            total
        };
        let initial = loss_of(&lstm);
        for _ in 0..150 {
            for (xs, target) in [(make(true), 1.0f32), (make(false), -1.0f32)] {
                let mut trace = lstm.forward(&xs);
                let out = trace.hidden(5)[0];
                let mut dh = vec![0.0; 4];
                dh[0] = 2.0 * (out - target);
                lstm.backward_last(&mut trace, &dh);
            }
            lstm.apply_grads(2);
        }
        let trained = loss_of(&lstm);
        assert!(
            trained < initial * 0.2,
            "loss did not drop: {initial} -> {trained}"
        );
    }
}
