//! LSTM and bidirectional LSTM layers with truncated-free full BPTT.

#[cfg(test)]
use crate::expf::sigmoid;
use crate::expf::sigmoid8;
use crate::mat::Mat;
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
/// makes it the trainer's arena: buffers only grow to the longest group.
///
/// A group is `lanes` sequences (ragged lengths allowed) laid out
/// feature-major (SoA), so element `(feature f, lane l)` of a per-step
/// block sits at `f * lanes + l`:
///
/// * `xh`: `steps + 1` blocks of `(input + hidden) × lanes`; block `t` is
///   `[x_t, h_t]` — exactly step `t`'s matvec input — and step `t`
///   writes `h_{t+1}` into block `t + 1` (`h_0 = 0`).
/// * `cs`: `c_0 .. c_T`, `hidden × lanes` each; `tc`: `tanh(c_{t+1})`
///   kept from the forward pass, so BPTT does not recompute it.
/// * `gates`: per step `4·hidden × lanes` post-nonlinearity `[i, f, g,
///   o]` rows; BPTT overwrites each step with its gate deltas.
///
/// A lane past its own length is padding: the gate step skips it, BPTT
/// writes exact zero deltas there, and the gradient fold never reads
/// them, so padding does not reach any result.
#[derive(Debug, Clone, Default)]
pub struct LstmTrace {
    input: usize,
    hidden: usize,
    lanes: usize,
    steps: usize,
    lens: Vec<usize>,
    xh: Vec<f32>,
    cs: Vec<f32>,
    tc: Vec<f32>,
    gates: Vec<f32>,
    // Step scratch: which lanes are live, and BPTT's recurrent deltas.
    live: Vec<bool>,
    dh_next: Vec<f32>,
    dc_next: Vec<f32>,
}

impl LstmTrace {
    /// Hidden state after step `t` (0-based step index): a feature-major
    /// `hidden × lanes` block, i.e. the plain hidden vector for a
    /// one-lane trace.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    #[must_use]
    pub fn hidden(&self, t: usize) -> &[f32] {
        assert!(t < self.steps, "trace step out of range");
        let block = (self.input + self.hidden) * self.lanes;
        &self.xh[(t + 1) * block + self.input * self.lanes..(t + 2) * block]
    }

    /// Copies lane `lane`'s hidden state after step `t` into `out`.
    ///
    /// # Panics
    ///
    /// Panics when `t` or `lane` is out of range or `out.len() != hidden`.
    pub fn hidden_lane(&self, t: usize, lane: usize, out: &mut [f32]) {
        assert!(lane < self.lanes, "trace lane out of range");
        assert_eq!(out.len(), self.hidden, "hidden dimension");
        for (o, &v) in out
            .iter_mut()
            .zip(self.hidden(t).iter().skip(lane).step_by(self.lanes))
        {
            *o = v;
        }
    }

    /// Number of timesteps traced (the longest lane's length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }
}

/// One LSTM cell step over SoA lanes, shared by training, batch inference
/// and the streaming server (`crates/serve`).
///
/// `c`, `tc` and `h` are feature-major `hidden × lanes` blocks with
/// `lanes = live.len()`; `gates` stacks four such blocks, the `[i, f, g,
/// o]` pre-activations, and receives the activations. `c` holds the
/// previous cell state on entry and the new one on exit; `tc` receives
/// `tanh(c)` and `h` the new hidden state. Every live lane runs
/// `sigmoid`/`tanh` per gate, `f·c + i·g` into the cell and `o·tanh(c)`
/// into the hidden state — one fixed operation order, so a lane's state
/// does not depend on how many lanes run. Lanes with `live[l] == false`
/// (past the end of a ragged sequence) are left untouched.
///
/// The step runs as passes over whole blocks, eight elements at a time:
/// `sigmoid` over the `i`, `f` and `o` blocks, `tanh` over `g`, the cell
/// update, then `tanh(c)` and the hidden state. `tanh` is a branch-free
/// port of glibc's `tanhf` and `sigmoid` computes `1/(1 + expf(-x))`
/// over a port of glibc's FMA `expf`; both return the libm bits for
/// every input. With idle lanes, each pass walks the blocks row by row
/// so that row element `l` is lane `l`, and keeps idle lanes' values.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn gate_step(gates: &mut [f32], c: &mut [f32], tc: &mut [f32], h: &mut [f32], live: &[bool]) {
    let (n, lanes) = (c.len(), live.len());
    assert!(lanes > 0 && n % lanes == 0, "cell length");
    assert_eq!(gates.len(), 4 * n, "gate rows");
    assert_eq!(tc.len(), n, "tanh(c) length");
    assert_eq!(h.len(), n, "hidden length");
    let (gi, rest) = gates.split_at_mut(n);
    let (gf, rest) = rest.split_at_mut(n);
    let (gg, go) = rest.split_at_mut(n);
    if live.iter().all(|&on| on) {
        map8(gi, sigmoid8);
        map8(gf, sigmoid8);
        map8(gg, tanh8);
        map8(go, sigmoid8);
        for (((c, &f), &i), &g) in c.iter_mut().zip(&*gf).zip(&*gi).zip(&*gg) {
            *c = f * *c + i * g;
        }
        tc.copy_from_slice(c);
        map8(tc, tanh8);
        for ((h, &o), &t) in h.iter_mut().zip(&*go).zip(&*tc) {
            *h = o * t;
        }
        return;
    }
    map8_live(gi, live, sigmoid8);
    map8_live(gf, live, sigmoid8);
    map8_live(gg, live, tanh8);
    map8_live(go, live, sigmoid8);
    let cells = c
        .chunks_mut(lanes)
        .zip(tc.chunks_mut(lanes))
        .zip(h.chunks_mut(lanes));
    let gates = gf
        .chunks(lanes)
        .zip(gi.chunks(lanes))
        .zip(gg.chunks(lanes).zip(go.chunks(lanes)));
    for (((c, tc), h), ((f, i), (g, o))) in cells.zip(gates) {
        for (l, &on) in live.iter().enumerate() {
            c[l] = if on { f[l] * c[l] + i[l] * g[l] } else { c[l] };
        }
        let chunks = c
            .chunks(LANES)
            .zip(tc.chunks_mut(LANES))
            .zip(h.chunks_mut(LANES));
        for ((((c, tc), h), o), on) in chunks.zip(o.chunks(LANES)).zip(live.chunks(LANES)) {
            let mut v = load8(c);
            tanh8(&mut v);
            for (e, &on) in on.iter().enumerate() {
                tc[e] = if on { v[e] } else { tc[e] };
                h[e] = if on { o[e] * v[e] } else { h[e] };
            }
        }
    }
}

/// Runs `kernel` over `xs` in place, eight elements at a time.
#[inline(always)]
fn map8(xs: &mut [f32], kernel: impl Fn(&mut [f32; LANES])) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        kernel(chunk.try_into().expect("chunk of LANES"));
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        let mut v = load8(rest);
        kernel(&mut v);
        rest.copy_from_slice(&v[..rest.len()]);
    }
}

/// [`map8`] over a feature-major block with lanes `live.len()`, row by
/// row so that row element `l` is lane `l`, keeping idle lanes' values.
#[inline(always)]
fn map8_live(xs: &mut [f32], live: &[bool], kernel: impl Fn(&mut [f32; LANES])) {
    for row in xs.chunks_mut(live.len()) {
        for (chunk, on) in row.chunks_mut(LANES).zip(live.chunks(LANES)) {
            let mut v = load8(chunk);
            kernel(&mut v);
            for ((x, v), &on) in chunk.iter_mut().zip(v).zip(on) {
                *x = if on { v } else { *x };
            }
        }
    }
}

/// `xs` (at most `LANES` elements) padded with zeros to `LANES`.
#[inline(always)]
fn load8(xs: &[f32]) -> [f32; LANES] {
    xs.try_into().unwrap_or_else(|_| {
        let mut v = [0.0f32; LANES];
        v[..xs.len()].copy_from_slice(xs);
        v
    })
}

/// Where [`Lstm::backward_impl`] reads each step's hidden-output
/// gradient.
#[derive(Clone, Copy)]
enum DhSrc<'a> {
    /// `steps × hidden × lanes`, laid out like the trace.
    Steps(&'a [f32]),
    /// `hidden × lanes`, applied at each lane's last step only.
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

    /// Runs the layer over a group of sequences, one lane each, into
    /// `trace` (reusing its buffers). Each lane's activations are
    /// bit-identical to [`Lstm::forward`] on that sequence alone.
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
        let steps = seqs.iter().map(|s| s.len()).max().unwrap_or(0);
        let block = (n + h) * lanes;
        let cell = h * lanes;
        trace.input = n;
        trace.hidden = h;
        trace.lanes = lanes;
        trace.steps = steps;
        trace.lens.clear();
        trace.lens.extend(seqs.iter().map(|s| s.len()));
        // Zero inputs past each lane's end, h_0 and c_0; every other
        // element is written below before it is read.
        trace.xh.clear();
        trace.xh.resize((steps + 1) * block, 0.0);
        trace.cs.resize((steps + 1) * cell, 0.0);
        trace.cs[..cell].fill(0.0);
        trace.tc.resize(steps * cell, 0.0);
        trace.gates.resize(steps * 4 * cell, 0.0);
        for (l, seq) in seqs.iter().enumerate() {
            let len = seq.len();
            for (t, x) in seq.iter().enumerate() {
                assert_eq!(x.len(), n, "lstm input dimension");
                let step = if reverse { len - 1 - t } else { t };
                let xs = &mut trace.xh[step * block..step * block + n * lanes];
                for (f, &v) in x.iter().enumerate() {
                    xs[f * lanes + l] = v;
                }
            }
        }
        for t in 0..steps {
            let (done, next) = trace.xh.split_at_mut((t + 1) * block);
            let gates = &mut trace.gates[t * 4 * cell..(t + 1) * 4 * cell];
            gates.fill(0.0);
            self.w.matvec_bias_acc_soa(&done[t * block..], lanes, gates);
            let (c_prev, c_new) = trace.cs.split_at_mut((t + 1) * cell);
            let c = &mut c_new[..cell];
            c.copy_from_slice(&c_prev[t * cell..]);
            trace.live.clear();
            trace.live.extend(trace.lens.iter().map(|&len| t < len));
            gate_step(
                gates,
                c,
                &mut trace.tc[t * cell..(t + 1) * cell],
                &mut next[n * lanes..block],
                &trace.live,
            );
        }
    }

    /// Backpropagates through the traced group and accumulates the weight
    /// gradient until [`Lstm::apply_grads`].
    ///
    /// `dh` is the loss gradient w.r.t. each step's hidden output, laid
    /// out like the trace (`steps × hidden × lanes`, feature-major per
    /// step; entries past a lane's length are ignored). The trace's gates
    /// are overwritten with the gate deltas.
    ///
    /// Bit-identical to backpropagating each lane alone, in lane order:
    /// the delta pass keeps each lane's scalar operation order, and the
    /// gradient is folded lane ascending, step descending — the order a
    /// one-lane-at-a-time loop accumulates in.
    ///
    /// # Panics
    ///
    /// Panics if the trace came from a different layer shape or `dh`
    /// has the wrong length.
    pub fn backward(&mut self, trace: &mut LstmTrace, dh: &[f32]) {
        assert_eq!(
            dh.len(),
            trace.steps * trace.hidden * trace.lanes,
            "dh length"
        );
        self.backward_impl(trace, DhSrc::Steps(dh));
    }

    /// [`Lstm::backward`] with a gradient only at each lane's final
    /// hidden state — the many-to-one classifier case. `dh_last` is
    /// `hidden × lanes`, feature-major.
    ///
    /// # Panics
    ///
    /// Panics if `dh_last` does not match the hidden size times lanes.
    pub fn backward_last(&mut self, trace: &mut LstmTrace, dh_last: &[f32]) {
        assert_eq!(dh_last.len(), trace.hidden * trace.lanes, "dh dimension");
        self.backward_impl(trace, DhSrc::Last(dh_last));
    }

    fn backward_impl(&mut self, trace: &mut LstmTrace, src: DhSrc<'_>) {
        let (n, h) = (self.input, self.hidden);
        assert_eq!(trace.input, n, "trace from a different layer shape");
        assert_eq!(trace.hidden, h, "trace from a different layer shape");
        let (lanes, steps) = (trace.lanes, trace.steps);
        let cell = h * lanes;
        let block = (n + h) * lanes;
        trace.dh_next.clear();
        trace.dh_next.resize(cell, 0.0);
        trace.dc_next.clear();
        trace.dc_next.resize(cell, 0.0);
        let dh_next = &mut trace.dh_next;
        let dc_next = &mut trace.dc_next;
        for t in (0..steps).rev() {
            let c_prev = &trace.cs[t * cell..(t + 1) * cell];
            let tcs = &trace.tc[t * cell..(t + 1) * cell];
            let dpre = &mut trace.gates[t * 4 * cell..(t + 1) * 4 * cell];
            let (gi, rest) = dpre.split_at_mut(cell);
            let (gf, rest) = rest.split_at_mut(cell);
            let (gg, go) = rest.split_at_mut(cell);
            for (l, &len) in trace.lens.iter().enumerate() {
                for k in (l..cell).step_by(lanes) {
                    if t >= len {
                        // Past the lane's end: exact zeros, so its delta
                        // pass starts from the state a one-lane run has.
                        gi[k] = 0.0;
                        gf[k] = 0.0;
                        gg[k] = 0.0;
                        go[k] = 0.0;
                        dc_next[k] = 0.0;
                        continue;
                    }
                    let dh_t = match src {
                        DhSrc::Steps(d) => d[t * cell + k],
                        DhSrc::Last(d) if t + 1 == len => d[k],
                        DhSrc::Last(_) => 0.0,
                    };
                    let dh_total = dh_t + dh_next[k];
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
            self.w.matvec_t_acc_soa(dpre, lanes, n, dh_next);
        }
        // The ordered gradient fold: lane ascending, step descending.
        for (l, &len) in trace.lens.iter().enumerate() {
            for t in (0..len).rev() {
                self.grad.outer_acc_bias_lane(
                    &trace.gates[t * 4 * cell..(t + 1) * 4 * cell],
                    &trace.xh[t * block..(t + 1) * block],
                    lanes,
                    l,
                );
            }
        }
    }

    /// Applies accumulated gradients (scaled by `1/batch`) with Adam and
    /// clears the buffer.
    pub fn apply_grads(&mut self, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        for g in self.grad.as_mut_slice() {
            *g *= scale;
        }
        let grads = std::mem::replace(&mut self.grad, Mat::zeros(0, 0));
        let mut flat = grads;
        self.adam.step(self.w.as_mut_slice(), flat.as_mut_slice());
        flat.fill_zero();
        self.grad = flat;
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
/// of lane `l` saw input `len_l - 1 - s`.
#[derive(Debug, Clone, Default)]
pub struct BiLstmTrace {
    fwd: LstmTrace,
    bwd: LstmTrace,
}

impl BiLstmTrace {
    /// Writes lane `lane`'s concatenated `[h_fwd(t), h_bwd(t)]` output at
    /// timestep `t` into `out` (`2 × hidden` long).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `2 × hidden` or `t` is past the
    /// lane's length.
    pub fn output_into(&self, lane: usize, t: usize, out: &mut [f32]) {
        let len = self.fwd.lens[lane];
        assert!(t < len, "trace step out of range");
        let (f, b) = out.split_at_mut(self.fwd.hidden);
        self.fwd.hidden_lane(t, lane, f);
        self.bwd.hidden_lane(len - 1 - t, lane, b);
    }

    /// Number of timesteps (the longest lane's length).
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

    /// Runs both directions over a group of sequences, one lane each,
    /// into `trace` (reusing its buffers).
    pub fn forward_lanes(&self, seqs: &[&[Vec<f32>]], trace: &mut BiLstmTrace) {
        self.fwd.forward_group(seqs, false, &mut trace.fwd);
        self.bwd.forward_group(seqs, true, &mut trace.bwd);
    }

    /// Backpropagates per-direction output gradients, each laid out like
    /// its direction's trace (see [`Lstm::backward`]): `d_fwd` at
    /// forward step `t` is the gradient of output `t`'s first half, and
    /// `d_bwd` at reverse step `s` that of output `len - 1 - s`'s second
    /// half.
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

    /// [`gate_step`] at several widths with ragged live masks: each live
    /// lane holds bit for bit what the scalar cell step with libm `tanh`
    /// computes, and idle lanes' gates, cell, `tanh(c)` and hidden state
    /// are untouched. Pre-activations span every `tanh` branch.
    #[test]
    fn gate_step_matches_the_scalar_cell_step_and_skips_idle_lanes() {
        let hidden = 5;
        let value = |k: usize, salt: usize| {
            let scale = [1e-9, 0.3, 2.0, 9.0, 30.0][(k + salt) % 5];
            ((k * 37 + salt) as f32 * 0.731).sin() * scale
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for lanes in [1usize, 3, 4, 8, 17, 64] {
            let n = hidden * lanes;
            let live: Vec<bool> = (0..lanes).map(|l| (l + lanes) % 3 != 0).collect();
            let gates0: Vec<f32> = (0..4 * n).map(|k| value(k, 1)).collect();
            let c0: Vec<f32> = (0..n).map(|k| value(k, 2)).collect();
            let (mut gates, mut c) = (gates0.clone(), c0.clone());
            let (mut tc, mut h) = (vec![-7.5f32; n], vec![7.5f32; n]);
            gate_step(&mut gates, &mut c, &mut tc, &mut h, &live);
            for k in 0..n {
                let at = [k, n + k, 2 * n + k, 3 * n + k];
                let got = [at.map(|i| gates[i]).as_slice(), &[c[k], tc[k], h[k]]].concat();
                let want = if live[k % lanes] {
                    let i_g = sigmoid(gates0[at[0]]);
                    let f_g = sigmoid(gates0[at[1]]);
                    let g_g = gates0[at[2]].tanh();
                    let o_g = sigmoid(gates0[at[3]]);
                    let cv = f_g * c0[k] + i_g * g_g;
                    let t = cv.tanh();
                    vec![i_g, f_g, g_g, o_g, cv, t, o_g * t]
                } else {
                    [at.map(|i| gates0[i]).as_slice(), &[c0[k], -7.5, 7.5]].concat()
                };
                assert_eq!(bits(&got), bits(&want), "width {lanes}, element {k}");
            }
        }
    }

    /// A lane gets the same bits from the all-live passes as from the
    /// passes that skip idle lanes, at widths with and without a partial
    /// chunk of eight.
    #[test]
    fn gate_step_gives_a_lane_the_same_bits_with_or_without_idle_lanes() {
        let hidden = 3;
        for lanes in [2usize, 8, 9, 64] {
            let n = hidden * lanes;
            let gates0: Vec<f32> = (0..4 * n).map(|k| (k as f32 * 0.377).sin() * 6.0).collect();
            let c0: Vec<f32> = (0..n).map(|k| (k as f32 * 0.519).cos() * 3.0).collect();
            let run = |live: &[bool]| {
                let (mut gates, mut c) = (gates0.clone(), c0.clone());
                let (mut tc, mut h) = (vec![0.0f32; n], vec![0.0f32; n]);
                gate_step(&mut gates, &mut c, &mut tc, &mut h, live);
                [gates, c, tc, h].map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            let all = run(&vec![true; lanes]);
            let idle_first = run(&(0..lanes).map(|l| l != 0).collect::<Vec<_>>());
            for (a, b) in all.iter().zip(&idle_first) {
                for (k, (a, b)) in a.iter().zip(b).enumerate() {
                    assert!(k % lanes == 0 || a == b, "width {lanes}, element {k}");
                }
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

    /// Every lane of a ragged group (and of the reverse direction) holds
    /// bit for bit the hidden states a one-lane pass over its sequence
    /// computes.
    #[test]
    fn lane_forward_matches_one_lane_forward() {
        let mut rng = SmallRng::seed_from_u64(10);
        let bi = BiLstm::new(3, 5, &mut rng, AdamConfig::default());
        let seqs: Vec<Vec<Vec<f32>>> = [4usize, 9, 1, 6, 9, 2, 7, 3, 5]
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
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut got, mut want) = ([0.0f32; 10], [0.0f32; 10]);
        for (l, seq) in seqs.iter().enumerate() {
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
