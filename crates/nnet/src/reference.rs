//! Unoptimized reference implementation of the LSTM hot path.
//!
//! [`NaiveLstm`] is the straightforward implementation the optimized
//! [`crate::Lstm`] replaced: naive scalar kernels, a `Vec<Vec<f32>>`
//! activation trace, and fresh allocations every timestep. It has two
//! users: `lstm.rs`'s parity test checks the fast kernels against it to
//! float tolerance, and the `naive` arm of `BENCH_parallel.json` times it
//! as the baseline of the `lstm.speedup` gate.
//!
//! Initialization draws the RNG in the same order as [`crate::Lstm::new`],
//! so a `NaiveLstm` and an `Lstm` built from equally-seeded RNGs start
//! from identical weights.

use crate::mat::Mat;
use crate::optim::{Adam, AdamConfig};
use rand::Rng;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `out += m * x`, one scalar multiply-add at a time.
fn matvec_acc_naive(m: &Mat, x: &[f32], out: &mut [f32]) {
    for (r, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (w, xi) in m.row(r).iter().zip(x) {
            acc += w * xi;
        }
        *o += acc;
    }
}

/// `out += mᵀ * g`, row by row.
fn matvec_t_acc_naive(m: &Mat, g: &[f32], out: &mut [f32]) {
    for (r, &gr) in g.iter().enumerate() {
        if gr == 0.0 {
            continue;
        }
        for (o, w) in out.iter_mut().zip(m.row(r)) {
            *o += gr * w;
        }
    }
}

/// `m += scale * g ⊗ x`, element by element.
fn outer_acc_naive(m: &mut Mat, g: &[f32], x: &[f32], scale: f32) {
    for (r, &gv) in g.iter().enumerate() {
        let gr = gv * scale;
        if gr == 0.0 {
            continue;
        }
        for (c, xi) in x.iter().enumerate() {
            *m.get_mut(r, c) += gr * xi;
        }
    }
}

/// Activation trace of a [`NaiveLstm`] forward pass: one heap vector per
/// timestep per quantity.
#[derive(Debug, Clone, Default)]
pub struct NaiveTrace {
    xs: Vec<Vec<f32>>,
    hs: Vec<Vec<f32>>,    // h_0 .. h_T (h_0 = zeros)
    cs: Vec<Vec<f32>>,    // c_0 .. c_T
    gates: Vec<Vec<f32>>, // per step: [i, f, g, o] post-nonlinearity
}

impl NaiveTrace {
    /// Hidden state after step `t` (0-based step index).
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    #[must_use]
    pub fn hidden(&self, t: usize) -> &[f32] {
        &self.hs[t + 1]
    }

    /// Number of timesteps traced.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// The pre-optimization single-layer LSTM (see the module docs).
#[derive(Debug, Clone)]
pub struct NaiveLstm {
    input: usize,
    hidden: usize,
    w: Mat,
    grad: Mat,
    adam: Adam,
}

impl NaiveLstm {
    /// Creates an LSTM with Xavier-initialized weights, identical to
    /// [`crate::Lstm::new`] for the same RNG state.
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
        NaiveLstm {
            input,
            hidden,
            w,
            grad: Mat::zeros(4 * hidden, cols),
            adam: Adam::new(len, adam),
        }
    }

    /// Hidden dimensionality.
    #[must_use]
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Accumulated weight gradient (flat), for cross-checking against the
    /// optimized implementation.
    #[must_use]
    pub fn grad_slice(&self) -> &[f32] {
        self.grad.as_slice()
    }

    /// Runs the layer over `xs`, returning the activation trace.
    ///
    /// # Panics
    ///
    /// Panics if any input vector has the wrong dimensionality.
    #[must_use]
    pub fn forward(&self, xs: &[Vec<f32>]) -> NaiveTrace {
        let h = self.hidden;
        let mut trace = NaiveTrace {
            xs: xs.to_vec(),
            hs: vec![vec![0.0; h]],
            cs: vec![vec![0.0; h]],
            gates: Vec::with_capacity(xs.len()),
        };
        for x in xs {
            assert_eq!(x.len(), self.input, "lstm input dimension");
            let h_prev = trace.hs.last().expect("h_0 exists").clone();
            let c_prev = trace.cs.last().expect("c_0 exists").clone();
            let mut concat = vec![0.0f32; self.input + h + 1];
            concat[..self.input].copy_from_slice(x);
            concat[self.input..self.input + h].copy_from_slice(&h_prev);
            concat[self.input + h] = 1.0;
            let mut pre = vec![0.0f32; 4 * h];
            matvec_acc_naive(&self.w, &concat, &mut pre);
            let mut gates = vec![0.0f32; 4 * h];
            let mut c = vec![0.0f32; h];
            let mut hv = vec![0.0f32; h];
            for j in 0..h {
                let i_g = sigmoid(pre[j]);
                let f_g = sigmoid(pre[h + j]);
                let g_g = pre[2 * h + j].tanh();
                let o_g = sigmoid(pre[3 * h + j]);
                gates[j] = i_g;
                gates[h + j] = f_g;
                gates[2 * h + j] = g_g;
                gates[3 * h + j] = o_g;
                c[j] = f_g * c_prev[j] + i_g * g_g;
                hv[j] = o_g * c[j].tanh();
            }
            trace.gates.push(gates);
            trace.cs.push(c);
            trace.hs.push(hv);
        }
        trace
    }

    /// Backpropagates through the traced sequence (`dh` per timestep).
    ///
    /// # Panics
    ///
    /// Panics if `dh` does not match the trace length or hidden size.
    pub fn backward(&mut self, trace: &NaiveTrace, dh: &[Vec<f32>]) {
        let h = self.hidden;
        let steps = trace.len();
        assert_eq!(dh.len(), steps, "dh length");
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];
        for t in (0..steps).rev() {
            assert_eq!(dh[t].len(), h, "dh dimension");
            let c = &trace.cs[t + 1];
            let c_prev = &trace.cs[t];
            let gates = &trace.gates[t];
            let mut dpre = vec![0.0f32; 4 * h];
            for j in 0..h {
                let dh_total = dh[t][j] + dh_next[j];
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tc = c[j].tanh();
                let dc = dh_total * o_g * (1.0 - tc * tc) + dc_next[j];
                dpre[j] = dc * g_g * i_g * (1.0 - i_g);
                dpre[h + j] = dc * c_prev[j] * f_g * (1.0 - f_g);
                dpre[2 * h + j] = dc * i_g * (1.0 - g_g * g_g);
                dpre[3 * h + j] = dh_total * tc * o_g * (1.0 - o_g);
                dc_next[j] = dc * f_g;
            }
            let mut concat = vec![0.0f32; self.input + h + 1];
            concat[..self.input].copy_from_slice(&trace.xs[t]);
            concat[self.input..self.input + h].copy_from_slice(&trace.hs[t]);
            concat[self.input + h] = 1.0;
            outer_acc_naive(&mut self.grad, &dpre, &concat, 1.0);
            let mut dconcat = vec![0.0f32; self.input + h + 1];
            matvec_t_acc_naive(&self.w, &dpre, &mut dconcat);
            dh_next.copy_from_slice(&dconcat[self.input..self.input + h]);
        }
    }

    /// Applies accumulated gradients (scaled by `1/batch`) with Adam and
    /// clears the buffer.
    pub fn apply_grads(&mut self, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        for g in self.grad.as_mut_slice() {
            *g *= scale;
        }
        let mut flat = std::mem::replace(&mut self.grad, Mat::zeros(0, 0));
        self.adam.step(self.w.as_mut_slice(), flat.as_mut_slice());
        flat.fill_zero();
        self.grad = flat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Differential check of the blocked [`Mat`] kernels against this
    /// module's naive scalar loops at row counts that are **not**
    /// multiples of four (the block width), so the remainder paths are
    /// exercised against the oracle and not just against themselves.
    #[test]
    fn blocked_kernels_match_naive_oracle_at_unaligned_rows() {
        let mut rng = SmallRng::seed_from_u64(41);
        for (rows, cols) in [(1, 4), (2, 7), (3, 3), (5, 8), (6, 2), (9, 5), (11, 11)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            // `[x, 1]`: the kernels take `x` and fold in the bias column,
            // the naive loops take the extended vector.
            let mut x: Vec<f32> = (0..cols - 1).map(|i| (i as f32 * 0.9).cos()).collect();
            x.push(1.0);
            let x_in = &x[..cols - 1];
            let g: Vec<f32> = (0..rows)
                .map(|r| {
                    if r % 4 == 1 {
                        0.0
                    } else {
                        (r as f32 * 0.6).sin()
                    }
                })
                .collect();

            let mut fast = vec![0.0f32; rows];
            m.matvec_bias_acc(x_in, &mut fast);
            let mut naive = vec![0.0f32; rows];
            matvec_acc_naive(&m, &x, &mut naive);
            for (r, (&got, &want)) in fast.iter().zip(&naive).enumerate() {
                assert!(
                    (got - want).abs() < 1e-5,
                    "matvec[{r}] at {rows}x{cols}: {got} vs {want}"
                );
            }

            let mut t_fast = vec![0.0f32; cols];
            m.matvec_t_narrow(&g, &mut t_fast);
            let mut t_naive = vec![0.0f32; cols];
            matvec_t_acc_naive(&m, &g, &mut t_naive);
            for (c, (&got, &want)) in t_fast.iter().zip(&t_naive).enumerate() {
                assert!(
                    (got - want).abs() < 1e-5,
                    "matvec_t[{c}] at {rows}x{cols}: {got} vs {want}"
                );
            }

            let mut fast_outer = Mat::zeros(rows, cols);
            fast_outer.outer_acc_bias(&g, x_in, 0.25);
            let mut naive_outer = Mat::zeros(rows, cols);
            outer_acc_naive(&mut naive_outer, &g, &x, 0.25);
            for r in 0..rows {
                for c in 0..cols {
                    let (got, want) = (fast_outer.get(r, c), naive_outer.get(r, c));
                    assert!(
                        (got - want).abs() < 1e-6,
                        "outer[{r},{c}] at {rows}x{cols}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
