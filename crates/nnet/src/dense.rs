//! A fully-connected layer with folded-in bias.

use crate::mat::Mat;
use crate::optim::{Adam, AdamConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = W · [x, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    input: usize,
    output: usize,
    w: Mat,
    grad: Mat,
    adam: Adam,
}

impl Dense {
    /// Creates a Xavier-initialized dense layer.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        output: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        let w = Mat::xavier(output, input + 1, rng);
        let len = w.as_slice().len();
        Dense {
            input,
            output,
            w,
            grad: Mat::zeros(output, input + 1),
            adam: Adam::new(len, adam),
        }
    }

    /// Input dimensionality.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Output dimensionality.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.output
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics on input dimension mismatch.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.output];
        self.forward_into(x, &mut out);
        out
    }

    /// Allocation-free forward pass into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.input, "dense input dimension");
        assert_eq!(out.len(), self.output, "dense output dimension");
        out.fill(0.0);
        self.w.matvec_bias_acc(x, out);
    }

    /// Backward pass: accumulates the weight gradient and returns the
    /// gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward(&mut self, x: &[f32], d_out: &[f32]) -> Vec<f32> {
        let mut dx = vec![0.0f32; self.input];
        self.backward_into(x, d_out, &mut dx);
        dx
    }

    /// Allocation-free backward pass: accumulates the weight gradient and
    /// writes the input gradient into `dx`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward_into(&mut self, x: &[f32], d_out: &[f32], dx: &mut [f32]) {
        assert_eq!(x.len(), self.input, "dense input dimension");
        assert_eq!(d_out.len(), self.output, "dense output-grad dimension");
        assert_eq!(dx.len(), self.input, "dense input-grad dimension");
        self.grad.outer_acc_bias(d_out, x, 1.0);
        dx.fill(0.0);
        self.w.matvec_t_narrow(d_out, dx);
    }

    /// Applies accumulated gradients (scaled by `1/batch`) with Adam.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_bias() {
        let mut rng = SmallRng::seed_from_u64(1);
        let layer = Dense::new(3, 2, &mut rng, AdamConfig::default());
        let y = layer.forward(&[0.0, 0.0, 0.0]);
        assert_eq!(y.len(), 2);
        // With zero input, output equals the bias column.
        assert_eq!(y[0], layer.w.get(0, 3));
        assert_eq!(y[1], layer.w.get(1, 3));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut layer = Dense::new(3, 2, &mut rng, AdamConfig::default());
        let x = [0.4f32, -0.2, 0.9];
        // Loss = sum(y).
        let d_out = [1.0f32, 1.0];
        let dx = layer.backward(&x, &d_out);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let up: f32 = layer.forward(&xp).iter().sum();
            xp[i] -= 2.0 * eps;
            let down: f32 = layer.forward(&xp).iter().sum();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (dx[i] - numeric).abs() < 1e-2,
                "dx[{i}] {} vs {numeric}",
                dx[i]
            );
        }
    }

    #[test]
    fn learns_a_linear_map() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut layer = Dense::new(
            2,
            1,
            &mut rng,
            AdamConfig {
                lr: 0.05,
                ..AdamConfig::default()
            },
        );
        // Target: y = 2a - b + 0.5.
        let target = |a: f32, b: f32| 2.0 * a - b + 0.5;
        let data: Vec<(f32, f32)> = (0..16)
            .map(|i| ((i % 4) as f32 / 3.0, (i / 4) as f32 / 3.0))
            .collect();
        for _ in 0..400 {
            for &(a, b) in &data {
                let y = layer.forward(&[a, b])[0];
                let d = 2.0 * (y - target(a, b));
                layer.backward(&[a, b], &[d]);
            }
            layer.apply_grads(data.len());
        }
        for &(a, b) in &data {
            let y = layer.forward(&[a, b])[0];
            assert!((y - target(a, b)).abs() < 0.05, "y({a},{b}) = {y}");
        }
    }
}
