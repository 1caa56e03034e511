//! A minimal row-major matrix for the classifier networks.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major `f32` matrix.
///
/// Only the operations the LSTM/dense layers need are provided; this is a
/// training substrate, not a linear-algebra library.
///
/// ```
/// let m = nnet::Mat::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m.get(1, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// An all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization.
    #[must_use]
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat data buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data buffer (used by the optimizer).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `out += self * x` where `x.len() == cols` and `out.len() == rows`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_acc(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec input length");
        assert_eq!(out.len(), self.rows, "matvec output length");
        if self.cols == 0 {
            return;
        }
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *o += dot(row, x);
        }
    }

    /// `out += self * [x, 1]` where the matrix's last column is a folded-in
    /// bias (`x.len() + 1 == cols`, `out.len() == rows`).
    ///
    /// Lets layers with a `[x, h, 1]` input convention skip materializing
    /// the extended vector.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_bias_acc(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len() + 1, self.cols, "matvec_bias input length");
        assert_eq!(out.len(), self.rows, "matvec_bias output length");
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let (w, bias) = row.split_at(self.cols - 1);
            *o += dot(w, x) + bias[0];
        }
    }

    /// `out += selfᵀ * g` where `g.len() == rows` and `out.len() == cols`
    /// (backpropagating through a matvec).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_t_acc(&self, g: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "matvec_t output length");
        self.matvec_t_narrow(g, out);
    }

    /// Like [`Mat::matvec_t_acc`] but accumulates only into the first
    /// `out.len()` columns (`out.len() <= cols`) — the common case of
    /// backpropagating past a folded-in bias column.
    ///
    /// Rows are processed in blocks of four so each `out` element is
    /// loaded and stored once per block instead of once per row.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_t_narrow(&self, g: &[f32], out: &mut [f32]) {
        self.matvec_t_window(g, 0, out);
    }

    /// [`Mat::matvec_t_narrow`] over the columns `col0..col0 +
    /// out.len()`; each column is accumulated independently.
    fn matvec_t_window(&self, g: &[f32], col0: usize, out: &mut [f32]) {
        assert_eq!(g.len(), self.rows, "matvec_t input length");
        assert!(col0 + out.len() <= self.cols, "matvec_t output length");
        let cols = self.cols;
        if cols == 0 {
            return;
        }
        let width = out.len();
        let window = |r: usize| &self.data[r * cols + col0..r * cols + col0 + width];
        let blocks = self.rows / 4;
        for b in 0..blocks {
            let r = b * 4;
            let (g0, g1, g2, g3) = (g[r], g[r + 1], g[r + 2], g[r + 3]);
            if g0 == 0.0 && g1 == 0.0 && g2 == 0.0 && g3 == 0.0 {
                continue;
            }
            let (r0, r1, r2, r3) = (window(r), window(r + 1), window(r + 2), window(r + 3));
            for ((((o, w0), w1), w2), w3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                *o += g0 * w0 + g1 * w1 + g2 * w2 + g3 * w3;
            }
        }
        for (r, &gr) in g.iter().enumerate().skip(blocks * 4) {
            if gr == 0.0 {
                continue;
            }
            for (o, w) in out.iter_mut().zip(window(r)) {
                *o += gr * w;
            }
        }
    }

    /// `self += scale * g ⊗ x` (rank-1 gradient accumulation).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn outer_acc(&mut self, g: &[f32], x: &[f32], scale: f32) {
        assert_eq!(g.len(), self.rows, "outer rows");
        assert_eq!(x.len(), self.cols, "outer cols");
        if self.cols == 0 {
            return;
        }
        for (row, &gv) in self.data.chunks_exact_mut(self.cols).zip(g) {
            let gr = gv * scale;
            if gr == 0.0 {
                continue;
            }
            for (w, xi) in row.iter_mut().zip(x) {
                *w += gr * xi;
            }
        }
    }

    /// `self += scale * g ⊗ [x, 1]` where the last column is a folded-in
    /// bias (`x.len() + 1 == cols`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn outer_acc_bias(&mut self, g: &[f32], x: &[f32], scale: f32) {
        assert_eq!(g.len(), self.rows, "outer rows");
        assert_eq!(x.len() + 1, self.cols, "outer cols");
        let cols = self.cols;
        for (row, &gv) in self.data.chunks_exact_mut(cols).zip(g) {
            let gr = gv * scale;
            if gr == 0.0 {
                continue;
            }
            let (w, bias) = row.split_at_mut(cols - 1);
            for (wi, xi) in w.iter_mut().zip(x) {
                *wi += gr * xi;
            }
            bias[0] += gr;
        }
    }

    /// Sets every element to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Lane-batched [`Mat::matvec_bias_acc`]: `out[r * lanes + l] +=
    /// self.row(r) * [x_l, 1]` for every lane `l`, where `xs` holds the
    /// lane inputs feature-major (`xs[f * lanes + l]` is feature `f` of
    /// lane `l`, `xs.len() == (cols - 1) * lanes`).
    ///
    /// Each lane's result is **bit-identical** to the scalar
    /// `matvec_bias_acc` on that lane's input. Lanes run in fixed blocks
    /// of `LANE_BLOCK` (eight), then at most one half block of four, both
    /// keeping four per-lane accumulators over feature chunks of four
    /// plus a per-lane scalar tail, combined as `(a0 + a1) + (a2 + a3) +
    /// tail + bias` — the scalar `dot`'s order. Leftover single lanes run
    /// `dot` itself. So a lane's result does not depend on `lanes` or on
    /// which block it lands in.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or when the matrix has no bias
    /// column (`cols == 0`).
    pub fn matvec_bias_acc_soa(&self, xs: &[f32], lanes: usize, out: &mut [f32]) {
        assert!(self.cols > 0, "matvec_bias_soa needs a bias column");
        let feat = self.cols - 1;
        assert_eq!(xs.len(), feat * lanes, "matvec_bias_soa input length");
        assert_eq!(
            out.len(),
            self.rows * lanes,
            "matvec_bias_soa output length"
        );
        let mut lane0 = 0;
        // A block's inputs are contiguous when it is the whole group;
        // otherwise they are gathered once per block.
        let mut gathered = Vec::new();
        while lane0 < lanes {
            let width = block_width(lanes - lane0);
            let block: &[f32] = if width == lanes {
                xs
            } else {
                gathered.clear();
                for f in 0..feat {
                    let at = f * lanes + lane0;
                    gathered.extend_from_slice(&xs[at..at + width]);
                }
                &gathered
            };
            match width {
                LANE_BLOCK => self.bias_block::<LANE_BLOCK>(block, lanes, lane0, out),
                4 => self.bias_block::<4>(block, lanes, lane0, out),
                // A single lane's inputs are one contiguous vector: the
                // scalar kernel itself.
                _ => {
                    for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
                        let (w, bias) = row.split_at(feat);
                        out[r * lanes + lane0] += dot(w, block) + bias[0];
                    }
                }
            }
            lane0 += width;
        }
    }

    /// One `B`-lane block of [`Mat::matvec_bias_acc_soa`]: `xb` holds the
    /// block's inputs contiguously (`feat × B`), results go to lanes
    /// `lane0..lane0 + B` of `out`.
    fn bias_block<const B: usize>(&self, xb: &[f32], lanes: usize, lane0: usize, out: &mut [f32]) {
        let feat = self.cols - 1;
        let x = |f: usize| -> &[f32; B] { xb[f * B..(f + 1) * B].try_into().expect("block") };
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            let (w, bias) = row.split_at(feat);
            let mut acc = [[0.0f32; B]; 4];
            let mut tail = [0.0f32; B];
            let chunks = w.chunks_exact(4);
            let rem = chunks.remainder();
            for (c, cw) in chunks.enumerate() {
                for (a, (acc_a, &wv)) in acc.iter_mut().zip(cw).enumerate() {
                    for (al, &xl) in acc_a.iter_mut().zip(x(4 * c + a)) {
                        *al += wv * xl;
                    }
                }
            }
            for (k, &wv) in rem.iter().enumerate() {
                for (tl, &xl) in tail.iter_mut().zip(x(feat - rem.len() + k)) {
                    *tl += wv * xl;
                }
            }
            let o = &mut out[r * lanes + lane0..r * lanes + lane0 + B];
            for (l, ol) in o.iter_mut().enumerate() {
                *ol += (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]) + tail[l] + bias[0];
            }
        }
    }

    /// Lane-batched twin of [`Mat::matvec_t_narrow`] over the column
    /// window `col0..col0 + out.len() / lanes`: `out[c * lanes + l] +=
    /// Σ_r g[r * lanes + l] * self[r][col0 + c]`, with `g` row-major by
    /// lane (`rows × lanes`) and `out` feature-major.
    ///
    /// Each lane's result is **bit-identical** to `matvec_t_narrow` on
    /// that lane's `g` (restricted to the window): rows run in blocks of
    /// four summed as `g0·w0 + g1·w1 + g2·w2 + g3·w3` and skipped when
    /// all four of the lane's `g` are zero, then the leftover rows one at
    /// a time, skipped when zero. Lanes run in blocks of `LANE_BLOCK`
    /// (eight), then at most one half block of four, then single lanes.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or a window past the last column.
    pub fn matvec_t_acc_soa(&self, g: &[f32], lanes: usize, col0: usize, out: &mut [f32]) {
        assert_eq!(g.len(), self.rows * lanes, "matvec_t_soa input length");
        if lanes == 1 {
            self.matvec_t_window(g, col0, out);
            return;
        }
        if lanes == 0 {
            return;
        }
        assert_eq!(out.len() % lanes, 0, "matvec_t_soa output length");
        let width = out.len() / lanes;
        assert!(col0 + width <= self.cols, "matvec_t_soa column window");
        let mut lane0 = 0;
        while lane0 < lanes {
            let block = block_width(lanes - lane0);
            match block {
                LANE_BLOCK => self.t_block::<LANE_BLOCK>(g, lanes, lane0, col0, out),
                4 => self.t_block::<4>(g, lanes, lane0, col0, out),
                _ => self.t_block::<1>(g, lanes, lane0, col0, out),
            }
            lane0 += block;
        }
    }

    /// One `B`-lane block (lanes `lane0..lane0 + B`) of
    /// [`Mat::matvec_t_acc_soa`].
    fn t_block<const B: usize>(
        &self,
        g: &[f32],
        lanes: usize,
        lane0: usize,
        col0: usize,
        out: &mut [f32],
    ) {
        let cols = self.cols;
        let width = out.len() / lanes;
        let window = |r: usize| &self.data[r * cols + col0..r * cols + col0 + width];
        let gblock = |r: usize| -> [f32; B] {
            g[r * lanes + lane0..r * lanes + lane0 + B]
                .try_into()
                .expect("block")
        };
        let live_of = |a: &[[f32; B]; 4]| -> [bool; B] {
            std::array::from_fn(|l| {
                !(a[0][l] == 0.0 && a[1][l] == 0.0 && a[2][l] == 0.0 && a[3][l] == 0.0)
            })
        };
        for r in (0..self.rows / 4).map(|b| 4 * b) {
            let a = [gblock(r), gblock(r + 1), gblock(r + 2), gblock(r + 3)];
            let live = live_of(&a);
            if !live.contains(&true) {
                continue;
            }
            let all_live = !live.contains(&false);
            let (w0, w1, w2, w3) = (window(r), window(r + 1), window(r + 2), window(r + 3));
            for (c, out_c) in out.chunks_exact_mut(lanes).enumerate() {
                let (v0, v1, v2, v3) = (w0[c], w1[c], w2[c], w3[c]);
                let o = &mut out_c[lane0..lane0 + B];
                let v = |l: usize| a[0][l] * v0 + a[1][l] * v1 + a[2][l] * v2 + a[3][l] * v3;
                if all_live {
                    for (l, ol) in o.iter_mut().enumerate() {
                        *ol += v(l);
                    }
                } else {
                    for (l, ol) in o.iter_mut().enumerate().filter(|&(l, _)| live[l]) {
                        *ol += v(l);
                    }
                }
            }
        }
        for r in self.rows / 4 * 4..self.rows {
            let gr = gblock(r);
            for (out_c, &wv) in out.chunks_exact_mut(lanes).zip(window(r)) {
                for (ol, &gl) in out_c[lane0..lane0 + B].iter_mut().zip(&gr) {
                    if gl != 0.0 {
                        *ol += gl * wv;
                    }
                }
            }
        }
    }

    /// Folds one lane's rank-1 gradient into `self`: `self += g_l ⊗ [x_l,
    /// 1]`, where `g` is row-major by lane (`rows × lanes`) and `x` is
    /// feature-major (`(cols - 1) × lanes`).
    ///
    /// Bit-identical to `outer_acc_bias(g_l, x_l, 1.0)` on the lane's
    /// gathered vectors, zero-row skip included: every element receives
    /// the same single add. Calling it lane by lane in a fixed order
    /// therefore reproduces the scalar per-example accumulation order.
    /// The lane's inputs are gathered in chunks of 64 so the inner loop
    /// runs over contiguous memory.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or `lane >= lanes`.
    pub fn outer_acc_bias_lane(&mut self, g: &[f32], x: &[f32], lanes: usize, lane: usize) {
        const CHUNK: usize = 64;
        assert!(lane < lanes, "outer_lane lane out of range");
        assert_eq!(g.len(), self.rows * lanes, "outer_lane rows");
        assert_eq!(x.len() + lanes, self.cols * lanes, "outer_lane cols");
        let cols = self.cols;
        let feat = cols - 1;
        let mut buf = [0.0f32; CHUNK];
        let mut c0 = 0;
        while c0 < feat {
            let k = (feat - c0).min(CHUNK);
            for (i, b) in buf[..k].iter_mut().enumerate() {
                *b = x[(c0 + i) * lanes + lane];
            }
            for (r, row) in self.data.chunks_exact_mut(cols).enumerate() {
                let gr = g[r * lanes + lane];
                if gr == 0.0 {
                    continue;
                }
                for (wi, xi) in row[c0..c0 + k].iter_mut().zip(&buf[..k]) {
                    *wi += gr * xi;
                }
            }
            c0 += k;
        }
        for (r, row) in self.data.chunks_exact_mut(cols).enumerate() {
            let gr = g[r * lanes + lane];
            if gr != 0.0 {
                row[feat] += gr;
            }
        }
    }
}

/// Lane-block width of the SoA kernels: two SSE or one AVX register of
/// `f32`s, and the lane-group size of [`crate::SeqClassifier`] training
/// and evaluation.
pub(crate) const LANE_BLOCK: usize = 8;

/// The widest lane block (eight, four or one) that fits `remaining`
/// lanes.
fn block_width(remaining: usize) -> usize {
    if remaining >= LANE_BLOCK {
        LANE_BLOCK
    } else if remaining >= 4 {
        4
    } else {
        1
    }
}

/// Dot product with four independent accumulators, so the multiplies are
/// not serialized behind one add chain (and auto-vectorize cleanly).
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks_a = a.chunks_exact(4);
    let chunks_b = b.chunks_exact(4);
    let rem_a = chunks_a.remainder();
    let rem_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0f32;
    for (xa, xb) in rem_a.iter().zip(rem_b) {
        tail += xa * xb;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_and_transpose_agree() {
        let mut m = Mat::zeros(2, 3);
        // [[1,2,3],[4,5,6]]
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
            m.as_mut_slice()[i] = *v;
        }
        let x = [1.0, 0.0, -1.0];
        let mut y = [0.0; 2];
        m.matvec_acc(&x, &mut y);
        assert_eq!(y, [-2.0, -2.0]);
        let g = [1.0, 1.0];
        let mut gx = [0.0; 3];
        m.matvec_t_acc(&g, &mut gx);
        assert_eq!(gx, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_accumulates() {
        let mut m = Mat::zeros(2, 2);
        m.outer_acc(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        m.fill_zero();
        assert_eq!(m.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let ma = Mat::xavier(8, 8, &mut a);
        let mb = Mat::xavier(8, 8, &mut b);
        assert_eq!(ma, mb);
        let bound = (6.0f32 / 16.0).sqrt();
        assert!(ma.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "matvec input length")]
    fn dimension_mismatch_panics() {
        let m = Mat::zeros(2, 3);
        let mut out = [0.0; 2];
        m.matvec_acc(&[1.0; 4], &mut out);
    }

    /// The unrolled/blocked kernels must agree with naive loops on sizes
    /// that exercise both the 4-wide blocks and the scalar remainders.
    #[test]
    #[allow(clippy::needless_range_loop)] // the oracle loops are naive on purpose
    fn fast_kernels_match_naive_loops() {
        let mut rng = SmallRng::seed_from_u64(6);
        for (rows, cols) in [(1, 1), (3, 5), (4, 8), (7, 9), (12, 13), (16, 16)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.7).sin()).collect();
            let g: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.3).cos()).collect();

            let mut fast = vec![0.0f32; rows];
            m.matvec_acc(&x, &mut fast);
            for (r, &got) in fast.iter().enumerate() {
                let naive: f32 = m.row(r).iter().zip(&x).map(|(w, xi)| w * xi).sum();
                assert!((got - naive).abs() < 1e-5, "matvec[{r}]: {got} vs {naive}");
            }

            let mut bias_fast = vec![0.0f32; rows];
            m.matvec_bias_acc(&x[..cols - 1], &mut bias_fast);
            for (r, &got) in bias_fast.iter().enumerate() {
                let naive: f32 = m.row(r)[..cols - 1]
                    .iter()
                    .zip(&x[..cols - 1])
                    .map(|(w, xi)| w * xi)
                    .sum::<f32>()
                    + m.get(r, cols - 1);
                assert!((got - naive).abs() < 1e-5, "matvec_bias[{r}]");
            }

            let mut t_fast = vec![0.0f32; cols];
            m.matvec_t_acc(&g, &mut t_fast);
            for (c, &got) in t_fast.iter().enumerate() {
                let naive: f32 = (0..rows).map(|r| g[r] * m.get(r, c)).sum();
                assert!(
                    (got - naive).abs() < 1e-5,
                    "matvec_t[{c}]: {got} vs {naive}"
                );
            }

            let mut narrow = vec![0.0f32; cols - 1];
            m.matvec_t_narrow(&g, &mut narrow);
            assert_eq!(&narrow[..], &t_fast[..cols - 1]);

            let mut full = Mat::zeros(rows, cols);
            full.outer_acc(&g, &x, 0.5);
            let mut bias = Mat::zeros(rows, cols);
            bias.outer_acc_bias(&g, &x[..cols - 1], 0.5);
            for r in 0..rows {
                for c in 0..cols - 1 {
                    assert!((full.get(r, c) - 0.5 * g[r] * x[c]).abs() < 1e-6);
                    assert_eq!(bias.get(r, c), full.get(r, c), "outer_bias[{r},{c}]");
                }
                assert!((bias.get(r, cols - 1) - 0.5 * g[r]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_matrix_kernels_are_noops() {
        let m = Mat::zeros(0, 0);
        m.matvec_acc(&[], &mut []);
        m.matvec_t_acc(&[], &mut []);
        let mut z = Mat::zeros(0, 0);
        z.outer_acc(&[], &[], 1.0);
    }

    /// Lane counts every SoA kernel is pinned at: one lane, a half
    /// block, a half block plus a leftover lane (5 = 4+1), one and two
    /// exact blocks, a block, a half block and a leftover lane (13 =
    /// 8+4+1), two blocks plus a leftover lane (17 = 8+8+1), and many
    /// blocks.
    const WIDTHS: [usize; 8] = [1, 4, 5, 8, 13, 16, 17, 64];

    /// Feature-major SoA block of `lanes` distinct `feat`-long vectors,
    /// with every third (lane, feature) entry zero when `zeros` is set.
    fn soa(feat: usize, lanes: usize, zeros: bool) -> Vec<f32> {
        let mut xs = vec![0.0f32; feat * lanes];
        for l in 0..lanes {
            for f in 0..feat {
                if !(zeros && (l + f) % 3 == 0) {
                    xs[f * lanes + l] = ((l * 31 + f * 7) as f32 * 0.13).sin();
                }
            }
        }
        xs
    }

    /// Lane `l` of a feature-major block.
    fn lane(xs: &[f32], lanes: usize, l: usize) -> Vec<f32> {
        xs.iter().skip(l).step_by(lanes).copied().collect()
    }

    /// The lane-batched SoA kernel must be **bit-identical** per lane to
    /// the scalar `matvec_bias_acc` — this is the contract the streaming
    /// engine's batch-parity guarantee and lane training rest on. Shapes
    /// cover non-multiple-of-4 rows and feature counts with and without
    /// a chunk remainder.
    #[test]
    fn soa_matvec_bias_is_bit_identical_per_lane() {
        let mut rng = SmallRng::seed_from_u64(11);
        for (rows, cols) in [(1, 2), (3, 5), (5, 9), (8, 12), (13, 6)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let feat = cols - 1;
            for lanes in WIDTHS {
                let xs = soa(feat, lanes, false);
                let mut out = vec![0.1f32; rows * lanes];
                m.matvec_bias_acc_soa(&xs, lanes, &mut out);
                for l in 0..lanes {
                    let x = lane(&xs, lanes, l);
                    let mut scalar = vec![0.1f32; rows];
                    m.matvec_bias_acc(&x, &mut scalar);
                    for (r, &want) in scalar.iter().enumerate() {
                        let got = out[r * lanes + l];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "lane {l}/{lanes} row {r} ({rows}x{cols}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    /// The lane twin of `matvec_t_narrow` is bit-identical per lane to
    /// the scalar kernel on every column window, including lanes whose
    /// four-row blocks are all zero (skipped) next to live ones, and
    /// leftover rows past the last block.
    #[test]
    fn soa_matvec_t_is_bit_identical_per_lane() {
        let mut rng = SmallRng::seed_from_u64(12);
        for (rows, cols) in [(4, 3), (7, 5), (8, 12), (13, 6), (64, 19)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            for lanes in WIDTHS {
                let g = soa(rows, lanes, true);
                for (col0, width) in [(0, cols), (0, cols - 1), (cols / 2, cols - cols / 2)] {
                    let mut out = vec![0.25f32; width * lanes];
                    m.matvec_t_acc_soa(&g, lanes, col0, &mut out);
                    for l in 0..lanes {
                        let mut scalar = vec![0.0f32; col0 + width];
                        scalar[col0..].fill(0.25);
                        m.matvec_t_narrow(&lane(&g, lanes, l), &mut scalar);
                        for (c, &want) in scalar[col0..].iter().enumerate() {
                            let got = out[c * lanes + l];
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "lane {l}/{lanes} col {} ({rows}x{cols}): {got} vs {want}",
                                col0 + c
                            );
                        }
                    }
                }
            }
        }
    }

    /// Folding lanes one by one, in order, leaves the gradient bit for
    /// bit where the scalar `outer_acc_bias` on each lane's gathered
    /// vectors leaves it — zero-row skip included, and across the
    /// 64-column gather chunks.
    #[test]
    fn lane_fold_matches_scalar_outer_acc_bias() {
        let mut rng = SmallRng::seed_from_u64(13);
        for (rows, cols) in [(1, 2), (5, 9), (64, 19), (8, 40), (3, 140)] {
            for lanes in WIDTHS {
                let g = soa(rows, lanes, true);
                let x = soa(cols - 1, lanes, false);
                let mut fold = Mat::xavier(rows, cols, &mut rng);
                let mut scalar = fold.clone();
                for l in 0..lanes {
                    fold.outer_acc_bias_lane(&g, &x, lanes, l);
                    scalar.outer_acc_bias(&lane(&g, lanes, l), &lane(&x, lanes, l), 1.0);
                }
                let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fold), bits(&scalar), "{rows}x{cols} at {lanes} lanes");
            }
        }
    }

    /// The 4-row-blocked transpose kernel at row counts that are *not*
    /// multiples of four, with zero-heavy gradient vectors so both the
    /// block-skip and the scalar-remainder paths run (the aligned-shape
    /// test above leaves the remainder loop mostly cold).
    #[test]
    fn blocked_transpose_kernel_handles_unaligned_row_counts() {
        let mut rng = SmallRng::seed_from_u64(23);
        for (rows, cols) in [(2, 3), (5, 6), (6, 4), (7, 1), (9, 3), (13, 7), (15, 5)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            // Zero out a deterministic subset so the g0..g3-all-zero skip
            // and the gr == 0.0 remainder skip both trigger.
            let g: Vec<f32> = (0..rows)
                .map(|r| {
                    if r % 3 == 0 {
                        0.0
                    } else {
                        (r as f32 * 0.4).cos()
                    }
                })
                .collect();
            let mut fast = vec![0.0f32; cols];
            m.matvec_t_acc(&g, &mut fast);
            for (c, &got) in fast.iter().enumerate() {
                let naive: f32 = (0..rows).map(|r| g[r] * m.get(r, c)).sum();
                assert!(
                    (got - naive).abs() < 1e-5,
                    "matvec_t[{c}] at {rows}x{cols}: {got} vs {naive}"
                );
            }
            if cols > 1 {
                let mut narrow = vec![0.0f32; cols - 1];
                m.matvec_t_narrow(&g, &mut narrow);
                assert_eq!(&narrow[..], &fast[..cols - 1], "{rows}x{cols} narrow");
            }
        }
    }
}
