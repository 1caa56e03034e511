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

    /// `out += selfᵀ * g` over the first `out.len()` columns (`g.len() ==
    /// rows`, `out.len() <= cols`) — backpropagating through a matvec,
    /// commonly stopping short of a folded-in bias column.
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

    /// `self += scale * g ⊗ [x, 1]` (rank-1 gradient accumulation) where
    /// the last column is a folded-in bias (`x.len() + 1 == cols`).
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
    /// of `LANE_BLOCK` (eight), then at most one block of four and one of
    /// two, all keeping four per-lane accumulators over feature chunks of
    /// four plus a per-lane scalar tail, combined as `(a0 + a1) + (a2 +
    /// a3) + tail + bias` — the scalar `dot`'s order. A leftover single
    /// lane runs `dot` itself. So a lane's result does not depend on `lanes` or on
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
                2 => self.bias_block::<2>(block, lanes, lane0, out),
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
    /// (eight), then at most one block of four, one of two and a single
    /// lane.
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
                2 => self.t_block::<2>(g, lanes, lane0, col0, out),
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
        let nonzero_of = |a: &[[f32; B]; 4]| -> [bool; B] {
            std::array::from_fn(|l| {
                !(a[0][l] == 0.0 && a[1][l] == 0.0 && a[2][l] == 0.0 && a[3][l] == 0.0)
            })
        };
        for r in (0..self.rows / 4).map(|b| 4 * b) {
            let a = [gblock(r), gblock(r + 1), gblock(r + 2), gblock(r + 3)];
            let nonzero = nonzero_of(&a);
            if !nonzero.contains(&true) {
                continue;
            }
            let all_nonzero = !nonzero.contains(&false);
            let (w0, w1, w2, w3) = (window(r), window(r + 1), window(r + 2), window(r + 3));
            for (c, out_c) in out.chunks_exact_mut(lanes).enumerate() {
                let (v0, v1, v2, v3) = (w0[c], w1[c], w2[c], w3[c]);
                let o = &mut out_c[lane0..lane0 + B];
                let v = |l: usize| a[0][l] * v0 + a[1][l] * v1 + a[2][l] * v2 + a[3][l] * v3;
                if all_nonzero {
                    for (l, ol) in o.iter_mut().enumerate() {
                        *ol += v(l);
                    }
                } else {
                    for (l, ol) in o.iter_mut().enumerate().filter(|&(l, _)| nonzero[l]) {
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

    /// Folds a whole traced lane group's rank-1 gradients into `self`:
    /// `self += g_(l,t) ⊗ [x_(l,t), 1]` for every lane `l` of `group` in
    /// group order and, within a lane, every step `t` of it descending.
    /// Step `t` runs the `w = group.width(t)` longest lanes, the sorted
    /// prefix; its deltas are `g[rows · group.start(t)..]`, row-major by
    /// lane (`rows × w`), and its inputs `x[(cols - 1) · group.start(t)..]`,
    /// feature-major (`(cols - 1) × w`).
    ///
    /// Bit-identical to calling `outer_acc_bias(g_l, x_l, 1.0)` on each
    /// (lane, step) pair's gathered vectors in that order: every element
    /// receives the same sequence of rounded adds, and a zero delta
    /// (`0.0` or `-0.0`) skips its row of the pair, while a NaN delta
    /// does not. The kernel holds a tile of `self` in registers across
    /// all of the group's pairs, 8 rows by up to 9 input columns, and
    /// writes each element back once. The last column tile also holds the
    /// bias column, whose input is `1.0`: it adds `g` alone, since `acc +
    /// g·1.0 == acc + g` bit for bit. Two scratch buffers, whose contents
    /// are overwritten, hold the packing: `inputs` every pair's inputs,
    /// nine per column tile (`pairs × 9·⌈(cols - 1) / 9⌉` floats, at
    /// least one tile), and `deltas` one 8-row tile of every pair's
    /// deltas (`pairs × 8` floats).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or a matrix without a bias column.
    pub fn outer_acc_bias_group(
        &mut self,
        g: &[f32],
        x: &[f32],
        group: &LaneGroup,
        inputs: &mut Vec<f32>,
        deltas: &mut Vec<f32>,
    ) {
        assert!(self.cols > 0, "outer_group needs a bias column");
        let (rows, cols) = (self.rows, self.cols);
        let feat = cols - 1;
        let pairs = group.pairs();
        assert_eq!(g.len(), pairs * rows, "outer_group rows");
        assert_eq!(x.len(), pairs * feat, "outer_group cols");
        // Column tiles of up to nine inputs; the last also folds the bias.
        let tiles = feat.div_ceil(FOLD_COLS).max(1);
        inputs.clear();
        inputs.resize(pairs * tiles * FOLD_COLS, 0.0);
        deltas.clear();
        deltas.resize(pairs * FOLD_ROWS, 0.0);
        // Inputs go tile by tile, nine per pair, so that one tile's pass
        // reads only its own.
        for (k, xt) in inputs.chunks_exact_mut(pairs * FOLD_COLS).enumerate() {
            let c0 = k * FOLD_COLS;
            let width = (feat - c0).min(FOLD_COLS);
            pack_pairs::<FOLD_COLS>(x, feat, c0, width, group, xt);
        }
        for r0 in (0..rows).step_by(FOLD_ROWS) {
            let height = (rows - r0).min(FOLD_ROWS);
            pack_pairs::<FOLD_ROWS>(g, rows, r0, height, group, deltas);
            for (k, xt) in inputs.chunks_exact(pairs * FOLD_COLS).enumerate() {
                if k + 1 < tiles {
                    self.fold_tile::<false>(r0, height, k * FOLD_COLS, deltas, xt);
                } else {
                    self.fold_tile::<true>(r0, height, k * FOLD_COLS, deltas, xt);
                }
            }
        }
    }

    /// One register tile of [`Mat::outer_acc_bias_group`], folded over
    /// every packed pair: `height` rows from `r0` by the input columns
    /// `c0..c0 + 9` (clipped to the inputs), plus the bias column when
    /// `BIAS`. `gp` holds eight deltas per pair and `xt` the tile's nine
    /// inputs per pair, zero past the last input.
    ///
    /// Out of line: inlined into a larger caller, the pair loop lost its
    /// register accumulators and ran several times slower.
    #[inline(never)]
    fn fold_tile<const BIAS: bool>(
        &mut self,
        r0: usize,
        height: usize,
        c0: usize,
        gp: &[f32],
        xt: &[f32],
    ) {
        let cols = self.cols;
        let width = (cols - 1 - c0).min(FOLD_COLS);
        // The tile goes through memory only here and at the store below,
        // so the pair loop keeps its accumulators in registers.
        let mut tile = [[0.0f32; FOLD_ROWS]; FOLD_COLS];
        let mut bias = [0.0f32; FOLD_ROWS];
        for i in 0..height {
            let row = &self.data[(r0 + i) * cols..][..cols];
            for (a, &w) in tile.iter_mut().zip(&row[c0..c0 + width]) {
                a[i] = w;
            }
            bias[i] = row[cols - 1];
        }
        let (mut acc, mut acc_bias) = (tile, bias);
        for (gv, xv) in gp.chunks_exact(FOLD_ROWS).zip(xt.chunks_exact(FOLD_COLS)) {
            let gv: &[f32; FOLD_ROWS] = gv.try_into().expect("delta tile");
            let xv: &[f32; FOLD_COLS] = xv.try_into().expect("input tile");
            // Branch-free, so the test is one vector compare.
            let any_zero = gv.iter().fold(false, |z, &v| z | (v == 0.0));
            if any_zero {
                for (a, &xj) in acc.iter_mut().zip(xv) {
                    for (ai, &gi) in a.iter_mut().zip(gv) {
                        *ai = if gi == 0.0 { *ai } else { *ai + gi * xj };
                    }
                }
                if BIAS {
                    for (ai, &gi) in acc_bias.iter_mut().zip(gv) {
                        *ai = if gi == 0.0 { *ai } else { *ai + gi };
                    }
                }
            } else {
                for (a, &xj) in acc.iter_mut().zip(xv) {
                    for (ai, &gi) in a.iter_mut().zip(gv) {
                        *ai += gi * xj;
                    }
                }
                if BIAS {
                    for (ai, &gi) in acc_bias.iter_mut().zip(gv) {
                        *ai += gi;
                    }
                }
            }
        }
        (tile, bias) = (acc, acc_bias);
        for i in 0..height {
            let row = &mut self.data[(r0 + i) * cols..][..cols];
            for (w, a) in row[c0..c0 + width].iter_mut().zip(&tile) {
                *w = a[i];
            }
            if BIAS {
                row[cols - 1] = bias[i];
            }
        }
    }
}

/// Rows of one register tile of [`Mat::outer_acc_bias_group`]: one AVX
/// register of `f32`s.
const FOLD_ROWS: usize = 8;

/// Input columns of one register tile of [`Mat::outer_acc_bias_group`]:
/// nine row-vector accumulators and the bias's leave registers for the
/// deltas and the broadcast input.
const FOLD_COLS: usize = 9;

/// Packs one tile of every (lane, step) pair for
/// [`Mat::outer_acc_bias_group`]. Step `t`'s `rows × w` block starts at
/// `src[rows · group.start(t)..]`, row-major by lane; its tile is rows
/// `r0..r0 + k` (`k <= W`), and the lane at sorted position `p` goes to
/// `out[W · group.pair(p, t)..][..k]`. Runs of steps of one width pack
/// together, so the per-lane bookkeeping is paid once per run.
fn pack_pairs<const W: usize>(
    src: &[f32],
    rows: usize,
    r0: usize,
    k: usize,
    group: &LaneGroup,
    out: &mut [f32],
) {
    for (w, steps) in group.runs() {
        let run = &src[rows * group.start(steps.start)..][..rows * w * steps.len()];
        if k == W {
            let last = |p| group.pair(p, 0);
            match w {
                LANE_BLOCK => {
                    pack_run::<W, LANE_BLOCK>(run, rows, r0, steps, std::array::from_fn(last), out);
                    continue;
                }
                4 => {
                    pack_run::<W, 4>(run, rows, r0, steps, std::array::from_fn(last), out);
                    continue;
                }
                _ => {}
            }
        }
        for p in 0..w {
            let last = group.pair(p, 0);
            for (i, t) in steps.clone().enumerate() {
                let block = &run[rows * w * i + r0 * w..][..k * w];
                let tile = &mut out[(last - t) * W..][..k];
                for (v, row) in tile.iter_mut().zip(block.chunks_exact(w)) {
                    *v = row[p];
                }
            }
        }
    }
}

/// [`pack_pairs`] for full tiles of a run of steps that each run `B`
/// lanes (eight or four), whose every step is one contiguous `W × B`
/// block of constant size: the copy compiles without per-element bounds
/// checks. `last[p]` is sorted position `p`'s pair at step 0.
#[inline(never)]
fn pack_run<const W: usize, const B: usize>(
    run: &[f32],
    rows: usize,
    r0: usize,
    steps: std::ops::Range<usize>,
    last: [usize; B],
    out: &mut [f32],
) {
    for (i, t) in steps.enumerate() {
        let block = &run[rows * B * i + r0 * B..][..W * B];
        for (l, &p) in last.iter().enumerate() {
            let tile: &mut [f32; W] = (&mut out[(p - t) * W..][..W])
                .try_into()
                .expect("pair tile");
            for (j, v) in tile.iter_mut().enumerate() {
                *v = block[j * B + l];
            }
        }
    }
}

/// The step geometry of a lane group of sequences of any lengths.
///
/// The lanes are sorted by length, descending and stable, for compute
/// only: step `t` runs the `width(t)` lanes whose length exceeds `t`,
/// which are the sorted prefix, so every per-step block holds only
/// running lanes and no lane is ever padding. A traced group stores
/// step `t`'s `k × width(t)` blocks back to back, each at `k ·
/// start(t)`, where `start(t)` counts the (lane, step) pairs of the
/// earlier steps. Gradients still fold in group order: pair `pair(p,
/// t)` numbers the pairs lane after lane in group order, each lane's
/// steps descending — the order one-lane-at-a-time training folds in.
///
/// ```
/// let group = nnet::LaneGroup::new(&[2, 3, 1, 3]);
/// assert_eq!((group.lanes(), group.steps(), group.pairs()), (4, 3, 9));
/// assert_eq!((0..3).map(|t| group.width(t)).collect::<Vec<_>>(), [4, 3, 2]);
/// // Lanes 1 and 3 (length 3) run first, then lane 0, then lane 2.
/// assert_eq!((0..4).map(|l| group.position(l)).collect::<Vec<_>>(), [2, 0, 3, 1]);
/// // Lane 1's step 2 folds right after lane 0's two pairs.
/// assert_eq!(group.pair(0, 2), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LaneGroup {
    /// Each lane's length, in group order.
    lens: Vec<usize>,
    /// Each lane's sorted position.
    position: Vec<usize>,
    /// The lane at each sorted position.
    lane: Vec<usize>,
    /// Each lane's end in group order: the earlier lanes' total length
    /// plus its own.
    ends: Vec<usize>,
    /// `start(t)` for `t` in `0..=steps`: running prefix sums of the
    /// widths.
    starts: Vec<usize>,
}

impl LaneGroup {
    /// The geometry of lanes of lengths `lens`, in group order.
    #[must_use]
    pub fn new(lens: &[usize]) -> Self {
        let mut group = LaneGroup::default();
        group.set(lens.iter().copied());
        group
    }

    /// Recomputes the geometry for lanes of lengths `lens`, reusing the
    /// buffers.
    pub fn set(&mut self, lens: impl IntoIterator<Item = usize>) {
        self.lens.clear();
        self.lens.extend(lens);
        let lanes = self.lens.len();
        self.lane.clear();
        self.lane.extend(0..lanes);
        // Stable: lanes of one length keep their group order.
        let lens = &self.lens;
        self.lane.sort_by_key(|&l| std::cmp::Reverse(lens[l]));
        self.position.clear();
        self.position.resize(lanes, 0);
        for (p, &l) in self.lane.iter().enumerate() {
            self.position[l] = p;
        }
        self.ends.clear();
        self.ends.extend(self.lens.iter().scan(0, |end, &len| {
            *end += len;
            Some(*end)
        }));
        let steps = self.lane.first().map_or(0, |&l| self.lens[l]);
        self.starts.clear();
        self.starts.push(0);
        let mut width = lanes;
        for t in 0..steps {
            while self.lens[self.lane[width - 1]] <= t {
                width -= 1;
            }
            self.starts.push(self.starts[t] + width);
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lens.len()
    }

    /// Number of steps: the longest lane's length.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Number of (lane, step) pairs: the lanes' total length.
    #[must_use]
    pub fn pairs(&self) -> usize {
        self.starts.last().copied().unwrap_or(0)
    }

    /// Lane `lane`'s length.
    #[must_use]
    pub fn len(&self, lane: usize) -> usize {
        self.lens[lane]
    }

    /// Lane `lane`'s sorted position.
    #[must_use]
    pub fn position(&self, lane: usize) -> usize {
        self.position[lane]
    }

    /// The lane at sorted position `p`.
    #[must_use]
    pub fn lane_at(&self, p: usize) -> usize {
        self.lane[p]
    }

    /// Number of lanes that run step `t` (0 past the last step).
    #[must_use]
    pub fn width(&self, t: usize) -> usize {
        match self.starts.get(t + 1) {
            Some(&end) => end - self.starts[t],
            None => 0,
        }
    }

    /// The pairs before step `t`: where step `t`'s blocks start, in
    /// units of one lane's block height.
    #[must_use]
    pub fn start(&self, t: usize) -> usize {
        self.starts[t]
    }

    /// The fold-order number of the pair (lane at sorted position `p`,
    /// step `t`): pairs run lane after lane in group order, each lane's
    /// steps descending.
    #[must_use]
    pub fn pair(&self, p: usize, t: usize) -> usize {
        self.ends[self.lane[p]] - 1 - t
    }

    /// Maximal runs of steps of one width, widest first: `(width,
    /// steps)`. Widths only shrink, and width `w` runs from the end of
    /// sorted position `w`'s lane to the end of position `w - 1`'s.
    fn runs(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        let len_at = |p: usize| self.lens[self.lane[p]];
        (1..=self.lanes()).rev().filter_map(move |w| {
            let from = if w == self.lanes() { 0 } else { len_at(w) };
            (from < len_at(w - 1)).then(|| (w, from..len_at(w - 1)))
        })
    }

    /// The first pair of lane `lane`'s own steps in group order (the
    /// earlier lanes' total length): where its per-step values start in
    /// a lane-after-lane buffer.
    #[must_use]
    pub fn first(&self, lane: usize) -> usize {
        self.ends[lane] - self.lens[lane]
    }
}

/// Lane-block width of the SoA kernels: two SSE or one AVX register of
/// `f32`s, and the widest lane group of [`crate::SeqClassifier`]
/// training and evaluation (a chunk of up to eight consecutive
/// examples, of any lengths).
pub(crate) const LANE_BLOCK: usize = 8;

/// The widest lane block (eight, four, two or one) that fits
/// `remaining` lanes.
fn block_width(remaining: usize) -> usize {
    if remaining >= LANE_BLOCK {
        LANE_BLOCK
    } else if remaining >= 4 {
        4
    } else if remaining >= 2 {
        2
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
        // The last column is the bias: [1, 0] · [1, 2] + 3, [1, 0] · [4, 5] + 6.
        let x = [1.0, 0.0];
        let mut y = [0.0; 2];
        m.matvec_bias_acc(&x, &mut y);
        assert_eq!(y, [4.0, 10.0]);
        let g = [1.0, 1.0];
        let mut gx = [0.0; 3];
        m.matvec_t_narrow(&g, &mut gx);
        assert_eq!(gx, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_accumulates() {
        let mut m = Mat::zeros(2, 3);
        m.outer_acc_bias(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(0, 2), 0.5);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(1, 2), 1.0);
        m.fill_zero();
        assert_eq!(m.as_slice(), &[0.0; 6]);
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
    #[should_panic(expected = "matvec_bias input length")]
    fn dimension_mismatch_panics() {
        let m = Mat::zeros(2, 3);
        let mut out = [0.0; 2];
        m.matvec_bias_acc(&[1.0; 3], &mut out);
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
            m.matvec_t_narrow(&g, &mut t_fast);
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

            let mut bias = Mat::zeros(rows, cols);
            bias.outer_acc_bias(&g, &x[..cols - 1], 0.5);
            for r in 0..rows {
                for c in 0..cols - 1 {
                    let naive = 0.5 * g[r] * x[c];
                    assert!((bias.get(r, c) - naive).abs() < 1e-6, "outer_bias[{r},{c}]");
                }
                assert!((bias.get(r, cols - 1) - 0.5 * g[r]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_matrix_kernels_are_noops() {
        let m = Mat::zeros(0, 0);
        m.matvec_t_narrow(&[], &mut []);
        let mut z = Mat::zeros(0, 1);
        z.matvec_bias_acc(&[], &mut []);
        z.outer_acc_bias(&[], &[], 1.0);
    }

    /// Lane counts every SoA kernel is pinned at: every width a ragged
    /// group of eight runs (1 to 8, so each mix of the blocks of four and
    /// two and a leftover lane), 8+4+1 (13), 8+4+2 (14), two blocks (16),
    /// two blocks and a leftover lane (17), and many blocks.
    const WIDTHS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 16, 17, 64];

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
    /// four-row blocks are all zero (skipped) next to nonzero ones, and
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

    /// The whole-group fold leaves the gradient bit for bit where the
    /// scalar `outer_acc_bias(g_l, x_l, 1.0)` leaves it, applied lane
    /// after lane in group order and step descending on each pair's
    /// gathered vectors. Shapes cover partial row tiles (12 and 20 rows),
    /// one to five column tiles, the dnnsteal tagger (48 × 14) and the
    /// website model (64 × 19). Groups cover one lane, equal lengths at
    /// every SoA width, and ragged lengths with ties, length-1 and
    /// length-0 lanes, so steps run every width from 1 to 8 and some
    /// wider. Zero deltas of both signs meet infinite and NaN inputs (a
    /// dropped skip turns the cell NaN), and NaN deltas, which are not
    /// skipped, meet finite inputs.
    #[test]
    fn group_fold_matches_scalar_outer_acc_bias_per_pair() {
        let mut rng = SmallRng::seed_from_u64(13);
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut inputs, mut deltas) = (Vec::new(), Vec::new());
        let ragged64: Vec<usize> = (0..64).map(|l| 1 + (l * 7) % 5).collect();
        let groups: [&[usize]; 9] = [
            &[11],
            &[9; 4],
            &[2, 5, 2, 1, 5],
            &[1; 8],
            &[8, 1, 7, 2, 6, 3, 5, 4],
            &[7, 3, 7, 1, 6, 7, 2, 7, 5, 4, 7, 1, 3],
            &[3; 17],
            &[0, 6, 0, 4, 2],
            &ragged64,
        ];
        for (rows, cols) in [(12, 9), (20, 7), (48, 14), (64, 19), (1, 2), (8, 40)] {
            let feat = cols - 1;
            for lens in groups {
                let group = LaneGroup::new(lens);
                let pairs = group.pairs();
                let mut g = soa(rows, pairs, true);
                let mut x = soa(feat, pairs, false);
                // Step t's deltas are rows × w at rows · start(t), its
                // inputs feat × w at feat · start(t).
                let g_at =
                    |t: usize, r: usize, p: usize| rows * group.start(t) + r * group.width(t) + p;
                let x_at =
                    |t: usize, f: usize, p: usize| feat * group.start(t) + f * group.width(t) + p;
                for t in 0..group.steps() {
                    for p in 0..group.width(t) {
                        match (t + p) % 7 {
                            // Every delta of the pair is a signed zero
                            // and its inputs are ±∞ and NaN.
                            3 => {
                                for r in 0..rows {
                                    g[g_at(t, r, p)] = if r % 2 == 0 { 0.0 } else { -0.0 };
                                }
                                for f in 0..feat {
                                    x[x_at(t, f, p)] =
                                        [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][f % 3];
                                }
                            }
                            // NaN deltas beside finite inputs.
                            5 => g[g_at(t, t % rows, p)] = f32::NAN,
                            _ => {}
                        }
                    }
                }
                let mut fold = Mat::xavier(rows, cols, &mut rng);
                let mut scalar = fold.clone();
                fold.outer_acc_bias_group(&g, &x, &group, &mut inputs, &mut deltas);
                for (l, &len) in lens.iter().enumerate() {
                    let p = group.position(l);
                    for t in (0..len).rev() {
                        let g_l: Vec<f32> = (0..rows).map(|r| g[g_at(t, r, p)]).collect();
                        let x_l: Vec<f32> = (0..feat).map(|f| x[x_at(t, f, p)]).collect();
                        scalar.outer_acc_bias(&g_l, &x_l, 1.0);
                    }
                }
                assert_eq!(bits(&fold), bits(&scalar), "{rows}x{cols} at {lens:?}");
                assert!(
                    fold.as_slice().iter().any(|v| v.is_nan()),
                    "{rows}x{cols} at {lens:?}: no NaN delta folded"
                );
            }
        }
    }

    /// A group's geometry: widths are the running prefix of the lanes
    /// sorted by length, descending and stable; pairs number the lanes
    /// in group order, each lane's steps descending.
    #[test]
    fn lane_group_geometry_is_the_sorted_running_prefix() {
        let lens = [3, 1, 4, 1, 5, 0, 4];
        let group = LaneGroup::new(&lens);
        assert_eq!((group.lanes(), group.steps(), group.pairs()), (7, 5, 18));
        let lanes: Vec<usize> = (0..7).map(|p| group.lane_at(p)).collect();
        assert_eq!(lanes, [4, 2, 6, 0, 1, 3, 5]);
        let widths: Vec<usize> = (0..=5).map(|t| group.width(t)).collect();
        assert_eq!(widths, [6, 4, 4, 3, 1, 0]);
        for t in 0..group.steps() {
            assert_eq!(group.start(t + 1), group.start(t) + group.width(t));
            for p in 0..group.width(t) {
                let l = group.lane_at(p);
                assert_eq!(group.position(l), p);
                assert!(group.len(l) > t, "lane {l} runs step {t}");
                assert_eq!(group.pair(p, t), group.first(l) + group.len(l) - 1 - t);
            }
        }
        let runs: Vec<_> = group.runs().collect();
        assert_eq!(runs, [(6, 0..1), (4, 1..3), (3, 3..4), (1, 4..5)]);
        let firsts: Vec<usize> = (0..7).map(|l| group.first(l)).collect();
        assert_eq!(firsts, [0, 3, 4, 8, 9, 14, 14]);
        let empty = LaneGroup::new(&[]);
        assert_eq!((empty.lanes(), empty.steps(), empty.pairs()), (0, 0, 0));
        let default = LaneGroup::default();
        assert_eq!(
            (default.steps(), default.pairs(), default.width(0)),
            (0, 0, 0)
        );
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
            m.matvec_t_narrow(&g, &mut fast);
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
