//! Ready-made classifier heads: a many-to-one sequence classifier (the
//! website-fingerprinting LSTM) and a many-to-many sequence tagger (the
//! DNN-layer-segmentation BiLSTM).

use crate::dense::Dense;
use crate::loss::{argmax, softmax_cross_entropy_into, top_k};
use crate::lstm::{BiLstm, BiLstmTrace, Lstm, LstmTrace};
use crate::mat::LANE_BLOCK;
use crate::optim::AdamConfig;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Lanes per [`SeqTagger`] lane group. The tagger's traces are ragged
/// and up to 240 steps long, and a group's trace holds every lane-step
/// it runs: eight-lane groups (up to 1,049 lane-steps on the paper grid,
/// about 0.86 MB of arena per training thread) raised the grid's peak
/// RSS by 12–17%, four-lane groups by about 3%.
const TAGGER_LANES: usize = 4;

/// A labeled sequence for many-to-one classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqExample {
    /// Per-timestep feature vectors.
    pub xs: Vec<Vec<f32>>,
    /// Class label.
    pub label: usize,
}

/// An LSTM → dense → softmax sequence classifier (many-to-one), the shape
/// of the paper's website-fingerprinting model (32 LSTM units).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqClassifier {
    lstm: Lstm,
    head: Dense,
}

impl SeqClassifier {
    /// Creates a classifier with the given dimensions.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        classes: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        SeqClassifier {
            lstm: Lstm::new(input, hidden, rng, adam),
            head: Dense::new(hidden, classes, rng, adam),
        }
    }

    /// Number of output classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.head.output_dim()
    }

    /// The recurrent layer (read-only, for external inference engines).
    #[must_use]
    pub fn lstm(&self) -> &Lstm {
        &self.lstm
    }

    /// The output head (read-only, for external inference engines).
    #[must_use]
    pub fn head(&self) -> &Dense {
        &self.head
    }

    /// Class logits for one sequence.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence.
    #[must_use]
    pub fn logits(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        assert!(!xs.is_empty(), "cannot classify an empty sequence");
        let trace = self.lstm.forward(xs);
        self.head.forward(trace.hidden(trace.len() - 1))
    }

    /// Predicted class.
    #[must_use]
    pub fn predict(&self, xs: &[Vec<f32>]) -> usize {
        argmax(&self.logits(xs))
    }

    /// Top-`k` predicted classes, best first.
    #[must_use]
    pub fn predict_top_k(&self, xs: &[Vec<f32>], k: usize) -> Vec<usize> {
        top_k(&self.logits(xs), k)
    }

    /// One SGD epoch over `examples` in the given order, with gradient
    /// application every `batch` examples (`batch == 0`: once, after the
    /// whole epoch). Returns the mean loss.
    ///
    /// Each minibatch trains as lane groups of up to eight consecutive
    /// examples of any lengths (see [`Lstm::forward_lanes`]); the weights
    /// and Adam state come out bit for bit as if every example were
    /// trained alone, in order.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence.
    pub fn train_epoch(&mut self, examples: &[SeqExample], batch: usize) -> f32 {
        self.train_epoch_grouped(examples, batch, LANE_BLOCK)
    }

    /// [`SeqClassifier::train_epoch`] with lane groups of up to `group`
    /// examples (`group == 1` is per-example training).
    fn train_epoch_grouped(&mut self, examples: &[SeqExample], batch: usize, group: usize) -> f32 {
        let hidden = self.lstm.hidden_dim();
        let mut total = 0.0f32;
        // The trainer's arena, reused across minibatches.
        let mut trace = LstmTrace::default();
        let mut seqs: Vec<&[Vec<f32>]> = Vec::with_capacity(group);
        let mut h_last = vec![0.0f32; hidden];
        let mut logits = vec![0.0f32; self.head.output_dim()];
        let mut dlogits = vec![0.0f32; self.head.output_dim()];
        let mut dh_last = vec![0.0f32; hidden * group];
        let size = if batch == 0 { examples.len() } else { batch };
        for minibatch in examples.chunks(size.max(1)) {
            for lanes in minibatch.chunks(group) {
                seqs.clear();
                seqs.extend(lanes.iter().map(|ex| ex.xs.as_slice()));
                self.lstm.forward_lanes(&seqs, &mut trace);
                // The head is per example, in example order.
                for (l, (ex, dh)) in lanes
                    .iter()
                    .zip(dh_last.chunks_exact_mut(hidden))
                    .enumerate()
                {
                    assert!(!ex.xs.is_empty(), "cannot classify an empty sequence");
                    trace.hidden_lane(ex.xs.len() - 1, l, &mut h_last);
                    self.head.forward_into(&h_last, &mut logits);
                    total += softmax_cross_entropy_into(&logits, ex.label, &mut dlogits);
                    self.head.backward_into(&h_last, &dlogits, dh);
                }
                self.lstm
                    .backward_last(&mut trace, &dh_last[..hidden * lanes.len()]);
            }
            self.lstm.apply_grads(minibatch.len());
            self.head.apply_grads(minibatch.len());
        }
        total / examples.len().max(1) as f32
    }

    /// Calls `visit(example, logits)` for every example in order, running
    /// the LSTM over lane groups of up to eight consecutive examples
    /// (bit-identical per example to [`SeqClassifier::logits`]).
    fn visit_logits(&self, examples: &[SeqExample], mut visit: impl FnMut(&SeqExample, &[f32])) {
        let mut trace = LstmTrace::default();
        let mut seqs: Vec<&[Vec<f32>]> = Vec::with_capacity(LANE_BLOCK);
        let mut h_last = vec![0.0f32; self.lstm.hidden_dim()];
        let mut logits = vec![0.0f32; self.head.output_dim()];
        for lanes in examples.chunks(LANE_BLOCK) {
            seqs.clear();
            seqs.extend(lanes.iter().map(|ex| ex.xs.as_slice()));
            self.lstm.forward_lanes(&seqs, &mut trace);
            for (l, ex) in lanes.iter().enumerate() {
                assert!(!ex.xs.is_empty(), "cannot classify an empty sequence");
                trace.hidden_lane(ex.xs.len() - 1, l, &mut h_last);
                self.head.forward_into(&h_last, &mut logits);
                visit(ex, &logits);
            }
        }
    }

    /// Top-1 accuracy over a labeled set.
    #[must_use]
    pub fn accuracy(&self, examples: &[SeqExample]) -> f64 {
        self.accuracy_top_k(examples, 1).0
    }

    /// Top-1 and top-`k` accuracy over a labeled set from one forward
    /// pass per example.
    #[must_use]
    pub fn accuracy_top_k(&self, examples: &[SeqExample], k: usize) -> (f64, f64) {
        if examples.is_empty() {
            return (0.0, 0.0);
        }
        let (mut top1, mut topk) = (0usize, 0usize);
        self.visit_logits(examples, |ex, logits| {
            top1 += usize::from(argmax(logits) == ex.label);
            topk += usize::from(top_k(logits, k).contains(&ex.label));
        });
        let n = examples.len() as f64;
        (top1 as f64 / n, topk as f64 / n)
    }
}

/// A per-timestep labeled sequence for many-to-many tagging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedExample {
    /// Per-timestep feature vectors.
    pub xs: Vec<Vec<f32>>,
    /// Per-timestep class labels (same length as `xs`).
    pub tags: Vec<usize>,
}

/// A BiLSTM → dense → softmax sequence tagger (many-to-many), the shape of
/// the paper's DNN-architecture-segmentation model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqTagger {
    bilstm: BiLstm,
    head: Dense,
}

impl SeqTagger {
    /// Creates a tagger with the given dimensions.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        hidden: usize,
        classes: usize,
        rng: &mut R,
        adam: AdamConfig,
    ) -> Self {
        SeqTagger {
            bilstm: BiLstm::new(input, hidden, rng, adam),
            head: Dense::new(2 * hidden, classes, rng, adam),
        }
    }

    /// Number of tag classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.head.output_dim()
    }

    /// Per-timestep predicted tags.
    #[must_use]
    pub fn predict(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        let trace = self.bilstm.forward(xs);
        let mut features = vec![0.0f32; self.bilstm.output_dim()];
        let mut logits = vec![0.0f32; self.head.output_dim()];
        (0..trace.len())
            .map(|t| {
                trace.output_into(0, t, &mut features);
                self.head.forward_into(&features, &mut logits);
                argmax(&logits)
            })
            .collect()
    }

    /// One training epoch with gradient application every `batch`
    /// examples (`batch == 0`: once, after the whole epoch); returns the
    /// mean per-timestep loss.
    ///
    /// Each minibatch trains as lane groups of up to four consecutive
    /// examples of any lengths (see [`BiLstm::forward_lanes`]); the
    /// weights and Adam state come out bit for bit where per-example
    /// training leaves them.
    ///
    /// The head's gradient divisor keeps a historical quirk: a full
    /// minibatch divides by `batch × len(its last example)`, but the
    /// short tail minibatch (and `batch == 0`) divides by its example
    /// count. The trained dnnsteal model depends on it, so it stays.
    ///
    /// # Panics
    ///
    /// Panics if an example's `tags` length differs from its `xs` length.
    pub fn train_epoch(&mut self, examples: &[TaggedExample], batch: usize) -> f32 {
        self.train_epoch_grouped(examples, batch, TAGGER_LANES)
    }

    /// [`SeqTagger::train_epoch`] with lane groups of up to `group`
    /// examples (`group == 1` is per-example training).
    fn train_epoch_grouped(
        &mut self,
        examples: &[TaggedExample],
        batch: usize,
        group: usize,
    ) -> f32 {
        let mut total = 0.0f32;
        let mut steps = 0usize;
        let hidden = self.bilstm.hidden_dim();
        let width = self.bilstm.output_dim();
        // The trainer's arena, reused across minibatches.
        let mut trace = BiLstmTrace::default();
        let mut seqs: Vec<&[Vec<f32>]> = Vec::with_capacity(group);
        let mut features = vec![0.0f32; width];
        let mut logits = vec![0.0f32; self.head.output_dim()];
        let mut dlogits = vec![0.0f32; self.head.output_dim()];
        let mut d_out = vec![0.0f32; width];
        let (mut d_fwd, mut d_bwd) = (Vec::new(), Vec::new());
        let size = if batch == 0 { examples.len() } else { batch };
        for minibatch in examples.chunks(size.max(1)) {
            for lanes in minibatch.chunks(group) {
                seqs.clear();
                for ex in lanes {
                    assert_eq!(ex.xs.len(), ex.tags.len(), "tags must align with inputs");
                    seqs.push(&ex.xs);
                }
                self.bilstm.forward_lanes(&seqs, &mut trace);
                let pairs: usize = seqs.iter().map(|s| s.len()).sum();
                for d in [&mut d_fwd, &mut d_bwd] {
                    d.clear();
                    d.resize(pairs * hidden, 0.0f32);
                }
                // The head is per example and timestep, in that order; each
                // lane's gradients follow the earlier lanes' (`first`).
                let mut first = 0;
                for (l, ex) in lanes.iter().enumerate() {
                    let len = ex.xs.len();
                    for t in 0..len {
                        trace.output_into(l, t, &mut features);
                        self.head.forward_into(&features, &mut logits);
                        total += softmax_cross_entropy_into(&logits, ex.tags[t], &mut dlogits);
                        steps += 1;
                        self.head.backward_into(&features, &dlogits, &mut d_out);
                        let (rt, (df, db)) = (len - 1 - t, d_out.split_at(hidden));
                        d_fwd[(first + t) * hidden..][..hidden].copy_from_slice(df);
                        d_bwd[(first + rt) * hidden..][..hidden].copy_from_slice(db);
                    }
                    first += len;
                }
                self.bilstm.backward(&mut trace, &d_fwd, &d_bwd);
            }
            self.bilstm.apply_grads(minibatch.len());
            // The head-divisor quirk (see `train_epoch`): a full minibatch
            // divides by `batch × len(last example)`, the tail by its
            // example count. Pinned by `tagger_head_divisor_quirk_is_pinned`.
            let full = batch != 0 && minibatch.len() == batch;
            let last_len = minibatch.last().map_or(0, |ex| ex.xs.len());
            self.head.apply_grads(if full {
                batch * last_len.max(1)
            } else {
                minibatch.len()
            });
        }
        total / steps.max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::LaneGroup;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Class c = constant level c/3 plus noise.
    fn toy_seq_data(rng: &mut SmallRng, n_per_class: usize) -> Vec<SeqExample> {
        let mut out = Vec::new();
        for label in 0..3usize {
            for _ in 0..n_per_class {
                let xs = (0..10)
                    .map(|_| vec![label as f32 / 3.0 + rng.gen_range(-0.05f32..0.05)])
                    .collect();
                out.push(SeqExample { xs, label });
            }
        }
        out
    }

    #[test]
    fn seq_classifier_learns_toy_classes() {
        let mut rng = SmallRng::seed_from_u64(11);
        let train = toy_seq_data(&mut rng, 20);
        let test = toy_seq_data(&mut rng, 10);
        let mut model = SeqClassifier::new(
            1,
            8,
            3,
            &mut rng,
            AdamConfig {
                lr: 0.02,
                ..AdamConfig::default()
            },
        );
        let initial = model.accuracy(&test);
        for _ in 0..15 {
            model.train_epoch(&train, 8);
        }
        let trained = model.accuracy(&test);
        assert!(trained > 0.9, "accuracy {initial} -> {trained}");
        assert!(model.accuracy_top_k(&test, 2).1 >= trained);
        assert_eq!(model.classes(), 3);
    }

    #[test]
    fn tagger_learns_level_segmentation() {
        // Tag = 0 where signal < 0.5, else 1.
        let mut rng = SmallRng::seed_from_u64(12);
        let make = |rng: &mut SmallRng| {
            let flip = rng.gen_range(3..7);
            let xs: Vec<Vec<f32>> = (0..10)
                .map(|t| vec![if t < flip { 0.1f32 } else { 0.9 } + rng.gen_range(-0.05f32..0.05)])
                .collect();
            let tags: Vec<usize> = (0..10).map(|t| usize::from(t >= flip)).collect();
            TaggedExample { xs, tags }
        };
        let train: Vec<_> = (0..40).map(|_| make(&mut rng)).collect();
        let test: Vec<_> = (0..10).map(|_| make(&mut rng)).collect();
        let mut model = SeqTagger::new(
            1,
            6,
            2,
            &mut rng,
            AdamConfig {
                lr: 0.02,
                ..AdamConfig::default()
            },
        );
        for _ in 0..12 {
            model.train_epoch(&train, 8);
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for ex in &test {
            let pred = model.predict(&ex.xs);
            hits += pred.iter().zip(&ex.tags).filter(|(p, t)| p == t).count();
            total += ex.tags.len();
        }
        let acc = hits as f64 / total as f64;
        assert!(acc > 0.9, "per-timestep accuracy {acc}");
        assert_eq!(model.classes(), 2);
    }

    #[test]
    fn training_loss_decreases() {
        let mut rng = SmallRng::seed_from_u64(13);
        let train = toy_seq_data(&mut rng, 15);
        let mut model = SeqClassifier::new(1, 6, 3, &mut rng, AdamConfig::default());
        let first = model.train_epoch(&train, 8);
        let mut last = first;
        for _ in 0..10 {
            last = model.train_epoch(&train, 8);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut rng = SmallRng::seed_from_u64(14);
        let model = SeqClassifier::new(1, 4, 2, &mut rng, AdamConfig::default());
        let _ = model.logits(&[]);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Digest of every weight, gradient and Adam moment (and the step
    /// count), through the derived `Debug`, which prints each `f32` in
    /// its shortest round-trip form (`-0.0` distinct from `0.0`).
    fn state_digest<T: std::fmt::Debug>(model: &T) -> u64 {
        fnv1a(format!("{model:?}").as_bytes())
    }

    /// `n` ragged sequences of `input`-wide steps, lengths 3..=8.
    fn ragged_examples(n: usize, input: usize, classes: usize) -> Vec<SeqExample> {
        (0..n)
            .map(|i| SeqExample {
                xs: (0..3 + (i * 7) % 6)
                    .map(|t| {
                        (0..input)
                            .map(|k| ((i * 13 + t * 5 + k * 3) as f32 * 0.37).sin())
                            .collect()
                    })
                    .collect(),
                label: i % classes,
            })
            .collect()
    }

    /// 37 equal-length (12-step) two-channel sequences over 8 classes:
    /// the website shape, with a tail minibatch of 5 at batch 16.
    fn equal_examples() -> Vec<SeqExample> {
        (0..37)
            .map(|i| SeqExample {
                xs: (0..12)
                    .map(|t| {
                        vec![
                            ((i * 3 + t) as f32 * 0.21).sin(),
                            ((i + t * 7) as f32 * 0.13).cos(),
                        ]
                    })
                    .collect(),
                label: i % 8,
            })
            .collect()
    }

    /// `n` ragged one-channel tagged sequences, lengths 2..=11.
    fn ragged_tagged(n: usize, classes: usize) -> Vec<TaggedExample> {
        (0..n)
            .map(|i| {
                let len = 2 + (i * 5) % 10;
                TaggedExample {
                    xs: (0..len)
                        .map(|t| vec![((i * 11 + t * 3) as f32 * 0.41).cos()])
                        .collect(),
                    tags: (0..len).map(|t| (i + t / 3) % classes).collect(),
                }
            })
            .collect()
    }

    fn fresh_classifier(input: usize, hidden: usize, classes: usize) -> SeqClassifier {
        let mut rng = SmallRng::seed_from_u64(0x1A7E);
        SeqClassifier::new(input, hidden, classes, &mut rng, AdamConfig::default())
    }

    fn fresh_tagger() -> SeqTagger {
        let mut rng = SmallRng::seed_from_u64(0x7A66);
        SeqTagger::new(1, 4, 3, &mut rng, AdamConfig::default())
    }

    /// Trains `epochs` epochs with lane groups of `group` and returns
    /// the model plus every epoch's loss bits.
    fn train_classifier(
        examples: &[SeqExample],
        (hidden, classes): (usize, usize),
        batch: usize,
        epochs: usize,
        group: usize,
    ) -> (SeqClassifier, Vec<u32>) {
        let mut model = fresh_classifier(examples[0].xs[0].len(), hidden, classes);
        let losses = (0..epochs)
            .map(|_| model.train_epoch_grouped(examples, batch, group).to_bits())
            .collect();
        (model, losses)
    }

    fn train_tagger(
        examples: &[TaggedExample],
        batch: usize,
        epochs: usize,
        group: usize,
    ) -> (SeqTagger, Vec<u32>) {
        let mut model = fresh_tagger();
        let losses = (0..epochs)
            .map(|_| model.train_epoch_grouped(examples, batch, group).to_bits())
            .collect();
        (model, losses)
    }

    /// Digests of the trained state produced by the per-example trainer
    /// this lane trainer replaced (one example at a time through scalar
    /// kernels), for the batch sizes the edge cases need: `0` (one
    /// minibatch, applied after the epoch), `1`, `5` (does not divide
    /// 21), `8`, and `16` (a last lane group narrower than eight). The
    /// lane trainer must reproduce them exactly.
    #[test]
    fn lane_training_reproduces_pinned_per_example_state() {
        let ragged = ragged_examples(21, 2, 3);
        for (batch, want) in [
            (0, 0x4958_6145_d9b5_9394u64),
            (1, 0x734f_5e5f_d157_0b0c),
            (5, 0x49fb_6309_de10_5bb3),
            (8, 0xe877_2b61_b284_2fd8),
            (16, 0xfec1_b636_a6b4_5def),
        ] {
            let (model, _) = train_classifier(&ragged, (5, 3), batch, 3, LANE_BLOCK);
            assert_eq!(state_digest(&model), want, "classifier batch {batch}");
        }
        let (model, _) = train_classifier(&equal_examples(), (16, 8), 16, 2, LANE_BLOCK);
        assert_eq!(state_digest(&model), 0x7596_6a0e_6822_b08d, "website shape");
        let tagged = ragged_tagged(19, 3);
        for (batch, want) in [
            (0, 0xbba5_a342_74ab_175cu64),
            (1, 0x82b0_eae8_3d7e_c6ea),
            (3, 0x3c1f_0593_4953_6bef),
            (8, 0xddec_54fb_c9b3_c671),
            (16, 0x0087_b0c0_8774_4e5f),
        ] {
            let (model, _) = train_tagger(&tagged, batch, 2, LANE_BLOCK);
            assert_eq!(state_digest(&model), want, "tagger batch {batch}");
        }
    }

    /// Lane groups of 1 (per-example training), 3, 4 and 8 give the same
    /// weights, gradients, Adam moments and losses, bit for bit, at
    /// every edge-case batch size, for both models.
    #[test]
    fn lane_width_does_not_change_training() {
        let ragged = ragged_examples(21, 2, 3);
        let tagged = ragged_tagged(19, 3);
        for batch in [0, 1, 5, 8, 16] {
            let per_example = train_classifier(&ragged, (5, 3), batch, 2, 1);
            let per_example_tagger = train_tagger(&tagged, batch, 2, 1);
            for group in [3, 4, LANE_BLOCK] {
                let lanes = train_classifier(&ragged, (5, 3), batch, 2, group);
                assert_eq!(
                    format!("{:?}", lanes),
                    format!("{:?}", per_example),
                    "classifier batch {batch} group {group}"
                );
                let lanes = train_tagger(&tagged, batch, 2, group);
                assert_eq!(
                    format!("{:?}", lanes),
                    format!("{:?}", per_example_tagger),
                    "tagger batch {batch} group {group}"
                );
            }
        }
    }

    /// 21 ragged lengths with ties and length-1 lanes, whose lane groups
    /// of eight run every width from 1 to 8 at some step.
    const RAGGED_LENS: [usize; 21] = [
        5, 1, 7, 7, 3, 1, 8, 2, // widths 8, 6, 5, 4, 4, 3, 3, 1
        4, 6, 2, 9, 6, 1, 3, 5, // widths 8, 7, 6, 5, 4, 3, 1, 1, 1
        2, 2, 3, 1, 3, // widths 5, 4, 2
    ];

    /// `Debug` of a trained model and its losses' bits: every `f32` of
    /// the weights, gradients and Adam moments prints in its shortest
    /// round-trip form, so equal strings are equal bits (NaN aside, which
    /// no model here holds).
    fn state_bits<T: std::fmt::Debug>(trained: &T) -> String {
        let state = format!("{trained:?}");
        assert!(!state.contains("NaN"), "a trained state holds a NaN");
        state
    }

    /// Ragged lane groups — lanes of any lengths, sorted for compute only
    /// — train both models bit for bit like per-example training: lane
    /// groups of up to 3, 4 and 8 leave the same weights, gradients,
    /// Adam moments and loss bits as groups of one, at every edge-case
    /// batch size, and evaluation's lane groups give each example its
    /// one-lane logits.
    #[test]
    fn ragged_lane_groups_train_like_one_lane() {
        let mut widths: Vec<usize> = RAGGED_LENS
            .chunks(LANE_BLOCK)
            .flat_map(|lens| {
                let group = LaneGroup::new(lens);
                (0..group.steps()).map(move |t| group.width(t))
            })
            .collect();
        widths.sort_unstable();
        widths.dedup();
        assert_eq!(widths, (1..=LANE_BLOCK).collect::<Vec<_>>());
        let examples: Vec<SeqExample> = RAGGED_LENS
            .iter()
            .enumerate()
            .map(|(i, &len)| SeqExample {
                xs: (0..len)
                    .map(|t| {
                        vec![
                            ((i * 13 + t * 5) as f32 * 0.37).sin(),
                            (t as f32 * 0.4).cos(),
                        ]
                    })
                    .collect(),
                label: i % 3,
            })
            .collect();
        let tagged: Vec<TaggedExample> = RAGGED_LENS
            .iter()
            .enumerate()
            .map(|(i, &len)| TaggedExample {
                xs: (0..len)
                    .map(|t| vec![((i * 11 + t * 3) as f32 * 0.41).cos()])
                    .collect(),
                tags: (0..len).map(|t| (i + t / 3) % 3).collect(),
            })
            .collect();
        for batch in [0, 1, 5, 8, 16] {
            let one = state_bits(&train_classifier(&examples, (5, 3), batch, 2, 1));
            let one_tagger = state_bits(&train_tagger(&tagged, batch, 2, 1));
            for group in [3, 4, LANE_BLOCK] {
                let lanes = train_classifier(&examples, (5, 3), batch, 2, group);
                assert_eq!(
                    state_bits(&lanes),
                    one,
                    "classifier batch {batch} group {group}"
                );
                let lanes = train_tagger(&tagged, batch, 2, group);
                assert_eq!(
                    state_bits(&lanes),
                    one_tagger,
                    "tagger batch {batch} group {group}"
                );
            }
        }
        // Evaluation's lane groups give each example its one-lane logits.
        let (model, _) = train_classifier(&examples, (5, 3), 4, 2, LANE_BLOCK);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut seen = 0;
        model.visit_logits(&examples, |ex, logits| {
            assert_eq!(bits(logits), bits(&model.logits(&ex.xs)), "example {seen}");
            seen += 1;
        });
        assert_eq!(seen, examples.len());
    }

    /// Pins the tagger's head-divisor quirk: a full minibatch divides the
    /// head gradient by `batch × len(last example)`, the tail by its
    /// example count. Replays one epoch by hand with those divisors and
    /// checks the trainer matches, and that the even-handed divisor
    /// (examples in the minibatch) would train a different head.
    #[test]
    fn tagger_head_divisor_quirk_is_pinned() {
        let examples = ragged_tagged(5, 3);
        let replay = |full_divisor: &dyn Fn(usize) -> usize| {
            let mut model = fresh_tagger();
            let width = model.bilstm.output_dim();
            let hidden = model.bilstm.hidden_dim();
            let mut features = vec![0.0f32; width];
            let mut logits = vec![0.0f32; model.head.output_dim()];
            let mut dlogits = logits.clone();
            let mut d_out = vec![0.0f32; width];
            for minibatch in examples.chunks(2) {
                for ex in minibatch {
                    let len = ex.xs.len();
                    let mut trace = model.bilstm.forward(&ex.xs);
                    let mut d_fwd = vec![0.0f32; len * hidden];
                    let mut d_bwd = vec![0.0f32; len * hidden];
                    for t in 0..len {
                        trace.output_into(0, t, &mut features);
                        model.head.forward_into(&features, &mut logits);
                        softmax_cross_entropy_into(&logits, ex.tags[t], &mut dlogits);
                        model.head.backward_into(&features, &dlogits, &mut d_out);
                        d_fwd[t * hidden..(t + 1) * hidden].copy_from_slice(&d_out[..hidden]);
                        let rt = len - 1 - t;
                        d_bwd[rt * hidden..(rt + 1) * hidden].copy_from_slice(&d_out[hidden..]);
                    }
                    model.bilstm.backward(&mut trace, &d_fwd, &d_bwd);
                }
                model.bilstm.apply_grads(minibatch.len());
                let last_len = minibatch.last().expect("non-empty").xs.len();
                model.head.apply_grads(if minibatch.len() == 2 {
                    full_divisor(last_len)
                } else {
                    minibatch.len()
                });
            }
            model
        };
        let mut trained = fresh_tagger();
        trained.train_epoch(&examples, 2);
        let quirk = replay(&|last_len| 2 * last_len);
        assert_eq!(state_digest(&trained), state_digest(&quirk));
        let even = replay(&|_| 2);
        assert_ne!(state_digest(&trained.head), state_digest(&even.head));
    }

    /// Top-1 and top-k from one logits pass equal the per-example
    /// `predict` / `predict_top_k` tallies.
    #[test]
    fn accuracy_top_k_matches_per_example_predictions() {
        let examples = ragged_examples(19, 2, 3);
        let (model, _) = train_classifier(&examples, (5, 3), 4, 2, LANE_BLOCK);
        let n = examples.len() as f64;
        let top1 = examples
            .iter()
            .filter(|ex| model.predict(&ex.xs) == ex.label)
            .count() as f64
            / n;
        let top2 = examples
            .iter()
            .filter(|ex| model.predict_top_k(&ex.xs, 2).contains(&ex.label))
            .count() as f64
            / n;
        assert_eq!(model.accuracy_top_k(&examples, 2), (top1, top2));
        assert_eq!(model.accuracy(&examples), top1);
        assert_eq!(model.accuracy_top_k(&examples, 2).1, top2);
    }
}
