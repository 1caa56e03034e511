//! The cross-session batcher: SoA lockstep lanes with recycling.

use crate::session::{gate_pre_soa, Verdict};
use nnet::SeqClassifier;

/// A generation-checked handle to one attached session.
///
/// Lanes are recycled as sessions finish; the generation counter makes
/// a handle to a finished session unusable instead of silently aliasing
/// the lane's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    lane: usize,
    generation: u64,
}

impl SessionId {
    /// The lane index this handle occupies (stable for the session's
    /// lifetime; reused afterwards).
    #[must_use]
    pub fn lane(&self) -> usize {
        self.lane
    }
}

/// A run of consecutive staged lanes and where it lands in a step's
/// dense block: lanes `lane..lane + len` pack into slots
/// `slot..slot + len`.
#[derive(Debug, Clone, Copy)]
struct Run {
    lane: usize,
    slot: usize,
    len: usize,
}

/// A lockstep batch of streaming sessions over one model.
///
/// Per-session hidden/cell state lives in feature-major SoA buffers
/// (`buf[feature * capacity + lane]`). Each [`SessionBatch::step`]
/// packs the staged lanes into a dense block, copying each run of
/// consecutive staged lanes as a whole, and drives **one** blocked
/// kernel call per gate matrix for the whole batch instead of one matvec
/// per session; lanes recycle through a free list as sessions finish and
/// new ones attach.
///
/// **Parity:** the packed kernel's per-lane floating-point order is
/// width-independent (see [`nnet::Mat::matvec_bias_acc_soa`]), so a
/// lane's verdict is bit-identical to serving that session alone
/// through [`crate::StreamSession`] — and therefore to the batch
/// [`nnet::SeqClassifier`] — at any batch size and any attach/finish
/// interleaving.
#[derive(Debug, Clone)]
pub struct SessionBatch {
    input: usize,
    hidden: usize,
    capacity: usize,
    /// Feature-major `hidden × capacity` hidden state.
    h: Vec<f32>,
    /// Feature-major `hidden × capacity` cell state.
    c: Vec<f32>,
    /// Feature-major `input × capacity` staged inputs for this step.
    x: Vec<f32>,
    expected: Vec<usize>,
    seen: Vec<usize>,
    staged: Vec<bool>,
    attached: Vec<bool>,
    generation: Vec<u64>,
    /// Vacant lanes, popped on attach (lowest lane first).
    free: Vec<usize>,
    // Step scratch, allocated once.
    concat: Vec<f32>,
    pre: Vec<f32>,
    cpack: Vec<f32>,
    hpack: Vec<f32>,
    tcpack: Vec<f32>,
    runs: Vec<Run>,
    logits: Vec<f32>,
    hlane: Vec<f32>,
}

impl SessionBatch {
    /// A batch of `capacity` lanes shaped for `model`.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(model: &SeqClassifier, capacity: usize) -> Self {
        assert!(capacity > 0, "a session batch needs at least one lane");
        let (input, hidden) = (model.lstm().input_dim(), model.lstm().hidden_dim());
        SessionBatch {
            input,
            hidden,
            capacity,
            h: vec![0.0; hidden * capacity],
            c: vec![0.0; hidden * capacity],
            x: vec![0.0; input * capacity],
            expected: vec![0; capacity],
            seen: vec![0; capacity],
            staged: vec![false; capacity],
            attached: vec![false; capacity],
            generation: vec![0; capacity],
            free: (0..capacity).rev().collect(),
            concat: vec![0.0; (input + hidden) * capacity],
            pre: vec![0.0; 4 * hidden * capacity],
            cpack: vec![0.0; hidden * capacity],
            hpack: vec![0.0; hidden * capacity],
            tcpack: vec![0.0; hidden * capacity],
            runs: Vec::with_capacity(capacity.div_ceil(2)),
            logits: vec![0.0; model.classes()],
            hlane: vec![0.0; hidden],
        }
    }

    /// Lane count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of attached (unfinished) sessions.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// Whether every lane is occupied.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Attaches a new session expecting `expected_steps` timesteps,
    /// recycling a vacant lane; `None` when the batch is full.
    ///
    /// # Panics
    ///
    /// Panics when `expected_steps` is zero.
    pub fn attach(&mut self, expected_steps: usize) -> Option<SessionId> {
        assert!(expected_steps > 0, "cannot classify an empty sequence");
        let lane = self.free.pop()?;
        for f in 0..self.hidden {
            self.h[f * self.capacity + lane] = 0.0;
            self.c[f * self.capacity + lane] = 0.0;
        }
        self.expected[lane] = expected_steps;
        self.seen[lane] = 0;
        self.staged[lane] = false;
        self.attached[lane] = true;
        self.generation[lane] += 1;
        Some(SessionId {
            lane,
            generation: self.generation[lane],
        })
    }

    /// Stages `x` as session `id`'s next timestep; the step happens at
    /// the next [`SessionBatch::step`].
    ///
    /// # Panics
    ///
    /// Panics on a stale handle, a dimension mismatch, or when the
    /// session already has a staged timestep.
    pub fn stage(&mut self, id: SessionId, x: &[f32]) {
        self.check(id);
        assert_eq!(x.len(), self.input, "session input dimension");
        assert!(!self.staged[id.lane], "timestep already staged this step");
        for (f, &v) in x.iter().enumerate() {
            self.x[f * self.capacity + id.lane] = v;
        }
        self.staged[id.lane] = true;
    }

    /// Advances every staged session one timestep in lockstep and
    /// returns the verdicts of the sessions that just consumed their
    /// final timestep, in lane order. Finished lanes are released for
    /// recycling before returning.
    ///
    /// `model` must be the model the batch was built for.
    pub fn step(&mut self, model: &SeqClassifier) -> Vec<(SessionId, Verdict)> {
        let lstm = model.lstm();
        let shape = (lstm.input_dim(), lstm.hidden_dim());
        debug_assert_eq!(shape, (self.input, self.hidden), "model shape changed");
        // Split the staged lanes, in ascending order, into maximal runs
        // of consecutive lanes.
        self.runs.clear();
        let mut m = 0;
        let mut lane = 0;
        while lane < self.capacity {
            if !self.staged[lane] {
                lane += 1;
                continue;
            }
            let first = lane;
            while lane < self.capacity && self.staged[lane] {
                lane += 1;
            }
            let len = lane - first;
            self.runs.push(Run {
                lane: first,
                slot: m,
                len,
            });
            m += len;
        }
        if m == 0 {
            return Vec::new();
        }
        let (input, hidden, capacity) = (self.input, self.hidden, self.capacity);
        let to_slots = || self.runs.iter().map(|r| (r.lane, r.slot, r.len));
        let to_lanes = || self.runs.iter().map(|r| (r.slot, r.lane, r.len));
        // Pack the staged lanes into dense feature-major blocks.
        let (xs, hs) = self.concat.split_at_mut(input * m);
        copy_runs(to_slots(), input, (&self.x, capacity), (xs, m));
        copy_runs(to_slots(), hidden, (&self.h, capacity), (hs, m));
        copy_runs(
            to_slots(),
            hidden,
            (&self.c, capacity),
            (&mut self.cpack, m),
        );
        // One blocked kernel call for the whole batch, then the fused
        // gate pass over all lanes.
        gate_pre_soa(
            model,
            &self.concat[..(input + hidden) * m],
            m,
            &mut self.pre[..4 * hidden * m],
        );
        nnet::gate_step(
            &mut self.pre[..4 * hidden * m],
            &mut self.cpack[..hidden * m],
            &mut self.tcpack[..hidden * m],
            &mut self.hpack[..hidden * m],
        );
        // Copy the new state back to the lanes it came from.
        copy_runs(
            to_lanes(),
            hidden,
            (&self.hpack, m),
            (&mut self.h, capacity),
        );
        copy_runs(
            to_lanes(),
            hidden,
            (&self.cpack, m),
            (&mut self.c, capacity),
        );
        let mut verdicts = Vec::new();
        for r in 0..self.runs.len() {
            let Run { lane, slot, len } = self.runs[r];
            for (lane, k) in (lane..lane + len).zip(slot..) {
                self.staged[lane] = false;
                self.seen[lane] += 1;
                if self.seen[lane] < self.expected[lane] {
                    continue;
                }
                for f in 0..hidden {
                    self.hlane[f] = self.hpack[f * m + k];
                }
                model.head().forward_into(&self.hlane, &mut self.logits);
                let id = SessionId {
                    lane,
                    generation: self.generation[lane],
                };
                verdicts.push((
                    id,
                    Verdict {
                        class: nnet::argmax(&self.logits),
                        steps: self.seen[lane],
                    },
                ));
                self.release(lane);
            }
        }
        verdicts
    }

    fn check(&self, id: SessionId) {
        assert!(
            id.lane < self.capacity
                && self.attached[id.lane]
                && self.generation[id.lane] == id.generation,
            "stale or foreign session handle"
        );
    }

    fn release(&mut self, lane: usize) {
        self.attached[lane] = false;
        self.staged[lane] = false;
        self.free.push(lane);
    }
}

/// Runs shorter than this many lanes copy lane by lane down the rows,
/// as a per-lane gather does; longer runs copy row by row as slices. A
/// slice copy of a length known only at run time is a `memcpy` call,
/// which costs more than a few scalar moves.
const SLICE_RUN: usize = 4;

/// For each `(from, to, len)` in `runs`, copies the `len` elements at
/// `from` in each of the first `rows` rows of `src` (rows of
/// `src_row`) to `to` in the same row of `dst` (rows of `dst_row`).
fn copy_runs(
    runs: impl Iterator<Item = (usize, usize, usize)>,
    rows: usize,
    (src, src_row): (&[f32], usize),
    (dst, dst_row): (&mut [f32], usize),
) {
    for (from, to, len) in runs {
        if len < SLICE_RUN {
            for k in 0..len {
                for f in 0..rows {
                    dst[f * dst_row + to + k] = src[f * src_row + from + k];
                }
            }
        } else {
            for f in 0..rows {
                dst[f * dst_row + to..][..len].copy_from_slice(&src[f * src_row + from..][..len]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnet::AdamConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Over steps whose staged lanes split into several runs, a staged
    /// lane's hidden and cell state equals the same session stepped in
    /// a batch of one, and a lane that sits out keeps its state bits.
    #[test]
    fn a_step_moves_exactly_the_staged_lanes() {
        let mut rng = SmallRng::seed_from_u64(0xBA7C);
        let model = SeqClassifier::new(2, 9, 3, &mut rng, AdamConfig::default());
        let capacity = 13;
        let mut batch = SessionBatch::new(&model, capacity);
        let mut solo: Vec<SessionBatch> = (0..capacity)
            .map(|_| SessionBatch::new(&model, 1))
            .collect();
        let ids: Vec<SessionId> = (0..capacity)
            .map(|_| batch.attach(usize::MAX).expect("lane free"))
            .collect();
        let solo_ids: Vec<SessionId> = solo
            .iter_mut()
            .map(|one| one.attach(usize::MAX).expect("lane free"))
            .collect();
        for _ in 0..50 {
            let (h, c) = (batch.h.clone(), batch.c.clone());
            let staged: Vec<bool> = (0..capacity).map(|_| rng.gen_range(0u32..3) != 0).collect();
            for lane in (0..capacity).filter(|&lane| staged[lane]) {
                let x = [rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)];
                batch.stage(ids[lane], &x);
                solo[lane].stage(solo_ids[lane], &x);
                assert!(solo[lane].step(&model).is_empty());
            }
            assert!(batch.step(&model).is_empty());
            for (lane, one) in solo.iter().enumerate() {
                for f in 0..batch.hidden {
                    let at = f * capacity + lane;
                    let (want_h, want_c) = if staged[lane] {
                        (one.h[f], one.c[f])
                    } else {
                        (h[at], c[at])
                    };
                    assert_eq!(batch.h[at].to_bits(), want_h.to_bits(), "h lane {lane}");
                    assert_eq!(batch.c[at].to_bits(), want_c.to_bits(), "c lane {lane}");
                }
            }
        }
    }
}
