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

/// A lockstep batch of streaming sessions over one model.
///
/// Per-session hidden/cell state lives in feature-major SoA buffers
/// (`buf[feature * capacity + lane]`). Each [`SessionBatch::step`]
/// packs the staged lanes into a dense block and drives **one** blocked
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
    active: Vec<usize>,
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
            active: Vec::with_capacity(capacity),
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
        self.active.clear();
        for lane in 0..self.capacity {
            if self.staged[lane] {
                self.active.push(lane);
            }
        }
        let m = self.active.len();
        if m == 0 {
            return Vec::new();
        }
        // Gather the staged lanes into dense feature-major blocks.
        for f in 0..self.input {
            for (k, &lane) in self.active.iter().enumerate() {
                self.concat[f * m + k] = self.x[f * self.capacity + lane];
            }
        }
        for f in 0..self.hidden {
            for (k, &lane) in self.active.iter().enumerate() {
                self.concat[(self.input + f) * m + k] = self.h[f * self.capacity + lane];
                self.cpack[f * m + k] = self.c[f * self.capacity + lane];
            }
        }
        // One blocked kernel call for the whole batch, then the fused
        // gate pass over all lanes.
        gate_pre_soa(
            model,
            &self.concat[..(self.input + self.hidden) * m],
            m,
            &mut self.pre[..4 * self.hidden * m],
        );
        nnet::gate_step(
            &mut self.pre[..4 * self.hidden * m],
            &mut self.cpack[..self.hidden * m],
            &mut self.tcpack[..self.hidden * m],
            &mut self.hpack[..self.hidden * m],
        );
        // Scatter the new state back to the lanes.
        for f in 0..self.hidden {
            for (k, &lane) in self.active.iter().enumerate() {
                self.h[f * self.capacity + lane] = self.hpack[f * m + k];
                self.c[f * self.capacity + lane] = self.cpack[f * m + k];
            }
        }
        let mut verdicts = Vec::new();
        for k in 0..m {
            let lane = self.active[k];
            self.staged[lane] = false;
            self.seen[lane] += 1;
            if self.seen[lane] < self.expected[lane] {
                continue;
            }
            for f in 0..self.hidden {
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
