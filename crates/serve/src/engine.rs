//! Trace-level serving drivers: feed whole traces through the batcher
//! (or a single recycled session) and collect verdicts in trace order.

use crate::batch::SessionBatch;
use crate::session::{StreamSession, Verdict};
use nnet::SeqClassifier;

/// Serves every trace through a [`SessionBatch`] of `capacity` lanes:
/// up to `capacity` sessions run in lockstep, lanes recycle onto the
/// next waiting trace as sessions finish, and each attached session
/// receives one timestep per step. Returns one verdict per trace, in
/// trace order.
///
/// Bit-identical to [`serve_sequential`] at any `capacity` (the batch
/// parity contract), which the parity tests pin at capacities
/// {1, 4, 17, 64}.
///
/// # Panics
///
/// Panics when `capacity` is zero or any trace is empty or has the
/// wrong feature dimensionality.
#[must_use]
pub fn serve_batched(
    model: &SeqClassifier,
    traces: &[Vec<Vec<f32>>],
    capacity: usize,
) -> Vec<Verdict> {
    let mut batch = SessionBatch::new(model, capacity);
    let mut verdicts: Vec<Option<Verdict>> = vec![None; traces.len()];
    // Per-lane bookkeeping: which trace a lane serves and the next
    // timestep to stage.
    let mut owner = vec![usize::MAX; capacity];
    let mut cursor = vec![0usize; capacity];
    let mut ids = Vec::with_capacity(capacity);
    ids.resize_with(capacity, || None);
    let mut next = 0usize;
    loop {
        while next < traces.len() {
            let Some(id) = batch.attach(traces[next].len()) else {
                break;
            };
            owner[id.lane()] = next;
            cursor[id.lane()] = 0;
            ids[id.lane()] = Some(id);
            next += 1;
        }
        if batch.active_sessions() == 0 {
            break;
        }
        for lane in 0..capacity {
            let Some(id) = ids[lane] else { continue };
            batch.stage(id, &traces[owner[lane]][cursor[lane]]);
            cursor[lane] += 1;
        }
        for (id, verdict) in batch.step(model) {
            verdicts[owner[id.lane()]] = Some(verdict);
            ids[id.lane()] = None;
            owner[id.lane()] = usize::MAX;
        }
    }
    verdicts
        .into_iter()
        .map(|v| v.expect("every trace produces a verdict"))
        .collect()
}

/// Serves every trace through one recycled [`StreamSession`], one trace
/// at a time — the unbatched baseline the throughput gate compares
/// [`serve_batched`] against.
///
/// # Panics
///
/// Panics when any trace is empty or has the wrong feature
/// dimensionality.
#[must_use]
pub fn serve_sequential(model: &SeqClassifier, traces: &[Vec<Vec<f32>>]) -> Vec<Verdict> {
    let mut verdicts = Vec::with_capacity(traces.len());
    let mut session: Option<StreamSession> = None;
    for trace in traces {
        let sess = match session.as_mut() {
            Some(sess) => {
                sess.reset(trace.len());
                sess
            }
            None => session.insert(StreamSession::new(model, trace.len())),
        };
        let mut verdict = None;
        for x in trace {
            verdict = sess.push(model, x);
        }
        verdicts.push(verdict.expect("final timestep yields the verdict"));
    }
    verdicts
}

/// FNV-1a over a verdict sequence (class then step count of each
/// verdict, little-endian) — the order-sensitive identity the bench
/// gate and the CI smoke compare serving paths with.
#[must_use]
pub fn verdict_fnv(verdicts: &[Verdict]) -> u64 {
    verdicts.iter().fold(obs::FNV1A_BASIS, |hash, v| {
        let hash = obs::fnv1a_extend(hash, &(v.class as u64).to_le_bytes());
        obs::fnv1a_extend(hash, &(v.steps as u64).to_le_bytes())
    })
}
