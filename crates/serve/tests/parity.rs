//! The streaming engine's bit-parity oracle tests: incremental ≡ batch
//! classifier, and batched lockstep ≡ sequential at every batch size —
//! the same oracle pattern as `NaiveFabric` and `nnet::reference`.

use nnet::{AdamConfig, SeqClassifier, SeqExample};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::{serve_batched, serve_sequential, verdict_fnv, SessionBatch, SessionId, StreamSession};

/// A deterministic lightly-trained model (training makes the logits
/// non-degenerate, so argmax parity is meaningful).
fn trained_model(rng: &mut SmallRng) -> SeqClassifier {
    let mut model = SeqClassifier::new(2, 12, 4, rng, AdamConfig::default());
    let examples: Vec<SeqExample> = (0..24)
        .map(|i| {
            let label = i % 4;
            let xs = (0..10)
                .map(|t| {
                    vec![
                        label as f32 / 4.0 + ((i * 10 + t) as f32 * 0.31).sin() * 0.05,
                        ((t + label) as f32 * 0.17).cos() * 0.3,
                    ]
                })
                .collect();
            SeqExample { xs, label }
        })
        .collect();
    for _ in 0..4 {
        model.train_epoch(&examples, 8);
    }
    model
}

/// Deterministic traces of varied lengths (so batched lanes finish and
/// recycle at different steps).
fn traces(rng: &mut SmallRng, count: usize) -> Vec<Vec<Vec<f32>>> {
    (0..count)
        .map(|i| {
            let len = 5 + (i * 7) % 23;
            (0..len)
                .map(|_| vec![rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)])
                .collect()
        })
        .collect()
}

#[test]
fn stream_session_matches_batch_classifier_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0x5E21);
    let model = trained_model(&mut rng);
    for trace in traces(&mut rng, 40) {
        let mut session = StreamSession::new(&model, trace.len());
        let mut verdict = None;
        for x in &trace {
            verdict = session.push(&model, x);
        }
        let verdict = verdict.expect("verdict on final step");
        assert_eq!(verdict.class, model.predict(&trace));
        assert_eq!(verdict.steps, trace.len());
        assert!(session.finished());
    }
}

#[test]
fn batched_lockstep_matches_sequential_at_every_batch_size() {
    let mut rng = SmallRng::seed_from_u64(0x5E22);
    let model = trained_model(&mut rng);
    let traces = traces(&mut rng, 80);
    let sequential = serve_sequential(&model, &traces);
    // Sequential serving itself matches the batch classifier.
    for (trace, verdict) in traces.iter().zip(&sequential) {
        assert_eq!(verdict.class, model.predict(trace));
    }
    let reference = verdict_fnv(&sequential);
    for capacity in [1usize, 4, 17, 64] {
        let batched = serve_batched(&model, &traces, capacity);
        assert_eq!(
            batched, sequential,
            "batched at capacity {capacity} diverged from sequential"
        );
        assert_eq!(verdict_fnv(&batched), reference);
    }
}

/// Drives a [`SessionBatch`] directly with sessions of different
/// lengths, where an attached session sits out about one step in three
/// (attached, not staged). A step's staged lanes then split into
/// several runs of consecutive lanes. Every verdict equals a solo
/// [`StreamSession`] fed the same inputs, and arrives only after the
/// session's last staged timestep: sitting out consumes nothing.
#[test]
fn steps_over_many_lane_runs_match_solo_sessions() {
    let mut rng = SmallRng::seed_from_u64(0x5E27);
    let model = trained_model(&mut rng);
    for capacity in [1usize, 4, 17, 64] {
        let traces = traces(&mut rng, 3 * capacity + 7);
        let mut batch = SessionBatch::new(&model, capacity);
        // Per lane: the session's handle, its trace and the next
        // timestep to stage.
        let mut lanes: Vec<Option<(SessionId, usize, usize)>> = vec![None; capacity];
        let mut verdicts = vec![None; traces.len()];
        let (mut next, mut most_runs) = (0, 0);
        while next < traces.len() || batch.active_sessions() > 0 {
            while next < traces.len() {
                let Some(id) = batch.attach(traces[next].len()) else {
                    break;
                };
                lanes[id.lane()] = Some((id, next, 0));
                next += 1;
            }
            let mut staged = vec![false; capacity];
            for (lane, slot) in lanes.iter_mut().enumerate() {
                let Some((id, trace, cursor)) = slot else {
                    continue;
                };
                if rng.gen_range(0u32..3) == 0 {
                    continue;
                }
                batch.stage(*id, &traces[*trace][*cursor]);
                *cursor += 1;
                staged[lane] = true;
            }
            let runs = staged
                .iter()
                .enumerate()
                .filter(|&(lane, &on)| on && (lane == 0 || !staged[lane - 1]))
                .count();
            most_runs = most_runs.max(runs);
            for (id, verdict) in batch.step(&model) {
                let (_, trace, cursor) = lanes[id.lane()].take().expect("a live lane");
                assert_eq!(cursor, traces[trace].len(), "verdict before the last step");
                verdicts[trace] = Some(verdict);
            }
        }
        for (t, trace) in traces.iter().enumerate() {
            let mut solo = StreamSession::new(&model, trace.len());
            let want = trace.iter().fold(None, |_, x| solo.push(&model, x));
            assert_eq!(verdicts[t], want, "capacity {capacity}, trace {t}");
        }
        if capacity > 1 {
            assert!(
                most_runs >= 2,
                "capacity {capacity}: no step split into runs"
            );
        }
    }
}

#[test]
fn lane_recycling_reuses_lanes_and_rejects_stale_handles() {
    let mut rng = SmallRng::seed_from_u64(0x5E25);
    let model = trained_model(&mut rng);
    let mut batch = SessionBatch::new(&model, 2);
    let a = batch.attach(1).expect("lane free");
    let b = batch.attach(3).expect("lane free");
    assert!(batch.is_full());
    assert!(batch.attach(2).is_none(), "no third lane");
    batch.stage(a, &[0.1, 0.2]);
    batch.stage(b, &[0.3, 0.4]);
    let done = batch.step(&model);
    // Only the 1-step session finished; its lane is free again.
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].0, a);
    assert_eq!(done[0].1.steps, 1);
    assert_eq!(batch.active_sessions(), 1);
    let c = batch.attach(1).expect("lane recycled");
    assert_eq!(c.lane(), a.lane(), "freed lane is reused");
    assert_ne!(c, a, "generation distinguishes the reuse");
    // A recycled lane starts from zeroed state: same verdict as a fresh
    // single-session run of the same 1-step trace.
    batch.stage(c, &[0.5, -0.5]);
    batch.stage(b, &[0.3, 0.4]);
    let done = batch.step(&model);
    assert_eq!(done.len(), 1);
    let mut solo = StreamSession::new(&model, 1);
    let expect = solo.push(&model, &[0.5, -0.5]).expect("verdict");
    assert_eq!(done[0].1, expect);
}

#[test]
#[should_panic(expected = "stale or foreign session handle")]
fn staging_through_a_stale_handle_panics() {
    let mut rng = SmallRng::seed_from_u64(0x5E26);
    let model = trained_model(&mut rng);
    let mut batch = SessionBatch::new(&model, 1);
    let a = batch.attach(1).expect("lane free");
    batch.stage(a, &[0.0, 0.0]);
    let _ = batch.step(&model);
    let _b = batch.attach(2).expect("lane recycled");
    batch.stage(a, &[0.0, 0.0]); // `a` finished; its handle is stale
}

#[test]
fn verdict_fnv_is_order_sensitive() {
    use serve::Verdict;
    let a = [
        Verdict { class: 1, steps: 4 },
        Verdict { class: 2, steps: 5 },
    ];
    let b = [
        Verdict { class: 2, steps: 5 },
        Verdict { class: 1, steps: 4 },
    ];
    assert_ne!(verdict_fnv(&a), verdict_fnv(&b));
    assert_eq!(verdict_fnv(&a), verdict_fnv(a.as_ref()));
}
