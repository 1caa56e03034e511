//! Ring-buffer property tests: the fixed-capacity ring must behave
//! exactly like an unbounded `Vec` truncated to its last `capacity`
//! elements — same retention order, same drop accounting, and class
//! counts must equal what a naive scan over that model returns.

use obs::{Event, EventClass, EventKind, IrqClass, TraceSink};
use proptest::prelude::*;

/// A deterministic event stream: the class cycles through all eleven
/// variants, the timestamp is the caller's.
fn event(at_ps: u64, i: u64) -> Event {
    let irq = IrqClass::ALL[(i % IrqClass::ALL.len() as u64) as usize];
    let kind = match i % 11 {
        0 => EventKind::IrqDelivered {
            irq,
            handler_cost_ps: i,
        },
        1 => EventKind::IrqDropped { irq },
        2 => EventKind::IrqCoalesced { irq },
        3 => EventKind::IrqDuplicated {
            irq,
            ghost_at_ps: at_ps + 1,
        },
        4 => EventKind::SegClear {
            reg: obs::SegRegId::Gs,
            null: i.is_multiple_of(2),
        },
        5 => EventKind::KernelReturn {
            cleared: (i % 4) as u8,
            kernel_span_ps: i,
        },
        6 => EventKind::FreqTransition {
            from_khz: i,
            to_khz: i + 1,
        },
        7 => EventKind::ProbeSample { segcnt: i, irq },
        8 => EventKind::FaultInjected {
            fault: obs::FaultKind::SmtBurst,
        },
        9 => EventKind::TrialStart { index: i },
        _ => EventKind::TrialEnd { index: i },
    };
    Event::new(at_ps, kind)
}

/// The naive model: every event ever recorded, in order.
fn model_tail(model: &[Event], capacity: usize) -> Vec<Event> {
    model[model.len().saturating_sub(capacity)..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Retention: the ring always holds exactly the newest `capacity`
    /// events, oldest first, and counts every overwrite.
    #[test]
    fn ring_retains_newest_in_order(
        capacity in 1usize..48,
        stamps in proptest::collection::vec(any::<u64>(), 0..160),
    ) {
        let mut sink = TraceSink::with_capacity(capacity);
        let mut model: Vec<Event> = Vec::new();
        for (i, &at) in stamps.iter().enumerate() {
            let e = event(at, i as u64);
            sink.record(e);
            model.push(e);
            // Invariants hold after every single record, not just at the
            // end — overwrite order is visible mid-stream.
            prop_assert_eq!(sink.events(), model_tail(&model, capacity));
            prop_assert_eq!(sink.len(), model.len().min(capacity));
        }
        prop_assert_eq!(sink.recorded(), model.len() as u64);
        prop_assert_eq!(
            sink.dropped(),
            model.len().saturating_sub(capacity) as u64
        );
    }

    /// `count_class` returns exactly the per-class counts a naive scan
    /// over the retained tail returns.
    #[test]
    fn class_counts_match_naive_scan(
        capacity in 1usize..48,
        stamps in proptest::collection::vec(0u64..1000, 0..160),
    ) {
        let mut sink = TraceSink::with_capacity(capacity);
        let mut model: Vec<Event> = Vec::new();
        for (i, &at) in stamps.iter().enumerate() {
            let e = event(at, i as u64);
            sink.record(e);
            model.push(e);
        }
        let tail = model_tail(&model, capacity);
        for &class in &EventClass::ALL {
            prop_assert_eq!(
                sink.count_class(class),
                tail.iter().filter(|e| e.class() == class).count()
            );
        }
    }

    /// Merging sinks preserves order and accounting: absorb is equivalent
    /// to re-recording the other sink's retained events.
    #[test]
    fn absorb_matches_sequential_rerecord(
        cap_a in 1usize..32,
        cap_b in 1usize..32,
        count in 0usize..80,
        track in any::<u32>(),
    ) {
        let mut donor = TraceSink::with_capacity(cap_b);
        for i in 0..count {
            donor.record(event(i as u64 * 7, i as u64));
        }
        let mut merged = TraceSink::with_capacity(cap_a);
        let mut model = TraceSink::with_capacity(cap_a);
        merged.absorb(&donor, track);
        for mut e in donor.events() {
            e.track = track;
            model.record(e);
        }
        prop_assert_eq!(merged.events(), model.events());
        // The donor's own overflow carries over into the merged count.
        prop_assert_eq!(merged.dropped(), model.dropped() + donor.dropped());
    }
}
