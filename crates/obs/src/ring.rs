//! The trace sink: a fixed-capacity ring buffer of [`Event`]s.
//!
//! Capacity is fixed at construction; once full, recording a new event
//! overwrites the oldest and bumps the `dropped` counter, so memory
//! stays bounded no matter how long a run traces (the
//! `SEGSCOPE_OBS_FULL=1` stress pass records 16M events into a much
//! smaller ring and asserts exactly this).

use crate::event::{Event, EventClass, EventKind};
use crate::metrics::Metrics;

/// Default ring capacity when none is given (events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A deterministic trace collector: a bounded event ring plus an
/// embedded [`Metrics`] registry.
///
/// Sinks never read wall-clock time; every timestamp comes from the
/// caller's simulated clock, so two runs with the same `(config, seed)`
/// fill a sink with identical bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSink {
    capacity: usize,
    /// Ring storage; grows up to `capacity` then wraps.
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
    /// Total events ever offered to `record`.
    recorded: u64,
    /// Embedded counter/phase registry.
    pub metrics: Metrics,
}

impl TraceSink {
    /// A sink holding at most `capacity` events (`capacity` ≥ 1 is
    /// clamped up from 0).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink {
            capacity,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
            recorded: 0,
            metrics: Metrics::new(),
        }
    }

    /// A sink with [`DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        TraceSink::with_capacity(DEFAULT_CAPACITY)
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever offered (retained + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records `event`, overwriting the oldest retained event when full.
    pub fn record(&mut self, event: Event) {
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records `kind` at `at_ps` on track 0.
    pub fn emit(&mut self, at_ps: u64, kind: EventKind) {
        self.record(Event::new(at_ps, kind));
    }

    /// Retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of retained events of exactly `class`.
    #[must_use]
    pub fn count_class(&self, class: EventClass) -> usize {
        self.buf.iter().filter(|e| e.class() == class).count()
    }

    /// Appends every retained event of `other` (oldest first) onto this
    /// sink, re-tagging each with `track`, and merges its metrics. Used
    /// by the trial engine to fold per-trial sinks into one trace in
    /// deterministic task order.
    pub fn absorb(&mut self, other: &TraceSink, track: u32) {
        for mut event in other.events() {
            event.track = track;
            self.record(event);
        }
        self.dropped += other.dropped();
        self.metrics.merge(&other.metrics);
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IrqClass;

    fn tick(at: u64) -> Event {
        Event::new(
            at,
            EventKind::IrqDelivered {
                irq: IrqClass::Timer,
                handler_cost_ps: 10,
            },
        )
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut sink = TraceSink::with_capacity(3);
        for at in 0..5 {
            sink.record(tick(at));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.recorded(), 5);
        let ats: Vec<u64> = sink.events().iter().map(|e| e.at_ps).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut sink = TraceSink::with_capacity(0);
        sink.record(tick(1));
        sink.record(tick(2));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.events()[0].at_ps, 2);
    }

    #[test]
    fn absorb_retags_and_accumulates_drops() {
        let mut a = TraceSink::with_capacity(8);
        let mut b = TraceSink::with_capacity(2);
        for at in 0..4 {
            b.record(tick(at));
        }
        b.metrics.incr("x", 2);
        a.absorb(&b, 7);
        assert_eq!(a.len(), 2);
        assert!(a.events().iter().all(|e| e.track == 7));
        assert_eq!(a.dropped(), 2);
        assert_eq!(a.metrics.counter("x"), 2);
    }
}
