//! The uncached linear-scan interrupt fabric.
//!
//! [`NaiveFabric`] is [`InterruptFabric`](crate::InterruptFabric) without
//! the cached head: `peek_next` walks every source on every call and
//! `pop` re-matches the winner to reschedule it. It is kept for two jobs:
//!
//! 1. **Reference oracle** — the differential tests drive generated op
//!    sequences through both fabrics and assert identical
//!    [`PendingInterrupt`] sequences *and* identical RNG positions (both
//!    implementations share the fabric's private `draw_next`, so they consume
//!    the same draws in the same order).
//! 2. **Baseline arm** — `bench_hotpath` measures consumed-interrupts/sec
//!    against it to quantify the cached head's win.
//!
//! It is *not* part of the simulator hot path; `segsim`-level code uses
//! [`InterruptFabric`](crate::InterruptFabric) exclusively.

use crate::exit::ExitClass;
use crate::fabric::{draw_next, InjectedEvent, SourceModel, SourceState};
use crate::fault::{FaultLog, FaultPlan, FaultedPop};
use crate::kind::InterruptKind;
use crate::time::Ps;
use crate::{PendingInterrupt, SourceId};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The uncached fabric: O(sources) `peek_next`, re-matching `pop`.
///
/// Behaviourally identical to [`InterruptFabric`](crate::InterruptFabric)
/// — same tie-breaking, same RNG-draw order — just slower.
#[derive(Debug, Clone, Default)]
pub struct NaiveFabric {
    sources: Vec<SourceState>,
    injected: BinaryHeap<Reverse<InjectedEvent>>,
}

impl NaiveFabric {
    /// An empty fabric with no sources.
    #[must_use]
    pub fn new() -> Self {
        NaiveFabric::default()
    }

    /// Mirrors [`InterruptFabric::add_periodic_timer`](crate::InterruptFabric::add_periodic_timer).
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive.
    pub fn add_periodic_timer<R: Rng + ?Sized>(
        &mut self,
        hz: f64,
        jitter_std: Ps,
        rng: &mut R,
    ) -> SourceId {
        assert!(hz > 0.0, "timer frequency must be positive");
        let period = Ps::from_secs_f64(1.0 / hz);
        let id = SourceId::from_index(self.sources.len());
        let mut state = SourceState {
            model: SourceModel::Periodic {
                kind: InterruptKind::Timer,
                period,
                jitter_std,
                nominal_next: period,
                enabled: true,
            },
            next: None,
        };
        state.next = draw_next(&mut state.model, Ps::ZERO, rng);
        self.sources.push(state);
        id
    }

    /// Mirrors [`InterruptFabric::add_poisson`](crate::InterruptFabric::add_poisson).
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not strictly positive.
    pub fn add_poisson<R: Rng + ?Sized>(
        &mut self,
        kind: InterruptKind,
        rate_hz: f64,
        rng: &mut R,
    ) -> SourceId {
        assert!(rate_hz > 0.0, "poisson rate must be positive");
        let id = SourceId::from_index(self.sources.len());
        let mut state = SourceState {
            model: SourceModel::Poisson {
                kind,
                rate_hz,
                enabled: true,
            },
            next: None,
        };
        state.next = draw_next(&mut state.model, Ps::ZERO, rng);
        self.sources.push(state);
        id
    }

    /// Mirrors [`InterruptFabric::inject`](crate::InterruptFabric::inject).
    pub fn inject(&mut self, at: Ps, kind: InterruptKind) {
        self.inject_exit(at, kind, ExitClass::Irq);
    }

    /// Mirrors [`InterruptFabric::inject_exit`](crate::InterruptFabric::inject_exit).
    pub fn inject_exit(&mut self, at: Ps, kind: InterruptKind, class: ExitClass) {
        self.injected
            .push(Reverse(InjectedEvent { at, kind, class }));
    }

    /// Mirrors [`InterruptFabric::inject_all`](crate::InterruptFabric::inject_all).
    pub fn inject_all<I: IntoIterator<Item = (Ps, InterruptKind)>>(&mut self, events: I) {
        for (at, kind) in events {
            self.inject(at, kind);
        }
    }

    /// Mirrors [`InterruptFabric::set_enabled`](crate::InterruptFabric::set_enabled).
    pub fn set_enabled<R: Rng + ?Sized>(
        &mut self,
        id: SourceId,
        enabled: bool,
        now: Ps,
        rng: &mut R,
    ) {
        let state = &mut self.sources[id.index()];
        match &mut state.model {
            SourceModel::Periodic {
                enabled: e,
                nominal_next,
                period,
                ..
            } => {
                *e = enabled;
                if enabled {
                    *nominal_next = now + *period;
                }
            }
            SourceModel::Poisson { enabled: e, .. } => *e = enabled,
        }
        state.next = if enabled {
            draw_next(&mut state.model, now, rng)
        } else {
            None
        };
    }

    /// Mirrors [`InterruptFabric::set_timer_hz`](crate::InterruptFabric::set_timer_hz).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a periodic source or `hz` is not positive.
    pub fn set_timer_hz<R: Rng + ?Sized>(&mut self, id: SourceId, hz: f64, now: Ps, rng: &mut R) {
        assert!(hz > 0.0, "timer frequency must be positive");
        let state = &mut self.sources[id.index()];
        match &mut state.model {
            SourceModel::Periodic {
                period,
                nominal_next,
                ..
            } => {
                *period = Ps::from_secs_f64(1.0 / hz);
                *nominal_next = now + *period;
            }
            SourceModel::Poisson { .. } => panic!("set_timer_hz on a non-periodic source"),
        }
        state.next = draw_next(&mut state.model, now, rng);
    }

    /// The earliest pending interrupt, found by scanning every source on
    /// every call — the O(sources) cost the cached head removes.
    #[must_use]
    pub fn peek_next(&self) -> Option<PendingInterrupt> {
        let mut best: Option<PendingInterrupt> = None;
        for (idx, state) in self.sources.iter().enumerate() {
            if let Some(at) = state.next {
                if best.is_none_or(|b| at < b.at) {
                    best = Some(PendingInterrupt {
                        at,
                        kind: state.kind(),
                        class: ExitClass::Irq,
                        source: Some(SourceId::from_index(idx)),
                    });
                }
            }
        }
        if let Some(Reverse(ev)) = self.injected.peek() {
            if best.is_none_or(|b| ev.at < b.at) {
                best = Some(PendingInterrupt {
                    at: ev.at,
                    kind: ev.kind,
                    class: ev.class,
                    source: None,
                });
            }
        }
        best
    }

    /// Consumes the earliest pending interrupt, scanning once to find it
    /// and then re-matching the winner to reschedule it (the double scan
    /// the cached head's fused consume path eliminates).
    pub fn pop<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<PendingInterrupt> {
        let next = self.peek_next()?;
        match next.source {
            Some(id) => {
                let state = &mut self.sources[id.index()];
                state.next = draw_next(&mut state.model, next.at, rng);
            }
            None => {
                self.injected.pop();
            }
        }
        Some(next)
    }

    /// Mirrors [`InterruptFabric::pop_with_faults`](crate::InterruptFabric::pop_with_faults):
    /// same fault rolls in the same order, so the RNG stream stays aligned
    /// with the cached fabric's.
    pub fn pop_with_faults<R: Rng + ?Sized>(
        &mut self,
        plan: &FaultPlan,
        log: &mut FaultLog,
        rng: &mut R,
    ) -> Option<FaultedPop> {
        let next = self.pop(rng)?;
        if plan.drop_prob > 0.0 && rng.gen::<f64>() < plan.drop_prob {
            log.dropped += 1;
            return Some(FaultedPop::Dropped(next));
        }
        if plan.duplicate_prob > 0.0 && rng.gen::<f64>() < plan.duplicate_prob {
            log.duplicated += 1;
            // Class-preserving: a duplicated AEX is another AEX.
            self.inject_exit(next.at + plan.duplicate_delay, next.kind, next.class);
        }
        Some(FaultedPop::Delivered(next))
    }

    /// Number of sources (not counting one-shot injections).
    #[must_use]
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of still-undelivered injected one-shots.
    #[must_use]
    pub fn injected_backlog(&self) -> usize {
        self.injected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn naive_delivers_time_ordered_events() {
        let mut r = SmallRng::seed_from_u64(0xFAB);
        let mut fabric = NaiveFabric::new();
        fabric.add_periodic_timer(250.0, Ps::from_us(1), &mut r);
        fabric.add_poisson(InterruptKind::Resched, 50.0, &mut r);
        fabric.inject(Ps::from_ms(3), InterruptKind::Network);
        let mut last = Ps::ZERO;
        for _ in 0..500 {
            let ev = fabric.pop(&mut r).unwrap();
            assert!(ev.at >= last);
            last = ev.at;
        }
        assert_eq!(fabric.source_count(), 2);
        assert_eq!(fabric.injected_backlog(), 0);
    }
}
