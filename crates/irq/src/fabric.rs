//! The per-core interrupt fabric: an APIC-like combination of a periodic
//! timer, stochastic sources, and trace-driven device sources.

use crate::dist;
use crate::exit::{ExitClass, KernelExit};
use crate::fault::{FaultLog, FaultPlan, FaultedPop};
use crate::kind::InterruptKind;
use crate::time::Ps;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies one source inside an [`InterruptFabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SourceId(usize);

impl SourceId {
    pub(crate) fn from_index(idx: usize) -> Self {
        SourceId(idx)
    }

    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// An interrupt scheduled for delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingInterrupt {
    /// Delivery instant.
    pub at: Ps,
    /// Kind of interrupt.
    pub kind: InterruptKind,
    /// The source that produced it (`None` for one-shot injections).
    pub source: Option<SourceId>,
    /// Exit class the delivery will be booked under. Fabric sources
    /// always produce [`ExitClass::Irq`]; one-shots carry whatever class
    /// they were injected with (an attacker driving exits into a victim
    /// injects [`ExitClass::EnclaveAex`] events).
    pub class: ExitClass,
}

impl PendingInterrupt {
    /// The pending delivery's `(kind, class)` coordinate.
    #[must_use]
    pub fn exit(&self) -> KernelExit {
        KernelExit {
            kind: self.kind,
            class: self.class,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum SourceModel {
    /// Strictly periodic with small Gaussian edge jitter (the APIC timer).
    Periodic {
        kind: InterruptKind,
        period: Ps,
        jitter_std: Ps,
        /// Nominal (jitter-free) time of the next edge.
        nominal_next: Ps,
        enabled: bool,
    },
    /// Poisson arrivals at a fixed rate.
    Poisson {
        kind: InterruptKind,
        rate_hz: f64,
        enabled: bool,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SourceState {
    pub(crate) model: SourceModel,
    pub(crate) next: Option<Ps>,
}

impl SourceState {
    pub(crate) fn kind(&self) -> InterruptKind {
        match self.model {
            SourceModel::Periodic { kind, .. } | SourceModel::Poisson { kind, .. } => kind,
        }
    }
}

/// A per-core interrupt fabric: owns all interrupt sources and yields
/// deliveries in time order.
///
/// The fabric is *pull-based*: the machine asks for the next pending
/// interrupt and acknowledges it with [`InterruptFabric::pop`], at which
/// point the producing source schedules its subsequent arrival. One-shot
/// interrupts (device activity emitted by victim workload models) are
/// injected with [`InterruptFabric::inject`].
///
/// Every mutating call refreshes a cached merged head — the earliest
/// armed source arrival (a linear scan; shipped machines carry at most
/// three sources) against the injected one-shot heap — so
/// [`peek_next`](Self::peek_next), which the dispatch loop issues several
/// times per delivered interrupt, is O(1). The uncached implementation
/// survives as [`crate::naive::NaiveFabric`], the reference oracle the
/// differential tests (and the `bench_hotpath` baseline arm) compare
/// against.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InterruptFabric {
    sources: Vec<SourceState>,
    injected: BinaryHeap<Reverse<InjectedEvent>>,
    /// Cached earliest pending interrupt: the merged head of the sources
    /// and the injected heap, refreshed by every mutating call.
    next_event: Option<PendingInterrupt>,
}

/// A canonical, heap-free image of an [`InterruptFabric`] — see
/// [`InterruptFabric::snapshot`].
///
/// Because the fields are canonical (one-shots sorted in delivery order,
/// no derived heap state), `PartialEq` over two snapshots means "these
/// fabrics will deliver identical streams from here", which is what the
/// divergence bisector compares.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricSnapshot {
    sources: Vec<SourceState>,
    /// Undelivered one-shots, sorted in delivery order.
    injected: Vec<InjectedEvent>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct InjectedEvent {
    pub(crate) at: Ps,
    pub(crate) kind: InterruptKind,
    pub(crate) class: ExitClass,
}

impl Ord for InjectedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `class` is the last tie-break so same-instant injections keep
        // the pre-exit-class `(at, kind)` pop order whenever classes
        // agree (they always do in a defense-free run: everything is
        // `Irq`).
        (self.at, self.kind, self.class).cmp(&(other.at, other.kind, other.class))
    }
}

impl PartialOrd for InjectedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl InterruptFabric {
    /// An empty fabric with no sources.
    #[must_use]
    pub fn new() -> Self {
        InterruptFabric::default()
    }

    /// Adds the periodic APIC timer at `hz` ticks per second with Gaussian
    /// edge jitter, scheduling its first edge one period from time zero.
    ///
    /// Returns the source id so callers can later reprogram or disable it.
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
        self.add_source(
            SourceModel::Periodic {
                kind: InterruptKind::Timer,
                period,
                jitter_std,
                nominal_next: period,
                enabled: true,
            },
            rng,
        )
    }

    /// Adds a Poisson source of the given kind at `rate_hz` events/second,
    /// scheduling its first arrival from time zero.
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
        self.add_source(
            SourceModel::Poisson {
                kind,
                rate_hz,
                enabled: true,
            },
            rng,
        )
    }

    /// Appends a source, drawing its first arrival from time zero.
    fn add_source<R: Rng + ?Sized>(&mut self, mut model: SourceModel, rng: &mut R) -> SourceId {
        let next = draw_next(&mut model, Ps::ZERO, rng);
        self.sources.push(SourceState { model, next });
        self.refresh_next();
        SourceId(self.sources.len() - 1)
    }

    /// Schedules a one-shot interrupt (device activity from a victim
    /// workload model), classified as an ordinary IRQ.
    #[inline]
    pub fn inject(&mut self, at: Ps, kind: InterruptKind) {
        self.inject_exit(at, kind, ExitClass::Irq);
    }

    /// Schedules a one-shot delivery under an explicit exit class — the
    /// offensive direction of the injection machinery: a Heckler-style
    /// attacker drives [`ExitClass::EnclaveAex`] exits into a victim.
    #[inline]
    pub fn inject_exit(&mut self, at: Ps, kind: InterruptKind, class: ExitClass) {
        self.injected
            .push(Reverse(InjectedEvent { at, kind, class }));
        // A strictly-later injection cannot displace the cached head; ties
        // at the head's instant can (injected events order by kind), so
        // anything else re-merges the heads.
        if self.next_event.is_none_or(|b| at <= b.at) {
            self.refresh_next();
        }
    }

    /// Schedules a batch of one-shot interrupts.
    pub fn inject_all<I: IntoIterator<Item = (Ps, InterruptKind)>>(&mut self, events: I) {
        for (at, kind) in events {
            self.inject(at, kind);
        }
    }

    /// Schedules a batch of one-shot deliveries with explicit classes.
    pub fn inject_exit_all<I: IntoIterator<Item = (Ps, InterruptKind, ExitClass)>>(
        &mut self,
        events: I,
    ) {
        for (at, kind, class) in events {
            self.inject_exit(at, kind, class);
        }
    }

    /// Enables or disables a source (models tickless mode for the timer).
    ///
    /// Disabling clears the pending arrival; re-enabling schedules the next
    /// arrival relative to `now`.
    pub fn set_enabled<R: Rng + ?Sized>(
        &mut self,
        id: SourceId,
        enabled: bool,
        now: Ps,
        rng: &mut R,
    ) {
        let state = &mut self.sources[id.0];
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
        self.refresh_next();
    }

    /// Reprograms the periodic timer's frequency (the APIC HZ setting),
    /// effective from `now`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a periodic source or `hz` is not positive.
    pub fn set_timer_hz<R: Rng + ?Sized>(&mut self, id: SourceId, hz: f64, now: Ps, rng: &mut R) {
        assert!(hz > 0.0, "timer frequency must be positive");
        let state = &mut self.sources[id.0];
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
        self.refresh_next();
    }

    /// The earliest pending interrupt across all sources and injections,
    /// without consuming it.
    ///
    /// O(1): returns the cached merged head.
    #[inline]
    #[must_use]
    pub fn peek_next(&self) -> Option<PendingInterrupt> {
        self.next_event
    }

    /// Consumes the earliest pending interrupt (which is the one
    /// [`peek_next`](Self::peek_next) reports) and schedules the producing
    /// source's next arrival.
    ///
    /// The consume path is fused: the cached head says exactly which queue
    /// to pop, so no re-scan or re-match of the winner is needed.
    #[inline]
    pub fn pop<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<PendingInterrupt> {
        let next = self.next_event?;
        match next.source {
            Some(SourceId(idx)) => {
                let state = &mut self.sources[idx];
                state.next = draw_next(&mut state.model, next.at, rng);
            }
            None => {
                self.injected.pop();
            }
        }
        self.refresh_next();
        Some(next)
    }

    /// Consumes the earliest pending interrupt through a [`FaultPlan`]:
    /// the event may be dropped (never reaching the core) or spawn a
    /// ghost duplicate scheduled `duplicate_delay` later, with every
    /// injected fault counted in `log`.
    ///
    /// With a zeroed plan this is behaviourally identical to
    /// [`pop`](Self::pop) apart from the fault rolls consuming RNG draws;
    /// callers that want bit-identical RNG streams gate on
    /// [`FaultPlan::has_delivery_faults`] and call `pop` directly.
    pub fn pop_with_faults<R: Rng + ?Sized>(
        &mut self,
        plan: &FaultPlan,
        log: &mut FaultLog,
        rng: &mut R,
    ) -> Option<FaultedPop> {
        self.pop_with_faults_traced(plan, log, rng, None)
    }

    /// [`pop_with_faults`](Self::pop_with_faults) with observability: each
    /// fault decision (drop, ghost duplicate) is mirrored into `sink` as an
    /// `IrqDropped` / `IrqDuplicated` event. With `sink = None` this is the
    /// exact code path of `pop_with_faults` — the sink is consulted only
    /// *after* every RNG roll, so installing one never shifts the stream.
    pub fn pop_with_faults_traced<R: Rng + ?Sized>(
        &mut self,
        plan: &FaultPlan,
        log: &mut FaultLog,
        rng: &mut R,
        mut sink: Option<&mut obs::TraceSink>,
    ) -> Option<FaultedPop> {
        let next = self.pop(rng)?;
        if plan.drop_prob > 0.0 && rng.gen::<f64>() < plan.drop_prob {
            log.dropped += 1;
            if let Some(sink) = sink.as_mut() {
                sink.emit(
                    next.at.as_ps(),
                    obs::EventKind::IrqDropped {
                        irq: next.kind.into(),
                    },
                );
                sink.metrics.incr("irq.dropped", 1);
            }
            return Some(FaultedPop::Dropped(next));
        }
        if plan.duplicate_prob > 0.0 && rng.gen::<f64>() < plan.duplicate_prob {
            log.duplicated += 1;
            let ghost_at = next.at + plan.duplicate_delay;
            // The ghost keeps the original's class: a duplicated AEX is
            // another AEX, not a plain IRQ.
            self.inject_exit(ghost_at, next.kind, next.class);
            if let Some(sink) = sink.as_mut() {
                sink.emit(
                    next.at.as_ps(),
                    obs::EventKind::IrqDuplicated {
                        irq: next.kind.into(),
                        ghost_at_ps: ghost_at.as_ps(),
                    },
                );
                sink.metrics.incr("irq.duplicated", 1);
            }
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

    /// Captures the fabric's canonical state: source models with their
    /// armed arrivals and undelivered one-shots in delivery order.
    ///
    /// The cached head is *derived* state — fully reconstructible from the
    /// sources — so it is deliberately left out, as is the one-shot heap's
    /// internal arrangement: two behaviourally identical fabrics always
    /// produce equal snapshots.
    #[must_use]
    pub fn snapshot(&self) -> FabricSnapshot {
        let mut injected: Vec<InjectedEvent> = self.injected.iter().map(|&Reverse(e)| e).collect();
        injected.sort_unstable();
        FabricSnapshot {
            sources: self.sources.clone(),
            injected,
        }
    }

    /// Rebuilds a fabric from a [`FabricSnapshot`], re-deriving the cached
    /// head. The result is restore-exact: it yields the same deliveries
    /// and consumes the same RNG draws as the fabric the snapshot was
    /// taken from.
    #[must_use]
    pub fn from_snapshot(snap: &FabricSnapshot) -> Self {
        let mut fabric = InterruptFabric {
            sources: snap.sources.clone(),
            injected: snap.injected.iter().copied().map(Reverse).collect(),
            next_event: None,
        };
        fabric.refresh_next();
        fabric
    }

    /// Re-merges the earliest source arrival and the injected head into
    /// the cached `next_event`: the same first-wins `<` comparisons
    /// [`crate::naive::NaiveFabric`] applies, so simultaneous source
    /// arrivals resolve toward the lowest source index and a one-shot
    /// preempts a source arrival only when strictly earlier.
    fn refresh_next(&mut self) {
        let mut best: Option<PendingInterrupt> = None;
        for (idx, state) in self.sources.iter().enumerate() {
            if let Some(at) = state.next {
                if best.is_none_or(|b| at < b.at) {
                    best = Some(PendingInterrupt {
                        at,
                        kind: state.kind(),
                        source: Some(SourceId(idx)),
                        class: ExitClass::Irq,
                    });
                }
            }
        }
        if let Some(&Reverse(ev)) = self.injected.peek() {
            if best.is_none_or(|b| ev.at < b.at) {
                best = Some(PendingInterrupt {
                    at: ev.at,
                    kind: ev.kind,
                    source: None,
                    class: ev.class,
                });
            }
        }
        self.next_event = best;
    }
}

/// Draws a source's next arrival after `now`. Shared by [`InterruptFabric`]
/// and [`crate::naive::NaiveFabric`] so both consume identical RNG draws
/// for identical op sequences.
pub(crate) fn draw_next<R: Rng + ?Sized>(
    model: &mut SourceModel,
    now: Ps,
    rng: &mut R,
) -> Option<Ps> {
    match model {
        SourceModel::Periodic {
            period,
            jitter_std,
            nominal_next,
            enabled,
            ..
        } => {
            if !*enabled {
                return None;
            }
            // Keep the nominal grid strictly advancing past `now` so a
            // long kernel stint cannot schedule edges in the past.
            while *nominal_next <= now {
                *nominal_next += *period;
            }
            let edge = *nominal_next;
            *nominal_next = edge + *period;
            let jitter_ps = dist::normal(rng, 0.0, jitter_std.as_ps() as f64);
            let at = if jitter_ps >= 0.0 {
                edge + Ps::from_ps(jitter_ps as u64)
            } else {
                edge.saturating_sub(Ps::from_ps((-jitter_ps) as u64))
            };
            Some(at.max(now + Ps::from_ps(1)))
        }
        SourceModel::Poisson {
            rate_hz, enabled, ..
        } => {
            if !*enabled {
                return None;
            }
            let wait_s = dist::exponential(rng, *rate_hz);
            Some(now + Ps::from_secs_f64(wait_s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xFAB)
    }

    /// Drains the fabric until `horizon`, returning delivered interrupts.
    fn drain(
        fabric: &mut InterruptFabric,
        horizon: Ps,
        rng: &mut SmallRng,
    ) -> Vec<PendingInterrupt> {
        let mut out = Vec::new();
        while let Some(p) = fabric.peek_next() {
            if p.at > horizon {
                break;
            }
            out.push(fabric.pop(rng).unwrap());
        }
        out
    }

    #[test]
    fn periodic_timer_delivers_hz_ticks_per_second() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.add_periodic_timer(250.0, Ps::from_us(1), &mut r);
        let ticks = drain(&mut fabric, Ps::from_secs(2), &mut r);
        // Edge jitter can push the boundary tick across the horizon.
        assert!((499..=501).contains(&ticks.len()), "got {}", ticks.len());
        assert!(ticks.iter().all(|t| t.kind == InterruptKind::Timer));
        // Deliveries are time-ordered.
        assert!(ticks.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn poisson_rate_is_respected() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.add_poisson(InterruptKind::Resched, 100.0, &mut r);
        let events = drain(&mut fabric, Ps::from_secs(10), &mut r);
        // Expect ~1000 arrivals; allow generous tolerance.
        assert!((900..1100).contains(&events.len()), "got {}", events.len());
    }

    #[test]
    fn injections_interleave_in_time_order() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.add_periodic_timer(100.0, Ps::ZERO, &mut r);
        fabric.inject(Ps::from_ms(5), InterruptKind::Network);
        fabric.inject(Ps::from_ms(1), InterruptKind::Gpu);
        let events = drain(&mut fabric, Ps::from_ms(12), &mut r);
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                InterruptKind::Gpu,
                InterruptKind::Network,
                InterruptKind::Timer
            ]
        );
        assert_eq!(fabric.injected_backlog(), 0);
    }

    #[test]
    fn disabling_timer_stops_ticks() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        let timer = fabric.add_periodic_timer(1000.0, Ps::ZERO, &mut r);
        let before = drain(&mut fabric, Ps::from_ms(10), &mut r);
        assert!(!before.is_empty());
        fabric.set_enabled(timer, false, Ps::from_ms(10), &mut r);
        assert!(fabric.peek_next().is_none());
        // Re-enable: ticks resume relative to `now`.
        fabric.set_enabled(timer, true, Ps::from_ms(20), &mut r);
        let next = fabric.peek_next().unwrap();
        assert!(next.at > Ps::from_ms(20));
    }

    #[test]
    fn reprogramming_hz_changes_period() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        let timer = fabric.add_periodic_timer(100.0, Ps::ZERO, &mut r);
        drain(&mut fabric, Ps::from_secs(1), &mut r);
        fabric.set_timer_hz(timer, 1000.0, Ps::from_secs(1), &mut r);
        let fast = drain(&mut fabric, Ps::from_secs(2), &mut r);
        assert!((950..1050).contains(&fast.len()), "got {}", fast.len());
    }

    #[test]
    fn pop_on_empty_fabric_is_none() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        assert!(fabric.pop(&mut r).is_none());
        assert_eq!(fabric.source_count(), 0);
    }

    #[test]
    fn faulted_pop_with_inert_plan_matches_plain_pop() {
        let mut r1 = rng();
        let mut r2 = rng();
        let mut f1 = InterruptFabric::new();
        let mut f2 = InterruptFabric::new();
        f1.add_periodic_timer(250.0, Ps::from_us(1), &mut r1);
        f2.add_periodic_timer(250.0, Ps::from_us(1), &mut r2);
        let plan = FaultPlan::none();
        let mut log = FaultLog::default();
        for _ in 0..200 {
            let a = f1.pop(&mut r1).unwrap();
            let b = match f2.pop_with_faults(&plan, &mut log, &mut r2).unwrap() {
                FaultedPop::Delivered(p) => p,
                FaultedPop::Dropped(_) => panic!("inert plan dropped an interrupt"),
            };
            assert_eq!(a, b);
        }
        assert!(log.is_clean());
    }

    #[test]
    fn drop_prob_drops_roughly_that_fraction() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.add_periodic_timer(1000.0, Ps::ZERO, &mut r);
        let plan = FaultPlan::none().with_drop_prob(0.3);
        let mut log = FaultLog::default();
        let mut delivered = 0u64;
        for _ in 0..2000 {
            match fabric.pop_with_faults(&plan, &mut log, &mut r).unwrap() {
                FaultedPop::Delivered(_) => delivered += 1,
                FaultedPop::Dropped(_) => {}
            }
        }
        assert_eq!(delivered + log.dropped, 2000);
        assert!(
            (450..=750).contains(&log.dropped),
            "dropped {}",
            log.dropped
        );
    }

    #[test]
    fn duplicates_enqueue_ghost_events() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.inject(Ps::from_us(10), InterruptKind::Network);
        let plan = FaultPlan::none()
            .with_duplicate_prob(1.0)
            .with_duplicate_delay(Ps::from_us(5));
        let mut log = FaultLog::default();
        let first = match fabric.pop_with_faults(&plan, &mut log, &mut r).unwrap() {
            FaultedPop::Delivered(p) => p,
            FaultedPop::Dropped(_) => panic!("nothing should drop"),
        };
        assert_eq!(first.at, Ps::from_us(10));
        assert_eq!(log.duplicated, 1);
        // The ghost sits in the injected queue, 5 us after the original
        // (and would itself re-duplicate if popped through the same plan).
        assert_eq!(fabric.injected_backlog(), 1);
        let ghost = fabric.pop(&mut r).unwrap();
        assert_eq!(ghost.at, Ps::from_us(15));
        assert_eq!(ghost.kind, InterruptKind::Network);
    }

    #[test]
    fn traced_pop_mirrors_fault_decisions_without_shifting_rng() {
        let mut r1 = rng();
        let mut r2 = rng();
        let mut f1 = InterruptFabric::new();
        let mut f2 = InterruptFabric::new();
        f1.add_periodic_timer(1000.0, Ps::ZERO, &mut r1);
        f2.add_periodic_timer(1000.0, Ps::ZERO, &mut r2);
        let plan = FaultPlan::none()
            .with_drop_prob(0.25)
            .with_duplicate_prob(0.25)
            .with_duplicate_delay(Ps::from_us(3));
        let mut log1 = FaultLog::default();
        let mut log2 = FaultLog::default();
        let mut sink = obs::TraceSink::with_capacity(4096);
        for _ in 0..500 {
            let plain = f1.pop_with_faults(&plan, &mut log1, &mut r1).unwrap();
            let traced = f2
                .pop_with_faults_traced(&plan, &mut log2, &mut r2, Some(&mut sink))
                .unwrap();
            assert_eq!(plain, traced);
        }
        assert_eq!(log1, log2);
        assert_eq!(
            sink.count_class(obs::EventClass::IrqDropped) as u64,
            log2.dropped
        );
        assert_eq!(
            sink.count_class(obs::EventClass::IrqDuplicated) as u64,
            log2.duplicated
        );
        assert_eq!(sink.metrics.counter("irq.dropped"), log2.dropped);
        assert_eq!(sink.metrics.counter("irq.duplicated"), log2.duplicated);
    }

    #[test]
    fn simultaneous_injections_pop_in_kind_order() {
        // Two one-shots at the same instant: the injected heap orders by
        // (at, kind), and the cached head must agree with that ordering.
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.inject(Ps::from_us(10), InterruptKind::Network);
        fabric.inject(Ps::from_us(10), InterruptKind::Timer);
        let first = fabric.pop(&mut r).unwrap();
        let second = fabric.pop(&mut r).unwrap();
        assert_eq!(first.at, second.at);
        assert!(first.kind <= second.kind);
        assert!(fabric.pop(&mut r).is_none());
    }

    /// A restored fabric must pop the same stream, consume the same RNG
    /// draws, and snapshot back to an equal image, with one-shots in
    /// flight.
    #[test]
    fn snapshot_restore_is_exact() {
        let mut r = SmallRng::seed_from_u64(0x5AAF);
        let mut fabric = InterruptFabric::new();
        fabric.add_periodic_timer(250.0, Ps::from_us(1), &mut r);
        for _ in 0..100 {
            fabric.pop(&mut r);
        }
        fabric.inject(Ps::from_secs(10), InterruptKind::Gpu);
        fabric.inject(Ps::from_secs(5), InterruptKind::Keyboard);

        let snap = fabric.snapshot();
        let mut restored = InterruptFabric::from_snapshot(&snap);
        let mut r2 = r.clone();
        assert_eq!(restored.snapshot(), snap, "snapshot round-trips");
        assert_eq!(restored.peek_next(), fabric.peek_next());
        for step in 0..500 {
            assert_eq!(fabric.pop(&mut r), restored.pop(&mut r2), "step {step}");
        }
        assert_eq!(r.gen::<u64>(), r2.gen::<u64>(), "RNG positions agree");
    }

    /// Snapshots survive the JSON wire format bit-for-bit, including the
    /// f64 Poisson rates.
    #[test]
    fn snapshot_serde_round_trip() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.add_periodic_timer(997.0, Ps::from_us(3), &mut r);
        fabric.add_poisson(InterruptKind::Resched, 123.456, &mut r);
        fabric.inject(Ps::from_us(77), InterruptKind::Network);
        let snap = fabric.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: FabricSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    /// Images written when sources carried a `gen` counter and the
    /// snapshot a calendar-mode flag still load: fields are looked up by
    /// name and extra keys are ignored.
    #[test]
    fn snapshots_with_retired_fields_still_load() {
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.add_periodic_timer(250.0, Ps::from_us(1), &mut r);
        fabric.add_poisson(InterruptKind::Resched, 90.0, &mut r);
        let snap = fabric.snapshot();
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"next\":", ",\"gen\":7,\"next\":")
            .replacen('{', concat!("{\"calendar", "_live\":false,"), 1);
        assert!(json.contains("\"gen\":7") && json.contains("_live\":false"));
        let back: FabricSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn timer_grid_survives_long_stalls() {
        // Even if nothing drains the fabric for a while, edges never fire
        // "in the past" relative to the pop time used as `now`.
        let mut r = rng();
        let mut fabric = InterruptFabric::new();
        fabric.add_periodic_timer(250.0, Ps::from_us(2), &mut r);
        let mut last = Ps::ZERO;
        for _ in 0..1000 {
            let ev = fabric.pop(&mut r).unwrap();
            assert!(ev.at >= last, "event at {} before previous {}", ev.at, last);
            last = ev.at;
        }
    }
}
