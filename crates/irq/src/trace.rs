//! Ground-truth interrupt trace: the simulator-internal analogue of the
//! paper's eBPF instrumentation.

use crate::exit::{ExitClass, KernelExit};
use crate::kind::InterruptKind;
use crate::time::Ps;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One delivered kernel exit, with perfect information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrqRecord {
    /// Delivery instant.
    pub at: Ps,
    /// Kind of interrupt (for [`ExitClass::DefensePad`] exits this is
    /// the placeholder [`InterruptKind::Other`]).
    pub kind: InterruptKind,
    /// Time the handler routine took (`w` in paper Eq. 1).
    pub handler_cost: Ps,
    /// Which class of kernel exit the delivery was.
    pub class: ExitClass,
}

impl IrqRecord {
    /// The record's `(kind, class)` coordinate.
    #[must_use]
    pub fn exit(&self) -> KernelExit {
        KernelExit {
            kind: self.kind,
            class: self.class,
        }
    }
}

/// A recorder of every interrupt the simulated core delivered.
///
/// Plays the role eBPF plays in the paper: it gives experiments a perfect
/// baseline (e.g. the `10 × HZ + 3` count of Table II) and calibration data
/// (the detection thresholds of Section III-B). Attacker code never reads
/// it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruth {
    records: Vec<IrqRecord>,
}

impl GroundTruth {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        GroundTruth::default()
    }

    /// Records one ordinary IRQ delivery.
    pub fn record(&mut self, at: Ps, kind: InterruptKind, handler_cost: Ps) {
        self.record_exit(at, KernelExit::irq(kind), handler_cost);
    }

    /// Records one classified kernel exit.
    pub fn record_exit(&mut self, at: Ps, exit: KernelExit, handler_cost: Ps) {
        self.records.push(IrqRecord {
            at,
            kind: exit.kind,
            handler_cost,
            class: exit.class,
        });
    }

    /// All records, in delivery order.
    #[must_use]
    pub fn records(&self) -> &[IrqRecord] {
        &self.records
    }

    /// Total number of recorded interrupts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drops all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Number of interrupts delivered inside `[from, to)`.
    #[must_use]
    pub fn count_in(&self, from: Ps, to: Ps) -> usize {
        self.records
            .iter()
            .filter(|r| r.at >= from && r.at < to)
            .count()
    }

    /// Per-kind counts over the whole trace.
    #[must_use]
    pub fn count_by_kind(&self) -> BTreeMap<InterruptKind, usize> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            *map.entry(r.kind).or_insert(0) += 1;
        }
        map
    }

    /// Returns `true` if any interrupt was delivered inside `[from, to)` —
    /// the primitive the paper uses to label measurements "interrupted"
    /// when calibrating baseline detectors.
    #[must_use]
    pub fn any_in(&self, from: Ps, to: Ps) -> bool {
        // Records are time-ordered; binary-search the window start.
        let start = self.records.partition_point(|r| r.at < from);
        self.records.get(start).is_some_and(|r| r.at < to)
    }

    /// Iterates over records of one kind.
    pub fn of_kind(&self, kind: InterruptKind) -> impl Iterator<Item = &IrqRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Iterates over records of one exit class.
    pub fn of_class(&self, class: ExitClass) -> impl Iterator<Item = &IrqRecord> {
        self.records.iter().filter(move |r| r.class == class)
    }

    /// Number of records of one exit class over the whole trace.
    #[must_use]
    pub fn count_class(&self, class: ExitClass) -> usize {
        self.of_class(class).count()
    }

    /// Number of records of one exit class inside `[from, to)`.
    #[must_use]
    pub fn count_class_in(&self, class: ExitClass, from: Ps, to: Ps) -> usize {
        self.records
            .iter()
            .filter(|r| r.class == class && r.at >= from && r.at < to)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> GroundTruth {
        let mut gt = GroundTruth::new();
        gt.record(Ps::from_ms(1), InterruptKind::Timer, Ps::from_us(1));
        gt.record(Ps::from_ms(2), InterruptKind::Resched, Ps::from_ns(800));
        gt.record(Ps::from_ms(5), InterruptKind::Timer, Ps::from_us(1));
        gt.record(Ps::from_ms(9), InterruptKind::Timer, Ps::from_us(1));
        gt
    }

    #[test]
    fn counting_and_windows() {
        let gt = sample_trace();
        assert_eq!(gt.len(), 4);
        assert_eq!(gt.count_in(Ps::from_ms(1), Ps::from_ms(5)), 2);
        assert_eq!(gt.count_in(Ps::from_ms(5), Ps::from_ms(10)), 2);
        assert!(gt.any_in(Ps::from_ms(4), Ps::from_ms(6)));
        assert!(!gt.any_in(Ps::from_ms(6), Ps::from_ms(9)));
    }

    #[test]
    fn per_kind_counts() {
        let gt = sample_trace();
        let counts = gt.count_by_kind();
        assert_eq!(counts[&InterruptKind::Timer], 3);
        assert_eq!(counts[&InterruptKind::Resched], 1);
        assert_eq!(gt.of_kind(InterruptKind::Timer).count(), 3);
    }

    #[test]
    fn clear_empties() {
        let mut gt = sample_trace();
        assert!(!gt.is_empty());
        gt.clear();
        assert!(gt.is_empty());
    }

    #[test]
    fn exit_classes_are_recorded_and_countable() {
        let mut gt = GroundTruth::new();
        gt.record(Ps::from_ms(1), InterruptKind::Timer, Ps::from_us(1));
        gt.record_exit(
            Ps::from_ms(2),
            KernelExit::aex(InterruptKind::Timer),
            Ps::from_us(2),
        );
        gt.record_exit(Ps::from_ms(3), KernelExit::pad(), Ps::from_us(1));
        assert_eq!(gt.count_class(ExitClass::Irq), 1);
        assert_eq!(gt.count_class(ExitClass::EnclaveAex), 1);
        assert_eq!(gt.count_class(ExitClass::DefensePad), 1);
        assert_eq!(
            gt.count_class_in(ExitClass::EnclaveAex, Ps::from_ms(2), Ps::from_ms(3)),
            1
        );
        assert_eq!(
            gt.count_class_in(ExitClass::EnclaveAex, Ps::from_ms(3), Ps::from_ms(9)),
            0
        );
        // `record` is the `Irq`-classified shorthand.
        assert_eq!(gt.records()[0].class, ExitClass::Irq);
        assert_eq!(
            gt.records()[1].exit(),
            KernelExit::aex(InterruptKind::Timer)
        );
        // Per-kind counting still sees every class's underlying vector.
        assert_eq!(gt.count_by_kind()[&InterruptKind::Timer], 2);
        assert_eq!(gt.count_by_kind()[&InterruptKind::Other], 1);
    }
}
