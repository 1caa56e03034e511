//! Compact, serializable machine snapshots with restore-exact semantics.
//!
//! A [`Snapshot`] captures everything that determines a [`Machine`]'s
//! future behaviour: the configuration, the exact RNG position, simulated
//! time, the frequency/governor state, the interrupt fabric (source
//! models, armed arrivals, undelivered one-shots), segment registers and
//! descriptor tables, the cache hierarchy in canonical form, the
//! ground-truth cursor, and the counting-thread accumulators.
//!
//! Restore-exactness is the contract: a machine restored from a snapshot
//! and driven forward produces bit-identical observables (spans, samples,
//! fault log, ground truth, RNG position) to the machine that was never
//! paused. The `tests/snapshot_roundtrip.rs` proptests enforce this
//! across all vendor presets × fault plans × random pause points, through
//! a full JSON serialize/deserialize cycle.
//!
//! What is deliberately *not* captured:
//!
//! * the observability sink — tracing is RNG- and timing-neutral by
//!   construction, so it is not machine state; [`Machine::restore`]
//!   leaves the machine untraced and callers reinstall a sink if wanted;
//! * derived fabric state (the cached head) — rebuilt from the canonical
//!   source list on restore;
//! * stale cache lines — the hierarchy is canonicalized on capture, so
//!   two behaviourally identical machines produce equal (and
//!   byte-identical once serialized) snapshots.

use crate::config::MachineConfig;
use crate::core::{CoResident, Machine};
use crate::freq::FreqModel;
use irq::time::Ps;
use irq::{FabricSnapshot, FaultLog, FaultPlan, GroundTruth, InterruptFabric, SourceId};
use memsim::{KaslrLayout, MemoryHierarchy};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use x86seg::{DescriptorTables, SegmentRegisterFile};

/// A complete, self-contained image of a [`Machine`] at one instant.
///
/// `PartialEq` over snapshots means "these machines behave identically
/// from here" — every field is canonical (see the module docs), so the
/// divergence bisector can compare snapshots directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    config: MachineConfig,
    /// Exact xoshiro256++ position of the machine RNG.
    rng_state: [u64; 4],
    now: Ps,
    freq: FreqModel,
    fabric: FabricSnapshot,
    timer_source: Option<SourceId>,
    ground_truth: GroundTruth,
    regs: SegmentRegisterFile,
    tables: DescriptorTables,
    /// Cache hierarchy in canonical (stale-line-free) form.
    mem: MemoryHierarchy,
    kaslr: Option<KaslrLayout>,
    co_resident: Option<CoResident>,
    timer_ticks_seen: u32,
    kernel_entries: u64,
    domain_cycles: f64,
    ct_drift: f64,
    ct_last_kernel_entries: u64,
    pending_refill: f64,
    fault_plan: Option<FaultPlan>,
    fault_log: FaultLog,
    smt_burst_left: u32,
    /// Enclave / countermeasure state: all of it is machine state (a
    /// restored machine must keep a destroyed enclave destroyed and the
    /// padding grid phase-aligned).
    enclave_active: bool,
    enclave_destroyed: bool,
    aex_exits: u64,
    padded_exits: u64,
    next_pad_at: Option<Ps>,
}

impl Snapshot {
    /// The simulated instant the snapshot was taken at.
    #[must_use]
    pub fn now(&self) -> Ps {
        self.now
    }

    /// The captured machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The captured RNG position (for audit/debug display).
    #[must_use]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng_state
    }

    /// Number of kernel entries at capture time.
    #[must_use]
    pub fn kernel_entries(&self) -> u64 {
        self.kernel_entries
    }
}

impl Machine {
    /// Captures a restore-exact [`Snapshot`] of this machine.
    ///
    /// Pure read (the machine is unchanged): the cache hierarchy is
    /// canonicalized on a clone, and the installed trace sink — if any —
    /// is neither captured nor disturbed.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut mem = self.mem.clone();
        mem.canonicalize();
        Snapshot {
            config: self.config.clone(),
            rng_state: self.rng.state(),
            now: self.now,
            freq: self.freq.clone(),
            fabric: self.fabric.snapshot(),
            timer_source: self.timer_source,
            ground_truth: self.ground_truth.clone(),
            regs: self.regs.clone(),
            tables: self.tables.clone(),
            mem,
            kaslr: self.kaslr.clone(),
            co_resident: self.co_resident,
            timer_ticks_seen: self.timer_ticks_seen,
            kernel_entries: self.kernel_entries,
            domain_cycles: self.domain_cycles,
            ct_drift: self.ct_drift,
            ct_last_kernel_entries: self.ct_last_kernel_entries,
            pending_refill: self.pending_refill,
            fault_plan: self.fault_plan,
            fault_log: self.fault_log,
            smt_burst_left: self.smt_burst_left,
            enclave_active: self.enclave_active,
            enclave_destroyed: self.enclave_destroyed,
            aex_exits: self.aex_exits,
            padded_exits: self.padded_exits,
            next_pad_at: self.next_pad_at,
        }
    }

    /// Restores this machine in place to the captured state, reusing
    /// existing allocations where possible.
    ///
    /// Restore-exact: driving the restored machine forward is
    /// bit-identical to never having paused the original. The trace sink
    /// is cleared (tracing is not machine state; reinstall one with
    /// [`Machine::install_trace_sink`] to trace the continuation).
    pub fn restore(&mut self, snap: &Snapshot) {
        self.config = snap.config.clone();
        self.rng = SmallRng::from_state(snap.rng_state);
        self.now = snap.now;
        self.freq = snap.freq.clone();
        self.fabric = InterruptFabric::from_snapshot(&snap.fabric);
        self.timer_source = snap.timer_source;
        self.ground_truth = snap.ground_truth.clone();
        self.regs = snap.regs.clone();
        self.tables = snap.tables.clone();
        self.mem = snap.mem.clone();
        self.kaslr = snap.kaslr.clone();
        self.co_resident = snap.co_resident;
        self.timer_ticks_seen = snap.timer_ticks_seen;
        self.kernel_entries = snap.kernel_entries;
        self.domain_cycles = snap.domain_cycles;
        self.ct_drift = snap.ct_drift;
        self.ct_last_kernel_entries = snap.ct_last_kernel_entries;
        self.pending_refill = snap.pending_refill;
        self.fault_plan = snap.fault_plan;
        self.fault_log = snap.fault_log;
        self.smt_burst_left = snap.smt_burst_left;
        self.enclave_active = snap.enclave_active;
        self.enclave_destroyed = snap.enclave_destroyed;
        self.aex_exits = snap.aex_exits;
        self.padded_exits = snap.padded_exits;
        self.next_pad_at = snap.next_pad_at;
        self.sink = None;
    }

    /// Builds a fresh machine directly from a snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        // Boot a minimal machine, then overwrite everything: cheaper to
        // reason about than a second field-by-field constructor, and the
        // restore path stays the single source of truth.
        let mut machine = Machine::new(snap.config.clone(), 0);
        machine.restore(snap);
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irq::InterruptKind;
    use x86seg::Selector;

    fn worked_machine() -> Machine {
        let plan = FaultPlan::none()
            .with_drop_prob(0.15)
            .with_duplicate_prob(0.1);
        let config = crate::presets::by_name("lenovo_savior")
            .unwrap()
            .with_fault_plan(plan);
        let mut m = Machine::new(config, 0x51AB);
        m.wrgs(Selector::from_bits(0x3)).unwrap();
        for _ in 0..25 {
            let deadline = m.now() + Ps::from_us(700);
            let _ = m.run_user_until(deadline);
            m.spin(5_000);
            m.memory_mut().access(0x8000);
        }
        m
    }

    /// Drives `m` through a fixed observable workload, returning every
    /// observable output.
    fn drive(m: &mut Machine, rounds: u64) -> Vec<(Ps, u16, u64)> {
        let mut out = Vec::new();
        for round in 0..rounds {
            m.wrgs(Selector::from_bits(0x3)).unwrap();
            let deadline = m.now() + Ps::from_us(900);
            let _ = m.run_user_until(deadline);
            let sel = m.rdgs().bits();
            m.mem_access(0x6000 + round * 0x180);
            out.push((m.now(), sel, m.kernel_entries()));
        }
        out
    }

    #[test]
    fn restore_then_continue_is_bit_identical_to_never_pausing() {
        let mut uninterrupted = worked_machine();
        let mut paused = worked_machine();
        let snap = paused.snapshot();
        // Wreck the paused machine, then restore.
        paused.spin(1_000_000);
        paused.reset(MachineConfig::default(), 99);
        paused.restore(&snap);
        assert_eq!(drive(&mut uninterrupted, 30), drive(&mut paused, 30));
        assert_eq!(uninterrupted.fault_log(), paused.fault_log());
        assert_eq!(
            uninterrupted.ground_truth().records(),
            paused.ground_truth().records()
        );
        assert_eq!(uninterrupted.rng_mut().state(), paused.rng_mut().state());
    }

    #[test]
    fn from_snapshot_equals_in_place_restore() {
        let m = worked_machine();
        let snap = m.snapshot();
        let mut a = Machine::from_snapshot(&snap);
        let mut b = m;
        b.restore(&snap);
        assert_eq!(drive(&mut a, 20), drive(&mut b, 20));
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn snapshot_is_a_pure_read() {
        let mut a = worked_machine();
        let mut b = worked_machine();
        let _ = a.snapshot();
        let _ = a.snapshot();
        assert_eq!(drive(&mut a, 20), drive(&mut b, 20));
        assert_eq!(a.rng_mut().state(), b.rng_mut().state());
    }

    #[test]
    fn snapshots_of_identical_machines_are_equal_and_json_stable() {
        let a = worked_machine();
        let b = worked_machine();
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa, sb);
        let (ja, jb) = (
            serde_json::to_string(&sa).unwrap(),
            serde_json::to_string(&sb).unwrap(),
        );
        assert_eq!(ja, jb, "canonical snapshots serialize byte-identically");
        let back: Snapshot = serde_json::from_str(&ja).unwrap();
        assert_eq!(back, sa, "JSON round-trip is lossless");
    }

    #[test]
    fn restore_drops_the_trace_sink_but_keeps_behaviour() {
        let mut traced = worked_machine();
        traced.install_trace_sink(obs::TraceSink::with_capacity(1 << 12));
        let snap = traced.snapshot();
        assert!(traced.trace_sink().is_some(), "snapshot leaves the sink");
        traced.restore(&snap);
        assert!(traced.trace_sink().is_none(), "restore clears the sink");
        let mut plain = worked_machine();
        assert_eq!(drive(&mut traced, 20), drive(&mut plain, 20));
    }

    #[test]
    fn snapshot_survives_injected_one_shots_and_kaslr() {
        let mut m = worked_machine();
        m.set_kaslr(memsim::KaslrLayout::with_slot(11));
        m.inject_interrupts([
            (m.now() + Ps::from_ms(3), InterruptKind::Network),
            (m.now() + Ps::from_ms(7), InterruptKind::Gpu),
        ]);
        let snap = m.snapshot();
        let mut restored = Machine::from_snapshot(&snap);
        assert_eq!(drive(&mut m, 25), drive(&mut restored, 25));
        assert_eq!(
            m.ground_truth().records(),
            restored.ground_truth().records()
        );
    }
}
