//! Record-and-replay and automatic divergence bisection over machine
//! runs.
//!
//! The workflow mirrors `rr`-style debugging, shrunk to the simulator's
//! determinism contract:
//!
//! 1. [`record`] drives a [`RunSpec`]'s machine through the standard
//!    span workload with a trace sink installed, keeping every emitted
//!    [`obs::Event`] plus a periodic ladder of restore-exact
//!    [`segsim::Snapshot`]s, each tagged with the event index and the
//!    cumulative [`obs::EventDigest`] at the instant it was taken.
//! 2. [`replay_from`] re-executes from the nearest snapshot at or
//!    before any event index — seconds of simulated time instead of
//!    re-running the whole trial — and reproduces the recorded tail
//!    bit-identically.
//! 3. [`bisect`] takes two specs, binary-searches their aligned
//!    snapshot ladders by digest to bracket the first disagreeing
//!    stretch, then compares events one-by-one inside the bracket and
//!    reports the first diverging event: its index, both sides' kinds,
//!    timestamps, and lanes.
//!
//! Everything here rests on two invariants proved elsewhere: snapshots
//! are restore-exact (`tests/snapshot_roundtrip.rs`), and tracing is
//! RNG- and timing-neutral, so a recorded run takes the exact same
//! trajectory as an untraced one.

use irq::{InterruptKind, Ps};
use segsim::{presets, FaultPlan, Machine, Snapshot};
use serde::{Deserialize, Serialize};
use std::fmt;
use x86seg::{PrivilegeLevel, Selector};

/// Ring capacity installed per span; large enough that a single span
/// (one kernel entry plus governor activity) can never overflow it.
const SPAN_SINK_CAPACITY: usize = 4096;

/// One additional one-shot interrupt a [`RunSpec`] injects before the
/// run starts — the minimal perturbation the bisector is asked to
/// localize.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectedIrq {
    /// Absolute simulated delivery time.
    pub at: Ps,
    /// Interrupt kind to deliver.
    pub kind: InterruptKind,
}

/// A complete, serializable description of one recordable run.
///
/// Two specs plus the standard workload determine two event streams; a
/// spec is what `segscope bisect` takes one of per side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Table I preset name (see [`segsim::presets::NAMES`]).
    pub machine: String,
    /// Machine seed.
    pub seed: u64,
    /// Number of marker/run-until-interrupt spans to execute.
    pub spans: usize,
    /// Optional fault plan installed before the run.
    pub fault_plan: Option<FaultPlan>,
    /// One-shot interrupts injected before the run starts.
    pub inject: Vec<InjectedIrq>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            machine: "xiaomi_air13".to_owned(),
            seed: 0x5E65C0,
            spans: 48,
            fault_plan: None,
            inject: Vec::new(),
        }
    }
}

/// One rung of the snapshot ladder: a restore-exact machine image plus
/// the position in the event stream it corresponds to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotPoint {
    /// Spans completed when the snapshot was taken.
    pub span: usize,
    /// Events recorded when the snapshot was taken (the snapshot sits
    /// *between* `events[event_index - 1]` and `events[event_index]`).
    pub event_index: usize,
    /// Cumulative digest of `events[..event_index]`.
    pub digest: u64,
    /// The machine image itself.
    pub snapshot: Snapshot,
}

/// The full product of [`record`]: the spec, every event the run
/// emitted, and the snapshot ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recording {
    /// The spec that produced this recording.
    pub spec: RunSpec,
    /// Every event the run emitted, in order.
    pub events: Vec<obs::Event>,
    /// Snapshot ladder, ascending by span/event index; always contains
    /// the initial (span 0, event 0) rung.
    pub snapshots: Vec<SnapshotPoint>,
    /// Digest of the complete event stream.
    pub final_digest: u64,
}

impl Recording {
    /// The snapshot-ladder rung nearest at-or-before `event_index`.
    ///
    /// # Panics
    ///
    /// Panics when no rung sits at or before `event_index`, which a
    /// ladder [`record`] produced never allows (its first rung is at
    /// event 0). [`replay_from`] checks a loaded ladder before using it.
    #[must_use]
    pub fn nearest_snapshot(&self, event_index: usize) -> &SnapshotPoint {
        self.snapshots
            .iter()
            .rev()
            .find(|p| p.event_index <= event_index)
            .expect("ladder always contains the (span 0, event 0) rung")
    }

    /// Checks what a recording read from disk must hold before it can be
    /// replayed: a valid spec fault plan, and a snapshot ladder that is
    /// non-empty, starts at (span 0, event 0), ascends, stays within the
    /// recorded events and spans, and carries only valid machine configs
    /// and fault plans.
    fn check(&self) -> Result<(), String> {
        let check_plan = |plan: Option<FaultPlan>, what: &str| match plan {
            Some(plan) => plan
                .validate()
                .map_err(|e| format!("{what} has an invalid fault plan: {e}")),
            None => Ok(()),
        };
        check_plan(self.spec.fault_plan, "the recording's spec")?;
        let first = self
            .snapshots
            .first()
            .ok_or("the snapshot ladder is empty")?;
        if (first.span, first.event_index) != (0, 0) {
            return Err(format!(
                "the snapshot ladder must start at span 0, event 0, \
                 but rung 0 is at span {}, event {}",
                first.span, first.event_index
            ));
        }
        let mut restored: Option<Machine> = None;
        for (i, point) in self.snapshots.iter().enumerate() {
            let rung = format!("snapshot ladder rung {i}");
            if let Some(prev) = i.checked_sub(1).map(|j| &self.snapshots[j]) {
                if point.span <= prev.span || point.event_index < prev.event_index {
                    return Err(format!(
                        "{rung} (span {}, event {}) does not ascend from rung {} \
                         (span {}, event {})",
                        point.span,
                        point.event_index,
                        i - 1,
                        prev.span,
                        prev.event_index
                    ));
                }
            }
            if point.event_index > self.events.len() {
                return Err(format!(
                    "{rung} is at event {}, past the recording's {} events",
                    point.event_index,
                    self.events.len()
                ));
            }
            if point.span > self.spec.spans {
                return Err(format!(
                    "{rung} is at span {}, past the spec's {} spans",
                    point.span, self.spec.spans
                ));
            }
            let config = point.snapshot.config();
            config
                .validate()
                .map_err(|e| format!("{rung}'s machine config: {e}"))?;
            check_plan(config.fault_plan, &format!("{rung}'s machine config"))?;
            // The machine's own plan is only readable from a restored
            // machine; one machine is restored rung after rung.
            let machine = match restored.as_mut() {
                Some(machine) => {
                    machine.restore(&point.snapshot);
                    machine
                }
                None => restored.insert(Machine::from_snapshot(&point.snapshot)),
            };
            check_plan(machine.fault_plan(), &rung)?;
        }
        Ok(())
    }
}

/// The tail a [`replay_from`] call re-executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySlice {
    /// Span the replay resumed at.
    pub from_span: usize,
    /// Event index the replay resumed at.
    pub from_event: usize,
    /// The re-executed events (`recording.events[from_event..]` when
    /// the replay reproduces the recording, which [`ReplaySlice::matches`]
    /// checks).
    pub events: Vec<obs::Event>,
}

impl ReplaySlice {
    /// Whether the replayed tail is bit-identical to the recording's.
    #[must_use]
    pub fn matches(&self, recording: &Recording) -> bool {
        recording.events[self.from_event..] == self.events[..]
    }
}

/// The bisector's verdict: the first event at which two runs disagree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergenceReport {
    /// Index of the first diverging event (equal to the shorter
    /// stream's length when one stream is a strict prefix of the other).
    pub index: usize,
    /// Side A's event at that index (`None`: stream A ended).
    pub a: Option<obs::Event>,
    /// Side B's event at that index (`None`: stream B ended).
    pub b: Option<obs::Event>,
    /// The last span boundary at which both runs still agreed (the
    /// bracket the binary search narrowed to).
    pub agreed_through_span: usize,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |e: &Option<obs::Event>| match e {
            Some(e) => format!("at_ps={} lane={} kind={:?}", e.at_ps, e.track, e.kind),
            None => "<stream ended>".to_owned(),
        };
        writeln!(
            f,
            "first divergence at event {} (runs agree through span {}):",
            self.index, self.agreed_through_span
        )?;
        writeln!(f, "  a: {}", side(&self.a))?;
        write!(f, "  b: {}", side(&self.b))
    }
}

/// First index at which two slices disagree: the first elementwise
/// mismatch, or the shorter length when one is a strict prefix of the
/// other. `None` means the slices are equal.
///
/// This is the primitive the workspace's trace-equality tests report
/// failures through — a pinpointed index beats a thousand-line diff.
#[must_use]
pub fn first_divergence<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    let shared = a.len().min(b.len());
    (0..shared)
        .find(|&i| a[i] != b[i])
        .or_else(|| (a.len() != b.len()).then_some(shared))
}

/// Builds the spec's machine: preset lookup, seed, fault plan, injected
/// one-shots.
fn boot(spec: &RunSpec) -> Result<Machine, String> {
    let config = presets::by_name(&spec.machine).ok_or_else(|| {
        format!(
            "unknown machine preset `{}` (expected one of: {})",
            spec.machine,
            presets::NAMES.join(", ")
        )
    })?;
    let mut machine = Machine::new(config, spec.seed);
    if spec.fault_plan.is_some() {
        machine.set_fault_plan(spec.fault_plan);
    }
    if !spec.inject.is_empty() {
        machine.inject_interrupts(spec.inject.iter().map(|i| (i.at, i.kind)));
    }
    Ok(machine)
}

/// Runs one standard span on `machine`, appending its events to `out`.
///
/// The workload is the golden-trace span: park the 0x2 marker in GS,
/// run user code until the next interrupt. A fresh sink per span keeps
/// the event stream complete (no ring overwrites) without unbounded
/// memory in the machine.
fn run_span(machine: &mut Machine, out: &mut Vec<obs::Event>) {
    machine.install_trace_sink(obs::TraceSink::with_capacity(SPAN_SINK_CAPACITY));
    machine
        .wrgs(Selector::null_with_rpl(PrivilegeLevel::Ring2))
        .expect("presets never restrict segment writes");
    let _ = machine.run_user_until(Ps::MAX);
    let sink = machine.take_trace_sink().expect("sink installed above");
    assert_eq!(sink.dropped(), 0, "span overflowed the per-span sink");
    out.extend(sink.events());
}

/// Records `spec`'s run: every event, plus a snapshot every
/// `snapshot_every` spans (clamped to ≥ 1).
///
/// # Errors
///
/// Returns a message for an unknown machine preset.
pub fn record(spec: &RunSpec, snapshot_every: usize) -> Result<Recording, String> {
    let every = snapshot_every.max(1);
    let mut machine = boot(spec)?;
    let mut events = Vec::new();
    let mut digest = obs::EventDigest::new();
    let mut digested = 0;
    let mut snapshots = Vec::new();
    for span in 0..spec.spans {
        if span % every == 0 {
            for event in &events[digested..] {
                digest.update(event);
            }
            digested = events.len();
            snapshots.push(SnapshotPoint {
                span,
                event_index: events.len(),
                digest: digest.finish(),
                snapshot: machine.snapshot(),
            });
        }
        run_span(&mut machine, &mut events);
    }
    for event in &events[digested..] {
        digest.update(event);
    }
    Ok(Recording {
        spec: spec.clone(),
        events,
        snapshots,
        final_digest: digest.finish(),
    })
}

/// Re-executes `recording` from the nearest snapshot at or before
/// `event_index`, returning the re-generated tail.
///
/// The returned slice starts at the snapshot's event index (≤
/// `event_index`), and [`ReplaySlice::matches`] confirms it reproduces
/// the recording bit-identically — the restore-exactness contract,
/// exercised end-to-end.
///
/// # Errors
///
/// Returns a message naming the problem when the recording's snapshot
/// ladder is malformed (empty, not starting at span 0 and event 0, out
/// of order, or past the recorded events or spans), when a rung's
/// machine config fails [`segsim::MachineConfig::validate`], or when the
/// spec or any rung carries an invalid fault plan.
pub fn replay_from(recording: &Recording, event_index: usize) -> Result<ReplaySlice, String> {
    recording.check()?;
    let point = recording.nearest_snapshot(event_index.min(recording.events.len()));
    let mut machine = Machine::from_snapshot(&point.snapshot);
    let mut events = Vec::new();
    for _ in point.span..recording.spec.spans {
        run_span(&mut machine, &mut events);
    }
    Ok(ReplaySlice {
        from_span: point.span,
        from_event: point.event_index,
        events,
    })
}

/// Records both specs and localizes their first diverging event.
///
/// The snapshot ladders are aligned by span index; a binary search over
/// the rungs' cumulative digests finds the last span boundary where the
/// streams still agree (equal digests over equal event counts mean the
/// serialized prefixes are identical), and only the events past that
/// boundary are compared one-by-one. `Ok(None)` means the two event
/// streams are identical.
///
/// # Errors
///
/// Returns a message when either spec names an unknown machine preset.
pub fn bisect(
    a: &RunSpec,
    b: &RunSpec,
    snapshot_every: usize,
) -> Result<Option<DivergenceReport>, String> {
    let ra = record(a, snapshot_every)?;
    let rb = record(b, snapshot_every)?;
    Ok(bisect_recordings(&ra, &rb))
}

/// [`bisect`] over two already-captured recordings.
#[must_use]
pub fn bisect_recordings(ra: &Recording, rb: &Recording) -> Option<DivergenceReport> {
    if ra.events == rb.events {
        return None;
    }
    // Binary search the aligned ladder rungs for the last span boundary
    // whose cumulative digests (over equal event counts) agree. Rung 0
    // is (span 0, event 0) on both sides, which agrees trivially.
    let rungs = ra.snapshots.len().min(rb.snapshots.len());
    let agree = |i: usize| {
        let (pa, pb) = (&ra.snapshots[i], &rb.snapshots[i]);
        pa.span == pb.span && pa.event_index == pb.event_index && pa.digest == pb.digest
    };
    let (mut lo, mut hi) = (0, rungs - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if agree(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let from = ra.snapshots[lo].event_index;
    let index = from
        + first_divergence(&ra.events[from..], &rb.events[from..])
            .expect("streams differ, so a divergence exists past the last agreeing rung");
    Some(DivergenceReport {
        index,
        a: ra.events.get(index).copied(),
        b: rb.events.get(index).copied(),
        agreed_through_span: ra.snapshots[lo].span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> RunSpec {
        RunSpec {
            machine: "lenovo_savior".to_owned(),
            seed,
            spans: 24,
            fault_plan: None,
            inject: Vec::new(),
        }
    }

    #[test]
    fn record_produces_a_ladder_and_a_stable_digest() {
        let recording = record(&spec(7), 6).unwrap();
        assert!(!recording.events.is_empty());
        assert_eq!(recording.snapshots.len(), 4, "spans 0, 6, 12, 18");
        assert_eq!(recording.snapshots[0].event_index, 0);
        assert_eq!(
            recording.final_digest,
            obs::digest_events(&recording.events)
        );
        for point in &recording.snapshots {
            assert_eq!(
                point.digest,
                obs::digest_events(&recording.events[..point.event_index])
            );
        }
        // Recording is deterministic end to end.
        assert_eq!(record(&spec(7), 6).unwrap(), recording);
    }

    #[test]
    fn replay_reproduces_the_tail_from_every_rung() {
        let recording = record(&spec(11), 5).unwrap();
        for target in [
            0,
            1,
            recording.events.len() / 2,
            recording.events.len().saturating_sub(1),
            recording.events.len(),
        ] {
            let slice = replay_from(&recording, target).unwrap();
            assert!(slice.from_event <= target);
            assert!(
                slice.matches(&recording),
                "replay from event {target} (span {}) diverged",
                slice.from_span
            );
        }
    }

    #[test]
    fn recording_round_trips_through_json() {
        let recording = record(&spec(3), 8).unwrap();
        let json = serde_json::to_string(&recording).unwrap();
        let back: Recording = serde_json::from_str(&json).unwrap();
        assert_eq!(back, recording);
        // And a replay of the revived recording still verifies.
        assert!(replay_from(&back, back.events.len() / 2)
            .unwrap()
            .matches(&back));
    }

    #[test]
    fn bisect_of_identical_specs_reports_no_divergence() {
        assert_eq!(bisect(&spec(5), &spec(5), 4).unwrap(), None);
    }

    #[test]
    fn bisect_localizes_a_single_injected_fault() {
        let a = spec(9);
        let mut b = spec(9);
        // One extra interrupt well into the run: everything before it
        // must agree, and the report must point at its delivery.
        b.inject.push(InjectedIrq {
            at: Ps::from_ms(40),
            kind: InterruptKind::Gpu,
        });
        let report = bisect(&a, &b, 4).unwrap().expect("streams differ");
        let ra = record(&a, 4).unwrap();
        let rb = record(&b, 4).unwrap();
        assert_eq!(
            Some(report.index),
            first_divergence(&ra.events, &rb.events),
            "bisection must agree with the brute-force scan"
        );
        assert!(report.index > 0, "runs agree before the injection");
        assert_eq!(report.a, ra.events.get(report.index).copied());
        assert_eq!(report.b, rb.events.get(report.index).copied());
        let shown = report.to_string();
        assert!(shown.contains(&format!("event {}", report.index)));
    }

    /// Replays a copy of `recording` edited by `edit` from event 2 and
    /// returns the error message.
    fn replay_error(recording: &Recording, edit: impl FnOnce(&mut Recording)) -> String {
        let mut bad = recording.clone();
        edit(&mut bad);
        replay_from(&bad, 2).expect_err("a malformed recording replays")
    }

    #[test]
    fn malformed_ladders_are_rejected_by_name() {
        let recording = record(&spec(13), 4).unwrap();
        assert_eq!(recording.snapshots.len(), 6);
        let events = recording.events.len();
        let cases = [
            (
                "the snapshot ladder is empty",
                replay_error(&recording, |r| r.snapshots.clear()),
            ),
            (
                "must start at span 0, event 0",
                replay_error(&recording, |r| {
                    r.snapshots.iter_mut().for_each(|p| p.event_index += 3);
                }),
            ),
            (
                "must start at span 0, event 0",
                replay_error(&recording, |r| {
                    r.snapshots.remove(0);
                }),
            ),
            (
                "rung 2 (span 4, event",
                replay_error(&recording, |r| r.snapshots.swap(1, 2)),
            ),
            (
                "rung 5 is at event",
                replay_error(&recording, |r| r.snapshots[5].event_index = events + 1),
            ),
            (
                "rung 5 is at span 25",
                replay_error(&recording, |r| r.snapshots[5].span = 25),
            ),
        ];
        for (expected, message) in cases {
            assert!(message.contains(expected), "{message}");
        }
    }

    #[test]
    fn invalid_fault_plans_are_rejected_by_rung() {
        let recording = record(&spec(17), 8).unwrap();
        let endless = FaultPlan::none().with_duplicate_prob(1.0);
        let message = replay_error(&recording, |r| r.spec.fault_plan = Some(endless));
        assert!(message.contains("the recording's spec"), "{message}");
        assert!(message.contains("`duplicate_prob`"), "{message}");

        let mut machine = Machine::from_snapshot(&recording.snapshots[1].snapshot);
        machine.set_fault_plan(Some(endless));
        let planted = machine.snapshot();
        let message = replay_error(&recording, |r| r.snapshots[1].snapshot = planted);
        assert!(
            message.starts_with("snapshot ladder rung 1 has"),
            "{message}"
        );
        assert!(message.contains("`duplicate_prob`"), "{message}");

        let mut config = presets::by_name("lenovo_savior").unwrap();
        config.fault_plan = Some(FaultPlan::none().with_drop_prob(1.5));
        let planted = Machine::new(config, 17).snapshot();
        let message = replay_error(&recording, |r| r.snapshots[2].snapshot = planted);
        assert!(
            message.starts_with("snapshot ladder rung 2's machine config"),
            "{message}"
        );
        assert!(message.contains("`drop_prob`"), "{message}");
    }

    #[test]
    fn first_divergence_covers_prefixes_and_equality() {
        assert_eq!(first_divergence(&[1, 2, 3], &[1, 2, 3]), None);
        assert_eq!(first_divergence(&[1, 2, 3], &[1, 9, 3]), Some(1));
        assert_eq!(first_divergence(&[1, 2], &[1, 2, 3]), Some(2));
        assert_eq!(first_divergence::<u8>(&[], &[]), None);
    }
}
