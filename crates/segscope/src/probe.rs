//! The SegScope probe: timer-free interrupt detection via the
//! segment-protection footprint, and SegCnt interval measurement
//! (paper Section III-B, Fig. 2).

use crate::error::ProbeError;
use irq::time::Ps;
use irq::InterruptKind;
use segsim::{Machine, SpanEnd};
use serde::{Deserialize, Serialize};
use x86seg::{PrivilegeLevel, Selector};

/// One probed interrupt interval.
///
/// `segcnt` is the attacker-visible observation: the number of check-loop
/// iterations executed between two consecutive interrupts (the time proxy
/// of paper Eq. 1). The remaining fields are simulator-side metadata used
/// by experiments for ground-truth accounting; attacker logic must not
/// consult them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeSample {
    /// Loop iterations until the footprint appeared (attacker-visible).
    pub segcnt: u64,
    /// Ground truth: the interrupt kind that ended the interval.
    pub kind: InterruptKind,
    /// Ground truth: user-mode cycles the interval contained.
    pub user_cycles: f64,
    /// Ground truth: wall-clock start of the interval.
    pub started_at: Ps,
    /// Ground truth: wall-clock end (the interrupt delivery instant plus
    /// its kernel span).
    pub ended_at: Ps,
}

/// The SegScope probe.
///
/// Plants a non-zero null selector (`0x1`–`0x3`) in GS and detects
/// interrupts purely from the selector value being scrubbed by the
/// kernel→user return (Algorithm 1). No timestamp instruction, no procfs.
///
/// ```
/// use segscope::SegProbe;
/// use segsim::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::default(), 7);
/// let mut probe = SegProbe::new();
/// let samples = probe.probe_n(&mut m, 10)?;
/// assert_eq!(samples.len(), 10);
/// assert!(samples.iter().all(|s| s.segcnt > 0));
/// # Ok::<(), segscope::ProbeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegProbe {
    marker: Selector,
}

impl SegProbe {
    /// A probe using the default marker `0x1`.
    #[must_use]
    pub fn new() -> Self {
        SegProbe::with_marker(Selector::null_with_rpl(PrivilegeLevel::Ring1))
    }

    /// A probe using a specific non-zero null selector.
    ///
    /// # Panics
    ///
    /// Panics if `marker` is not a non-zero null selector — any other
    /// value either faults on load or leaves no observable footprint.
    #[must_use]
    pub fn with_marker(marker: Selector) -> Self {
        assert!(
            marker.is_nonzero_null(),
            "SegScope marker must be a non-zero null selector (0x1..=0x3), got {marker}"
        );
        SegProbe { marker }
    }

    /// The marker selector in use.
    #[must_use]
    pub fn marker(&self) -> Selector {
        self.marker
    }

    /// Probes one interrupt: plants the marker, spins checking the
    /// selector, and returns when the footprint appears.
    ///
    /// The returned `segcnt` is the number of check-loop iterations — the
    /// paper's SegCnt. A [`ProbeError::MitigatedMachine`] is reported if
    /// the machine preserves selectors (the probe would spin forever); a
    /// bounded `max_wait` guards that detection.
    ///
    /// # Errors
    ///
    /// [`ProbeError::SegmentWriteDenied`] when the machine restricts
    /// segment-register writes; [`ProbeError::MitigatedMachine`] when no
    /// footprint appeared within `max_wait`.
    pub fn probe_once_bounded(
        &mut self,
        machine: &mut Machine,
        max_wait: Ps,
    ) -> Result<ProbeSample, ProbeError> {
        machine
            .wrgs(self.marker)
            .map_err(|_| ProbeError::SegmentWriteDenied)?;
        let started_at = machine.now();
        let deadline = started_at.checked_add(max_wait).unwrap_or(Ps::MAX);
        let mut user_cycles = 0.0f64;
        loop {
            let span = machine.run_user_until(deadline);
            user_cycles += span.cycles;
            match span.ended_by {
                SpanEnd::Interrupt(irq) => {
                    // The check itself is the loop body: if the selector
                    // changed, the interval ended. A concurrent process
                    // may have reloaded GS with a *valid* selector — any
                    // change counts (paper Section III-B note).
                    let current = machine.rdgs();
                    if current != self.marker {
                        let segcnt =
                            (user_cycles / machine.probe_iter_cycles()).round().max(1.0) as u64;
                        let ended_at = machine.now();
                        if let Some(sink) = machine.trace_sink_mut() {
                            sink.emit(
                                ended_at.as_ps(),
                                obs::EventKind::ProbeSample {
                                    segcnt,
                                    irq: irq.kind.into(),
                                },
                            );
                            sink.metrics.incr("probe.samples", 1);
                            sink.metrics.phase(
                                "probe.interval",
                                started_at.as_ps(),
                                ended_at.as_ps(),
                            );
                        }
                        return Ok(ProbeSample {
                            segcnt,
                            kind: irq.kind,
                            user_cycles,
                            started_at,
                            ended_at,
                        });
                    }
                    // Footprint suppressed (mitigated machine): keep
                    // spinning until the deadline proves it.
                }
                SpanEnd::Deadline => return Err(ProbeError::MitigatedMachine),
            }
        }
    }

    /// Probes one interrupt with a 10-second guard (far beyond any real
    /// inter-interrupt gap at HZ ≥ 100).
    ///
    /// # Errors
    ///
    /// See [`SegProbe::probe_once_bounded`].
    pub fn probe_once(&mut self, machine: &mut Machine) -> Result<ProbeSample, ProbeError> {
        self.probe_once_bounded(machine, Ps::from_secs(10))
    }

    /// Probes `n` consecutive interrupts into a caller-owned buffer,
    /// clearing it first.
    ///
    /// This is the zero-allocation core of [`probe_n`](Self::probe_n):
    /// trial loops that probe repeatedly reuse one buffer instead of
    /// allocating a fresh `Vec<ProbeSample>` per batch.
    ///
    /// # Errors
    ///
    /// See [`SegProbe::probe_once_bounded`]. On error, samples collected
    /// before the failure remain in `out`.
    #[must_use = "on error, partial samples remain in `out`"]
    pub fn probe_n_into(
        &mut self,
        machine: &mut Machine,
        n: usize,
        out: &mut Vec<ProbeSample>,
    ) -> Result<(), ProbeError> {
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            out.push(self.probe_once(machine)?);
        }
        Ok(())
    }

    /// Probes `n` consecutive interrupts.
    ///
    /// # Errors
    ///
    /// See [`SegProbe::probe_once_bounded`].
    pub fn probe_n(
        &mut self,
        machine: &mut Machine,
        n: usize,
    ) -> Result<Vec<ProbeSample>, ProbeError> {
        let mut out = Vec::new();
        self.probe_n_into(machine, n, &mut out)?;
        Ok(out)
    }

    /// Probes for a wall-clock duration into a caller-owned buffer,
    /// clearing it first (the reusable-buffer core of
    /// [`probe_for`](Self::probe_for)).
    ///
    /// The deadline is `machine.now() + duration` computed with
    /// [`Ps::checked_add`]: when the sum would overflow — a duration at
    /// or near [`Ps::MAX`] on a machine that has already advanced — the
    /// deadline saturates to [`Ps::MAX`] instead of wrapping or
    /// panicking, turning an overflowing window into "probe until the
    /// clock's end of time". The same guard protects the per-sample
    /// bound handed to [`probe_once_bounded`](Self::probe_once_bounded).
    ///
    /// # Errors
    ///
    /// See [`SegProbe::probe_once_bounded`]. On error, samples collected
    /// before the failure remain in `out`.
    #[must_use = "on error, partial samples remain in `out`"]
    pub fn probe_for_into(
        &mut self,
        machine: &mut Machine,
        duration: Ps,
        out: &mut Vec<ProbeSample>,
    ) -> Result<(), ProbeError> {
        out.clear();
        // Saturate instead of overflowing for near-`Ps::MAX` durations
        // (mirrors the guard in `probe_once_bounded`).
        let deadline = machine.now().checked_add(duration).unwrap_or(Ps::MAX);
        while machine.now() < deadline {
            let remaining = deadline.saturating_sub(machine.now());
            match self.probe_once_bounded(machine, remaining) {
                Ok(sample) => out.push(sample),
                Err(ProbeError::MitigatedMachine) => break, // window exhausted
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Probes for a wall-clock duration (used by the Table II comparison:
    /// "run each technique for 10 seconds"). Returns all samples whose
    /// interval *ended* within the window.
    ///
    /// # Overflow behaviour
    ///
    /// The window deadline `machine.now() + duration` saturates to
    /// [`Ps::MAX`] on overflow (`checked_add` + `unwrap_or`) rather than
    /// wrapping: an extreme `duration` means "probe as long as the clock
    /// can represent", never a panic or a deadline in the past. The
    /// single-interrupt guard in
    /// [`probe_once_bounded`](Self::probe_once_bounded) carries the same
    /// saturation, so even `Ps::MAX` itself is a safe bound:
    ///
    /// ```
    /// use irq::time::Ps;
    /// use segscope::SegProbe;
    /// use segsim::{Machine, MachineConfig};
    ///
    /// let mut m = Machine::new(MachineConfig::default(), 7);
    /// let mut probe = SegProbe::new();
    ///
    /// // A finite window: samples whose interval ended inside it.
    /// let samples = probe.probe_for(&mut m, Ps::from_ms(40))?;
    /// assert!(!samples.is_empty());
    ///
    /// // A saturating per-interrupt bound: `now() + Ps::MAX` would
    /// // overflow, but the deadline clamps to `Ps::MAX` and the probe
    /// // simply waits for the next interrupt — no panic, no wrap.
    /// let sample = probe.probe_once_bounded(&mut m, Ps::MAX)?;
    /// assert!(sample.segcnt > 0);
    /// # Ok::<(), segscope::ProbeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`SegProbe::probe_once_bounded`].
    pub fn probe_for(
        &mut self,
        machine: &mut Machine,
        duration: Ps,
    ) -> Result<Vec<ProbeSample>, ProbeError> {
        let mut out = Vec::new();
        self.probe_for_into(machine, duration, &mut out)?;
        Ok(out)
    }
}

impl Default for SegProbe {
    fn default() -> Self {
        SegProbe::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segsim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default(), 0xBEEF)
    }

    #[test]
    fn probe_detects_every_interrupt_exactly() {
        let mut m = machine();
        let mut probe = SegProbe::new();
        let before = m.ground_truth().len();
        let samples = probe.probe_n(&mut m, 50).unwrap();
        let after = m.ground_truth().len();
        // Every delivered interrupt during probing produced exactly one
        // sample: zero false positives, zero false negatives.
        assert_eq!(samples.len(), after - before);
    }

    #[test]
    fn segcnt_reflects_interval_length() {
        let mut m = machine();
        let mut probe = SegProbe::new();
        let samples = probe.probe_n(&mut m, 100).unwrap();
        let timer_cnts: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == InterruptKind::Timer)
            .map(|s| s.segcnt as f64)
            .collect();
        assert!(
            timer_cnts.len() > 90,
            "mostly timer interrupts on idle core"
        );
        // 4 ms at ~3.4 GHz and ~1.07 cycles/iter → ~1.2e7 iterations.
        let mu = crate::stats::mean(&timer_cnts);
        assert!((5.0e6..2.0e7).contains(&mu), "timer SegCnt mean {mu}");
        // Timer SegCnt concentrates: relative std well under 10%.
        let sd = crate::stats::std_dev(&timer_cnts);
        assert!(sd / mu < 0.1, "relative std {}", sd / mu);
    }

    #[test]
    fn marker_validation() {
        for raw in [0x1u16, 0x2, 0x3] {
            let probe = SegProbe::with_marker(Selector::from_bits(raw));
            assert_eq!(probe.marker().bits(), raw);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero null selector")]
    fn zero_marker_rejected() {
        let _ = SegProbe::with_marker(Selector::NULL);
    }

    #[test]
    #[should_panic(expected = "non-zero null selector")]
    fn valid_selector_marker_rejected() {
        let _ = SegProbe::with_marker(Selector::from_bits(0x2b));
    }

    #[test]
    fn mitigated_machine_is_detected() {
        let cfg = MachineConfig::default().with_preserve_selectors(true);
        let mut m = Machine::new(cfg, 1);
        let mut probe = SegProbe::new();
        let err = probe
            .probe_once_bounded(&mut m, Ps::from_ms(50))
            .unwrap_err();
        assert_eq!(err, ProbeError::MitigatedMachine);
    }

    #[test]
    fn restricted_writes_are_reported() {
        let cfg = MachineConfig::default().with_restricted_segment_writes(true);
        let mut m = Machine::new(cfg, 2);
        let mut probe = SegProbe::new();
        assert_eq!(
            probe.probe_once(&mut m).unwrap_err(),
            ProbeError::SegmentWriteDenied
        );
    }

    #[test]
    fn probe_for_counts_matched_to_ground_truth() {
        let mut m = machine();
        let mut probe = SegProbe::new();
        m.ground_truth_mut().clear();
        let samples = probe.probe_for(&mut m, Ps::from_secs(1)).unwrap();
        // 250 Hz + ~0.3 PMI/s: expect ~250 samples.
        assert!(
            (245..=260).contains(&samples.len()),
            "got {}",
            samples.len()
        );
    }

    #[test]
    fn probe_for_saturates_at_ps_max_instead_of_overflowing() {
        // Regression: `machine.now() + duration` used to overflow for
        // near-MAX durations once the machine had advanced past t = 0.
        let cfg = MachineConfig::default().with_restricted_segment_writes(true);
        let mut m = Machine::new(cfg, 3);
        m.spin(1_000_000); // now > 0, so now + Ps::MAX would overflow
        let mut probe = SegProbe::new();
        // The restricted machine fails fast; reaching the error (rather
        // than panicking on the deadline arithmetic) is the assertion.
        assert_eq!(
            probe.probe_for(&mut m, Ps::MAX).unwrap_err(),
            ProbeError::SegmentWriteDenied
        );
        let mut buf = Vec::new();
        assert_eq!(
            probe.probe_for_into(&mut m, Ps::MAX, &mut buf).unwrap_err(),
            ProbeError::SegmentWriteDenied
        );
    }

    #[test]
    fn probe_n_into_reuses_buffer_and_matches_probe_n() {
        let mut m1 = machine();
        let mut m2 = machine();
        let mut p1 = SegProbe::new();
        let mut p2 = SegProbe::new();
        let mut buf = Vec::new();
        for _ in 0..3 {
            let fresh = p1.probe_n(&mut m1, 10).unwrap();
            p2.probe_n_into(&mut m2, 10, &mut buf).unwrap();
            assert_eq!(fresh, buf, "identical machines, identical samples");
        }
        let cap = buf.capacity();
        p2.probe_n_into(&mut m2, 10, &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap, "steady-state batches do not realloc");
    }

    #[test]
    fn probe_for_into_matches_probe_for() {
        let mut m1 = machine();
        let mut m2 = machine();
        let mut p1 = SegProbe::new();
        let mut p2 = SegProbe::new();
        let fresh = p1.probe_for(&mut m1, Ps::from_ms(100)).unwrap();
        let mut buf = vec![fresh[0]]; // non-empty: `_into` must clear it
        p2.probe_for_into(&mut m2, Ps::from_ms(100), &mut buf)
            .unwrap();
        assert_eq!(fresh, buf);
    }

    #[test]
    fn probe_survives_gs_reload_by_other_process() {
        use segsim::CoResident;
        let mut m = machine();
        m.set_co_resident(Some(CoResident {
            preempt_every_ticks: 1,
            slice: Ps::from_us(200),
            gs_reload: Some(x86seg::DescriptorTables::user_data_selector()),
            gs_reload_prob: 1.0,
        }));
        let mut probe = SegProbe::new();
        // Every timer interval still ends in a detected change.
        let samples = probe.probe_n(&mut m, 20).unwrap();
        assert_eq!(samples.len(), 20);
    }
}
