//! Opt-in fault injection for the interrupt path.
//!
//! A [`FaultPlan`] describes adversarial deviations from the nominal
//! interrupt stream — the regimes AEX-Notify/Heckler-style attacks put a
//! victim in — split into two families with very different contracts:
//!
//! * **Delivery faults** (dropped, duplicated, coalesced interrupts)
//!   break the correspondence between *intended* and *observed*
//!   interrupts. SegScope's per-interrupt exactness cannot survive them,
//!   so consumers must *detect* them (via the [`FaultLog`] accounting)
//!   rather than report a wrong-but-confident count.
//! * **Timing faults** (jittered handler cost, clamped frequency steps,
//!   SMT-noise bursts) perturb *when* and *how long*, but every
//!   interrupt still reaches the core exactly once. SegScope's count
//!   exactness must hold unchanged under these.
//!
//! The plan is strictly opt-in: a machine without one draws the exact
//! same RNG sequence as before this module existed, so seeded golden
//! traces are unaffected.

use crate::time::Ps;
use serde::{Deserialize, Serialize};

/// An opt-in description of interrupt-path faults to inject.
///
/// All probabilities are per-event; a zeroed plan (the [`FaultPlan::none`]
/// default) injects nothing and is behaviourally identical to having no
/// plan at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a popped interrupt is silently dropped before it
    /// reaches the core (lost wakeup / masked-window loss).
    pub drop_prob: f64,
    /// Probability that a delivered interrupt is re-delivered once more,
    /// `duplicate_delay` later (spurious re-raise).
    pub duplicate_prob: f64,
    /// How far after the original a duplicated interrupt lands.
    pub duplicate_delay: Ps,
    /// Interrupts arriving within this window after a kernel stint ends
    /// are pulled into the same stint (rate-limit style coalescing):
    /// several intended interrupts produce one observable return to user
    /// space. Zero disables coalescing.
    pub coalesce_window: Ps,
    /// Log-normal jitter on handler routine cost: each sampled cost is
    /// multiplied by `exp(N(0, handler_jitter_std))`. Zero disables.
    pub handler_jitter_std: f64,
    /// Clamp on how far one governor update may move the frequency, kHz.
    /// Models a sluggish/locked governor under thermal pressure.
    pub freq_step_clamp_khz: Option<u64>,
    /// Probability per guest operation that an SMT-noise burst starts.
    pub smt_burst_prob: f64,
    /// Cycle-cost multiplier applied while a burst is active.
    pub smt_burst_factor: f64,
    /// How many guest operations a burst lasts.
    pub smt_burst_ops: u32,
}

impl FaultPlan {
    /// A plan that injects nothing (behaviourally identical to no plan).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            duplicate_delay: Ps::from_us(50),
            coalesce_window: Ps::ZERO,
            handler_jitter_std: 0.0,
            freq_step_clamp_khz: None,
            smt_burst_prob: 0.0,
            smt_burst_factor: 1.0,
            smt_burst_ops: 0,
        }
    }

    /// A preset exercising every *timing* fault at once (handler jitter,
    /// frequency-step clamping, SMT bursts) with no delivery faults:
    /// SegScope's per-interrupt exactness must survive this unchanged.
    #[must_use]
    pub fn timing_storm() -> Self {
        FaultPlan {
            handler_jitter_std: 0.35,
            freq_step_clamp_khz: Some(100_000),
            smt_burst_prob: 0.002,
            smt_burst_factor: 1.6,
            smt_burst_ops: 64,
            ..FaultPlan::none()
        }
    }

    /// A preset exercising every *delivery* fault at once: drops,
    /// duplicates, and coalescing. Consumers must detect the damage.
    #[must_use]
    pub fn delivery_storm() -> Self {
        FaultPlan {
            drop_prob: 0.15,
            duplicate_prob: 0.08,
            coalesce_window: Ps::from_us(800),
            ..FaultPlan::none()
        }
    }

    /// Sets the drop probability (builder style).
    #[must_use]
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the duplicate probability (builder style).
    #[must_use]
    pub fn with_duplicate_prob(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }

    /// Sets the duplicate re-delivery delay (builder style).
    #[must_use]
    pub fn with_duplicate_delay(mut self, delay: Ps) -> Self {
        self.duplicate_delay = delay;
        self
    }

    /// Sets the coalescing window (builder style).
    #[must_use]
    pub fn with_coalesce_window(mut self, window: Ps) -> Self {
        self.coalesce_window = window;
        self
    }

    /// Sets the handler-cost jitter (builder style).
    #[must_use]
    pub fn with_handler_jitter(mut self, std: f64) -> Self {
        self.handler_jitter_std = std;
        self
    }

    /// Sets the frequency-step clamp (builder style).
    #[must_use]
    pub fn with_freq_step_clamp(mut self, khz: Option<u64>) -> Self {
        self.freq_step_clamp_khz = khz;
        self
    }

    /// Configures SMT-noise bursts (builder style).
    #[must_use]
    pub fn with_smt_bursts(mut self, prob: f64, factor: f64, ops: u32) -> Self {
        self.smt_burst_prob = prob;
        self.smt_burst_factor = factor;
        self.smt_burst_ops = ops;
        self
    }

    /// Whether the plan can lose, multiply, or merge interrupts.
    #[must_use]
    pub fn has_delivery_faults(&self) -> bool {
        self.drop_prob > 0.0 || self.duplicate_prob > 0.0 || self.coalesce_window > Ps::ZERO
    }

    /// Whether the plan perturbs timing without touching delivery.
    #[must_use]
    pub fn has_timing_faults(&self) -> bool {
        self.handler_jitter_std > 0.0
            || self.freq_step_clamp_khz.is_some()
            || self.smt_burst_prob > 0.0
    }

    /// Timing faults only: every interrupt still arrives exactly once.
    #[must_use]
    pub fn is_timing_only(&self) -> bool {
        self.has_timing_faults() && !self.has_delivery_faults()
    }

    /// Checks that every probability is one a run can finish under.
    ///
    /// `drop_prob` and `smt_burst_prob` must lie in `[0, 1]`, and
    /// `duplicate_prob` in `[0, 1)`: a ghost re-delivery may duplicate
    /// again, so at 1 every interrupt spawns ghosts forever.
    ///
    /// # Errors
    ///
    /// A message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        let probability = |field: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("`{field}` must be in [0, 1], got {p}"))
            }
        };
        probability("drop_prob", self.drop_prob)?;
        probability("smt_burst_prob", self.smt_burst_prob)?;
        if !(0.0..1.0).contains(&self.duplicate_prob) {
            return Err(format!(
                "`duplicate_prob` must be in [0, 1), got {}",
                self.duplicate_prob
            ));
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counters of every fault actually injected during a run.
///
/// This is the *auditor's* view: simulation-side accounting (like
/// [`GroundTruth`](crate::GroundTruth)) that a conformance harness uses to
/// compute how many interrupts were intended versus observed. Attacker
/// code never reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultLog {
    /// Interrupts silently dropped before reaching the core.
    pub dropped: u64,
    /// Ghost re-deliveries injected (spurious interrupts added).
    pub duplicated: u64,
    /// Interrupts pulled into an earlier kernel stint by the coalescing
    /// window (delivered, but without their own return to user space).
    pub coalesced: u64,
    /// Handler-cost samples that had jitter applied.
    pub jittered: u64,
    /// SMT-noise bursts started.
    pub bursts: u64,
    /// Governor updates whose frequency step hit the clamp.
    pub clamped_steps: u64,
}

impl FaultLog {
    /// Total delivery faults (events that break intended↔observed
    /// correspondence).
    #[must_use]
    pub fn delivery_faults(&self) -> u64 {
        self.dropped + self.duplicated + self.coalesced
    }

    /// Total timing faults (events that only perturb timing).
    #[must_use]
    pub fn timing_faults(&self) -> u64 {
        self.jittered + self.bursts + self.clamped_steps
    }

    /// Whether no fault of any kind was injected.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.delivery_faults() == 0 && self.timing_faults() == 0
    }
}

/// Outcome of popping an interrupt through a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultedPop {
    /// The interrupt reaches the core (possibly after spawning a ghost
    /// duplicate scheduled for later).
    Delivered(crate::PendingInterrupt),
    /// The interrupt was consumed by the fault plan and never reaches the
    /// core.
    Dropped(crate::PendingInterrupt),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert_and_default() {
        let p = FaultPlan::none();
        assert_eq!(p, FaultPlan::default());
        assert!(!p.has_delivery_faults());
        assert!(!p.has_timing_faults());
        assert!(!p.is_timing_only());
    }

    #[test]
    fn presets_classify_correctly() {
        let t = FaultPlan::timing_storm();
        assert!(t.is_timing_only());
        assert!(t.has_timing_faults() && !t.has_delivery_faults());
        let d = FaultPlan::delivery_storm();
        assert!(d.has_delivery_faults());
        assert!(!d.is_timing_only());
    }

    #[test]
    fn builders_compose() {
        let p = FaultPlan::none()
            .with_drop_prob(0.1)
            .with_duplicate_prob(0.05)
            .with_duplicate_delay(Ps::from_us(10))
            .with_coalesce_window(Ps::from_us(200))
            .with_handler_jitter(0.2)
            .with_freq_step_clamp(Some(50_000))
            .with_smt_bursts(0.01, 2.0, 16);
        assert_eq!(p.drop_prob, 0.1);
        assert_eq!(p.duplicate_delay, Ps::from_us(10));
        assert_eq!(p.coalesce_window, Ps::from_us(200));
        assert_eq!(p.freq_step_clamp_khz, Some(50_000));
        assert!(p.has_delivery_faults() && p.has_timing_faults());
    }

    #[test]
    fn validate_bounds_each_probability() {
        assert_eq!(FaultPlan::none().validate(), Ok(()));
        assert_eq!(FaultPlan::delivery_storm().validate(), Ok(()));
        assert_eq!(FaultPlan::timing_storm().validate(), Ok(()));
        let accepted = [
            FaultPlan::none().with_drop_prob(1.0),
            FaultPlan::none().with_duplicate_prob(0.999),
            FaultPlan::none().with_smt_bursts(1.0, 2.0, 4),
        ];
        for plan in accepted {
            assert_eq!(plan.validate(), Ok(()), "{plan:?}");
        }
        let rejected = [
            (FaultPlan::none().with_drop_prob(1.5), "drop_prob"),
            (FaultPlan::none().with_drop_prob(-0.1), "drop_prob"),
            (FaultPlan::none().with_drop_prob(f64::NAN), "drop_prob"),
            (FaultPlan::none().with_duplicate_prob(1.0), "duplicate_prob"),
            (
                FaultPlan::none().with_duplicate_prob(-1.0),
                "duplicate_prob",
            ),
            (
                FaultPlan::none().with_smt_bursts(1.01, 2.0, 4),
                "smt_burst_prob",
            ),
        ];
        for (plan, field) in rejected {
            let err = plan.validate().expect_err("out-of-range plan");
            assert!(err.contains(&format!("`{field}`")), "{err}");
        }
    }

    #[test]
    fn log_accounting() {
        let mut log = FaultLog::default();
        assert!(log.is_clean());
        log.dropped = 2;
        log.jittered = 5;
        assert_eq!(log.delivery_faults(), 2);
        assert_eq!(log.timing_faults(), 5);
        assert!(!log.is_clean());
    }
}
