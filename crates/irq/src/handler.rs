//! Interrupt-handler cost model: the time `w` an interrupt handler routine
//! steals from user space (paper Eq. 1, distribution of paper Fig. 4).

use crate::dist;
use crate::kind::InterruptKind;
use crate::time::Ps;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the handler-cost distribution for one interrupt kind.
///
/// The paper's eBPF measurement (1 M samples, Fig. 4) found every handler
/// completing under 6 µs with 90.7 % of samples in the 1.0–1.5 µs band.
/// We model that as a mixture: a tight truncated-normal *body* inside the
/// band, plus a rare wider *tail* capped at `cap`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandlerCostParams {
    /// Mean of the body component, picoseconds.
    pub body_mean: Ps,
    /// Standard deviation of the body component, picoseconds.
    pub body_std: Ps,
    /// Lower truncation of the body component.
    pub body_lo: Ps,
    /// Upper truncation of the body component.
    pub body_hi: Ps,
    /// Probability a sample comes from the tail instead of the body.
    pub tail_prob: f64,
    /// Lower bound of the (uniform-log) tail.
    pub tail_lo: Ps,
    /// Hard cap on any sample (the paper observed no handler above 6 µs).
    pub cap: Ps,
}

impl HandlerCostParams {
    /// The Fig. 4 shape: body N(1.2 µs, 0.12 µs) truncated to [1.0, 1.5] µs
    /// sampled with probability ≈ 0.907, and a tail spread over
    /// [0.4, 6.0] µs.
    #[must_use]
    pub fn paper_default() -> Self {
        HandlerCostParams {
            body_mean: Ps::from_ns(1_200),
            body_std: Ps::from_ns(120),
            body_lo: Ps::from_ns(1_000),
            body_hi: Ps::from_ns(1_500),
            tail_prob: 0.093,
            tail_lo: Ps::from_ns(400),
            cap: Ps::from_ns(6_000),
        }
    }

    /// A cheaper, tighter handler (used for lightweight IPIs).
    #[must_use]
    pub fn light() -> Self {
        HandlerCostParams {
            body_mean: Ps::from_ns(800),
            body_std: Ps::from_ns(90),
            body_lo: Ps::from_ns(600),
            body_hi: Ps::from_ns(1_100),
            tail_prob: 0.05,
            tail_lo: Ps::from_ns(400),
            cap: Ps::from_ns(6_000),
        }
    }

    /// A heavier handler (device interrupts running softirq work).
    #[must_use]
    pub fn heavy() -> Self {
        HandlerCostParams {
            body_mean: Ps::from_ns(1_900),
            body_std: Ps::from_ns(300),
            body_lo: Ps::from_ns(1_200),
            body_hi: Ps::from_ns(2_800),
            tail_prob: 0.10,
            tail_lo: Ps::from_ns(800),
            cap: Ps::from_ns(6_000),
        }
    }

    /// Draws one handler cost.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Ps {
        let body_mean = self.body_mean.as_ns();
        let body_std = self.body_std.as_ns();
        let (lo, hi) = (self.body_lo.as_ns(), self.body_hi.as_ns());
        let tail_lo = self.tail_lo.as_ns();
        let cap = self.cap.as_ns();
        let ns = dist::mixture(
            rng,
            self.tail_prob,
            |r| dist::truncated_normal(r, body_mean, body_std, lo, hi),
            |r| {
                // Log-uniform over [tail_lo, cap]: most tail mass near the
                // low end, occasional samples brushing the cap.
                let u: f64 = r.gen();
                (tail_lo.ln() + u * (cap.ln() - tail_lo.ln())).exp()
            },
        );
        Ps::from_ps((ns.min(cap) * 1_000.0).round() as u64)
    }
}

impl Default for HandlerCostParams {
    fn default() -> Self {
        HandlerCostParams::paper_default()
    }
}

/// Per-kind handler cost model for a whole machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HandlerCostModel {
    timer: HandlerCostParams,
    resched: HandlerCostParams,
    perfmon: HandlerCostParams,
    device: HandlerCostParams,
    other: HandlerCostParams,
}

impl HandlerCostModel {
    /// The default model matching the paper's Fig. 4 measurement on the
    /// Lenovo Yangtian machine.
    #[must_use]
    pub fn paper_default() -> Self {
        HandlerCostModel {
            timer: HandlerCostParams::paper_default(),
            resched: HandlerCostParams::light(),
            perfmon: HandlerCostParams::light(),
            device: HandlerCostParams::heavy(),
            other: HandlerCostParams::paper_default(),
        }
    }

    /// Parameters used for one interrupt kind.
    #[must_use]
    pub fn params(&self, kind: InterruptKind) -> &HandlerCostParams {
        match kind {
            InterruptKind::Timer => &self.timer,
            InterruptKind::Resched | InterruptKind::CallFunction => &self.resched,
            InterruptKind::PerfMon => &self.perfmon,
            k if k.is_device() => &self.device,
            _ => &self.other,
        }
    }

    /// Overrides the parameters for one kind (builder style).
    #[must_use]
    pub fn with_params(mut self, kind: InterruptKind, params: HandlerCostParams) -> Self {
        match kind {
            InterruptKind::Timer => self.timer = params,
            InterruptKind::Resched | InterruptKind::CallFunction => self.resched = params,
            InterruptKind::PerfMon => self.perfmon = params,
            k if k.is_device() => self.device = params,
            _ => self.other = params,
        }
        self
    }

    /// Every kind's parameters with its field name, in field order.
    #[must_use]
    pub fn named_params(&self) -> [(&'static str, &HandlerCostParams); 5] {
        [
            ("timer", &self.timer),
            ("resched", &self.resched),
            ("perfmon", &self.perfmon),
            ("device", &self.device),
            ("other", &self.other),
        ]
    }

    /// Draws the cost of one handler invocation.
    pub fn sample<R: Rng + ?Sized>(&self, kind: InterruptKind, rng: &mut R) -> Ps {
        self.params(kind).sample(rng)
    }
}

impl Default for HandlerCostModel {
    fn default() -> Self {
        HandlerCostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fig4_shape_holds() {
        // Reproduce the Fig. 4 claim: all samples < 6 µs, ~90 % in
        // [1.0, 1.5] µs.
        let params = HandlerCostParams::paper_default();
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 100_000;
        let mut in_band = 0u32;
        for _ in 0..n {
            let w = params.sample(&mut rng);
            assert!(w <= Ps::from_ns(6_000), "handler cost {w} above 6us cap");
            assert!(w >= Ps::from_ns(300), "handler cost {w} implausibly small");
            if (Ps::from_ns(1_000)..=Ps::from_ns(1_500)).contains(&w) {
                in_band += 1;
            }
        }
        let frac = f64::from(in_band) / f64::from(n);
        assert!((0.88..0.94).contains(&frac), "in-band fraction {frac}");
    }

    #[test]
    fn per_kind_costs_are_ordered() {
        let model = HandlerCostModel::paper_default();
        let mut rng = SmallRng::seed_from_u64(5);
        let mean = |kind: InterruptKind, rng: &mut SmallRng| -> f64 {
            (0..20_000)
                .map(|_| model.sample(kind, rng).as_ns())
                .sum::<f64>()
                / 20_000.0
        };
        let resched = mean(InterruptKind::Resched, &mut rng);
        let timer = mean(InterruptKind::Timer, &mut rng);
        let device = mean(InterruptKind::Network, &mut rng);
        assert!(resched < timer, "resched {resched} >= timer {timer}");
        assert!(timer < device, "timer {timer} >= device {device}");
    }

    #[test]
    fn with_params_overrides_one_kind() {
        let model = HandlerCostModel::paper_default()
            .with_params(InterruptKind::Timer, HandlerCostParams::light());
        assert_eq!(
            *model.params(InterruptKind::Timer),
            HandlerCostParams::light()
        );
        assert_eq!(
            *model.params(InterruptKind::Other),
            HandlerCostParams::paper_default()
        );
    }

    #[test]
    fn sampling_is_deterministic() {
        let model = HandlerCostModel::paper_default();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for kind in InterruptKind::ALL {
            assert_eq!(model.sample(kind, &mut a), model.sample(kind, &mut b));
        }
    }
}
