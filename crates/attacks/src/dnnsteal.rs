//! Case study 3: stealing DNN model architectures (paper Section IV-C,
//! Table V).
//!
//! The victim runs model inference; each layer type has a characteristic
//! compute intensity and duration, which shows up in the shared frequency
//! domain and hence in the attacker's SegCnt trace (sampled once per
//! timer interrupt, i.e. at HZ). An offline-trained BiLSTM tags each
//! SegCnt sample with a layer type; collapsing runs of equal tags yields
//! the layer sequence, scored with Segment Accuracy (SA) and Levenshtein
//! Distance Accuracy (LDA).

use irq::time::Ps;
use nnet::{AdamConfig, SeqTagger, TaggedExample};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scenario::{Scenario, TrialCtx};
use segscope::SegProbe;
use segsim::{FaultPlan, Machine, MachineConfig, StepFn};
use serde::{Deserialize, Serialize};

/// The layer types distinguished in paper Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LayerType {
    /// Convolution.
    Conv,
    /// Batch normalization.
    BatchNorm,
    /// ReLU activation.
    ReLu,
    /// Max pooling.
    MaxPool,
    /// Average pooling.
    AvgPool,
    /// Fully-connected layer.
    Linear,
}

impl LayerType {
    /// All six classes in Table V column order.
    pub const ALL: [LayerType; 6] = [
        LayerType::Conv,
        LayerType::BatchNorm,
        LayerType::ReLu,
        LayerType::MaxPool,
        LayerType::AvgPool,
        LayerType::Linear,
    ];

    /// Class index for the tagger.
    #[must_use]
    pub fn class(self) -> usize {
        match self {
            LayerType::Conv => 0,
            LayerType::BatchNorm => 1,
            LayerType::ReLu => 2,
            LayerType::MaxPool => 3,
            LayerType::AvgPool => 4,
            LayerType::Linear => 5,
        }
    }

    /// The Table V column label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LayerType::Conv => "Conv",
            LayerType::BatchNorm => "BN",
            LayerType::ReLu => "ReLu",
            LayerType::MaxPool => "MP",
            LayerType::AvgPool => "AP",
            LayerType::Linear => "Linear",
        }
    }

    /// Characteristic power excess of executing this layer (the
    /// Hertzbleed-style coupling into the frequency domain).
    fn power(self) -> f64 {
        match self {
            LayerType::Conv => 0.85,
            LayerType::BatchNorm => 0.38,
            LayerType::ReLu => 0.12,
            LayerType::MaxPool => 0.30,
            LayerType::AvgPool => 0.22,
            LayerType::Linear => 0.55,
        }
    }

    /// Typical duration range of one layer's execution, ms (batch-size
    /// and channel-count dependent in reality).
    fn duration_ms(self) -> (u64, u64) {
        match self {
            LayerType::Conv => (30, 90),
            LayerType::BatchNorm => (8, 20),
            LayerType::ReLu => (4, 10),
            LayerType::MaxPool => (8, 18),
            LayerType::AvgPool => (5, 12),
            LayerType::Linear => (12, 36),
        }
    }
}

/// A victim model architecture: an ordered sequence of layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    /// The layer sequence.
    pub layers: Vec<LayerType>,
}

impl Architecture {
    /// An AlexNet-style architecture: conv blocks with pools, linear
    /// head.
    #[must_use]
    pub fn alexnet_like<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut layers = Vec::new();
        let blocks = rng.gen_range(3..6);
        for _ in 0..blocks {
            layers.push(LayerType::Conv);
            layers.push(LayerType::ReLu);
            if rng.gen_bool(0.6) {
                layers.push(LayerType::MaxPool);
            }
        }
        layers.push(LayerType::AvgPool);
        for _ in 0..rng.gen_range(1..4) {
            layers.push(LayerType::Linear);
            layers.push(LayerType::ReLu);
        }
        Architecture { layers }
    }

    /// A VGG-style architecture: conv+BN blocks, deeper, pools between.
    #[must_use]
    pub fn vgg_like<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut layers = Vec::new();
        let stages = rng.gen_range(3..6);
        for _ in 0..stages {
            for _ in 0..rng.gen_range(1..3) {
                layers.push(LayerType::Conv);
                layers.push(LayerType::BatchNorm);
                layers.push(LayerType::ReLu);
            }
            layers.push(LayerType::MaxPool);
        }
        layers.push(LayerType::AvgPool);
        layers.push(LayerType::Linear);
        Architecture { layers }
    }

    /// A random architecture (the paper's third family).
    #[must_use]
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let n = rng.gen_range(6..18);
        let layers = (0..n)
            .map(|_| LayerType::ALL[rng.gen_range(0..LayerType::ALL.len())])
            .collect();
        Architecture { layers }
    }

    /// Draws from one of the three families uniformly.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        match rng.gen_range(0..3) {
            0 => Architecture::alexnet_like(rng),
            1 => Architecture::vgg_like(rng),
            _ => Architecture::random(rng),
        }
    }

    /// Generates the inference schedule starting at `t0`: per-layer
    /// `(start, end, layer)` windows and the power curve.
    pub fn inference_schedule<R: Rng + ?Sized>(
        &self,
        t0: Ps,
        rng: &mut R,
    ) -> (Vec<(Ps, Ps, LayerType)>, StepFn) {
        let mut windows = Vec::with_capacity(self.layers.len());
        let mut power = StepFn::zero();
        let mut t = t0;
        for &layer in &self.layers {
            let (lo, hi) = layer.duration_ms();
            let dur = Ps::from_us(rng.gen_range(lo * 1000..hi * 1000));
            power.push(t, layer.power() + rng.gen_range(-0.04..0.04));
            windows.push((t, t + dur, layer));
            t += dur;
        }
        power.push(t, 0.0);
        (windows, power)
    }
}

/// Configuration of the architecture-stealing experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DnnStealConfig {
    /// Training architectures (paper: 2000).
    pub train_models: usize,
    /// Test architectures (paper: 500).
    pub test_models: usize,
    /// BiLSTM hidden units.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional interrupt-path fault plan installed on every victim
    /// machine traces are collected from (`None` = nominal run).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for DnnStealConfig {
    fn default() -> Self {
        DnnStealConfig::quick()
    }
}

impl DnnStealConfig {
    /// Test-scale configuration.
    #[must_use]
    pub fn quick() -> Self {
        DnnStealConfig {
            train_models: 24,
            test_models: 8,
            hidden: 12,
            epochs: 10,
            seed: 0xD2212,
            fault_plan: None,
        }
    }

    /// Bench-scale configuration.
    #[must_use]
    pub fn bench() -> Self {
        DnnStealConfig {
            train_models: 60,
            test_models: 20,
            hidden: 16,
            epochs: 16,
            seed: 0xD2212,
            fault_plan: None,
        }
    }

    /// Installs a fault plan on every trace-collection machine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Table V row: per-class SA, overall SA, and mean LDA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnStealResult {
    /// Per-class segment accuracy in [`LayerType::ALL`] order (`None` for
    /// classes absent from the test set).
    pub per_class_sa: Vec<Option<f64>>,
    /// Overall segment accuracy.
    pub overall_sa: f64,
    /// Mean Levenshtein distance accuracy of collapsed layer sequences.
    pub lda: f64,
}

/// Collects one layer-annotated SegCnt trace of an inference run of
/// `arch` on an already-built victim machine (a [`DnnStealScenario`]
/// trial's, or [`Scenario::build_machine`]'s for a hand-picked
/// architecture). `trace_seed` only derives the inference-schedule RNG;
/// the machine's own stream was fixed at construction.
///
/// Returns `None` when the run produced no usable samples (never happens
/// at HZ = 250 with realistic layer durations).
#[must_use]
pub fn collect_annotated_on(
    machine: &mut Machine,
    arch: &Architecture,
    trace_seed: u64,
) -> Option<TaggedExample> {
    machine.spin(100_000_000); // warm-up
    let t0 = machine.now();
    let mut sched_rng = SmallRng::seed_from_u64(exec::derive_seed(trace_seed, exec::AUX_STREAM));
    let (windows, power) = arch.inference_schedule(t0, &mut sched_rng);
    machine.set_power_excess(power);
    let end = windows.last().map(|&(_, e, _)| e)?;
    let mut probe = SegProbe::new();
    let mut raw: Vec<(f64, usize)> = Vec::new();
    while machine.now() < end {
        let sample = probe.probe_once(machine).ok()?;
        // torch.autograd.profiler analogue: the simulator knows which
        // layer was executing when the interval ended.
        let at = sample.ended_at;
        if let Some(&(_, _, layer)) = windows.iter().find(|&&(s, e, _)| at >= s && at < e) {
            raw.push((sample.segcnt as f64, layer.class()));
        }
    }
    if raw.len() < 8 {
        return None;
    }
    let series: Vec<f64> = raw.iter().map(|&(x, _)| x).collect();
    let std = nnet::standardize(&series);
    Some(TaggedExample {
        xs: nnet::to_features(&std),
        tags: raw.iter().map(|&(_, t)| t).collect(),
    })
}

/// [`Scenario`] face of the architecture-stealing experiment. One task
/// per victim model: training models occupy task indices
/// `0..train_models`, test models continue from there. Each task's seed
/// drives both the architecture draw and the inference trace, so the
/// dataset is bit-identical at any worker count. [`Scenario::summarize`]
/// trains the BiLSTM tagger on the training traces and evaluates SA/LDA
/// on the test traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct DnnStealScenario;

impl Scenario for DnnStealScenario {
    type Config = DnnStealConfig;
    type TrialOutput = Option<TaggedExample>;
    type Summary = DnnStealResult;

    fn name(&self) -> &'static str {
        "dnnsteal"
    }

    fn describe(&self) -> &'static str {
        "DNN architecture stealing: tag SegCnt inference traces with a \
         BiLSTM layer classifier (paper Section IV-C, Table V)"
    }

    fn experiment_seed(&self, config: &DnnStealConfig, requested: Option<u64>) -> u64 {
        requested.unwrap_or(config.seed)
    }

    fn trial_count(&self, config: &DnnStealConfig, _requested: Option<usize>) -> usize {
        // The train/test split is structural: the trial count follows the
        // config, not the CLI `--trials` knob.
        config.train_models + config.test_models
    }

    fn machine(&self, _config: &DnnStealConfig, ctx: &TrialCtx) -> (MachineConfig, u64) {
        (
            MachineConfig::lenovo_yangtian(),
            exec::derive_seed(ctx.seed, exec::AUX_STREAM),
        )
    }

    fn wire(&self, config: &DnnStealConfig, machine: &mut Machine, _ctx: &TrialCtx) {
        machine.set_fault_plan(config.fault_plan);
    }

    fn run_trial(
        &self,
        _config: &DnnStealConfig,
        machine: &mut Machine,
        ctx: &TrialCtx,
    ) -> Option<TaggedExample> {
        let mut arch_rng = SmallRng::seed_from_u64(ctx.seed);
        let arch = Architecture::sample(&mut arch_rng);
        collect_annotated_on(
            machine,
            &arch,
            exec::derive_seed(ctx.seed, exec::AUX_STREAM),
        )
    }

    fn summarize(
        &self,
        config: &DnnStealConfig,
        outputs: &[Option<TaggedExample>],
    ) -> DnnStealResult {
        let split = config.train_models.min(outputs.len());
        let (train_raw, test_raw) = outputs.split_at(split);
        let train: Vec<TaggedExample> = train_raw.iter().flatten().cloned().collect();
        let test: Vec<TaggedExample> = test_raw.iter().flatten().cloned().collect();
        let mut rng = SmallRng::seed_from_u64(exec::derive_seed(config.seed, exec::AUX_STREAM));
        let mut model = SeqTagger::new(
            1,
            config.hidden,
            LayerType::ALL.len(),
            &mut rng,
            AdamConfig {
                lr: 0.02,
                ..AdamConfig::default()
            },
        );
        for _ in 0..config.epochs {
            model.train_epoch(&train, 8);
        }
        // Evaluate.
        let mut all_pred = Vec::new();
        let mut all_truth = Vec::new();
        let mut ldas = Vec::new();
        for ex in &test {
            let pred = model.predict(&ex.xs);
            ldas.push(nnet::levenshtein_accuracy(
                &nnet::collapse_runs(&pred),
                &nnet::collapse_runs(&ex.tags),
            ));
            all_pred.extend_from_slice(&pred);
            all_truth.extend_from_slice(&ex.tags);
        }
        DnnStealResult {
            per_class_sa: nnet::per_class_segment_accuracy(
                &all_pred,
                &all_truth,
                LayerType::ALL.len(),
            ),
            overall_sa: nnet::segment_accuracy(&all_pred, &all_truth),
            lda: segscope::mean(&ldas),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_have_expected_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let alex = Architecture::alexnet_like(&mut rng);
        assert!(alex.layers.contains(&LayerType::Conv));
        assert!(alex.layers.contains(&LayerType::Linear));
        let vgg = Architecture::vgg_like(&mut rng);
        assert!(vgg.layers.contains(&LayerType::BatchNorm));
        let rand_arch = Architecture::random(&mut rng);
        assert!(rand_arch.layers.len() >= 6);
    }

    #[test]
    fn schedule_is_contiguous_and_ordered() {
        let mut rng = SmallRng::seed_from_u64(2);
        let arch = Architecture::vgg_like(&mut rng);
        let (windows, _) = arch.inference_schedule(Ps::from_ms(1), &mut rng);
        assert_eq!(windows.len(), arch.layers.len());
        for pair in windows.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "layers execute back-to-back");
        }
        for &(s, e, _) in &windows {
            assert!(e > s);
        }
    }

    #[test]
    fn conv_layers_depress_segcnt() {
        // Heavy layers draw more power -> lower frequency -> lower SegCnt.
        // Use long same-type stretches so the governor (first-order lag,
        // ~1 ms updates) settles within each phase — isolated ReLU layers
        // are too short for a clean per-layer comparison, which is exactly
        // why their SA is low in paper Table V.
        let arch = Architecture {
            layers: vec![
                LayerType::Conv,
                LayerType::Conv,
                LayerType::Conv,
                LayerType::ReLu,
                LayerType::ReLu,
                LayerType::ReLu,
                LayerType::ReLu,
                LayerType::ReLu,
                LayerType::ReLu,
                LayerType::ReLu,
                LayerType::ReLu,
                LayerType::Conv,
                LayerType::Conv,
                LayerType::Conv,
            ],
        };
        let ctx = TrialCtx {
            index: 0,
            seed: 33,
            experiment_seed: 33,
        };
        let mut machine = DnnStealScenario.build_machine(&DnnStealConfig::quick(), &ctx);
        let ex = collect_annotated_on(&mut machine, &arch, 33).expect("trace collected");
        let mut conv = Vec::new();
        let mut relu = Vec::new();
        for (x, &t) in ex.xs.iter().zip(&ex.tags) {
            if t == LayerType::Conv.class() {
                conv.push(f64::from(x[0]));
            } else if t == LayerType::ReLu.class() {
                relu.push(f64::from(x[0]));
            }
        }
        assert!(
            conv.len() > 3 && relu.len() > 3,
            "conv {} relu {}",
            conv.len(),
            relu.len()
        );
        assert!(
            segscope::mean(&conv) < segscope::mean(&relu),
            "conv SegCnt {} !< relu {}",
            segscope::mean(&conv),
            segscope::mean(&relu)
        );
    }

    #[test]
    fn quick_experiment_beats_chance() {
        let opts = scenario::RunOptions::default();
        let result = scenario::run_scenario(&DnnStealScenario, &DnnStealConfig::quick(), &opts);
        let result = result.summary;
        // 6 classes: chance SA ~ largest class share; demand well above.
        assert!(result.overall_sa > 0.5, "overall SA {}", result.overall_sa);
        assert!(result.lda > 0.4, "LDA {}", result.lda);
        // Conv dominates sample counts and is learned best.
        let conv_sa = result.per_class_sa[LayerType::Conv.class()].unwrap_or(0.0);
        assert!(conv_sa > 0.6, "conv SA {conv_sa}");
    }

    #[test]
    fn labels_cover_all_classes() {
        let mut labels: Vec<_> = LayerType::ALL.iter().map(|l| l.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
        for (i, l) in LayerType::ALL.iter().enumerate() {
            assert_eq!(l.class(), i);
        }
    }
}
