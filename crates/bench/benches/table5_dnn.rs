//! Table V — DNN layer-sequence recovery: per-class Segment Accuracy
//! (SA) and Levenshtein Distance Accuracy (LDA).
//!
//! Paper shape: overall SA ~97.7 % with compute-intensive layers (Conv)
//! far easier than short/light layers (ReLU, AvgPool, Linear), and LDA
//! around 87 % across classes. (Scale substitution: 2000 train / 500
//! test architectures reduced to dozens; the quick run's BiLSTM is
//! smaller, so absolute SA is lower while the class ordering holds.)

use scenario::{run_scenario, RunOptions};
use segscope_attacks::dnnsteal::{DnnStealConfig, DnnStealScenario, LayerType};

fn main() {
    segscope_bench::header("Table V: DNN layer classification (SA per class, LDA)");
    let config = if segscope_bench::full_scale() {
        DnnStealConfig::bench()
    } else {
        DnnStealConfig::quick()
    };
    println!(
        "train models: {}, test models: {}, BiLSTM hidden: {}\n",
        config.train_models, config.test_models, config.hidden
    );
    let result = run_scenario(&DnnStealScenario, &config, &RunOptions::default()).summary;

    let widths = [10, 12, 14];
    segscope_bench::print_row(&["layer".into(), "SA".into(), "paper SA".into()], &widths);
    let paper_sa = [98.2, 77.8, 58.6, 85.2, 50.4, 52.8];
    for (layer, paper) in LayerType::ALL.iter().zip(paper_sa) {
        let sa = result.per_class_sa[layer.class()];
        segscope_bench::print_row(
            &[
                layer.label().to_owned(),
                sa.map_or("n/a".to_owned(), segscope_bench::pct),
                format!("{paper:.1}%"),
            ],
            &widths,
        );
    }
    println!(
        "\noverall SA: {} (paper 97.7%)   LDA: {} (paper 87.2%)",
        segscope_bench::pct(result.overall_sa),
        segscope_bench::pct(result.lda)
    );

    // Shape checks: Conv (heavy, long, many samples) beats the light
    // short layers; overall far above the 1/6 chance level.
    let conv = result.per_class_sa[LayerType::Conv.class()].unwrap_or(0.0);
    let relu = result.per_class_sa[LayerType::ReLu.class()].unwrap_or(0.0);
    assert!(result.overall_sa > 0.5, "overall SA {}", result.overall_sa);
    assert!(
        conv > relu,
        "compute-intensive layers must classify better: conv {conv} vs relu {relu}"
    );
    println!("\nshape check PASSED: Conv >> ReLU, overall far above 16.7% chance.");
}
