//! Fig. 8 — the distribution of SegCnt when the CIRCL challenge
//! ciphertext triggers an anomalous zero (`m_i != m_{i-1}`) or not.
//!
//! Paper shape: the anomalous-zero class runs at a higher frequency
//! (less power drawn), so its SegCnt distribution sits clearly above the
//! other class — the separation that drives the key extraction.

use scenario::Scenario;
use segscope_attacks::circl::{CirclConfig, CirclScenario};

fn main() {
    segscope_bench::header("Fig. 8: CIRCL SegCnt distributions + key extraction");
    let config = if segscope_bench::full_scale() {
        CirclConfig::paper()
    } else {
        CirclConfig::quick()
    };
    println!(
        "key: {} bits; {} SegCnt samples per challenge\n",
        config.key_bits, config.samples_per_challenge
    );
    let result = CirclScenario.run_one(&config, config.seed);

    let hi: Vec<f64> = result
        .observations
        .iter()
        .filter(|o| o.anomalous)
        .map(|o| o.mean_segcnt)
        .collect();
    let lo: Vec<f64> = result
        .observations
        .iter()
        .filter(|o| !o.anomalous)
        .map(|o| o.mean_segcnt)
        .collect();
    segscope_bench::summary("anomalous zero   (m_i != m_{i-1})", &hi);
    segscope_bench::summary("no anomalous zero (m_i = m_{i-1})", &lo);

    println!("\nanomalous-zero class histogram:");
    segscope_bench::ascii_histogram(&hi, 10, 50);
    println!("\nno-anomalous-zero class histogram:");
    segscope_bench::ascii_histogram(&lo, 10, 50);

    println!(
        "\nper-bit distinguishing accuracy: {}   key recovered: {}",
        segscope_bench::pct(result.bit_accuracy),
        result.recovered
    );
    assert!(
        segscope::mean(&hi) > segscope::mean(&lo),
        "anomalous-zero challenges must run at higher SegCnt"
    );
    assert!(
        result.bit_accuracy > 0.9,
        "bit accuracy {}",
        result.bit_accuracy
    );
    assert!(result.recovered, "the key should be recovered end to end");
    println!("\nshape check PASSED: classes separated; key extracted (search space 2).");
}
