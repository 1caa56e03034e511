//! Leak a secret string with Spectre-V1 + Flush+Reload, timed entirely by
//! the SegScope timer (paper Section IV-F, Fig. 12).
//!
//! ```sh
//! cargo run --release --example spectre_leak
//! ```

use segscope_repro::attacks::spectre::{SpectreConfig, SpectreScenario, SpectreScenarioConfig};
use segscope_repro::scenario::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Spectre-V1 + Flush+Reload via the SegScope timer ==");
    let config = SpectreScenarioConfig {
        attack: SpectreConfig::quick(),
        secret: "SEGSCOPE SECRET".to_owned(),
    };
    println!(
        "leaking {} bytes with {} gadget replicas, {} candidates...",
        config.secret.len(),
        config.attack.gadgets,
        config.attack.candidates
    );
    let result = SpectreScenario.run_one(&config, 0x1EA4)?;
    let recovered: String = result
        .bytes
        .iter()
        .map(|b| {
            let c = b.guessed as char;
            if c.is_ascii_graphic() || c == ' ' {
                c
            } else {
                '?'
            }
        })
        .collect();
    println!("recovered: \"{recovered}\"");
    println!(
        "success rate: {:.1}%  throughput: {:.2} B per simulated second",
        result.success_rate * 100.0,
        result.rate_bps
    );

    // Fig. 12 style bar data for the first byte.
    let leak = &result.bytes[0];
    println!(
        "\nFig. 12 (first byte '{}'): top-5 candidates by tail SegCnt",
        leak.actual as char
    );
    let series = leak.fig12_series(1.0e7);
    let mut indexed: Vec<(usize, f64)> = series.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (v, tail) in indexed.into_iter().take(5) {
        let c = v as u8 as char;
        println!(
            "  {:>4} ({}) : {:>12.0}",
            v,
            if c.is_ascii_graphic() { c } else { '.' },
            tail
        );
    }
    Ok(())
}
