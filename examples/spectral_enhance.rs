//! Enhance the Spectral attack with SegScope (paper Section IV-D,
//! Fig. 9): the selector footprint distinguishes interrupt wake-ups from
//! genuine cache-line writes, removing the interrupt-induced bit errors.
//!
//! ```sh
//! cargo run --release --example spectral_enhance
//! ```

use segscope_repro::attacks::spectral::{self, SpectralConfig, SpectralMode, SpectralScenario};
use segscope_repro::scenario::Scenario;

fn main() {
    println!("== SegScope-enhanced Spectral ==");
    let run_attack = |attack, mode, bits, seed| {
        let config = spectral::SpectralScenarioConfig { attack, mode, bits };
        SpectralScenario.run_one(&config, seed)
    };
    let bits = 20_000;
    let config = SpectralConfig::paper_default();
    println!(
        "leaking {bits} bits, umwait timeout {} cycles\n",
        config.timeout_cycles
    );

    let original = run_attack(config, SpectralMode::Original, bits, 0x57EC);
    let enhanced = run_attack(config, SpectralMode::Enhanced, bits, 0x57EC);

    println!(
        "original Spectral: {:>8.0} bit/s, error rate {:.4}% ({} errors)",
        original.leak_rate_bps,
        original.error_rate * 100.0,
        original.errors
    );
    println!(
        "enhanced Spectral: {:>8.0} bit/s, error rate {:.4}% ({} errors, {} interrupted measurements discarded)",
        enhanced.leak_rate_bps,
        enhanced.error_rate * 100.0,
        enhanced.errors,
        enhanced.discarded
    );
    if enhanced.error_rate > 0.0 {
        println!(
            "\nerror-rate reduction: {:.0}x",
            original.error_rate / enhanced.error_rate
        );
    } else {
        println!("\nerror-rate reduction: (enhanced run was error-free)");
    }

    println!("\nerror rate vs umwait timeout (paper Fig. 9):");
    println!("{:>10} {:>12} {:>12}", "timeout", "original", "enhanced");
    for timeout in [20_000u64, 60_000, 100_000, 140_000, 200_000] {
        let cfg = SpectralConfig::paper_default().with_timeout(timeout);
        let orig = run_attack(cfg, SpectralMode::Original, 6_000, 0x57ED);
        let enh = run_attack(cfg, SpectralMode::Enhanced, 6_000, 0x57ED);
        println!(
            "{:>10} {:>11.4}% {:>11.4}%",
            timeout,
            orig.error_rate * 100.0,
            enh.error_rate * 100.0
        );
    }
}
