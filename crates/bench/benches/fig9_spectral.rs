//! Fig. 9 (and Table VI) — error rate of the Spectral attack vs `umwait`
//! timeout, with and without SegScope filtering.
//!
//! Paper shape: the original Spectral's error rate grows with the
//! timeout (more interrupts alias to cache-line writes), approaching 1 %
//! even on an idle system; SegScope filtering removes the interrupt
//! errors almost entirely (56× reduction at the default timeout).

use scenario::Scenario;
use segscope_attacks::spectral::{self, SpectralConfig, SpectralMode, SpectralScenario};
use specsim::{ArchState, WakeCause};

fn main() {
    segscope_bench::header("Table VI: architectural states per wake cause");
    let widths = [18, 12, 22];
    segscope_bench::print_row(
        &[
            "wake cause".into(),
            "EFLAGS.CF".into(),
            "selector preserved".into(),
        ],
        &widths,
    );
    for (cause, label) in [
        (WakeCause::Timeout, "timeout"),
        (WakeCause::CachelineWrite, "cacheline write"),
        (WakeCause::Interrupt, "interrupt"),
    ] {
        let s = ArchState::of(cause);
        segscope_bench::print_row(
            &[
                label.into(),
                u8::from(s.carry_flag).to_string(),
                u8::from(s.selector_preserved).to_string(),
            ],
            &widths,
        );
    }

    segscope_bench::header("Fig. 9: Spectral error rate vs umwait timeout");
    let run_attack = |attack, mode, bits, seed| {
        let config = spectral::SpectralScenarioConfig { attack, mode, bits };
        SpectralScenario.run_one(&config, seed)
    };
    let bits = if segscope_bench::full_scale() {
        60_000
    } else {
        15_000
    };
    println!("bits per point: {bits}\n");
    let widths = [10, 14, 14, 12];
    segscope_bench::print_row(
        &[
            "timeout".into(),
            "original".into(),
            "enhanced".into(),
            "discarded".into(),
        ],
        &widths,
    );
    let mut default_pair = (0.0, 0.0);
    for timeout in [20_000u64, 60_000, 100_000, 140_000, 200_000] {
        let cfg = SpectralConfig::paper_default().with_timeout(timeout);
        let orig = run_attack(cfg, SpectralMode::Original, bits, 0xF169);
        let enh = run_attack(cfg, SpectralMode::Enhanced, bits, 0xF169);
        segscope_bench::print_row(
            &[
                timeout.to_string(),
                format!("{:.4}%", orig.error_rate * 100.0),
                format!("{:.4}%", enh.error_rate * 100.0),
                enh.discarded.to_string(),
            ],
            &widths,
        );
        if timeout == 100_000 {
            default_pair = (orig.error_rate, enh.error_rate);
        }
    }
    let orig100 = run_attack(
        SpectralConfig::paper_default(),
        SpectralMode::Original,
        bits,
        0xF16A,
    );
    println!(
        "\nleakage rate at default timeout: {:.0} bit/s (paper: ~53,000 bit/s)",
        orig100.leak_rate_bps
    );
    println!(
        "error-rate reduction at 100k cycles: {}x (paper: 56x, 0.56% -> 0.01%)",
        if default_pair.1 > 0.0 {
            format!("{:.0}", default_pair.0 / default_pair.1)
        } else {
            format!(">{:.0}", default_pair.0 * bits as f64)
        }
    );
    assert!(
        default_pair.1 < default_pair.0 / 4.0,
        "enhanced must reduce errors by well over 4x: {default_pair:?}"
    );
    println!("\nshape check PASSED: original error grows with timeout; enhanced stays near zero.");
}
