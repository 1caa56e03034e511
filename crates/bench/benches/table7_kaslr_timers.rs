//! Table VII — breaking KASLR by direct access with different timers.
//!
//! Paper shape: the SegScope timer fails at C = 1 without denoising but
//! reaches ~100 % top-1 with Z-score (and frequency) denoising at
//! C = 10; the counting thread fails; rdtsc and a 1 µs clock succeed
//! easily (but are unavailable in the threat model); a 1 ms clock
//! cannot do it at all.

use irq::time::Ps;
use scenario::{run_scenario, RunOptions};
use segscope::Denoise;
use segscope_attacks::kaslr::{
    hit_rates, KaslrConfig, KaslrScenario, KaslrScenarioConfig, ProbeMethod, TimerKind,
};
use segsim::MachineConfig;

fn run_cell(timer: TimerKind, c: usize, trials: usize, seed0: u64) -> Option<(f64, f64, f64)> {
    let attack = KaslrConfig {
        method: ProbeMethod::Access,
        timer,
        c,
        k: 64,
        ..KaslrConfig::paper_default()
    };
    let machine = MachineConfig::lenovo_yangtian();
    let config = KaslrScenarioConfig { machine, attack };
    // Parallel fan-out over independent trials (SEGSCOPE_THREADS workers).
    let opts = RunOptions {
        seed: Some(seed0),
        trials: Some(trials),
        ..RunOptions::default()
    };
    let results = run_scenario(&KaslrScenario, &config, &opts).outputs;
    if results.iter().any(Result::is_err) {
        return None;
    }
    let (top1, top5) = hit_rates(&results, 5);
    let secs: f64 = results.iter().flatten().map(|r| r.elapsed_s).sum();
    Some((secs / trials as f64, top1, top5))
}

fn main() {
    segscope_bench::header("Table VII: KASLR break by direct access, timer ablation");
    let trials = if segscope_bench::full_scale() { 12 } else { 4 };
    println!("trials per cell: {trials} (paper: 1000); 512 candidate slots\n");
    let widths = [40, 4, 10, 10, 10];
    segscope_bench::print_row(
        &[
            "timer".into(),
            "C".into(),
            "time(s)".into(),
            "top-1".into(),
            "top-5".into(),
        ],
        &widths,
    );
    let rows: Vec<(TimerKind, Vec<usize>)> = vec![
        (TimerKind::SegScope(Denoise::None), vec![1, 10]),
        (TimerKind::SegScope(Denoise::ZScore), vec![1, 10]),
        (TimerKind::SegScope(Denoise::Freq), vec![1, 10]),
        (TimerKind::SegScope(Denoise::ZScoreAndFreq), vec![1, 10]),
        (TimerKind::CountingThread, vec![1]),
        (TimerKind::HighRes, vec![1, 10]),
        (TimerKind::Coarse(Ps::from_us(1)), vec![1, 10]),
        (TimerKind::Coarse(Ps::from_ms(1)), vec![1, 10]),
    ];
    let mut zscore_c10_top1 = 0.0;
    let mut ms_top1: f64 = 1.0;
    for (i, (timer, cs)) in rows.into_iter().enumerate() {
        for c in cs {
            match run_cell(timer, c, trials, (0xF16D_0000 + (i as u64)) << 8) {
                Some((secs, top1, top5)) => {
                    segscope_bench::print_row(
                        &[
                            timer.label(),
                            c.to_string(),
                            format!("{secs:.2}"),
                            segscope_bench::pct(top1),
                            segscope_bench::pct(top5),
                        ],
                        &widths,
                    );
                    if matches!(timer, TimerKind::SegScope(Denoise::ZScore)) && c == 10 {
                        zscore_c10_top1 = top1;
                    }
                    if matches!(timer, TimerKind::Coarse(res) if res == Ps::from_ms(1)) {
                        ms_top1 = ms_top1.min(top1);
                    }
                }
                None => {
                    segscope_bench::print_row(
                        &[
                            timer.label(),
                            c.to_string(),
                            "-".into(),
                            "n/a".into(),
                            "n/a".into(),
                        ],
                        &widths,
                    );
                }
            }
        }
    }
    println!(
        "\npaper Table VII: Z-score C=10 -> 99.6%/99.8% in 20.3 s; Z-score+freq C=10 -> 100%;\n\
         counting thread -> 0.3%/1.3%; rdtsc C=1 -> 96.9%; 1 ms timer -> 0%."
    );
    assert!(
        zscore_c10_top1 >= 0.75,
        "Z-score C=10 should nearly always recover the base: {zscore_c10_top1}"
    );
    assert!(
        ms_top1 <= 0.5,
        "a 1 ms clock must not reliably break KASLR: {ms_top1}"
    );
    println!("\nshape check PASSED.");
}
