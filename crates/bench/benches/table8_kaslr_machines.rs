//! Table VIII — breaking KASLR via prefetch probing on the Table I
//! machines, at C = 1 and C = 5.
//!
//! Paper shape: C = 1 gives good-but-imperfect top-1 with near-perfect
//! top-5 in ~2 s; C = 5 reaches 100 % / 100 % in ~10 s on every machine.

use scenario::{run_scenario, RunOptions};
use segscope_attacks::kaslr::{hit_rates, KaslrConfig, KaslrScenario, KaslrScenarioConfig};
use segsim::MachineConfig;

fn main() {
    segscope_bench::header("Table VIII: KASLR break via prefetch across machines");
    let trials = if segscope_bench::full_scale() { 10 } else { 3 };
    println!("trials per cell: {trials} (paper: 1000)\n");
    let widths = [40, 4, 10, 10, 10];
    segscope_bench::print_row(
        &[
            "machine".into(),
            "C".into(),
            "time(s)".into(),
            "top-1".into(),
            "top-5".into(),
        ],
        &widths,
    );
    let machines = [
        MachineConfig::xiaomi_air13(),
        MachineConfig::lenovo_yangtian(),
        MachineConfig::amazon_t2_large(),
        MachineConfig::amazon_c5_large(),
    ];
    let mut c5_top1_sum = 0.0;
    let mut cells = 0usize;
    for (i, machine_cfg) in machines.into_iter().enumerate() {
        for c in [1usize, 5] {
            let attack = KaslrConfig {
                c,
                ..KaslrConfig::paper_default()
            };
            let machine = machine_cfg.clone();
            let config = KaslrScenarioConfig { machine, attack };
            // Parallel fan-out over independent trials.
            let opts = RunOptions {
                seed: Some(0xF16E_0000 + ((i as u64) << 8)),
                trials: Some(trials),
                ..RunOptions::default()
            };
            let results = run_scenario(&KaslrScenario, &config, &opts).outputs;
            let (top1, top5) = hit_rates(&results, 5);
            let secs: f64 = results
                .iter()
                .map(|r| {
                    r.as_ref()
                        .expect("SegScope timer always available")
                        .elapsed_s
                })
                .sum();
            segscope_bench::print_row(
                &[
                    machine_cfg.name.clone(),
                    c.to_string(),
                    format!("{:.2}", secs / trials as f64),
                    segscope_bench::pct(top1),
                    segscope_bench::pct(top5),
                ],
                &widths,
            );
            if c == 5 {
                c5_top1_sum += top1;
                cells += 1;
            }
        }
    }
    println!(
        "\npaper Table VIII: C=1 -> 63.7-96.1% top-1 in ~2.1 s; C=5 -> 100%/100% in ~10.2 s\n\
         on all four machines."
    );
    let c5_avg = c5_top1_sum / cells as f64;
    assert!(
        c5_avg >= 0.75,
        "C=5 should reliably recover the base: avg {c5_avg}"
    );
    println!("\nshape check PASSED: C=5 de-randomizes KASLR in ~10-20 simulated seconds.");
}
