//! Break KASLR with the SegScope-based timer (paper Section IV-E): scan
//! candidate kernel base slots via prefetch probing, rank slow→fast
//! transitions, and recover the randomized base.
//!
//! ```sh
//! cargo run --release --example kaslr_break
//! ```

use segscope_repro::attacks::kaslr::{
    KaslrConfig, KaslrScenario, KaslrScenarioConfig, ProbeMethod, TimerKind,
};
use segscope_repro::scenario::Scenario;
use segscope_repro::segscope::Denoise;
use segscope_repro::segsim::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Breaking KASLR with the SegScope timer ==");
    let machine_cfg = MachineConfig::xiaomi_air13().with_cr4_tsd(true);
    println!(
        "machine: {} (CR4.TSD set: rdtsc/rdpru are UNAVAILABLE)",
        machine_cfg.name
    );

    for (label, attack) in [
        (
            "prefetch method, C=1",
            KaslrConfig {
                c: 1,
                ..KaslrConfig::paper_default()
            },
        ),
        ("prefetch method, C=5", KaslrConfig::paper_default()),
        (
            "access method, C=5",
            KaslrConfig {
                method: ProbeMethod::Access,
                ..KaslrConfig::paper_default()
            },
        ),
    ] {
        let machine = machine_cfg.clone();
        let result = KaslrScenario.run_one(&KaslrScenarioConfig { machine, attack }, 0xA51A)?;
        println!(
            "\n{label}: scanned {} slots in {:.2} simulated seconds",
            attack.slots, result.elapsed_s
        );
        println!(
            "secret slot {} -> predicted {} ({}), top-5 {:?} {}",
            result.secret_slot,
            result.ranking[0],
            if result.top1_hit() { "HIT" } else { "miss" },
            &result.ranking[..5],
            if result.top_n_hit(5) {
                "(contains secret)"
            } else {
                "(secret missed)"
            },
        );
    }

    // For contrast: the timer the threat model forbids.
    println!("\nfor contrast, rdtsc on an unrestricted machine:");
    let attack = KaslrConfig {
        timer: TimerKind::HighRes,
        c: 3, // median-of-3 absorbs the odd mid-measurement interrupt
        ..KaslrConfig::paper_default()
    };
    let machine = MachineConfig::xiaomi_air13();
    let result = KaslrScenario.run_one(&KaslrScenarioConfig { machine, attack }, 0xA51B)?;
    println!(
        "secret {} -> predicted {} in {:.2}s ({})",
        result.secret_slot,
        result.ranking[0],
        result.elapsed_s,
        if result.top1_hit() { "HIT" } else { "miss" }
    );
    let _ = Denoise::ZScore; // re-export sanity
    Ok(())
}
