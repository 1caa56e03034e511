//! Keystroke monitoring with SegScope (extension from the paper's
//! Discussion section): recover inter-keystroke timing without any
//! clock, then identify the typist from their rhythm.
//!
//! ```sh
//! cargo run --release --example keystroke_monitor
//! ```

use segscope_repro::attacks::keystroke::{
    IdentifyResult, KeystrokeConfig, KeystrokeMonitor, KeystrokeScenario, TypistProfile,
};
use segscope_repro::irq::Ps;
use segscope_repro::scenario::{run_scenario, RunOptions};
use segscope_repro::segsim::{presets, Machine};

fn main() {
    println!("== Keystroke monitoring via SegScope ==");

    // 1. Recover one session's timing.
    let config = presets::by_name("xiaomi_air13").expect("known preset");
    let mut machine = Machine::new(config, 0x5E55);
    machine.spin(100_000_000);
    let profile = TypistProfile::for_user(0);
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::SmallRng::seed_from_u64(0xABCD)
    };
    let start = machine.now() + Ps::from_ms(1_600);
    let session = profile.type_session(start, 25, &mut rng);
    let trace = KeystrokeMonitor::new().monitor(&mut machine, &session);
    println!(
        "victim typed {} keys; attacker detected {} keystroke edges (no timer used)",
        trace.actual_keys,
        trace.detected_keys()
    );
    let sig = trace.signature();
    println!(
        "first recovered inter-key ratios: {:?}",
        sig.iter()
            .take(6)
            .map(|x| (x * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // 2. Identify users from their typing rhythm.
    let config = KeystrokeConfig::quick();
    let IdentifyResult {
        accuracy,
        users,
        sessions,
    } = run_scenario(&KeystrokeScenario, &config, &RunOptions::default()).summary;
    println!(
        "\ntypist identification: {:.0}% over {} sessions from {} users (chance {:.0}%)",
        accuracy * 100.0,
        sessions,
        users,
        100.0 / users as f64
    );
}
