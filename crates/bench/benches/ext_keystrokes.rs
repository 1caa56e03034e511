//! Extension harness — keystroke monitoring (paper Section V, "other
//! security implications"). Not a numbered paper artifact: the paper
//! names keystroke monitoring as a SegScope application without
//! evaluating it; this harness quantifies what the probe delivers.

use rand::SeedableRng;
use scenario::{run_scenario, RunOptions};
use segscope_attacks::keystroke::{
    KeystrokeConfig, KeystrokeMonitor, KeystrokeScenario, TypistProfile,
};
use segsim::{Machine, MachineConfig, Ps};

fn main() {
    segscope_bench::header("Extension: keystroke monitoring via SegScope");
    let sessions = if segscope_bench::full_scale() { 20 } else { 8 };

    // Detection accuracy over several sessions.
    let mut exact = 0usize;
    let mut total_err = 0i64;
    for s in 0..sessions {
        let mut machine = Machine::new(MachineConfig::xiaomi_air13(), 0xE37 + s as u64);
        machine.spin(100_000_000);
        let profile = TypistProfile::for_user(s % 4);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xE38 + s as u64);
        let start = machine.now() + Ps::from_ms(1_600);
        let session = profile.type_session(start, 30, &mut rng);
        let trace = KeystrokeMonitor::new().monitor(&mut machine, &session);
        let err = trace.detected_keys() as i64 - trace.actual_keys as i64;
        exact += usize::from(err == 0);
        total_err += err.abs();
    }
    println!(
        "keystroke-count recovery over {sessions} sessions of 30 keys: {exact} exact, \
         mean |error| {:.2} keys",
        total_err as f64 / sessions as f64
    );
    assert!(
        total_err as f64 / sessions as f64 <= 2.0,
        "detection error too high"
    );

    // Typist identification from rhythm alone.
    let config = KeystrokeConfig::quick();
    let result = run_scenario(&KeystrokeScenario, &config, &RunOptions::default()).summary;
    println!(
        "typist identification: {} over {} sessions from {} users (chance {})",
        segscope_bench::pct(result.accuracy),
        result.sessions,
        result.users,
        segscope_bench::pct(1.0 / result.users as f64)
    );
    assert!(result.accuracy > 1.6 / result.users as f64);
    println!("\nshape check PASSED: timings recovered clock-free; rhythm is identifying.");
}
