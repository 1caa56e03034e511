//! Extension harness — process fingerprinting (the paper's introduction
//! lists it among the interrupt side channels SegScope re-enables in
//! timer-constrained environments).

use scenario::{run_scenario, RunOptions};
use segscope_attacks::procfp::{observe, AppClass, ProcFpConfig, ProcFpScenario};

fn main() {
    segscope_bench::header("Extension: process fingerprinting via SegScope");
    // Show the raw feature separation first.
    let widths = [14, 10, 10, 10];
    segscope_bench::print_row(
        &["app".into(), "q10".into(), "q50".into(), "q90".into()],
        &widths,
    );
    for app in AppClass::ALL {
        let f = observe(&ProcFpConfig::quick(), app, 0x9F10);
        segscope_bench::print_row(
            &[
                app.label().into(),
                format!("{:.2}", f.q10),
                format!("{:.2}", f.q50),
                format!("{:.2}", f.q90),
            ],
            &widths,
        );
    }

    let config = if segscope_bench::full_scale() {
        ProcFpConfig {
            enroll: 6,
            test: 8,
            ..ProcFpConfig::quick()
        }
    } else {
        ProcFpConfig::quick()
    };
    let result = run_scenario(&ProcFpScenario, &config, &RunOptions::default()).summary;
    println!(
        "\nidentification accuracy: {} over {} windows (chance 25%)",
        segscope_bench::pct(result.accuracy),
        result.windows
    );
    for (app, acc) in AppClass::ALL.iter().zip(&result.per_class) {
        println!("  {:<12} {}", app.label(), segscope_bench::pct(*acc));
    }
    assert!(result.accuracy >= 0.75, "accuracy {}", result.accuracy);
    println!("\nshape check PASSED: applications are identifiable from SegCnt quantiles alone.");
}
