//! Observability demo: run the registered keystroke scenario with the
//! trace sink installed and export a Chrome-loadable trace.
//!
//! ```sh
//! SEGSCOPE_TRACE=keystroke.trace.json \
//!     cargo run --release --example segscope_trace
//! ```
//!
//! Open the emitted file in `chrome://tracing` (or Perfetto's legacy
//! loader) to see each session on its own track: timer and keyboard
//! interrupt deliveries as spans, segment-register scrubs and probe
//! samples as instants, and the governor's frequency as a counter.
//!
//! The example also double-checks the layer's two core guarantees:
//!
//! 1. **Exactness** — the trace's `irq_delivered` event count equals the
//!    simulator's ground-truth delivery count, interrupt for interrupt.
//! 2. **Determinism** — the merged trace is byte-identical at 1, 2 and
//!    4 worker threads (per-session sinks merged in session order).

use segscope_repro::attacks::keystroke::{KeystrokeConfig, KeystrokeScenario};
use segscope_repro::obs::export;
use segscope_repro::scenario::{run_scenario, RunOptions};

const RING_CAPACITY: usize = 1 << 15;

fn main() {
    println!("== SegScope observability: tracing the keystroke attack ==");
    // A compact run of the registered scenario — two users, one
    // ten-key enrollment session each, no test sessions — keeps the
    // emitted trace (and the golden CI diffs it against) small while
    // exercising the full attack path: calibration, injection,
    // monitoring.
    let config = KeystrokeConfig {
        users: 2,
        enroll_sessions: 1,
        test_sessions: 0,
        keys_per_session: 10,
        ..KeystrokeConfig::quick()
    };

    let run = |threads| {
        let opts = RunOptions {
            threads: Some(threads),
            capacity: RING_CAPACITY,
            ..RunOptions::default()
        };
        let run = run_scenario(&KeystrokeScenario, &config, &opts);
        let sink = run.sink.expect("tracing enabled");
        (sink, run.totals.ground_truth_deliveries, run.trials)
    };
    let (sink, ground_truth, sessions) = run(1);
    assert_eq!(sink.dropped(), 0, "ring overflowed; raise RING_CAPACITY");

    // Guarantee 1: the trace reconciles with the ground truth exactly.
    let json = export::chrome_trace(&sink);
    let delivered = export::chrome_delivery_count(&json);
    assert_eq!(
        delivered as u64, ground_truth,
        "trace deliveries must equal ground-truth deliveries"
    );
    println!(
        "{} sessions, {} events recorded, {} interrupt deliveries (== ground truth)",
        sessions,
        sink.len(),
        delivered
    );

    // Guarantee 2: byte-identical trace at any worker count.
    for threads in [2usize, 4] {
        let (traced, _, _) = run(threads);
        assert_eq!(
            export::chrome_trace(&traced),
            json,
            "trace differs at {threads} threads"
        );
    }
    println!("trace is byte-identical at 1/2/4 worker threads");

    let path =
        std::env::var("SEGSCOPE_TRACE").unwrap_or_else(|_| "keystroke.trace.json".to_owned());
    std::fs::write(&path, &json).expect("write trace");
    println!(
        "wrote {} ({} bytes) — load it in chrome://tracing",
        path,
        json.len()
    );
}
