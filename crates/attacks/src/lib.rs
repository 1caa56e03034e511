//! `segscope-attacks` — the six end-to-end case studies of the SegScope
//! paper, built on the [`segscope`] library and the [`segsim`] machine
//! simulator:
//!
//! | module | paper section | artifact |
//! |--------|---------------|----------|
//! | [`website`] | IV-A | Table IV: website fingerprinting (Chrome/Tor, four settings) |
//! | [`circl`] | IV-B | Fig. 8: CIRCL key extraction via the frequency channel |
//! | [`dnnsteal`] | IV-C | Table V: DNN layer-sequence recovery (SA/LDA) |
//! | [`spectral`] | IV-D | Table VI + Fig. 9: SegScope-enhanced Spectral |
//! | [`kaslr`] | IV-E | Figs. 10–11, Tables VII–VIII: KASLR de-randomization |
//! | [`spectre`] | IV-F | Fig. 12: Spectre-V1 + Flush+Reload via the SegScope timer |
//!
//! plus three extension studies ([`keystroke`], [`covert`], [`procfp`])
//! exercising the same probing primitive on the side channels the paper
//! cites in Section I, and two enclave studies ([`aexcount`],
//! [`heckler`]) exercising the kernel-exit + countermeasure model
//! (AEX-NStep-style counting and Heckler-style malicious injection)
//! against the [`segsim::Defense`] layer.
//!
//! Every experiment exposes a `quick()` configuration small enough for
//! `cargo test` and a larger configuration for the bench harness; both
//! are deterministic given a seed. All eleven implement the
//! [`scenario::Scenario`] trait and register with [`registry`], which
//! backs the `segscope` CLI driver.
//!
//! Every caller runs an attack through its scenario, whose
//! [`machine`](scenario::Scenario::machine) and
//! [`wire`](scenario::Scenario::wire) are the only recipe for its
//! Table I machine: [`run_one`](scenario::Scenario::run_one)`(&config, s)`
//! runs one trial at seed `s`, and [`scenario::run_scenario`] runs a
//! seeded batch of trials or a whole structured experiment (read its
//! `.outputs` or `.summary`). [`website::collect_trace`] and
//! [`procfp::observe`] boot from
//! [`build_machine`](scenario::Scenario::build_machine); only
//! [`kaslr::k_sweep_distributions`] builds a machine of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

pub mod aexcount;
pub mod circl;
pub mod covert;
pub mod dnnsteal;
pub mod heckler;
pub mod kaslr;
pub mod keystroke;
pub mod procfp;
pub mod spectral;
pub mod spectre;
pub mod website;

/// The eleven registered scenarios, in paper-section order (six case
/// studies, the three extension studies, then the two enclave
/// studies).
static SCENARIOS: [&'static dyn scenario::DynScenario; 11] = [
    &website::WebsiteScenario,
    &circl::CirclScenario,
    &dnnsteal::DnnStealScenario,
    &spectral::SpectralScenario,
    &kaslr::KaslrScenario,
    &spectre::SpectreScenario,
    &keystroke::KeystrokeScenario,
    &covert::CovertScenario,
    &procfp::ProcFpScenario,
    &aexcount::AexCountScenario,
    &heckler::HecklerScenario,
];

/// Auxiliary stream of the streaming-eval serving classifier. Distinct
/// from every other auxiliary stream a scenario draws (the website
/// fold-split stream `AUX_STREAM`, each fold's model stream
/// `AUX_STREAM + 1 + fold`, the keystroke typing stream), and never
/// mixed into machine streams.
const SERVE_STREAM: u64 = exec::AUX_STREAM + 0x5E57;

/// Streams one trial's input sequence through an untrained serving
/// classifier of shape `(input_dim, hidden, classes)`, seeded from
/// `seed` on [`SERVE_STREAM`], and emits the verdict as session `index`
/// into the machine's trace sink. Does nothing without a sink or an
/// input. The classifier draws only from its own stream and serving is
/// RNG-free, so the trial's other events stay byte-identical.
fn emit_serve_verdict(
    machine: &mut segsim::Machine,
    seed: u64,
    (input_dim, hidden, classes): (usize, usize, usize),
    index: usize,
    xs: &[Vec<f32>],
) {
    if machine.trace_sink().is_none() || xs.is_empty() {
        return;
    }
    let mut rng = SmallRng::seed_from_u64(exec::derive_seed(seed, SERVE_STREAM));
    let model = nnet::SeqClassifier::new(
        input_dim,
        hidden,
        classes,
        &mut rng,
        nnet::AdamConfig::default(),
    );
    let mut session = serve::StreamSession::new(&model, xs.len());
    let mut verdict = None;
    for x in xs {
        verdict = session.push(&model, x);
    }
    let verdict = verdict.expect("input is non-empty");
    let at_ps = machine.now().as_ps();
    if let Some(sink) = machine.trace_sink_mut() {
        sink.emit(
            at_ps,
            obs::EventKind::ServeVerdict {
                session: index as u32,
                class: verdict.class as u32,
                steps: verdict.steps as u32,
            },
        );
    }
}

/// The range check most [`scenario::Scenario::check_config`] impls share:
/// `Err` naming `field` when its `value` is zero.
fn at_least_one(field: &str, value: usize) -> Result<(), String> {
    (value > 0)
        .then_some(())
        .ok_or_else(|| format!("`{field}` must be at least 1"))
}

/// [`segscope::mean`] of `xs`, for summaries: `+0` over no trials (an
/// empty `f64` sum is `-0`), the sum in order over the count otherwise.
fn mean_of(xs: impl Iterator<Item = f64>) -> f64 {
    segscope::mean(&xs.collect::<Vec<_>>())
}

/// The attack registry: every case study and extension study behind one
/// uniform [`scenario::DynScenario`] face.
#[must_use]
pub fn registry() -> scenario::Registry {
    scenario::Registry::new(&SCENARIOS)
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn all_eleven_scenarios_registered_with_unique_names() {
        let reg = registry();
        assert_eq!(reg.len(), 11);
        let mut names: Vec<&str> = reg.entries().iter().map(|s| s.name()).collect();
        for expected in [
            "website",
            "circl",
            "dnnsteal",
            "spectral",
            "kaslr",
            "spectre",
            "keystroke",
            "covert",
            "procfp",
            "aexcount",
            "heckler",
        ] {
            assert!(names.contains(&expected), "missing scenario {expected}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "duplicate scenario names");
    }

    #[test]
    fn descriptions_and_default_params_are_well_formed() {
        for entry in registry().entries() {
            assert!(
                !entry.describe().is_empty(),
                "{} has no description",
                entry.name()
            );
            let params = entry.default_params();
            let json = serde_json::to_string(&params).expect("params serialize");
            // Whole floats serialize as integers (and the typed
            // deserializers convert back), so Value identity is too
            // strict — demand a stable text fixpoint instead.
            let back: serde::Value = serde_json::from_str(&json).expect("params parse");
            let json2 = serde_json::to_string(&back).expect("params reserialize");
            assert_eq!(
                json,
                json2,
                "{} default params JSON round-trip",
                entry.name()
            );
        }
    }

    /// A run over zero trials reports its means as `0`, never `-0`
    /// (structured scenarios ignore the count and run their defaults).
    #[test]
    fn zero_trial_reports_print_no_negative_zero() {
        let opts = scenario::RunOptions {
            trials: Some(0),
            threads: Some(1),
            ..scenario::RunOptions::default()
        };
        for entry in registry().entries() {
            let run = entry.run_dyn(None, &opts).expect("runs");
            let json = serde_json::to_string(&run.report).expect("report serializes");
            let negative_zero = json.match_indices("-0").any(|(i, _)| {
                !json[i + 2..].starts_with(|c: char| c == '.' || c == 'e' || c.is_ascii_digit())
            });
            assert!(!negative_zero, "{}: {json}", entry.name());
        }
    }

    #[test]
    fn lookup_by_name_and_unknown_rejection() {
        let reg = registry();
        assert!(reg.by_name("kaslr").is_some());
        assert!(reg.by_name("KASLR").is_none(), "lookup is exact");
        assert!(matches!(
            reg.get("no-such-attack"),
            Err(scenario::ScenarioError::UnknownScenario(_))
        ));
    }
}
