//! Fault-injection tests: every attack pipeline under an adversarial
//! [`FaultPlan`].
//!
//! The contract mirrors the paper's robustness claim:
//!
//! * **Timing faults** (handler jitter, frequency-step clamping, SMT
//!   bursts) perturb *values* but never *counts* — SegCnt exactness and
//!   count-based attacks survive unchanged.
//! * **Delivery faults** (drops, duplicates, coalescing) break the
//!   one-sample-per-interrupt invariant and must fail *detectably*: a
//!   [`DeliveryAudit`] degraded verdict, a typed error, or a measurably
//!   changed/degraded attack result — never a silently identical one.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use segscope_repro::attacks::circl::{CirclConfig, CirclScenario};
use segscope_repro::attacks::covert::{self, CovertConfig, CovertScenario};
use segscope_repro::attacks::dnnsteal::{self, Architecture, DnnStealScenario};
use segscope_repro::attacks::kaslr::{KaslrConfig, KaslrScenario, KaslrScenarioConfig};
use segscope_repro::attacks::keystroke::{KeystrokeConfig, KeystrokeScenario};
use segscope_repro::attacks::procfp::{observe, AppClass, ProcFpConfig};
use segscope_repro::attacks::spectral::{self, SpectralConfig, SpectralMode, SpectralScenario};
use segscope_repro::attacks::spectre::{self, SpectreConfig, SpectreScenario};
use segscope_repro::attacks::website::{collect_trace, Browser, Setting, WebsiteFpConfig};
use segscope_repro::irq::Ps;
use segscope_repro::scenario::{run_scenario, RunOptions, Scenario, TrialCtx};
use segscope_repro::segscope::{AuditVerdict, DeliveryAudit, SegProbe};
use segscope_repro::segsim::{FaultPlan, Machine, MachineConfig};

/// A delivery-free plan: only per-interrupt timing noise.
fn jitter_only() -> FaultPlan {
    FaultPlan::none().with_handler_jitter(0.25)
}

// ---------------------------------------------------------------------------
// Core machine-level contract
// ---------------------------------------------------------------------------

/// SegCnt exactness survives the full timing storm: one probe sample per
/// ground-truth interrupt, audited as `Exact`, with the fault log
/// proving the storm actually fired.
#[test]
fn timing_storm_preserves_segcnt_exactness() {
    for (name, config) in [
        ("xiaomi_air13", MachineConfig::xiaomi_air13()),
        ("amazon_c5_large", MachineConfig::amazon_c5_large()),
    ] {
        let mut machine = Machine::new(config.with_fault_plan(FaultPlan::timing_storm()), 0xFA01);
        let samples = SegProbe::new().probe_n(&mut machine, 300).expect("probe");
        let audit = DeliveryAudit::for_machine(&machine, samples.len());
        assert!(
            audit.is_exact(),
            "{name}: timing faults must not break exactness: {audit:?}"
        );
        assert_eq!(samples.len(), machine.ground_truth().len(), "{name}");
        assert!(
            machine.fault_log().jittered > 0,
            "{name}: the storm never fired"
        );
    }
}

/// Delivery faults break exactness and the audit says so: the verdict is
/// `Degraded` with a non-trivial missed/spurious accounting.
#[test]
fn delivery_storm_is_detected_by_the_audit() {
    let config = MachineConfig::xiaomi_air13().with_fault_plan(FaultPlan::delivery_storm());
    let mut machine = Machine::new(config, 0xFA02);
    let samples = SegProbe::new().probe_n(&mut machine, 300).expect("probe");
    let log = machine.fault_log();
    assert!(
        log.dropped + log.duplicated + log.coalesced > 0,
        "delivery storm never fired: {log:?}"
    );
    let audit = DeliveryAudit::for_machine(&machine, samples.len());
    assert!(!audit.is_exact(), "delivery faults must not audit as exact");
    match audit.verdict() {
        AuditVerdict::Degraded { missed, spurious } => {
            assert!(missed + spurious > 0, "degraded verdict with no damage");
        }
        AuditVerdict::Exact => panic!("delivery storm audited as Exact: {audit:?}"),
    }
}

/// An inert plan (`FaultPlan::none()`) is behaviourally invisible: the
/// machine produces the bit-identical SegCnt stream it produces with no
/// plan installed — fault hooks must not consume RNG when inactive.
#[test]
fn inert_plan_preserves_the_rng_stream() {
    let run = |plan: Option<FaultPlan>| {
        let mut config = MachineConfig::lenovo_savior();
        config.fault_plan = plan;
        let mut machine = Machine::new(config, 0xFA03);
        SegProbe::new()
            .probe_n(&mut machine, 100)
            .expect("probe")
            .iter()
            .map(|s| (s.segcnt, s.ended_at.as_ps()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(None), run(Some(FaultPlan::none())));
}

// ---------------------------------------------------------------------------
// Per-attack: timing faults preserved, delivery faults detectable
// ---------------------------------------------------------------------------

/// CIRCL (IV-B): the frequency channel survives handler jitter; a
/// delivery storm visibly corrupts the observation stream.
#[test]
fn circl_fault_injection() {
    let extract = |config: CirclConfig| CirclScenario.run_one(&config, config.seed);
    let clean = extract(CirclConfig::quick());
    assert!(clean.recovered, "clean baseline must recover the key");

    let jittered = extract(CirclConfig::quick().with_fault_plan(jitter_only()));
    assert!(
        jittered.recovered,
        "timing-only faults broke CIRCL extraction (bit accuracy {})",
        jittered.bit_accuracy
    );

    let stormed = extract(CirclConfig::quick().with_fault_plan(FaultPlan::delivery_storm()));
    assert_ne!(
        stormed.observations, clean.observations,
        "delivery faults must visibly alter the observations"
    );
    assert!(
        stormed.bit_accuracy <= clean.bit_accuracy,
        "dropping challenge interrupts cannot improve accuracy: {} > {}",
        stormed.bit_accuracy,
        clean.bit_accuracy
    );
}

/// Covert channel: jitter leaves the slow channel decodable; a delivery
/// storm measurably shifts the per-slot medians it decodes from.
#[test]
fn covert_fault_injection() {
    let message: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
    let payload = covert::bits_to_bitstring(&message);
    let transmit = |channel| {
        let payload = payload.clone();
        CovertScenario.run_one(&covert::CovertScenarioConfig { channel, payload }, 0xFA04)
    };
    let clean = transmit(CovertConfig::slow());

    let jittered = transmit(CovertConfig::slow().with_fault_plan(jitter_only()));
    assert!(
        jittered.error_rate <= clean.error_rate + 0.15,
        "jitter alone should not wreck the slow channel: {} vs {}",
        jittered.error_rate,
        clean.error_rate
    );

    let stormed = transmit(CovertConfig::slow().with_fault_plan(FaultPlan::delivery_storm()));
    assert_ne!(
        stormed.slot_medians, clean.slot_medians,
        "delivery faults must perturb the decoded medians"
    );
}

/// DNNSteal (IV-C): traces stay collectable under jitter; a delivery
/// storm changes the per-timestep features (shorter/longer trace or
/// different SegCnt values).
#[test]
fn dnnsteal_fault_injection() {
    let mut rng = SmallRng::seed_from_u64(0xFA05);
    let arch = Architecture::alexnet_like(&mut rng);

    // The scenario's victim machine for trial seed 0xFA06.
    let ctx = TrialCtx {
        index: 0,
        seed: 0xFA06,
        experiment_seed: 0xFA06,
    };
    let collect = |fault_plan| {
        let mut config = dnnsteal::DnnStealConfig::quick();
        config.fault_plan = fault_plan;
        let mut machine = DnnStealScenario.build_machine(&config, &ctx);
        dnnsteal::collect_annotated_on(&mut machine, &arch, 0xFA06)
    };
    let clean = collect(None).expect("clean trace");
    let jittered = collect(Some(jitter_only())).expect("jittered trace");
    assert_eq!(
        clean.tags.len(),
        clean.xs.len(),
        "annotated trace is per-timestep"
    );
    // Timing faults change feature values, never the count invariant.
    assert_eq!(jittered.tags.len(), jittered.xs.len());

    let stormed = collect(Some(FaultPlan::delivery_storm())).expect("stormed trace");
    assert!(
        stormed.xs != clean.xs || stormed.tags != clean.tags,
        "delivery faults must alter the annotated trace"
    );
}

/// KASLR (IV-E): the slot ranking survives handler jitter; a delivery
/// storm visibly reshuffles the measured ranking.
#[test]
fn kaslr_fault_injection() {
    let attack = KaslrConfig {
        c: 5,
        ..KaslrConfig::quick()
    };
    let break_kaslr = |fault_plan| {
        let mut machine = MachineConfig::xiaomi_air13();
        machine.fault_plan = fault_plan;
        KaslrScenario.run_one(&KaslrScenarioConfig { machine, attack }, 0xFA07)
    };
    let clean = break_kaslr(None).expect("clean");
    assert!(clean.top_n_hit(5), "clean baseline must rank the secret");

    let jittered = break_kaslr(Some(jitter_only())).expect("jittered");
    assert!(
        jittered.top_n_hit(5),
        "timing-only faults must not hide the secret slot"
    );

    let stormed = break_kaslr(Some(FaultPlan::delivery_storm())).expect("stormed run completes");
    assert_ne!(
        stormed.ranking, clean.ranking,
        "delivery faults must visibly perturb the ranking"
    );
}

/// Keystroke biometrics: identification stays useful under jitter and
/// degrades (never improves) under a delivery storm.
#[test]
fn keystroke_fault_injection() {
    let identify_users =
        |config| run_scenario(&KeystrokeScenario, &config, &RunOptions::default()).summary;
    let clean = identify_users(KeystrokeConfig::quick());
    let jittered = identify_users(KeystrokeConfig::quick().with_fault_plan(jitter_only()));
    assert!(
        jittered.accuracy + 0.2 >= clean.accuracy,
        "jitter should not collapse keystroke accuracy: {} vs {}",
        jittered.accuracy,
        clean.accuracy
    );
    let stormed =
        identify_users(KeystrokeConfig::quick().with_fault_plan(FaultPlan::delivery_storm()));
    assert!(
        stormed.accuracy <= clean.accuracy,
        "dropped keystroke interrupts cannot improve identification: {} > {}",
        stormed.accuracy,
        clean.accuracy
    );
}

/// Process fingerprinting: observed feature vectors shift under a
/// delivery storm (detectable), and stay well-formed under jitter.
#[test]
fn procfp_fault_injection() {
    let observe_under = |fault_plan: Option<FaultPlan>| {
        let config = ProcFpConfig {
            window: Ps::from_ms(300),
            probes: 64,
            fault_plan,
            ..ProcFpConfig::quick()
        };
        observe(&config, AppClass::Compiler, 0xFA08)
    };
    let clean = observe_under(None);
    let jittered = observe_under(Some(jitter_only()));
    let stormed = observe_under(Some(FaultPlan::delivery_storm()));
    assert_ne!(
        clean, stormed,
        "delivery faults must alter the observed features"
    );
    // Jitter shifts values too (handler spans feed the quantiles), but
    // through a different mechanism than dropped interrupts.
    assert_ne!(jittered, clean, "jitter left the features untouched");
    assert_ne!(jittered, stormed, "timing and delivery faults must differ");
}

/// Spectral (IV-D): the SegScope-enhanced filter keeps its edge under
/// timing faults; delivery faults blind the interrupt guard and the
/// error rate cannot drop below the clean enhanced run's.
#[test]
fn spectral_fault_injection() {
    let bits = 20_000;
    let run_attack = |fault_plan, mode| {
        let mut attack = SpectralConfig::paper_default();
        attack.fault_plan = fault_plan;
        SpectralScenario.run_one(
            &spectral::SpectralScenarioConfig { attack, mode, bits },
            0xFA09,
        )
    };
    let clean = run_attack(None, SpectralMode::Enhanced);
    let jittered = run_attack(Some(jitter_only()), SpectralMode::Enhanced);
    let original = run_attack(Some(jitter_only()), SpectralMode::Original);
    assert!(
        jittered.error_rate < original.error_rate,
        "enhanced mode must keep its edge under jitter: {} vs {}",
        jittered.error_rate,
        original.error_rate
    );
    let stormed = run_attack(Some(FaultPlan::delivery_storm()), SpectralMode::Enhanced);
    assert!(
        stormed.error_rate >= clean.error_rate,
        "dropped interrupts blind the guard; error cannot improve: {} < {}",
        stormed.error_rate,
        clean.error_rate
    );
}

/// Spectre (IV-F): the byte leak survives handler jitter; a delivery
/// storm visibly changes the recovered bytes or degrades the rate.
#[test]
fn spectre_fault_injection() {
    let leak_secret = |attack| {
        let secret = "OK".to_owned();
        SpectreScenario.run_one(&spectre::SpectreScenarioConfig { attack, secret }, 0xFA0A)
    };
    let clean = leak_secret(SpectreConfig::quick()).expect("clean leak");
    let jittered =
        leak_secret(SpectreConfig::quick().with_fault_plan(jitter_only())).expect("jittered leak");
    assert!(
        jittered.success_rate >= 0.5,
        "timing-only faults broke the leak: {}",
        jittered.success_rate
    );
    let stormed = leak_secret(SpectreConfig::quick().with_fault_plan(FaultPlan::delivery_storm()))
        .expect("stormed leak still completes");
    assert!(
        stormed.success_rate <= clean.success_rate,
        "delivery faults cannot improve the leak: {} > {}",
        stormed.success_rate,
        clean.success_rate
    );
}

/// Website fingerprinting (IV-A): traces stay deterministic under any
/// plan, and a delivery storm produces a measurably different trace.
#[test]
fn website_fault_injection() {
    let clean_cfg = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
    let storm_cfg = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores)
        .with_fault_plan(FaultPlan::delivery_storm());
    let jitter_cfg = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores)
        .with_fault_plan(jitter_only());

    let clean = collect_trace(&clean_cfg, 3, 0xFA0B);
    let stormed = collect_trace(&storm_cfg, 3, 0xFA0B);
    let jittered = collect_trace(&jitter_cfg, 3, 0xFA0B);

    assert_eq!(
        stormed,
        collect_trace(&storm_cfg, 3, 0xFA0B),
        "fault injection must stay deterministic"
    );
    assert_ne!(clean, stormed, "delivery faults must alter the trace");
    // Jitter perturbs values but the trace keeps carrying signal.
    let spread = |xs: &[f64]| {
        let mn = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        mx - mn
    };
    assert!(spread(&jittered) > 0.0, "jittered trace lost all signal");
}

// ---------------------------------------------------------------------------
// Countermeasure × fault-plan composition
// ---------------------------------------------------------------------------

/// Deterministic padding composes with an adversarial fault plan: pads
/// stay on their synthetic grid (delivery faults cannot drop them, and
/// timing jitter cannot move their fixed exit cost), while real
/// deliveries keep faulting — and the composition is bit-deterministic.
#[test]
fn padding_composes_with_delivery_and_timing_faults() {
    use segscope_repro::irq::ExitClass;
    use segscope_repro::segsim::Defense;

    let run = |plan: Option<FaultPlan>| {
        let mut config = MachineConfig::xiaomi_air13().with_defense(Defense::default_padding());
        config.fault_plan = plan;
        let mut machine = Machine::new(config, 0xFAD5);
        machine.spin(1_000_000_000); // ~300 ms: enough ticks for the storm to fire
        machine
    };
    let clean = run(None);
    let stormed = run(Some(
        FaultPlan::delivery_storm()
            .with_drop_prob(0.3)
            .with_duplicate_prob(0.1),
    ));
    let jittered = run(Some(FaultPlan::timing_storm()));

    let log = stormed.fault_log();
    assert!(
        log.dropped + log.duplicated > 0,
        "storm never fired: {log:?}"
    );
    // Pads are synthetic kernel exits, not fabric deliveries: drops
    // cannot thin the grid — each machine keeps one pad per 1 ms quantum
    // of its own wall clock (faults shift the wall clock a little for a
    // fixed cycle workload, so compare densities, not raw counts).
    assert!(clean.padded_exits() > 0);
    for (name, machine) in [
        ("clean", &clean),
        ("stormed", &stormed),
        ("jittered", &jittered),
    ] {
        let elapsed_ms = machine.now().as_ps() / 1_000_000_000;
        assert!(
            machine.padded_exits().abs_diff(elapsed_ms) <= 2,
            "{name}: pad grid off density: {} pads over {elapsed_ms} ms",
            machine.padded_exits()
        );
    }
    // Timing faults jitter real handlers but never the fixed pad cost.
    let pad_cost = Defense::default_padding();
    let Defense::Padding { exit_cost, .. } = pad_cost else {
        unreachable!("default_padding is the padding arm")
    };
    assert!(jittered.fault_log().jittered > 0);
    for record in jittered.ground_truth().of_class(ExitClass::DefensePad) {
        assert_eq!(record.handler_cost, exit_cost, "pad cost must stay fixed");
    }
    // And the whole composition replays bit-identically.
    let replayed = run(Some(
        FaultPlan::delivery_storm()
            .with_drop_prob(0.3)
            .with_duplicate_prob(0.1),
    ));
    assert_eq!(
        stormed.ground_truth().records(),
        replayed.ground_truth().records()
    );
    assert_eq!(*stormed.fault_log(), *replayed.fault_log());
}

/// QuanShield composes with a delivery storm: drops thin the interrupt
/// stream but the first AEX that does land still destroys the enclave,
/// and the destruction point is deterministic.
#[test]
fn quanshield_composes_with_a_delivery_storm() {
    use segscope_repro::segsim::Defense;

    let run = || {
        let config = MachineConfig::xiaomi_air13()
            .with_defense(Defense::QuanShield)
            .with_fault_plan(FaultPlan::delivery_storm().with_drop_prob(0.9));
        let mut machine = Machine::new(config, 0xFAD6);
        assert!(machine.enter_enclave());
        while !machine.enclave_destroyed() {
            let _ = machine.run_user_until(machine.now() + Ps::from_ms(1));
        }
        (
            machine.now(),
            machine.aex_exits(),
            machine.fault_log().dropped,
        )
    };
    let (destroyed_at, aex, dropped) = run();
    assert_eq!(aex, 1, "self-destruct admits exactly one AEX");
    assert!(dropped > 0, "the storm should drop deliveries first");
    assert_eq!(
        run(),
        (destroyed_at, aex, dropped),
        "destruction point must be deterministic"
    );
}

// ---------------------------------------------------------------------------
// Plans that never finish are rejected at the CLI boundary
// ---------------------------------------------------------------------------

/// A ghost re-delivery may duplicate again, so at `duplicate_prob: 1`
/// every interrupt spawns ghosts forever.
const ENDLESS_PLAN: &str = r#"{"drop_prob":0,"duplicate_prob":1,"duplicate_delay":0,
    "coalesce_window":0,"handler_jitter_std":0,"freq_step_clamp_khz":null,
    "smt_burst_prob":0,"smt_burst_factor":1,"smt_burst_ops":0}"#;

/// `segscope run` and `segscope campaign run` must refuse the
/// [`ENDLESS_PLAN`] up front, naming the field, before any trial or cell
/// runs.
#[test]
fn cli_rejects_a_plan_that_never_finishes() {
    use std::process::Command;

    let segscope = env!("CARGO_BIN_EXE_segscope");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("endless_plan");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spec = dir.join("spec.json");
    let spec_json = format!(
        r#"{{"name":"endless","seed":1,"scenarios":[{{"scenario":"covert","params":null}}],
        "presets":["lenovo_yangtian"],"faults":[{{"name":"ghosts","plan":{ENDLESS_PLAN}}}],
        "replicates":1,"trials":1}}"#
    );
    std::fs::write(&spec, spec_json).expect("spec written");
    let out = dir.join("out");

    let run = Command::new(segscope)
        .args(["run", "covert", "--trials", "1", "--fault-plan"])
        .arg(ENDLESS_PLAN)
        .output()
        .expect("segscope runs");
    let campaign = Command::new(segscope)
        .args(["campaign", "run", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("segscope runs");
    for output in [run, campaign] {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "accepted an endless plan");
        assert!(stderr.contains("`duplicate_prob`"), "{stderr}");
    }
    assert!(!out.join("cells.log").exists(), "a cell ran");
}

/// The covert channel's default params with `plan` nested as the
/// channel's `fault_plan`, as JSON text.
fn covert_params_with(plan: &str) -> String {
    format!(
        r#"{{"channel":{{"slot":20000000000,"high_power":0.8,"low_power":0.1,
        "preamble_bits":8,"fault_plan":{plan}}},"payload":"1100"}}"#
    )
}

/// A plan nested inside scenario params gets the same check as a
/// top-level `--fault-plan`: `segscope run` refuses it at once, naming
/// the field, instead of running forever.
#[test]
fn cli_rejects_a_plan_nested_in_params() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let mut child = Command::new(env!("CARGO_BIN_EXE_segscope"))
        .args(["run", "covert", "--trials", "1", "--params"])
        .arg(covert_params_with(ENDLESS_PLAN))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("segscope runs");
    let start = Instant::now();
    while child.try_wait().expect("waitable").is_none() {
        if start.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            panic!("`segscope run` still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = start.elapsed();
    let output = child.wait_with_output().expect("exited");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "accepted an endless nested plan");
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
    assert!(stderr.contains("`channel.fault_plan`"), "{stderr}");
    assert!(stderr.contains("`duplicate_prob`"), "{stderr}");
}

/// A `machine.fault_plan` (the KASLR config's machine) is validated by
/// both `check_params` and `run_dyn`, and the error names the path.
#[test]
fn nested_machine_fault_plan_is_validated() {
    use segscope_repro::attacks::kaslr::KaslrScenarioConfig;
    use segscope_repro::scenario::{RunOptions, ScenarioError};
    use serde::{Deserialize, Serialize};

    let kaslr = segscope_repro::attacks::registry()
        .get("kaslr")
        .expect("registered");
    let mut config = KaslrScenarioConfig::default();
    config.machine.fault_plan = Some(FaultPlan::none().with_drop_prob(1.5));
    let params = config.to_value();
    // The typed config accepts any f64; the scenario boundary must not.
    assert!(KaslrScenarioConfig::from_value(&params).is_ok());
    let check = kaslr.check_params(&params);
    let Err(ScenarioError::Params(message)) = &check else {
        panic!("out-of-range nested plan accepted: {check:?}");
    };
    assert!(message.contains("`machine.fault_plan`"), "{message}");
    assert!(message.contains("`drop_prob`"), "{message}");
    assert!(matches!(
        kaslr.run_dyn(Some(&params), &RunOptions::default()),
        Err(ScenarioError::Params(_))
    ));
}

/// `CampaignSpec::expand` runs `check_params` per cell, so a scenario's
/// params carrying an unfinishable plan fail expansion as `Params`.
#[test]
fn campaign_expansion_rejects_a_plan_nested_in_params() {
    use segscope_repro::campaign::{CampaignError, CampaignSpec};

    let spec = CampaignSpec::from_json(&format!(
        r#"{{"name":"nested","seed":1,"scenarios":[{{"scenario":"covert","params":{}}}],
        "presets":["lenovo_yangtian"],"faults":[{{"name":"none","plan":null}}],
        "replicates":1,"trials":1}}"#,
        covert_params_with(ENDLESS_PLAN)
    ))
    .expect("spec parses");
    match spec.expand(&segscope_repro::attacks::registry()) {
        Err(CampaignError::Params { scenario, message }) => {
            assert_eq!(scenario, "covert");
            assert!(message.contains("`duplicate_prob`"), "{message}");
        }
        other => panic!("expected a params error, got {other:?}"),
    }
}

/// `CampaignSpec::expand` runs each scenario's `check_config` per cell,
/// so a KASLR scan of no candidate slots fails expansion as `Params`,
/// naming the field, before any cell runs. (The campaign replaces the
/// params' `machine` with a preset, and every preset boots.)
#[test]
fn campaign_expansion_rejects_a_kaslr_scan_of_no_slots() {
    use segscope_repro::campaign::{CampaignError, CampaignSpec};

    let mut config = KaslrScenarioConfig::default();
    config.attack.slots = 0;
    let spec = CampaignSpec::from_json(&format!(
        r#"{{"name":"no_slots","seed":1,"scenarios":[{{"scenario":"kaslr","params":{}}}],
        "presets":["lenovo_yangtian"],"faults":[{{"name":"none","plan":null}}],
        "replicates":1,"trials":1}}"#,
        serde_json::to_string(&config).expect("config serializes")
    ))
    .expect("spec parses");
    match spec.expand(&segscope_repro::attacks::registry()) {
        Err(CampaignError::Params { scenario, message }) => {
            assert_eq!(scenario, "kaslr");
            assert!(message.contains("`attack.slots`"), "{message}");
        }
        other => panic!("expected a params error, got {other:?}"),
    }
}

/// `campaign run` validates the spec before writing anything: an unknown
/// preset, a bad nested plan or an out-of-range param exits non-zero and
/// leaves no `spec.json` or `manifest.json` that `campaign status` would
/// report as resumable.
#[test]
fn campaign_run_writes_nothing_for_an_unrunnable_spec() {
    use std::process::Command;

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unrunnable_spec");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let cases = [
        (
            "preset",
            "null".to_owned(),
            "commodore64",
            "choose from: xiaomi_air13",
        ),
        (
            "nested",
            covert_params_with(ENDLESS_PLAN),
            "lenovo_yangtian",
            "`duplicate_prob`",
        ),
        (
            "payload",
            covert_params_with("null").replace(r#""payload":"1100""#, r#""payload":"""#),
            "lenovo_yangtian",
            "`payload`",
        ),
    ];
    for (name, params, preset, expected) in cases {
        let spec = dir.join(format!("{name}.json"));
        let spec_json = format!(
            r#"{{"name":"{name}","seed":1,"scenarios":[{{"scenario":"covert","params":{params}}}],
            "presets":["{preset}"],"faults":[{{"name":"none","plan":null}}],
            "replicates":1,"trials":1}}"#
        );
        std::fs::write(&spec, spec_json).expect("spec written");
        let out = dir.join(format!("{name}.out"));
        let output = Command::new(env!("CARGO_BIN_EXE_segscope"))
            .args(["campaign", "run", "--spec"])
            .arg(&spec)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("segscope runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !output.status.success(),
            "{name}: accepted an unrunnable spec"
        );
        assert!(stderr.contains(expected), "{name}: {stderr}");
        assert!(!stderr.contains("segscope machines"), "{name}: {stderr}");
        assert!(!out.join("spec.json").exists(), "{name}: spec.json written");
        assert!(
            !out.join("manifest.json").exists(),
            "{name}: manifest.json written"
        );
    }
}

/// A campaign's presets axis sets every cell's machine, so `campaign
/// run` refuses a spec whose scenario params set `machine` themselves
/// (here a 1 kHz timer the preset would silently replace with its own):
/// exit 1, a message naming the scenario and the `presets` axis, and no
/// `spec.json` or `manifest.json` written.
#[test]
fn campaign_run_refuses_a_machine_in_params() {
    use std::process::Command;

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("machine_params");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let mut config = KaslrScenarioConfig::default();
    config.machine.timer_hz = 1000.0;
    let spec = dir.join("spec.json");
    let spec_json = format!(
        r#"{{"name":"machine","seed":1,"scenarios":[{{"scenario":"kaslr","params":{}}}],
        "presets":["lenovo_yangtian"],"faults":[{{"name":"none","plan":null}}],
        "replicates":1,"trials":1}}"#,
        serde_json::to_string(&config).expect("config serializes")
    );
    std::fs::write(&spec, spec_json).expect("spec written");
    let out = dir.join("out");
    let output = Command::new(env!("CARGO_BIN_EXE_segscope"))
        .args(["campaign", "run", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("segscope runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    for named in ["`kaslr`", "`machine`", "`presets`"] {
        assert!(stderr.contains(named), "{named}: {stderr}");
    }
    assert!(!out.join("spec.json").exists(), "spec.json written");
    assert!(!out.join("manifest.json").exists(), "manifest.json written");
}

/// Params that deserialize but lie outside the range a trial body
/// asserts or the trial machine needs to boot, and counts past their
/// stated maximum: `segscope` refuses each — a scenario's default params
/// with one field changed, or a count flag at `u64::MAX` — at once, with
/// exit status 1 and a message naming the field or flag, instead of
/// panicking, hanging, reporting nonsense or allocating without bound.
/// A field of the trial machine is named by its path in the machine
/// config. Each run is limited to 4 GB of address space and killed
/// after 10 s, since some of these machines loop forever and an
/// unbounded count would otherwise allocate until the host runs out.
#[test]
fn cli_rejects_out_of_range_params_naming_the_field() {
    use serde::Value;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let quick = WebsiteFpConfig::default();
    let too_many_folds = (quick.n_sites * quick.traces_per_site + 1).to_string();
    let params = [
        ("spectre", "secret", r#""""#),
        ("spectre", "attack.candidates", "0"),
        ("covert", "payload", r#""""#),
        ("circl", "samples_per_challenge", "0"),
        ("circl", "key_bits", "0"),
        ("procfp", "enroll", "0"),
        ("keystroke", "keys_per_session", "0"),
        ("keystroke", "enroll_sessions", "0"),
        ("website", "trace_len", "0"),
        ("website", "pooled_len", "0"),
        ("website", "folds", "0"),
        ("website", "folds", &too_many_folds),
        ("kaslr", "attack.slots", "0"),
        ("kaslr", "attack.c", "0"),
        // Machines that panic at boot or in the first trial.
        ("kaslr", "machine.timer_hz", "0"),
        ("kaslr", "machine.freq.max_khz", "0"),
        ("kaslr", "machine.handler_model.timer.body_lo", "2000000"),
        // Machines that never finish a trial.
        ("kaslr", "machine.freq.step_khz", "0"),
        ("kaslr", "machine.freq.update_period", "0"),
        // Interrupt sources firing every picosecond or faster.
        ("kaslr", "machine.timer_hz", "1e12"),
        ("kaslr", "machine.pmi_rate_hz", "1e15"),
        ("kaslr", "machine.resched_rate_hz", "1e13"),
    ];
    // (arguments, the field or flag the refusal names)
    let mut cases: Vec<(Vec<String>, String)> = Vec::new();
    for (name, path, value) in params {
        let mut params = segscope_repro::attacks::registry()
            .get(name)
            .expect("registered")
            .default_params();
        let mut field = &mut params;
        for key in path.split('.') {
            let Value::Map(fields) = field else {
                panic!("{name}: `{path}` is not a field path");
            };
            field = &mut fields.iter_mut().find(|(k, _)| k == key).expect("field").1;
        }
        *field = serde_json::from_str(value).expect("value parses");
        let params = serde_json::to_string(&params).expect("params serialize");
        let args = [
            "run",
            name,
            "--trials",
            "1",
            "--threads",
            "1",
            "--params",
            &params,
        ];
        let named = path.strip_prefix("machine.").unwrap_or(path);
        cases.push((args.map(String::from).to_vec(), named.to_owned()));
    }
    // Counts past their maximum, which would otherwise panic on a
    // capacity overflow or allocate until the address space runs out.
    // The spec file sets its own `trials`.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("count_bounds");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut grid = segscope_repro::campaign::CampaignSpec::full_grid(1);
    grid.trials = Some(usize::MAX);
    std::fs::write(dir.join("spec.json"), grid.to_json()).expect("spec written");
    let path = |name: &str| dir.join(name).display().to_string();
    let (spec, out, rec) = (path("spec.json"), path("out"), path("rec.json"));
    let max = u64::MAX.to_string();
    let counts: [(&[&str], &str); 11] = [
        (&["run", "kaslr", "--trials", &max], "--trials"),
        (&["run", "kaslr", "--trials", "100000000000"], "--trials"),
        (&["run", "kaslr", "--trials", "1000001"], "--trials"),
        (
            &["campaign", "run", "--trials", &max, "--out", &out],
            "--trials",
        ),
        (
            &["campaign", "run", "--spec", &spec, "--out", &out],
            "trials",
        ),
        (&["snapshot", "--spans", &max, "--out", &rec], "--spans"),
        (&["serve-bench", "--capacity", &max], "--capacity"),
        (&["serve-bench", "--capacity", "100000000000"], "--capacity"),
        (&["serve-bench", "--capacity", "4097"], "--capacity"),
        (&["serve-bench", "--sessions", &max], "--sessions"),
        (&["serve-bench", "--sessions", "100001"], "--sessions"),
    ];
    for (args, named) in counts {
        cases.push((
            args.iter().map(|a| (*a).to_owned()).collect(),
            named.to_owned(),
        ));
    }
    for (args, named) in cases {
        let what = format!("{} `{named}`", args[..2].join(" "));
        let mut child = Command::new("sh")
            .args(["-c", r#"ulimit -v 4194304 && exec "$0" "$@""#])
            .arg(env!("CARGO_BIN_EXE_segscope"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("segscope runs");
        let start = Instant::now();
        while child.try_wait().expect("waitable").is_none() {
            if start.elapsed() > Duration::from_secs(10) {
                let _ = child.kill();
                panic!("{what}: `segscope` still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let elapsed = start.elapsed();
        let output = child.wait_with_output().expect("exited");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{what}: {stderr}");
        assert!(elapsed < Duration::from_secs(1), "{what}: took {elapsed:?}");
        assert!(stderr.contains(&format!("`{named}`")), "{what}: {stderr}");
    }
    assert!(
        !dir.join("out").exists(),
        "a refused campaign wrote its directory"
    );
    assert!(
        !dir.join("rec.json").exists(),
        "a refused snapshot wrote its recording"
    );
}

/// `segscope replay` on a recording with a malformed snapshot ladder,
/// with an unfinishable plan planted in a rung, or with rung machines
/// that cannot boot, exits 1 with a message naming the ladder instead of
/// panicking or diverging later.
#[test]
fn replay_rejects_a_malformed_snapshot_ladder() {
    use segscope_repro::replay::{record, RunSpec};
    use std::process::Command;

    let spec = RunSpec {
        machine: "lenovo_savior".to_owned(),
        seed: 0x51AB,
        spans: 8,
        ..RunSpec::default()
    };
    let recording = record(&spec, 4).expect("recordable");
    let endless: FaultPlan = serde_json::from_str(ENDLESS_PLAN).expect("plan parses");
    let mut planted = Machine::from_snapshot(&recording.snapshots[1].snapshot);
    planted.set_fault_plan(Some(endless));
    let planted = planted.snapshot();
    let mut empty = recording.clone();
    empty.snapshots.clear();
    let mut past_from = recording.clone();
    for point in &mut past_from.snapshots {
        point.event_index += 3;
    }
    let mut endless_rung = recording.clone();
    endless_rung.snapshots[1].snapshot = planted;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad_ladders");
    std::fs::create_dir_all(&dir).expect("test dir");
    let json = |recording: &_| serde_json::to_string(recording).expect("serializes");
    // Every rung's machine with a zero P-state step, which never boots.
    let unbootable = json(&recording).replace(r#""step_khz":100000"#, r#""step_khz":0"#);
    assert_ne!(unbootable, json(&recording), "no rung's step planted");
    for (name, bad) in [
        ("empty", json(&empty)),
        ("past_from", json(&past_from)),
        ("endless", json(&endless_rung)),
        ("unbootable", unbootable),
    ] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, bad).expect("recording written");
        let output = Command::new(env!("CARGO_BIN_EXE_segscope"))
            .args(["replay", "--from", "2", "--in"])
            .arg(&path)
            .output()
            .expect("segscope runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("snapshot ladder"), "{name}: {stderr}");
    }
}

/// `snapshot` and `bisect` refuse an `--inject` time whose picoseconds
/// overflow the simulator clock, and an `--every` of 0, with exit 1 and
/// the flag named, instead of wrapping the time or running at 1.
#[test]
fn snapshot_and_bisect_refuse_overflowing_injects_and_every_zero() {
    use std::process::Command;

    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("refused.rec.json");
    let out = out.to_str().expect("utf-8 path");
    // 18446744073710 µs is the smallest whole-µs time past u64 picoseconds.
    let cases: [(&[&str], &str); 4] = [
        (
            &["snapshot", "--inject", "18446744073710:timer", "--out", out],
            "--inject",
        ),
        (
            &["bisect", "--inject-b", "18446744073710:gpu"],
            "--inject-b",
        ),
        (&["snapshot", "--every", "0", "--out", out], "--every"),
        (&["bisect", "--every", "0"], "--every"),
    ];
    for (args, flag) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_segscope"))
            .args(args)
            .args(["--spans", "4"])
            .output()
            .expect("segscope runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("`{flag}`")), "{args:?}: {stderr}");
    }
}
