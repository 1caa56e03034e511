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
use segscope_repro::attacks::circl::{run_extraction, CirclConfig};
use segscope_repro::attacks::covert::{transmit, CovertConfig};
use segscope_repro::attacks::dnnsteal::{collect_annotated_trace_with, Architecture};
use segscope_repro::attacks::kaslr::{break_kaslr_fresh, KaslrConfig};
use segscope_repro::attacks::keystroke::{identify_users, KeystrokeConfig};
use segscope_repro::attacks::procfp::{observe_with, AppClass};
use segscope_repro::attacks::spectral::{run_attack, SpectralConfig, SpectralMode};
use segscope_repro::attacks::spectre::{leak_secret, SpectreConfig};
use segscope_repro::attacks::website::{collect_trace, Browser, Setting, WebsiteFpConfig};
use segscope_repro::irq::Ps;
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
    let clean = run_extraction(&CirclConfig::quick());
    assert!(clean.recovered, "clean baseline must recover the key");

    let jittered = run_extraction(&CirclConfig::quick().with_fault_plan(jitter_only()));
    assert!(
        jittered.recovered,
        "timing-only faults broke CIRCL extraction (bit accuracy {})",
        jittered.bit_accuracy
    );

    let stormed =
        run_extraction(&CirclConfig::quick().with_fault_plan(FaultPlan::delivery_storm()));
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
    let clean = transmit(&CovertConfig::slow(), &message, 0xFA04);

    let jittered = transmit(
        &CovertConfig::slow().with_fault_plan(jitter_only()),
        &message,
        0xFA04,
    );
    assert!(
        jittered.error_rate <= clean.error_rate + 0.15,
        "jitter alone should not wreck the slow channel: {} vs {}",
        jittered.error_rate,
        clean.error_rate
    );

    let stormed = transmit(
        &CovertConfig::slow().with_fault_plan(FaultPlan::delivery_storm()),
        &message,
        0xFA04,
    );
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

    let clean = collect_annotated_trace_with(&arch, 0xFA06, None).expect("clean trace");
    let jittered =
        collect_annotated_trace_with(&arch, 0xFA06, Some(jitter_only())).expect("jittered trace");
    assert_eq!(
        clean.tags.len(),
        clean.xs.len(),
        "annotated trace is per-timestep"
    );
    // Timing faults change feature values, never the count invariant.
    assert_eq!(jittered.tags.len(), jittered.xs.len());

    let stormed = collect_annotated_trace_with(&arch, 0xFA06, Some(FaultPlan::delivery_storm()))
        .expect("stormed trace");
    assert!(
        stormed.xs != clean.xs || stormed.tags != clean.tags,
        "delivery faults must alter the annotated trace"
    );
}

/// KASLR (IV-E): the slot ranking survives handler jitter; a delivery
/// storm visibly reshuffles the measured ranking.
#[test]
fn kaslr_fault_injection() {
    let config = KaslrConfig {
        c: 5,
        ..KaslrConfig::quick()
    };
    let clean = break_kaslr_fresh(MachineConfig::xiaomi_air13(), &config, 0xFA07).expect("clean");
    assert!(clean.top_n_hit(5), "clean baseline must rank the secret");

    let jittered = break_kaslr_fresh(
        MachineConfig::xiaomi_air13().with_fault_plan(jitter_only()),
        &config,
        0xFA07,
    )
    .expect("jittered");
    assert!(
        jittered.top_n_hit(5),
        "timing-only faults must not hide the secret slot"
    );

    let stormed = break_kaslr_fresh(
        MachineConfig::xiaomi_air13().with_fault_plan(FaultPlan::delivery_storm()),
        &config,
        0xFA07,
    )
    .expect("stormed run still completes");
    assert_ne!(
        stormed.ranking, clean.ranking,
        "delivery faults must visibly perturb the ranking"
    );
}

/// Keystroke biometrics: identification stays useful under jitter and
/// degrades (never improves) under a delivery storm.
#[test]
fn keystroke_fault_injection() {
    let clean = identify_users(&KeystrokeConfig::quick());
    let jittered = identify_users(&KeystrokeConfig::quick().with_fault_plan(jitter_only()));
    assert!(
        jittered.accuracy + 0.2 >= clean.accuracy,
        "jitter should not collapse keystroke accuracy: {} vs {}",
        jittered.accuracy,
        clean.accuracy
    );
    let stormed =
        identify_users(&KeystrokeConfig::quick().with_fault_plan(FaultPlan::delivery_storm()));
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
    let window = Ps::from_ms(300);
    let clean = observe_with(AppClass::Compiler, 0xFA08, window, 64, None);
    let jittered = observe_with(AppClass::Compiler, 0xFA08, window, 64, Some(jitter_only()));
    let stormed = observe_with(
        AppClass::Compiler,
        0xFA08,
        window,
        64,
        Some(FaultPlan::delivery_storm()),
    );
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
    let clean = run_attack(
        &SpectralConfig::paper_default(),
        SpectralMode::Enhanced,
        bits,
        0xFA09,
    );
    let jittered = run_attack(
        &SpectralConfig::paper_default().with_fault_plan(jitter_only()),
        SpectralMode::Enhanced,
        bits,
        0xFA09,
    );
    let original = run_attack(
        &SpectralConfig::paper_default().with_fault_plan(jitter_only()),
        SpectralMode::Original,
        bits,
        0xFA09,
    );
    assert!(
        jittered.error_rate < original.error_rate,
        "enhanced mode must keep its edge under jitter: {} vs {}",
        jittered.error_rate,
        original.error_rate
    );
    let stormed = run_attack(
        &SpectralConfig::paper_default().with_fault_plan(FaultPlan::delivery_storm()),
        SpectralMode::Enhanced,
        bits,
        0xFA09,
    );
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
    let clean = leak_secret(b"OK", &SpectreConfig::quick(), 0xFA0A).expect("clean leak");
    let jittered = leak_secret(
        b"OK",
        &SpectreConfig::quick().with_fault_plan(jitter_only()),
        0xFA0A,
    )
    .expect("jittered leak");
    assert!(
        jittered.success_rate >= 0.5,
        "timing-only faults broke the leak: {}",
        jittered.success_rate
    );
    let stormed = leak_secret(
        b"OK",
        &SpectreConfig::quick().with_fault_plan(FaultPlan::delivery_storm()),
        0xFA0A,
    )
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
/// every interrupt spawns ghosts forever. `segscope run` and
/// `segscope campaign run` must refuse the plan up front, naming the
/// field, before any trial or cell runs.
#[test]
fn cli_rejects_a_plan_that_never_finishes() {
    use std::process::Command;

    let plan = r#"{"drop_prob":0,"duplicate_prob":1,"duplicate_delay":0,
        "coalesce_window":0,"handler_jitter_std":0,"freq_step_clamp_khz":null,
        "smt_burst_prob":0,"smt_burst_factor":1,"smt_burst_ops":0}"#;
    let segscope = env!("CARGO_BIN_EXE_segscope");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("endless_plan");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spec = dir.join("spec.json");
    let spec_json = format!(
        r#"{{"name":"endless","seed":1,"scenarios":[{{"scenario":"covert","params":null}}],
        "presets":["lenovo_yangtian"],"faults":[{{"name":"ghosts","plan":{plan}}}],
        "replicates":1,"trials":1}}"#
    );
    std::fs::write(&spec, spec_json).expect("spec written");
    let out = dir.join("out");

    let run = Command::new(segscope)
        .args(["run", "covert", "--trials", "1", "--fault-plan", plan])
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
