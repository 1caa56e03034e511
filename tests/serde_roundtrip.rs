//! Serde round-trip tests for the workspace's public data types
//! (C-SERDE): configurations and results must serialize losslessly so
//! experiment setups and outcomes can be persisted and replayed.
//!
//! The observability types get property-based coverage (every
//! [`obs::EventKind`] variant over random payloads) plus a golden-file
//! check of the Chrome `trace_event` exporter — regenerate the golden
//! with `SEGSCOPE_BLESS=1 cargo test --test serde_roundtrip`.

use proptest::prelude::*;
use segscope_repro::attacks::circl::CirclConfig;
use segscope_repro::attacks::covert::{CovertConfig, CovertScenarioConfig};
use segscope_repro::attacks::dnnsteal::DnnStealConfig;
use segscope_repro::attacks::kaslr::{KaslrConfig, KaslrResult, KaslrScenarioConfig};
use segscope_repro::attacks::keystroke::KeystrokeConfig;
use segscope_repro::attacks::procfp::ProcFpConfig;
use segscope_repro::attacks::spectral::{SpectralConfig, SpectralScenarioConfig};
use segscope_repro::attacks::spectre::{SpectreConfig, SpectreScenarioConfig};
use segscope_repro::attacks::website::{Browser, Setting, WebsiteFpConfig, WebsiteProfile};
use segscope_repro::irq::{HandlerCostModel, InterruptKind, Ps};
use segscope_repro::memsim::{HierarchyConfig, KaslrLayout, KaslrTiming, MemoryHierarchy};
use segscope_repro::obs;
use segscope_repro::segscope::{Denoise, ZScoreFilter};
use segscope_repro::segsim::{FreqConfig, MachineConfig, NoiseModel, StepFn};
use segscope_repro::x86seg::{
    DescriptorTables, PrivilegeLevel, SegmentDescriptor, SegmentRegisterFile, Selector,
};
use serde::{de::DeserializeOwned, Serialize};
use std::fmt::Debug;

fn round_trip<T: Serialize + DeserializeOwned + PartialEq + Debug>(value: &T) {
    let json = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(&back, value, "round trip changed the value");
}

#[test]
fn machine_configs_round_trip() {
    for config in MachineConfig::table1() {
        round_trip(&config);
    }
    round_trip(&FreqConfig::desktop(3_600, 4_000));
    round_trip(&NoiseModel::quiet());
    round_trip(&NoiseModel::virtualized());
    round_trip(&HandlerCostModel::paper_default());
}

#[test]
fn substrate_types_round_trip() {
    round_trip(&HierarchyConfig::client_default());
    round_trip(&KaslrTiming::client_default());
    round_trip(&KaslrLayout::with_slot(99));
    round_trip(&Selector::from_bits(0x2b));
    round_trip(&PrivilegeLevel::Ring2);
    round_trip(&SegmentDescriptor::flat_data(PrivilegeLevel::Ring3));
    round_trip(&DescriptorTables::linux_flat());
    round_trip(&SegmentRegisterFile::flat_user());
    round_trip(&Ps::from_us(1234));
    for kind in InterruptKind::ALL {
        round_trip(&kind);
    }
    // A warm cache hierarchy (non-trivial internal state).
    let mut mem = MemoryHierarchy::default();
    mem.access(0x1000);
    mem.access(0x2000);
    round_trip(&mem);
}

#[test]
fn attack_configs_round_trip() {
    round_trip(&KaslrConfig::paper_default());
    round_trip(&SpectralConfig::paper_default());
    round_trip(&CovertConfig::slow());
    round_trip(&WebsiteFpConfig::quick(Browser::Tor, Setting::Default));
    round_trip(&WebsiteProfile::for_site(12));
    round_trip(&KeystrokeConfig::quick());
    round_trip(&SpectreConfig::paper_default());
    round_trip(&CirclConfig::paper());
    round_trip(&ProcFpConfig::quick());
    round_trip(&DnnStealConfig::bench());
    round_trip(&Denoise::ZScoreAndFreq);
    round_trip(&ZScoreFilter::new(10.0, 2.0, 2.0));
    let mut step = StepFn::zero();
    step.push(Ps::from_ms(1), 0.5);
    step.push(Ps::from_ms(2), 1.0);
    round_trip(&step);
}

/// Every registered scenario's config round-trips from its `Default` —
/// the exact value `segscope run <name>` uses when `--params` is omitted.
#[test]
fn scenario_default_configs_round_trip() {
    round_trip(&CovertConfig::default());
    round_trip(&CovertScenarioConfig::default());
    round_trip(&KeystrokeConfig::default());
    round_trip(&KaslrConfig::default());
    round_trip(&KaslrScenarioConfig::default());
    round_trip(&SpectreConfig::default());
    round_trip(&SpectreScenarioConfig::default());
    round_trip(&WebsiteFpConfig::default());
    round_trip(&CirclConfig::default());
    round_trip(&ProcFpConfig::default());
    round_trip(&SpectralConfig::default());
    round_trip(&SpectralScenarioConfig::default());
    round_trip(&DnnStealConfig::default());
}

#[test]
fn results_round_trip_and_replay() {
    // A real experiment result survives persistence (the replay story).
    let result = KaslrResult {
        ranking: vec![17, 3, 255],
        secret_slot: 17,
        elapsed_s: 10.5,
    };
    round_trip(&result);
    let json = serde_json::to_string(&result).expect("serialize");
    let back: KaslrResult = serde_json::from_str(&json).expect("deserialize");
    assert!(back.top1_hit());
    assert!(back.top_n_hit(2));
}

/// Maps three random integers onto one of the eleven [`obs::EventKind`]
/// variants, covering every payload shape.
fn obs_event_kind(sel: usize, a: u64, b: u64) -> obs::EventKind {
    use obs::{EventKind, FaultKind, IrqClass, SegRegId};
    let irq = IrqClass::ALL[(a % IrqClass::ALL.len() as u64) as usize];
    match sel % 11 {
        0 => EventKind::IrqDelivered {
            irq,
            handler_cost_ps: b,
        },
        1 => EventKind::IrqDropped { irq },
        2 => EventKind::IrqCoalesced { irq },
        3 => EventKind::IrqDuplicated {
            irq,
            ghost_at_ps: b,
        },
        4 => EventKind::SegClear {
            reg: SegRegId::ALL[(a % SegRegId::ALL.len() as u64) as usize],
            null: b.is_multiple_of(2),
        },
        5 => EventKind::KernelReturn {
            cleared: (a % 5) as u8,
            kernel_span_ps: b,
        },
        6 => EventKind::FreqTransition {
            from_khz: a,
            to_khz: b,
        },
        7 => EventKind::ProbeSample { segcnt: a, irq },
        8 => EventKind::FaultInjected {
            fault: [
                FaultKind::HandlerJitter,
                FaultKind::SmtBurst,
                FaultKind::ClampedFreqStep,
            ][(a % 3) as usize],
        },
        9 => EventKind::TrialStart { index: a },
        _ => EventKind::TrialEnd { index: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every event variant survives JSON persistence, payload intact.
    #[test]
    fn obs_events_round_trip(
        at_ps in any::<u64>(),
        track in any::<u32>(),
        sel in 0usize..11,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let event = obs::Event { at_ps, track, kind: obs_event_kind(sel, a, b) };
        let json = serde_json::to_string(&event).expect("serialize");
        let back: obs::Event = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, event);
    }
}

/// The Chrome exporter's exact output is pinned by a golden file: one
/// event of every kind on a deterministic timeline, plus metrics in
/// `otherData`. Any format drift must be a conscious re-bless.
#[test]
fn chrome_exporter_matches_golden() {
    use obs::EventKind;
    let mut sink = obs::TraceSink::with_capacity(64);
    sink.emit(
        1_000_000,
        EventKind::IrqDelivered {
            irq: obs::IrqClass::Timer,
            handler_cost_ps: 250_000,
        },
    );
    sink.emit(
        2_500_000,
        EventKind::IrqDropped {
            irq: obs::IrqClass::Keyboard,
        },
    );
    sink.emit(
        3_000_000,
        EventKind::IrqCoalesced {
            irq: obs::IrqClass::Network,
        },
    );
    sink.emit(
        3_200_000,
        EventKind::IrqDuplicated {
            irq: obs::IrqClass::Timer,
            ghost_at_ps: 4_000_000,
        },
    );
    sink.emit(
        4_100_000,
        EventKind::SegClear {
            reg: obs::SegRegId::Gs,
            null: true,
        },
    );
    sink.emit(
        4_100_000,
        EventKind::KernelReturn {
            cleared: 1,
            kernel_span_ps: 300_000,
        },
    );
    sink.emit(
        5_000_000,
        EventKind::FreqTransition {
            from_khz: 3_400_000,
            to_khz: 3_000_000,
        },
    );
    sink.emit(
        6_000_000,
        EventKind::ProbeSample {
            segcnt: 1234,
            irq: obs::IrqClass::Timer,
        },
    );
    sink.emit(
        6_500_000,
        EventKind::FaultInjected {
            fault: obs::FaultKind::HandlerJitter,
        },
    );
    sink.emit(0, EventKind::TrialStart { index: 0 });
    sink.emit(7_000_000, EventKind::TrialEnd { index: 0 });
    sink.metrics.incr("irq.delivered", 1);
    sink.metrics.phase("probe.interval", 5_000_000, 6_000_000);
    let actual = obs::export::chrome_trace(&sink);

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json");
    if std::env::var("SEGSCOPE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).expect("golden file writable");
        return;
    }
    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with SEGSCOPE_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, blessed,
        "Chrome exporter drift; if intentional, regenerate with \
         SEGSCOPE_BLESS=1 cargo test --test serde_roundtrip"
    );
    // Sanity: the golden is well-formed enough for chrome://tracing.
    assert!(actual.starts_with("{\"displayTimeUnit\":\"ns\""));
    assert_eq!(obs::export::chrome_delivery_count(&actual), 1);
}
