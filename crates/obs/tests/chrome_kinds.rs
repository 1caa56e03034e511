//! Byte pins for the Chrome exporter: one event of every `EventKind`,
//! rendered through `chrome_trace`, must produce exactly the object
//! below. The trace goldens reach only some kinds; this table reaches
//! all fifteen, on a non-zero track so the `tid` mapping shows.

use obs::{Event, EventKind, FaultKind, IrqClass, SegRegId, TraceSink};

fn rendered(at_ps: u64, kind: EventKind) -> String {
    let mut sink = TraceSink::with_capacity(4);
    sink.record(Event {
        at_ps,
        track: 2,
        kind,
    });
    let trace = obs::export::chrome_trace(&sink);
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(lines.len(), 3, "one event line between header and footer");
    assert_eq!(lines[0], "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    assert_eq!(
        lines[2],
        "],\"otherData\":{\"events_recorded\":1,\"events_dropped\":0}}"
    );
    lines[1].to_owned()
}

#[test]
fn every_kind_renders_its_pinned_chrome_object() {
    let cases: [(u64, EventKind, &str); 15] = [
        (
            1_500_000,
            EventKind::IrqDelivered {
                irq: IrqClass::Timer,
                handler_cost_ps: 2_000_001,
            },
            r#"{"name":"irq_delivered","ph":"X","ts":1.500000,"dur":2.000001,"pid":1,"tid":3,"args":{"irq":"timer"}}"#,
        ),
        (
            2_000_000,
            EventKind::IrqDropped {
                irq: IrqClass::Network,
            },
            r#"{"name":"irq_dropped","ph":"i","ts":2.000000,"pid":1,"tid":3,"s":"t","args":{"irq":"network"}}"#,
        ),
        (
            2_100_000,
            EventKind::IrqCoalesced { irq: IrqClass::Gpu },
            r#"{"name":"irq_coalesced","ph":"i","ts":2.100000,"pid":1,"tid":3,"s":"t","args":{"irq":"gpu"}}"#,
        ),
        (
            2_200_000,
            EventKind::IrqDuplicated {
                irq: IrqClass::Keyboard,
                ghost_at_ps: 3_000_007,
            },
            r#"{"name":"irq_duplicated","ph":"i","ts":2.200000,"pid":1,"tid":3,"s":"t","args":{"irq":"keyboard","ghost_ts":3.000007}}"#,
        ),
        (
            2_300_000,
            EventKind::SegClear {
                reg: SegRegId::Fs,
                null: false,
            },
            r#"{"name":"seg_clear","ph":"i","ts":2.300000,"pid":1,"tid":3,"s":"t","args":{"reg":"fs","null":false}}"#,
        ),
        (
            4_000_000,
            EventKind::KernelReturn {
                cleared: 3,
                kernel_span_ps: 1_250_000,
            },
            r#"{"name":"kernel_return","ph":"X","ts":2.750000,"dur":1.250000,"pid":1,"tid":3,"args":{"cleared":3}}"#,
        ),
        (
            5_000_000,
            EventKind::FreqTransition {
                from_khz: 3_400_000,
                to_khz: 2_900_000,
            },
            r#"{"name":"freq_khz","ph":"C","ts":5.000000,"pid":1,"tid":3,"args":{"khz":2900000,"from_khz":3400000}}"#,
        ),
        (
            6_000_123,
            EventKind::ProbeSample {
                segcnt: 42,
                irq: IrqClass::CallFunction,
            },
            r#"{"name":"probe_sample","ph":"i","ts":6.000123,"pid":1,"tid":3,"s":"t","args":{"segcnt":42,"irq":"callfn"}}"#,
        ),
        (
            6_500_000,
            EventKind::FaultInjected {
                fault: FaultKind::ClampedFreqStep,
            },
            r#"{"name":"fault_injected","ph":"i","ts":6.500000,"pid":1,"tid":3,"s":"t","args":{"fault":"clamped_freq_step"}}"#,
        ),
        (
            0,
            EventKind::TrialStart { index: 7 },
            r#"{"name":"trial_start","ph":"i","ts":0.000000,"pid":1,"tid":3,"s":"t","args":{"index":7}}"#,
        ),
        (
            9_000_000,
            EventKind::TrialEnd { index: 7 },
            r#"{"name":"trial_end","ph":"i","ts":9.000000,"pid":1,"tid":3,"s":"t","args":{"index":7}}"#,
        ),
        (
            10_000_000,
            EventKind::AexExit {
                irq: IrqClass::Thermal,
                handler_cost_ps: 400_000,
            },
            r#"{"name":"aex_exit","ph":"X","ts":10.000000,"dur":0.400000,"pid":1,"tid":3,"args":{"irq":"thermal"}}"#,
        ),
        (
            100,
            EventKind::DefensePad {
                kernel_span_ps: 900,
            },
            r#"{"name":"defense_pad","ph":"X","ts":0.000000,"dur":0.000900,"pid":1,"tid":3,"args":{}}"#,
        ),
        (
            11_000_000,
            EventKind::EnclaveDestroyed,
            r#"{"name":"enclave_destroyed","ph":"i","ts":11.000000,"pid":1,"tid":3,"s":"t","args":{}}"#,
        ),
        (
            12_000_000,
            EventKind::ServeVerdict {
                session: 5,
                class: 3,
                steps: 64,
            },
            r#"{"name":"serve_verdict","ph":"i","ts":12.000000,"pid":1,"tid":3,"s":"t","args":{"session":5,"class":3,"steps":64}}"#,
        ),
    ];
    for (at_ps, kind, expected) in cases {
        assert_eq!(rendered(at_ps, kind), expected, "{kind:?}");
    }
}
