//! The Chrome `trace_event` exporter.
//!
//! The exporter is a pure function of the sink's contents and emits
//! deterministic bytes — field order is fixed, numbers are formatted
//! with integer math (no float printing), and map iteration follows
//! `BTreeMap` order. A trace exported twice from the same run is
//! byte-identical.

use crate::event::{Event, EventClass, EventKind};
use crate::ring::TraceSink;
use std::fmt::Write as _;

/// Appends a Chrome `ts`/`dur` value: picoseconds rendered as decimal
/// microseconds with six fractional digits, via integer math only.
fn push_us(out: &mut String, ps: u64) {
    let _ = write!(out, "{}.{:06}", ps / 1_000_000, ps % 1_000_000);
}

/// Minimal JSON string escaping for the label strings we emit (labels
/// are ASCII identifiers, but escape defensively anyway).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One Chrome event object. `dur_ps = None` emits an instant ("i") or
/// counter ("C") event depending on `phase`.
fn push_chrome_event(
    out: &mut String,
    name: &str,
    phase: char,
    at_ps: u64,
    dur_ps: Option<u64>,
    track: u32,
    args: &[(&str, String)],
) {
    out.push_str("{\"name\":");
    push_json_str(out, name);
    let _ = write!(out, ",\"ph\":\"{phase}\",\"ts\":");
    push_us(out, at_ps);
    if let Some(dur) = dur_ps {
        out.push_str(",\"dur\":");
        push_us(out, dur);
    }
    let _ = write!(out, ",\"pid\":1,\"tid\":{}", track + 1);
    if phase == 'i' {
        // Instant events need a scope; "t" = thread-scoped.
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, key);
        out.push(':');
        out.push_str(value);
    }
    out.push_str("}}");
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    push_json_str(&mut out, s);
    out
}

/// Renders one trace event as a Chrome `trace_event` object: instants
/// ("i") for point events, complete ("X") spans for handler and kernel
/// stints, and a counter ("C") for the frequency curve.
fn chrome_event(out: &mut String, event: &Event) {
    type Args = Vec<(&'static str, String)>;
    let label = event.class().label();
    let at = event.at_ps;
    let instant = |args: Args| (label, 'i', at, None, args);
    let span = |start_ps: u64, dur_ps: u64, args: Args| (label, 'X', start_ps, Some(dur_ps), args);
    let (name, phase, start_ps, dur_ps, args) = match event.kind {
        // The handler routine. An AEX still runs the handler but keeps
        // its own name, so enclave exits stand out on the timeline.
        EventKind::IrqDelivered {
            irq,
            handler_cost_ps,
        }
        | EventKind::AexExit {
            irq,
            handler_cost_ps,
        } => span(at, handler_cost_ps, vec![("irq", quoted(irq.label()))]),
        // The whole kernel stint, ending at the IRET edge the probe
        // observes.
        EventKind::KernelReturn {
            cleared,
            kernel_span_ps,
        } => span(
            at.saturating_sub(kernel_span_ps),
            kernel_span_ps,
            vec![("cleared", cleared.to_string())],
        ),
        EventKind::DefensePad { kernel_span_ps } => {
            span(at.saturating_sub(kernel_span_ps), kernel_span_ps, vec![])
        }
        EventKind::FreqTransition { from_khz, to_khz } => (
            "freq_khz",
            'C',
            at,
            None,
            vec![
                ("khz", to_khz.to_string()),
                ("from_khz", from_khz.to_string()),
            ],
        ),
        EventKind::ProbeSample { segcnt, irq } => instant(vec![
            ("segcnt", segcnt.to_string()),
            ("irq", quoted(irq.label())),
        ]),
        EventKind::IrqDropped { irq } | EventKind::IrqCoalesced { irq } => {
            instant(vec![("irq", quoted(irq.label()))])
        }
        EventKind::IrqDuplicated { irq, ghost_at_ps } => {
            let mut ghost = String::new();
            push_us(&mut ghost, ghost_at_ps);
            instant(vec![("irq", quoted(irq.label())), ("ghost_ts", ghost)])
        }
        EventKind::SegClear { reg, null } => instant(vec![
            ("reg", quoted(reg.label())),
            ("null", null.to_string()),
        ]),
        EventKind::FaultInjected { fault } => instant(vec![("fault", quoted(fault.label()))]),
        EventKind::TrialStart { index } | EventKind::TrialEnd { index } => {
            instant(vec![("index", index.to_string())])
        }
        EventKind::EnclaveDestroyed => instant(vec![]),
        EventKind::ServeVerdict {
            session,
            class,
            steps,
        } => instant(vec![
            ("session", session.to_string()),
            ("class", class.to_string()),
            ("steps", steps.to_string()),
        ]),
    };
    push_chrome_event(out, name, phase, start_ps, dur_ps, event.track, &args);
}

/// Exports the sink as a Chrome `trace_event` JSON document loadable in
/// `about:tracing` / Perfetto. Counters and phase stats ride along in
/// `otherData`.
#[must_use]
pub fn chrome_trace(sink: &TraceSink) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let events = sink.events();
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        chrome_event(&mut out, event);
    }
    out.push_str("\n],\"otherData\":{");
    let _ = write!(
        out,
        "\"events_recorded\":{},\"events_dropped\":{}",
        sink.recorded(),
        sink.dropped()
    );
    for (name, value) in sink.metrics.counters() {
        out.push(',');
        push_json_str(&mut out, &format!("counter.{name}"));
        let _ = write!(out, ":{value}");
    }
    for (name, stats) in sink.metrics.phases() {
        out.push(',');
        push_json_str(&mut out, &format!("phase.{name}.calls"));
        let _ = write!(out, ":{}", stats.calls);
        out.push(',');
        push_json_str(&mut out, &format!("phase.{name}.total_ps"));
        let _ = write!(out, ":{}", stats.total_ps);
    }
    out.push_str("}}\n");
    out
}

/// Number of interrupt-delivery events in the rendered Chrome trace
/// (counts `"name":"irq_delivered"` objects). Lets checks against
/// `GroundTruth` work on the exported artifact itself.
#[must_use]
pub fn chrome_delivery_count(trace_json: &str) -> usize {
    let needle = format!("\"name\":\"{}\"", EventClass::IrqDelivered.label());
    trace_json.matches(&needle).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IrqClass;

    fn sample_sink() -> TraceSink {
        let mut sink = TraceSink::with_capacity(16);
        sink.emit(
            1_500_000,
            EventKind::IrqDelivered {
                irq: IrqClass::Timer,
                handler_cost_ps: 2_000_000,
            },
        );
        sink.emit(
            4_000_000,
            EventKind::FreqTransition {
                from_khz: 1_800_000,
                to_khz: 2_200_000,
            },
        );
        sink.emit(
            5_250_000,
            EventKind::ProbeSample {
                segcnt: 2,
                irq: IrqClass::Keyboard,
            },
        );
        sink.metrics.incr("probe.samples", 1);
        sink.metrics.phase("probing", 0, 5_250_000);
        sink
    }

    #[test]
    fn chrome_trace_is_deterministic_and_structured() {
        let sink = sample_sink();
        let a = chrome_trace(&sink);
        let b = chrome_trace(&sink);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ts\":1.500000"));
        assert!(a.contains("\"dur\":2.000000"));
        assert!(a.contains("\"counter.probe.samples\":1"));
        assert!(a.contains("\"phase.probing.calls\":1"));
        assert_eq!(chrome_delivery_count(&a), 1);
    }

    #[test]
    fn us_formatting_uses_integer_math() {
        let mut s = String::new();
        push_us(&mut s, 0);
        assert_eq!(s, "0.000000");
        let mut s = String::new();
        push_us(&mut s, 1);
        assert_eq!(s, "0.000001");
        let mut s = String::new();
        push_us(&mut s, 123_456_789_012);
        assert_eq!(s, "123456.789012");
    }

    #[test]
    fn json_strings_escape_specials() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }
}
