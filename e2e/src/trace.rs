//! Host-time span recorder for the traced benchmark run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! the program's public functions. Each thread appends to its own
//! buffer; nothing is serialized until [`Tracer::finish`]. A disabled
//! tracer reads no clock and records nothing, so the untraced code path
//! pays one branch per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of a recorded span; [`SpanId::ROOT`] is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, `crate.operation` (the table groups by it).
    pub name: &'static str,
    /// Free-form qualifier, e.g. the scenario of a campaign cell.
    pub detail: &'static str,
    /// This span's identifier (unique within one tracer).
    pub id: u64,
    /// The enclosing span's identifier, possibly on another thread.
    pub parent: u64,
    /// The unit of work the span serves: a cell, trial chunk or session.
    pub request: u64,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static NEXT_TRACER: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// This thread's buffer, tagged with the tracer it belongs to.
    static LOCAL: RefCell<Option<(usize, u32, Buffer)>> = const { RefCell::new(None) };
}

/// The span recorder. Share it by reference across scoped threads.
#[derive(Debug)]
pub struct Tracer {
    /// Time zero of the spans; `None` when disabled.
    epoch: Option<Instant>,
    key: usize,
    next_span: AtomicU64,
    buffers: Mutex<Vec<Buffer>>,
}

impl Tracer {
    /// A recorder that records spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: enabled.then(Instant::now),
            key: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            next_span: AtomicU64::new(1),
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, serving
    /// `request`. `f` receives the new span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        detail: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let Some(epoch) = self.epoch else {
            return f(SpanId::ROOT);
        };
        let now_ns =
            || u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years");
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let start_ns = now_ns();
        let out = f(SpanId(id));
        let end_ns = now_ns();
        self.push(Span {
            name,
            detail,
            id,
            parent: parent.0,
            request,
            thread: 0,
            start_ns,
            end_ns,
        });
        out
    }

    fn push(&self, mut span: Span) {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            if local.as_ref().map(|(key, _, _)| *key) != Some(self.key) {
                let mut buffers = self.buffers.lock().expect("tracer registry poisoned");
                let buffer = Buffer::default();
                buffers.push(Arc::clone(&buffer));
                let thread = u32::try_from(buffers.len()).expect("fewer than 2^32 threads");
                *local = Some((self.key, thread, buffer));
            }
            let (_, thread, buffer) = local.as_ref().expect("registered above");
            span.thread = *thread;
            buffer.lock().expect("span buffer poisoned").push(span);
        });
    }

    /// Collects every thread's spans, ordered by start time.
    #[must_use]
    pub fn finish(&self) -> Vec<Span> {
        let buffers = self.buffers.lock().expect("tracer registry poisoned");
        let mut spans: Vec<Span> = buffers
            .iter()
            .flat_map(|b| std::mem::take(&mut *b.lock().expect("span buffer poisoned")))
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Chrome `trace_event` JSON of `spans` (complete events, microseconds).
#[must_use]
pub(crate) fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"detail\":\"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.thread,
                s.id,
                s.parent,
                s.request,
                s.detail,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
}

/// Self time of every span: its duration minus the part of it that
/// its children's intervals cover (children may overlap when they run
/// on several threads, so the union is subtracted, not the sum).
#[must_use]
pub(crate) fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LayerRow {
    /// Spans recorded under the layer name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Groups spans by layer name.
#[must_use]
pub(crate) fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let own = self_times(spans);
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += own[&s.id];
    }
    table
}

/// Share of the top-level spans' wall time attributed to named child
/// layers (1 − their self time ÷ their duration).
#[must_use]
pub(crate) fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let roots = spans.iter().filter(|s| s.parent == 0);
    let (wall, unattributed) = roots.fold((0, 0), |(w, u), s| (w + s.dur_ns(), u + own[&s.id]));
    if wall == 0 {
        return 0.0;
    }
    1.0 - unattributed as f64 / wall as f64
}

/// The per-layer table as text: self time, its share of all attributed
/// time, span count and mean span duration, largest self time first.
#[must_use]
pub(crate) fn format_table(spans: &[Span]) -> String {
    let table = layer_table(spans);
    let attributed: u64 = table.values().map(|r| r.self_ns).sum();
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<24} {:>12} {:>7} {:>9} {:>12}\n",
        "layer", "self_ms", "share", "count", "mean_us"
    );
    for (name, row) in rows {
        out.push_str(&format!(
            "{:<24} {:>12.3} {:>7.3} {:>9} {:>12.3}\n",
            name,
            row.self_ns as f64 / 1e6,
            row.self_ns as f64 / attributed.max(1) as f64,
            row.count,
            row.total_ns as f64 / row.count as f64 / 1e3,
        ));
    }
    out.push_str(&format!(
        "coverage of traced wall time: {:.4}\n",
        coverage(spans)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let got = tracer.span("a.b", "", SpanId::ROOT, 0, |id| {
            assert_eq!(id, SpanId::ROOT);
            7
        });
        assert_eq!(got, 7);
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            name: "x.y",
            detail: "",
            id,
            parent,
            request: 0,
            thread: 1,
            start_ns,
            end_ns,
        };
        // Root 0..100 with two overlapping children 10..60 and 40..80.
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)];
        let own = self_times(&spans);
        assert_eq!(own[&1], 30);
        assert_eq!(own[&2], 50);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn spans_from_scoped_threads_are_collected() {
        let tracer = Tracer::new(true);
        tracer.span("root.run", "", SpanId::ROOT, 0, |root| {
            std::thread::scope(|scope| {
                for k in 0..3 {
                    let tracer = &tracer;
                    scope.spawn(move || tracer.span("leaf.work", "", root, k, |_| ()));
                }
            });
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "root.run").expect("root");
        assert!(spans
            .iter()
            .filter(|s| s.name == "leaf.work")
            .all(|s| s.parent == root.id));
        assert!(chrome_trace(&spans).starts_with("{\"traceEvents\":[{"));
    }
}
