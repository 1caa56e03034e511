//! `serve-stream`: open-loop session arrivals into one
//! [`serve::SessionBatch`] of [`CAPACITY`] lanes over the f64
//! [`nnet::SeqClassifier`].
//!
//! Why open loop: independently monitored victims arrive whether or not
//! the server keeps up, so one generator thread releases sessions on a
//! fixed schedule and each verdict's latency is measured from the time
//! its session was due. Each session is one held-out `website` trace of
//! 64 pooled steps, whole at its due time. This is the only workload
//! that runs `serve`.
//!
//! Set-up (trace collection and model training) is owned here, not
//! borrowed from another crate, so no other change can redefine the
//! workload.

use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::{repeat_set_up, Measured, Scale, Settings};
use nnet::{AdamConfig, SeqClassifier, SeqExample};
use rand::SeedableRng;
use segscope_attacks::website::{self, Browser, Setting, WebsiteFpConfig};
use serve::{SessionBatch, SessionId, Verdict};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Lanes of the session batch.
pub(crate) const CAPACITY: usize = 64;

/// Closed-loop sessions/s of the batch at the commit that introduced the
/// benchmark (2-core x86-64 host); the fixed rates derive from it.
pub(crate) const CLOSED_LOOP_SPS: f64 = 9_400.0;

/// Names of the fixed rates.
pub(crate) const RATE_NAMES: [&str; 3] = ["low", "mid", "high"];

/// The fixed offered rates, sessions/s: 25 %, 50 % and 75 % of
/// [`CLOSED_LOOP_SPS`].
pub(crate) const RATES: [f64; 3] = [
    0.25 * CLOSED_LOOP_SPS,
    0.5 * CLOSED_LOOP_SPS,
    0.75 * CLOSED_LOOP_SPS,
];

/// Verdict p99 limit, ms: 4× the unloaded p99 at the commit that
/// introduced the benchmark, rounded up to a whole ms.
pub(crate) const P99_LIMIT_MS: f64 = 3.0;

/// Bisection probes for the highest sustainable rate.
const PROBES: usize = 6;

/// Bisection bracket, as multiples of [`CLOSED_LOOP_SPS`].
const BRACKET: (f64, f64) = (0.25, 2.0);

/// Offered rate of the unloaded-latency phase of the traced run, as a
/// multiple of [`CLOSED_LOOP_SPS`].
const UNLOADED: f64 = 0.05;

/// Sessions of the traced run's closed-loop passes.
const CLOSED_LOOP_SESSIONS: usize = 20_000;

/// Sessions of one closed-loop unit of the untraced run.
const CLOSED_LOOP_UNIT: usize = 2_000;

/// Length of one low-rate open-loop phase of the untraced run.
const LOW_PHASE: Duration = Duration::from_millis(750);

/// Auxiliary seed stream of the serving model.
const MODEL_STREAM: u64 = 0x5E5E;

/// Training traces and held-out traces per site.
fn split_sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (4, 2),
        Scale::Smoke => (1, 1),
    }
}

/// The trained model and the held-out traces sessions replay.
pub(crate) struct Model {
    /// The classifier.
    pub model: SeqClassifier,
    /// Held-out traces; session `i` replays trace `i % len`.
    pub traces: Vec<Vec<Vec<f32>>>,
}

/// Collects the website traces for `seed` and trains the classifier,
/// with a span around each step.
#[must_use]
pub(crate) fn set_up(seed: u64, scale: Scale, tracer: &Tracer, parent: SpanId) -> Model {
    let mut config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
    config.seed = seed;
    let (train_per_site, held_per_site) = split_sizes(scale);
    let per_site = train_per_site + held_per_site;
    let (train, held): (Vec<SeqExample>, Vec<SeqExample>) =
        tracer.span("serve.collect", "", parent, 0, |_| {
            let mut train = Vec::new();
            let mut held = Vec::new();
            for site in 0..config.n_sites {
                for rep in 0..per_site {
                    let visit = exec::derive_seed(seed, (site * per_site + rep) as u64);
                    let trace = website::collect_trace(&config, site, visit);
                    let example = website::trace_to_example(&trace, config.pooled_len, site);
                    if rep < train_per_site {
                        train.push(example);
                    } else {
                        held.push(example);
                    }
                }
            }
            (train, held)
        });
    let model = tracer.span("nnet.train", "", parent, 0, |_| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(exec::derive_seed(seed, MODEL_STREAM));
        let mut model = SeqClassifier::new(
            2,
            config.hidden,
            config.n_sites,
            &mut rng,
            AdamConfig::default(),
        );
        let epochs = if scale == Scale::Full {
            config.epochs
        } else {
            1
        };
        for _ in 0..epochs {
            model.train_epoch(&train, 8);
        }
        model
    });
    Model {
        model,
        traces: held.into_iter().map(|e| e.xs).collect(),
    }
}

/// One open-loop phase's observations.
#[derive(Debug, Clone, Default)]
pub(crate) struct Phase {
    /// Verdict latency of every session from its due time, ms.
    pub latency_ms: Vec<f64>,
    /// Verdicts in session order.
    pub verdicts: Vec<Verdict>,
    /// Sessions due but not finished at the phase's midpoint and end.
    pub backlog: (usize, usize),
    /// How late the generator released each session, ms.
    pub gen_late_ms: Vec<f64>,
    /// Time each session waited for a lane, ms.
    pub queue_ms: Vec<f64>,
    /// Batch steps taken.
    pub steps: u64,
    /// Occupied lanes summed over steps.
    pub lane_steps: u64,
}

impl Phase {
    /// Nearest-rank percentile of the verdict latencies, ms.
    #[must_use]
    pub fn latency(&self, p: f64) -> f64 {
        percentile(&self.latency_ms, p)
    }

    /// Whether the phase meets the latency limit without a growing
    /// backlog (the queue at the end exceeds the queue at the midpoint
    /// by more than the capacity).
    #[must_use]
    pub fn sustained(&self) -> bool {
        self.latency(99.0) <= P99_LIMIT_MS && self.backlog.1 <= self.backlog.0 + CAPACITY
    }
}

struct Arrival {
    session: usize,
    due: Duration,
}

struct Lane {
    id: SessionId,
    session: usize,
    cursor: usize,
    due: Duration,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Offers sessions at `rate` per second for `duration` and serves them
/// to completion: one generator thread, one serving thread. The server
/// records no spans: at low rates it takes over a hundred thousand
/// single-lane steps per second, too many to keep.
#[must_use]
pub(crate) fn open_loop(model: &Model, rate: f64, duration: Duration) -> Phase {
    let total = ((rate * duration.as_secs_f64()).ceil() as usize).max(1);
    let due_count = |t: Duration| ((t.as_secs_f64() * rate) as usize + 1).min(total);
    let (tx, rx) = mpsc::channel::<Arrival>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late = Vec::with_capacity(total);
            for session in 0..total {
                let due = Duration::from_secs_f64(session as f64 / rate);
                let now = start.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(ms(start.elapsed().saturating_sub(due)));
                tx.send(Arrival { session, due })
                    .expect("the server outlives the generator");
            }
            late
        });
        let mut phase = serve_arrivals(model, &rx, start, duration, due_count);
        phase.gen_late_ms = generator.join().expect("the generator does not panic");
        phase
    })
}

fn serve_arrivals(
    model: &Model,
    rx: &mpsc::Receiver<Arrival>,
    start: Instant,
    duration: Duration,
    due_count: impl Fn(Duration) -> usize,
) -> Phase {
    let steps = model.traces[0].len();
    let mut batch = SessionBatch::new(&model.model, CAPACITY);
    let mut lanes: Vec<Option<Lane>> = (0..CAPACITY).map(|_| None).collect();
    let mut pending: VecDeque<Arrival> = VecDeque::new();
    let mut verdicts: Vec<Option<Verdict>> = Vec::new();
    let mut phase = Phase::default();
    let (mut finished, mut open) = (0usize, true);
    let (mut mid, mut end) = (None, None);
    loop {
        loop {
            match rx.try_recv() {
                Ok(arrival) => pending.push_back(arrival),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let now = start.elapsed();
        if mid.is_none() && now >= duration / 2 {
            mid = Some(due_count(now).saturating_sub(finished));
        }
        if end.is_none() && now >= duration {
            end = Some(due_count(now).saturating_sub(finished));
        }
        if batch.active_sessions() == 0 && pending.is_empty() {
            if !open {
                break;
            }
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(arrival) => pending.push_back(arrival),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
            }
            continue;
        }
        while !pending.is_empty() {
            let Some(id) = batch.attach(steps) else { break };
            let arrival = pending.pop_front().expect("checked non-empty");
            phase.queue_ms.push(ms(now.saturating_sub(arrival.due)));
            lanes[id.lane()] = Some(Lane {
                id,
                session: arrival.session,
                cursor: 0,
                due: arrival.due,
            });
        }
        for lane in lanes.iter_mut().flatten() {
            let trace = &model.traces[lane.session % model.traces.len()];
            batch.stage(lane.id, &trace[lane.cursor]);
            lane.cursor += 1;
        }
        phase.lane_steps += batch.active_sessions() as u64;
        phase.steps += 1;
        let out = batch.step(&model.model);
        let done = start.elapsed();
        for (id, verdict) in out {
            let lane = lanes[id.lane()]
                .take()
                .expect("verdicts come from live lanes");
            phase.latency_ms.push(ms(done.saturating_sub(lane.due)));
            if verdicts.len() <= lane.session {
                verdicts.resize(lane.session + 1, None);
            }
            verdicts[lane.session] = Some(verdict);
            finished += 1;
        }
    }
    phase.backlog = (mid.unwrap_or(0), end.unwrap_or(0));
    phase.verdicts = verdicts
        .into_iter()
        .map(|v| v.expect("every released session is served"))
        .collect();
    phase
}

/// Serves `sessions` sessions back to back with every lane kept busy;
/// returns the wall seconds and the verdicts in session order.
#[must_use]
pub(crate) fn closed_loop(
    model: &Model,
    sessions: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> (f64, Vec<Verdict>) {
    let steps = model.traces[0].len();
    let start = Instant::now();
    let mut batch = SessionBatch::new(&model.model, CAPACITY);
    let mut lanes: Vec<Option<(SessionId, usize, usize)>> = vec![None; CAPACITY];
    let mut verdicts = vec![None; sessions];
    let (mut next, mut step) = (0, 0);
    loop {
        while next < sessions {
            let Some(id) = batch.attach(steps) else { break };
            lanes[id.lane()] = Some((id, next, 0));
            next += 1;
        }
        if batch.active_sessions() == 0 {
            break;
        }
        for (id, session, cursor) in lanes.iter_mut().flatten() {
            batch.stage(*id, &model.traces[*session % model.traces.len()][*cursor]);
            *cursor += 1;
        }
        step += 1;
        for (id, verdict) in
            tracer.span("serve.step", "", parent, step, |_| batch.step(&model.model))
        {
            let (_, session, _) = lanes[id.lane()]
                .take()
                .expect("verdicts come from live lanes");
            verdicts[session] = Some(verdict);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    (
        wall,
        verdicts
            .into_iter()
            .map(|v| v.expect("every session is served"))
            .collect(),
    )
}

/// Verdict checking shared by every phase of a run.
struct Checker {
    expected: Vec<Verdict>,
    measured: Measured,
}

impl Checker {
    fn new(model: &Model) -> Self {
        let expected = serve::serve_sequential(&model.model, &model.traces);
        let measured = Measured {
            digest: serve::verdict_fnv(&expected),
            ..Measured::default()
        };
        Checker { expected, measured }
    }

    /// Counts `served` as attempted, and as failed unless it equals the
    /// sequential verdicts of the same sessions.
    fn check(&mut self, served: &[Verdict]) {
        self.measured.attempted += served.len() as u64;
        let want: Vec<Verdict> = (0..served.len())
            .map(|i| self.expected[i % self.expected.len()])
            .collect();
        if serve::verdict_fnv(&want) != serve::verdict_fnv(served) {
            eprintln!("serve-stream: served verdicts differ from serve_sequential");
            self.measured.failed += served.len() as u64;
        }
    }
}

/// Runs the workload, or the traced run. The untraced run alternates a
/// closed-loop unit (every lane busy) with an open-loop phase at the low
/// rate until `settings.seconds` have passed.
///
/// # Errors
///
/// None at present; the signature matches the other workloads.
pub(crate) fn run(settings: &Settings) -> Result<Measured, String> {
    if settings.trace {
        return Ok(run_traced(settings));
    }
    let off = Tracer::new(false);
    let (sessions, phase) = match settings.scale {
        Scale::Full => (CLOSED_LOOP_UNIT, LOW_PHASE),
        Scale::Smoke => (100, Duration::from_millis(40)),
    };
    let (mut setups, mut rates, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut checker = None;
    let start = Instant::now();
    loop {
        let model = repeat_set_up(&mut setups, || {
            Ok(set_up(settings.seed, settings.scale, &off, SpanId::ROOT))
        })?;
        let checker = checker.get_or_insert_with(|| Checker::new(&model));
        let (wall, verdicts) = closed_loop(&model, sessions, &off, SpanId::ROOT);
        checker.check(&verdicts);
        rates.push(sessions as f64 / wall);
        let low = open_loop(&model, RATES[0], phase);
        checker.check(&low.verdicts);
        p50s.push(low.latency(50.0));
        if start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }
    let mut measured = checker.expect("at least one unit ran").measured;
    eprintln!(
        "serve-stream: {} closed-loop units, {} low-rate phases, verdict digest {:#018x}",
        rates.len(),
        p50s.len(),
        measured.digest
    );
    // Fastest unit and quietest phase: host contention only ever slows
    // the server down.
    let m = &mut measured.metrics;
    m.insert(
        "ops_per_s".into(),
        rates.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "latency_ms".into(),
        p50s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.insert("setup_s".into(), median(&setups));
    m.insert("peak_rss_mb".into(), crate::own_peak_rss_mb());
    Ok(measured)
}

/// Bisects for the highest offered rate that [`Phase::sustained`].
fn max_rate(
    model: &Model,
    probe: Duration,
    checker: &mut Checker,
    tracer: &Tracer,
    parent: SpanId,
) -> f64 {
    let (mut lo, mut hi) = (BRACKET.0 * CLOSED_LOOP_SPS, BRACKET.1 * CLOSED_LOOP_SPS);
    for k in 0..PROBES {
        let rate = (lo + hi) / 2.0;
        let phase = tracer.span("serve.phase", "probe", parent, k as u64, |_| {
            open_loop(model, rate, probe)
        });
        checker.check(&phase.verdicts);
        if phase.sustained() {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    lo
}

fn run_traced(settings: &Settings) -> Measured {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let (sessions, phase_time, probe_time) = match settings.scale {
        Scale::Full => (
            CLOSED_LOOP_SESSIONS,
            Duration::from_secs_f64(settings.seconds / 6.0),
            Duration::from_secs_f64(settings.seconds / 12.0),
        ),
        Scale::Smoke => (100, Duration::from_millis(20), Duration::from_millis(10)),
    };
    let (mut checker, mut m) = tracer.span("e2e.serve", "", SpanId::ROOT, 0, |root| {
        let model = set_up(settings.seed, settings.scale, &tracer, root);
        let mut checker = Checker::new(&model);
        let mut m = BTreeMap::new();
        let (untraced_s, verdicts) = tracer.span("serve.closed_loop", "untraced", root, 0, |_| {
            closed_loop(&model, sessions, &off, root)
        });
        checker.check(&verdicts);
        let (traced_s, verdicts) = tracer.span("serve.closed_loop", "traced", root, 1, |span| {
            closed_loop(&model, sessions, &tracer, span)
        });
        checker.check(&verdicts);
        m.insert("serve.closed_loop_sps".into(), sessions as f64 / untraced_s);
        m.insert("trace.overhead_share".into(), traced_s / untraced_s - 1.0);
        let unloaded = tracer.span("serve.phase", "unloaded", root, 0, |_| {
            open_loop(&model, UNLOADED * CLOSED_LOOP_SPS, phase_time)
        });
        checker.check(&unloaded.verdicts);
        m.insert("serve.unloaded_p99_ms".into(), unloaded.latency(99.0));
        let mut loaded = Phase::default();
        for (name, rate) in RATE_NAMES.iter().zip(RATES) {
            let phase = tracer.span("serve.phase", name, root, 0, |_| {
                open_loop(&model, rate, phase_time)
            });
            checker.check(&phase.verdicts);
            m.insert(format!("serve.verdict_p50_ms.{name}"), phase.latency(50.0));
            m.insert(format!("serve.verdict_p99_ms.{name}"), phase.latency(99.0));
            loaded.queue_ms.extend(&phase.queue_ms);
            loaded.gen_late_ms.extend(&phase.gen_late_ms);
            loaded.steps += phase.steps;
            loaded.lane_steps += phase.lane_steps;
        }
        m.insert(
            "serve.queue_ms.p99".into(),
            percentile(&loaded.queue_ms, 99.0),
        );
        m.insert(
            "serve.gen_late_ms.p99".into(),
            percentile(&loaded.gen_late_ms, 99.0),
        );
        m.insert(
            "serve.lane_occupancy".into(),
            loaded.lane_steps as f64 / (loaded.steps * CAPACITY as u64) as f64,
        );
        let rate = max_rate(&model, probe_time, &mut checker, &tracer, root);
        m.insert("serve.max_rate_sps".into(), rate);
        (checker, m)
    });
    let spans = tracer.finish();
    if let Err(e) = crate::campaigns::write_trace(settings, "serve-stream", &spans) {
        eprintln!("serve-stream: {e}");
        checker.measured.failed = checker.measured.attempted;
    }
    let step_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.step")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    let span_s = |name: &str| crate::trials::span_sum_ms(&spans, name, None) / 1e3;
    m.insert("serve.step_us.p50".into(), median(&step_us));
    m.insert("serve.step_us.p99".into(), percentile(&step_us, 99.0));
    m.insert("serve.collect_s".into(), span_s("serve.collect"));
    m.insert("nnet.train_s".into(), span_s("nnet.train"));
    m.insert(
        "trace.coverage_share".into(),
        crate::trace::coverage(&spans),
    );
    eprint!("{}", crate::trace::format_table(&spans));
    checker.measured.metrics = m;
    checker.measured
}
