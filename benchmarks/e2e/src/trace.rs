//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! *into* each layer; nothing under `crates/` is instrumented. A span has
//! a name, start, end, parent and an id (decision / request / episode
//! number). Aggregates (count, total, self) are kept for every span; raw
//! spans are kept for the first [`RAW_CAP`] of each name and written to
//! `out/trace-<workload>.json` when the run ends.
//!
//! Self time = a span's duration minus the part its child spans cover.
//! The recorder is thread-local: every traced call path runs on the
//! benchmark's main thread. When tracing is off no wrapper is installed
//! at all, so the untraced run pays nothing.

use crate::json::Value;
use std::cell::RefCell;
use std::time::Instant;

/// Raw spans kept per name.
pub const RAW_CAP: usize = 10_000;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// Every span name the benchmark records. The part before the
        /// first `.` is the layer (crate directory) the time belongs to.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Span { $($variant,)* }

        impl Span {
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }
        }
    };
}

spans! {
    Body => "bench.body",
    SimConstruct => "sim.construct",
    SimRun => "sim.run",
    SimEventQueue => "sim.event_queue",
    SimMeasurement => "sim.measurement",
    SimResume => "sim.resume",
    SimLoad => "sim.load",
    SimTeardown => "sim.teardown",
    SimPolicy => "sim.policy",
    CorePolicy => "core.policy",
    CoreEncode => "core.encode",
    CoreValid => "core.valid",
    CoreGoal => "core.goal",
    CoreRollout => "core.rollout",
    CoreMrschRun => "core.mrsch_run",
    DfpAct => "dfp.act",
    DfpTrainBatch => "dfp.train_batch",
    NnForward => "nn.forward",
    LinalgGemv => "linalg.gemv",
    LinalgGemmFwd => "linalg.gemm_fwd",
    LinalgGemmGradW => "linalg.gemm_gradw",
    LinalgGemmGradX => "linalg.gemm_gradx",
    SnapshotEncode => "snapshot.encode",
    SnapshotRestore => "snapshot.restore",
    WorkloadMaterialize => "workload.materialize",
    BaselinesGaRun => "baselines.ga_run",
    BaselinesListRun => "baselines.list_run",
    BaselinesScalarRlRun => "baselines.scalar_rl_run",
    EvalPlanRun => "eval.plan_run",
    EvalBuildMrsch => "eval.build_mrsch",
    EvalBuildScalarRl => "eval.build_scalar_rl",
    EvalBuildOther => "eval.build_other",
    EvalCacheRead => "eval.cache_read",
    EvalCsv => "eval.csv",
    ServeParse => "serve.parse",
    ServeCheckRequest => "serve.check_request",
    ServeFormatResponse => "serve.format_response",
    ServeDecideOne => "serve.decide_one",
    ServeDecideBatch8 => "serve.decide_batch8",
    ServeBatcher => "serve.batcher",
    ServeSocketPhase => "serve.socket_phase",
}

/// The ten layers, by crate directory name.
pub const LAYERS: &[&str] = &[
    "linalg",
    "nn",
    "dfp",
    "core",
    "sim",
    "workload",
    "baselines",
    "eval",
    "snapshot",
    "serve",
];

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawSpan {
    pub span: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the raw list, when it was kept.
    pub parent: Option<u32>,
    pub id: u64,
}

struct Open {
    span: Span,
    start: Instant,
    child_ns: u64,
    raw: Option<u32>,
}

pub struct Tracer {
    t0: Instant,
    agg: Vec<Agg>,
    kept: Vec<u32>,
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
}

impl Tracer {
    fn new() -> Self {
        let n = Span::ALL.len();
        Self {
            t0: Instant::now(),
            agg: vec![Agg::default(); n],
            kept: vec![0; n],
            stack: Vec::new(),
            raw: Vec::new(),
        }
    }

    fn keep_raw(&mut self, span: Span, start: Instant, id: u64) -> Option<u32> {
        let kept = &mut self.kept[span as usize];
        if *kept as usize >= RAW_CAP {
            return None;
        }
        *kept += 1;
        let parent = self.stack.last().and_then(|o| o.raw);
        self.raw.push(RawSpan {
            span,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            end_ns: 0,
            parent,
            id,
        });
        Some((self.raw.len() - 1) as u32)
    }

    fn begin(&mut self, span: Span, id: u64) {
        let start = Instant::now();
        let raw = self.keep_raw(span, start, id);
        self.stack.push(Open {
            span,
            start,
            child_ns: 0,
            raw,
        });
    }

    fn end(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("span end without begin");
        let ns = end.duration_since(open.start).as_nanos() as u64;
        self.close(open.span, ns, open.child_ns, open.raw, end);
    }

    fn close(&mut self, span: Span, ns: u64, child_ns: u64, raw: Option<u32>, end: Instant) {
        let a = &mut self.agg[span as usize];
        a.count += 1;
        a.total_ns += ns;
        a.self_ns += ns.saturating_sub(child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
        if let Some(i) = raw {
            self.raw[i as usize].end_ns = end.duration_since(self.t0).as_nanos() as u64;
        }
    }

    /// A span measured elsewhere (both instants already taken), recorded
    /// as a child of the currently open span.
    fn closed(&mut self, span: Span, start: Instant, end: Instant, id: u64) {
        let raw = self.keep_raw(span, start, id);
        self.close(
            span,
            end.duration_since(start).as_nanos() as u64,
            0,
            raw,
            end,
        );
    }

    pub fn agg(&self, span: Span) -> Agg {
        self.agg[span as usize]
    }

    pub fn total_s(&self, span: Span) -> f64 {
        self.agg(span).total_ns as f64 * 1e-9
    }

    pub fn self_s(&self, span: Span) -> f64 {
        self.agg(span).self_ns as f64 * 1e-9
    }

    /// Mean duration of one span of this name, in nanoseconds.
    pub fn mean_ns(&self, span: Span) -> f64 {
        let a = self.agg(span);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64
        }
    }

    /// Self time summed over every span of one layer, in seconds.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        Span::ALL
            .iter()
            .filter(|s| s.name().split('.').next() == Some(layer))
            .map(|&s| self.self_s(s))
            .sum()
    }

    /// The trace file: aggregates for every name that occurred, raw
    /// spans (capped) as `[start_ns, end_ns, parent_index_or_-1, id]`.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let aggregates = Span::ALL
            .iter()
            .filter(|&&s| self.agg(s).count > 0)
            .map(|&s| {
                let a = self.agg(s);
                Value::obj([
                    ("name", Value::str(s.name())),
                    ("count", Value::Num(a.count as f64)),
                    ("total_s", Value::Num(a.total_ns as f64 * 1e-9)),
                    ("self_s", Value::Num(a.self_ns as f64 * 1e-9)),
                ])
            })
            .collect();
        let raw = self
            .raw
            .iter()
            .map(|r| {
                Value::Arr(vec![
                    Value::str(r.span.name()),
                    Value::Num(r.start_ns as f64),
                    Value::Num(r.end_ns as f64),
                    Value::Num(r.parent.map_or(-1.0, f64::from)),
                    Value::Num(r.id as f64),
                ])
            })
            .collect();
        // Self time rolled up by layer (the name's prefix). Time spent
        // below `dfp` is inside `dfp`'s spans in place; the `nn.*` and
        // `linalg.*` spans are replays, run outside the traced body.
        let layers = LAYERS
            .iter()
            .map(|&l| (l, Value::Num(self.layer_self_s(l))));
        Value::obj([
            ("workload", Value::str(workload)),
            ("seed", Value::Num(seed as f64)),
            ("layer_self_s", Value::obj(layers)),
            ("raw_cap_per_name", Value::Num(RAW_CAP as f64)),
            (
                "raw_columns",
                Value::str("name,start_ns,end_ns,parent_index,id"),
            ),
            ("spans", Value::Arr(aggregates)),
            ("raw", Value::Arr(raw)),
        ])
    }

    #[cfg(test)]
    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread (discarding any earlier recording).
pub fn start() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
}

/// Stop recording and hand back what was recorded.
pub fn finish() -> Tracer {
    let tracer = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("trace::finish without start");
    assert!(
        tracer.stack.is_empty(),
        "trace::finish with a span still open"
    );
    tracer
}

fn with(f: impl FnOnce(&mut Tracer)) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            f(tracer);
        }
    });
}

/// Run `f` inside a span. A no-op wrapper when tracing is off.
pub fn span<R>(span: Span, id: u64, f: impl FnOnce() -> R) -> R {
    with(|t| t.begin(span, id));
    let r = f();
    with(|t| t.end());
    r
}

/// Record a span whose two instants were taken elsewhere.
pub fn closed(span: Span, start: Instant, end: Instant, id: u64) {
    with(|t| t.closed(span, start, end, id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        start();
        span(Span::SimRun, 0, || {
            spin(Duration::from_millis(4));
            span(Span::CorePolicy, 7, || {
                spin(Duration::from_millis(3));
                span(Span::DfpAct, 7, || spin(Duration::from_millis(2)));
            });
            span(Span::SimEventQueue, 0, || spin(Duration::from_millis(1)));
        });
        let t = finish();
        let (run, select, act, queue) = (
            t.agg(Span::SimRun),
            t.agg(Span::CorePolicy),
            t.agg(Span::DfpAct),
            t.agg(Span::SimEventQueue),
        );
        // Exact arithmetic: a parent's self time is its total minus the
        // totals of its direct children, nothing else.
        assert_eq!(run.self_ns, run.total_ns - select.total_ns - queue.total_ns);
        assert_eq!(select.self_ns, select.total_ns - act.total_ns);
        assert_eq!(act.self_ns, act.total_ns);
        assert!(run.self_ns >= 4_000_000 && select.self_ns >= 3_000_000);
        assert!(act.total_ns >= 2_000_000 && queue.total_ns >= 1_000_000);
        // Layer roll-up: `sim` = run self + queue self.
        let sim = t.layer_self_s("sim");
        assert!((sim - (run.self_ns + queue.self_ns) as f64 * 1e-9).abs() < 1e-12);
        // Raw spans carry parent links and ids.
        let raw = t.raw();
        assert_eq!(raw.len(), 4);
        assert_eq!(
            (raw[1].span, raw[1].parent, raw[1].id),
            (Span::CorePolicy, Some(0), 7)
        );
        assert_eq!((raw[2].span, raw[2].parent), (Span::DfpAct, Some(1)));
        assert!(raw[2].start_ns >= raw[1].start_ns && raw[2].end_ns <= raw[1].end_ns);
    }

    #[test]
    fn closed_spans_count_as_children_of_the_open_span() {
        start();
        span(Span::Body, 0, || {
            let a = Instant::now();
            spin(Duration::from_millis(2));
            closed(Span::ServeBatcher, a, Instant::now(), 3);
        });
        let t = finish();
        let (body, batcher) = (t.agg(Span::Body), t.agg(Span::ServeBatcher));
        assert_eq!(batcher.count, 1);
        assert_eq!(body.self_ns, body.total_ns - batcher.total_ns);
    }

    #[test]
    fn raw_spans_are_capped_but_aggregates_are_not() {
        start();
        for i in 0..(RAW_CAP as u64 + 50) {
            span(Span::SimEventQueue, i, || {});
        }
        let t = finish();
        assert_eq!(t.agg(Span::SimEventQueue).count, RAW_CAP as u64 + 50);
        assert_eq!(t.raw().len(), RAW_CAP);
    }

    #[test]
    fn spans_are_inert_when_tracing_is_off() {
        assert_eq!(span(Span::Body, 0, || 5), 5);
        closed(Span::ServeBatcher, Instant::now(), Instant::now(), 0);
    }

    #[test]
    fn every_span_belongs_to_a_layer_or_the_bench() {
        for s in Span::ALL {
            let layer = s.name().split('.').next().unwrap();
            assert!(LAYERS.contains(&layer) || layer == "bench", "{}", s.name());
        }
    }
}
