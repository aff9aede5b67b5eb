//! `serve_replay`: the decision service with the request distribution a
//! simulator actually produces, instead of `synth_requests` noise.
//!
//! Set-up builds the `EngineSpec::default()` engine (702-float state),
//! records requests from a 90 %-load simulator run with a bench-side
//! policy, and starts `serve_listener` on `127.0.0.1:0` in this process.
//! The client is [`crate::loadgen`]: one connection, one sender, one
//! reader. Three phases, all on that connection:
//!
//! 1. saturated closed loop, 64 in flight — capacity;
//! 2. open loop, fixed gaps at 2000 qps, latency from the due time —
//!    what independent callers see;
//! 3. closed loop at depth 1 — what a resource manager that waits for
//!    its answer feels.

use crate::loadgen::{fixed_gaps, wait_until, Connection, Sample};
use crate::report::{timed_setup, Report, RunArgs};
use crate::stats::{percentile_sorted, sorted};
use crate::trace::{self, Span};
use mrsch::{GoalMode, StateEncoder};
use mrsch_serve::protocol::format_request;
use mrsch_serve::{
    build_engine, format_response, parse_request, BatcherConfig, DecisionEngine, EngineSpec,
    MicroBatcher, Reply, Request,
};
use mrsch_workload::StressConfig;
use mrsim::policy::{Policy, SchedulerView};
use mrsim::{SimParams, Simulator, SystemConfig};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SATURATED_DEPTH: usize = 64;
const OPEN_QPS: f64 = 2000.0;
const LADDER_QPS: [f64; 3] = [1000.0, 4000.0, 6000.0];
/// The open-loop latency limit: p95 from the due time, with no failures.
const LIMIT_P95_US: f64 = 10_000.0;
/// Round trips that end phase 3 early.
const RTT_MAX: usize = 150;

/// Records one protocol request per decision, built from the same public
/// pieces `TrainedMrschPolicy::select` uses, and lets the engine decide.
struct Recorder<'a> {
    engine: &'a DecisionEngine,
    encoder: StateEncoder,
    want: usize,
    requests: Vec<Request>,
}

impl Policy for Recorder<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        let request = Request {
            id: 0,
            state: self.encoder.encode(view),
            meas: view.measurement().iter().map(|&x| x as f32).collect(),
            goal: GoalMode::Dynamic.goal_for(view),
            valid: self.encoder.valid_actions(view),
        };
        let action = self.engine.decide_one(&request);
        if self.requests.len() < self.want {
            self.requests.push(request);
        }
        action
    }
}

struct Case {
    engine: DecisionEngine,
    requests: Vec<Request>,
    /// Protocol lines without their id field (`;state;meas;goal;valid`).
    bodies: Vec<String>,
    /// `DecisionEngine::decide_one` on each recorded request.
    expected: Vec<Option<usize>>,
    conn: Option<Connection>,
    server: Option<JoinHandle<Result<String, String>>>,
}

fn setup(args: &RunArgs) -> Case {
    let spec = EngineSpec::default();
    let engine = build_engine(&spec);
    let system = SystemConfig::two_resource(spec.nodes, spec.bb);
    let want = args.size(20_000, 500);
    let jobs = StressConfig {
        utilization: 0.9,
        ..StressConfig::engine(want, system.capacities())
    }
    .generate(args.seed);
    let mut recorder = Recorder {
        engine: &engine,
        encoder: StateEncoder::with_hour_scale(system.clone(), spec.window),
        want,
        requests: Vec::with_capacity(want),
    };
    let mut sim = Simulator::new(system, jobs, SimParams::new(spec.window, true))
        .expect("generated trace fits the system");
    while recorder.requests.len() < want && sim.step(&mut recorder) {}
    let requests = recorder.requests;
    assert!(
        requests.len() >= want / 2,
        "the simulator run produced too few decisions"
    );
    let bodies = requests
        .iter()
        .map(|r| {
            format_request(r)
                .strip_prefix('0')
                .expect("id 0 leads the line")
                .to_string()
        })
        .collect();
    let expected = requests.iter().map(|r| engine.decide_one(r)).collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let served = engine.clone();
    let server = std::thread::Builder::new()
        .name("e2e-server".into())
        .spawn(move || {
            mrsch_serve::server::serve_listener(listener, served, BatcherConfig::default(), Some(1))
        })
        .expect("spawn server thread");
    let conn = Connection::open(addr).expect("connect to the in-process server");
    Case {
        engine,
        requests,
        bodies,
        expected,
        conn: Some(conn),
        server: Some(server),
    }
}

impl Case {
    /// Close the connection and collect the server's own counters:
    /// `(decisions, malformed, shed)`.
    fn shutdown(&mut self) -> (u64, u64, u64) {
        if let Some(conn) = self.conn.take() {
            conn.close();
        }
        let summary = match self.server.take().map(JoinHandle::join) {
            Some(Ok(Ok(summary))) => summary,
            _ => return (0, u64::MAX, u64::MAX),
        };
        // "served 1 connections: X decisions (Y malformed, Z shed)"
        let numbers: Vec<u64> = summary
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse().ok())
            .collect();
        match numbers[..] {
            [_, decisions, malformed, shed] => (decisions, malformed, shed),
            _ => (0, u64::MAX, u64::MAX),
        }
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A percentile of an ascending sample; 0 when nothing was answered (the
/// run has failed its checks by then anyway).
fn percentile_or_zero(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile_sorted(sorted, p)
    }
}

/// What one phase's samples amount to.
struct Phase {
    sent: usize,
    /// Unanswered, answered twice, or answered with the wrong action.
    failed: usize,
    /// Latency from the due time, ascending, answered requests only.
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
    /// First send to last reply.
    wall_s: f64,
}

impl Phase {
    fn of(samples: &[Sample], expected: &[Option<usize>]) -> Self {
        let failed = samples
            .iter()
            .enumerate()
            .filter(|(i, s)| s.replies != 1 || s.action != Some(expected[i % expected.len()]))
            .count();
        let first = samples.iter().map(|s| s.sent).min();
        let last = samples.iter().filter_map(|s| s.received).max();
        Phase {
            sent: samples.len(),
            failed,
            latency_us: sorted(
                &samples
                    .iter()
                    .filter_map(Sample::latency_us)
                    .collect::<Vec<_>>(),
            ),
            lateness_us: sorted(&samples.iter().map(Sample::lateness_us).collect::<Vec<_>>()),
            wall_s: first
                .zip(last)
                .map_or(0.0, |(a, b)| b.duration_since(a).as_secs_f64()),
        }
    }

    fn p(&self, p: f64) -> f64 {
        percentile_or_zero(&self.latency_us, p)
    }

    fn tally(&self, report: &mut Report) {
        report.attempted += self.sent as u64;
        report.failed += self.failed as u64;
    }
}

fn saturated(case: &mut Case, seconds: f64) -> Phase {
    let conn = case.conn.as_mut().expect("connection open");
    let samples = conn
        .closed_loop(&case.bodies, SATURATED_DEPTH, |_, elapsed| {
            elapsed.as_secs_f64() >= seconds
        })
        .expect("socket write");
    Phase::of(&samples, &case.expected)
}

fn open(case: &mut Case, qps: f64, seconds: f64) -> Phase {
    let conn = case.conn.as_mut().expect("connection open");
    let offsets = fixed_gaps(qps, (qps * seconds) as usize);
    let samples = conn
        .open_loop(&case.bodies, offsets, wait_until)
        .expect("socket write");
    Phase::of(&samples, &case.expected)
}

fn depth_one(case: &mut Case, seconds: f64) -> Phase {
    let conn = case.conn.as_mut().expect("connection open");
    let samples = conn
        .closed_loop(&case.bodies, 1, |answered, elapsed| {
            answered >= RTT_MAX || elapsed.as_secs_f64() >= seconds
        })
        .expect("socket write");
    Phase::of(&samples, &case.expected)
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut case = timed_setup(report, || setup(args));
    let n = args.seconds;
    report.check(
        "recorded_requests_fit_the_engine",
        case.requests
            .iter()
            .all(|r| case.engine.check_request(r).is_ok()),
        format!(
            "{} requests recorded from the simulator",
            case.requests.len()
        ),
    );

    if !args.traced {
        let open_2000 = open(&mut case, OPEN_QPS, 0.6 * n);
        let rtt = depth_one(&mut case, 0.4 * n);
        open_2000.tally(report);
        rtt.tally(report);
        finish_socket(&mut case, report, 0);
        // Decisions per second for a caller that waits for each answer,
        // and the tail an independent caller sees at 2000 qps. (The
        // saturated closed loop and the rate ladder swing by tens of
        // percent between identical runs on a shared host — they are
        // per-layer metrics of the traced run.)
        report.metric("throughput", 1e6 / rtt.p(50.0));
        report.metric("response_ms", open_2000.p(95.0) / 1e3);
        println!(
            "  phases: open {} qps p50 {:.0} us p95 {:.0} us ({} samples, generator late p99 \
             {:.0} us) | depth-1 rtt p50 {:.0} us p95 {:.0} us ({} round trips)",
            OPEN_QPS,
            open_2000.p(50.0),
            open_2000.p(95.0),
            open_2000.sent,
            percentile_sorted(&open_2000.lateness_us, 99.0),
            rtt.p(50.0),
            rtt.p(95.0),
            rtt.sent,
        );
        return;
    }

    // Traced run: the same phases (shorter) plus the rate ladder over the
    // socket, then each layer of the request path called directly on the
    // recorded requests, a span around each call.
    let untraced = saturated(&mut case, 0.1 * n);
    untraced.tally(report);
    trace::start();
    let mut ladder = Vec::new();
    let (sat, open_2000, rtt) = trace::span(Span::Body, 0, || {
        let phase =
            |id: u64, f: &mut dyn FnMut() -> Phase| trace::span(Span::ServeSocketPhase, id, f);
        let sat = phase(1, &mut || saturated(&mut case, 0.15 * n));
        let open_2000 = phase(2, &mut || open(&mut case, OPEN_QPS, 0.35 * n));
        let rtt = phase(3, &mut || depth_one(&mut case, 0.1 * n));
        for (i, &qps) in LADDER_QPS.iter().enumerate() {
            ladder.push((
                qps,
                phase(4 + i as u64, &mut || open(&mut case, qps, 0.1 * n)),
            ));
        }
        direct_calls(&case);
        (sat, open_2000, rtt)
    });
    let batcher = drive_batcher(&case, OPEN_QPS, (OPEN_QPS * 0.15 * n) as usize);
    let tracer = trace::finish();
    for phase in [&sat, &open_2000, &rtt] {
        phase.tally(report);
    }
    // A ladder rung above capacity sheds by design: its failures are the
    // rung's own metric, not a failure of the benchmark.
    let ladder_shed: u64 = ladder.iter().map(|(_, p)| p.failed as u64).sum();
    report.attempted += batcher.sent as u64;
    report.failed += batcher.failed as u64;
    let (malformed, shed) = finish_socket(&mut case, report, ladder_shed);

    // Nothing on the socket path is wrapped, so this reads the host's
    // noise between two saturated phases, not a tracing cost.
    let qps = |p: &Phase| (p.sent - p.failed) as f64 / p.wall_s;
    report.metric(
        "trace.overhead_pct",
        (qps(&untraced) / qps(&sat) - 1.0) * 100.0,
    );
    report.trace_summary(&tracer, 1.0);
    let bytes: usize = case.bodies.iter().map(|b| b.len() + 6).sum();
    report.metric("serve.parse_ns", tracer.mean_ns(Span::ServeParse));
    report.metric(
        "serve.check_request_ns",
        tracer.mean_ns(Span::ServeCheckRequest),
    );
    report.metric(
        "serve.format_response_ns",
        tracer.mean_ns(Span::ServeFormatResponse),
    );
    report.metric(
        "serve.request_bytes_mean",
        bytes as f64 / case.bodies.len() as f64,
    );
    report.metric("serve.decide_one_ns", tracer.mean_ns(Span::ServeDecideOne));
    report.metric(
        "serve.decide_batch8_ns_per_req",
        tracer.mean_ns(Span::ServeDecideBatch8) / 8.0,
    );
    report.metric(
        "linalg.gemv_ns_per_decision",
        tracer.mean_ns(Span::LinalgGemv),
    );
    let cfg = case.engine.config();
    report.metric(
        "linalg.flops_per_decision",
        crate::replay::flops_per_decision(cfg),
    );
    report.metric(
        "linalg.weight_bytes_per_decision",
        crate::replay::weight_bytes_per_decision(cfg),
    );
    report.metric("serve.batcher_p50_us", batcher.p(50.0));
    report.metric("serve.batcher_p95_us", batcher.p(95.0));
    report.metric("serve.mean_batch", batcher.mean_batch);
    report.metric(
        "serve.socket_overhead_p50_us",
        open_2000.p(50.0) - batcher.p(50.0) - tracer.mean_ns(Span::ServeParse) / 1e3,
    );
    report.metric("serve.saturated_qps", qps(&sat));
    report.metric("serve.open_p50_us", open_2000.p(50.0));
    report.metric("serve.open_p95_us", open_2000.p(95.0));
    report.metric("serve.open_p99_us", open_2000.p(99.0));
    report.metric("serve.open_p999_us", open_2000.p(99.9));
    report.metric("serve.rtt_p50_us", rtt.p(50.0));
    report.metric("serve.rtt_p95_us", rtt.p(95.0));
    let mut best = 0.0f64;
    let mut rungs: Vec<(f64, &Phase)> = ladder.iter().map(|(q, p)| (*q, p)).collect();
    rungs.push((OPEN_QPS, &open_2000));
    for (qps, phase) in &rungs {
        if *qps != OPEN_QPS {
            report.metric(&format!("serve.open_{qps}.p50_us"), phase.p(50.0));
            report.metric(&format!("serve.open_{qps}.p95_us"), phase.p(95.0));
            report.metric(&format!("serve.open_{qps}.failed"), phase.failed as f64);
        }
        if phase.failed == 0 && phase.p(95.0) <= LIMIT_P95_US {
            best = best.max(*qps);
        }
    }
    report.metric("serve.max_rate_under_limit_qps", best);
    report.metric(
        "serve.gen_late_p99_us",
        percentile_sorted(&open_2000.lateness_us, 99.0),
    );
    report.metric(
        "serve.gen_late_max_us",
        percentile_sorted(&open_2000.lateness_us, 100.0),
    );
    report.metric("serve.shed", shed as f64);
    report.metric("serve.malformed", malformed as f64);
    crate::write_trace(args, "", &tracer);
}

/// Close the socket and reconcile the client's view with the server's
/// own counters. Returns the server's `(malformed, shed)`.
fn finish_socket(case: &mut Case, report: &mut Report, expected_shed: u64) -> (u64, u64) {
    let garbled = case.conn.as_ref().map_or(0, |c| c.garbled);
    let sent = case.conn.as_ref().map_or(0, |c| c.sent());
    let (decisions, malformed, shed) = case.shutdown();
    report.failed += garbled + malformed.saturating_add(shed.abs_diff(expected_shed));
    report.check(
        "every_request_answered_exactly_once_and_correctly",
        report.failed == 0 && decisions + shed == sent,
        format!("{sent} sent, server decided {decisions}, {malformed} malformed, {shed} shed"),
    );
    (malformed, shed)
}

/// Each stage of the request path, called directly on every recorded
/// request: protocol parse, shape check, one-by-one and batch-of-8
/// decisions, reply formatting, and the `nn` / `linalg` replays at the
/// engine's shapes.
fn direct_calls(case: &Case) {
    let lines: Vec<String> = case.bodies.iter().map(|b| format!("7{b}")).collect();
    for (i, line) in lines.iter().enumerate() {
        let parsed = trace::span(Span::ServeParse, i as u64, || parse_request(line));
        black_box(parsed.expect("recorded line parses"));
    }
    for (i, request) in case.requests.iter().enumerate() {
        let id = i as u64;
        trace::span(Span::ServeCheckRequest, id, || {
            black_box(case.engine.check_request(request))
        })
        .expect("recorded request fits the engine");
        let action = trace::span(Span::ServeDecideOne, id, || case.engine.decide_one(request));
        trace::span(Span::ServeFormatResponse, id, || {
            black_box(format_response(id, action))
        });
    }
    for (i, chunk) in case.requests.chunks_exact(8).enumerate() {
        let batch: Vec<&Request> = chunk.iter().collect();
        trace::span(Span::ServeDecideBatch8, i as u64, || {
            black_box(case.engine.decide_batch(&batch))
        });
    }
    crate::replay::linalg_gemv(case.engine.config(), crate::wrappers::TracedMrsch::RECORD);
}

struct BatcherRun {
    sent: usize,
    failed: usize,
    latency_us: Vec<f64>,
    mean_batch: f64,
}

impl BatcherRun {
    fn p(&self, p: f64) -> f64 {
        percentile_or_zero(&self.latency_us, p)
    }
}

/// The open-loop schedule driven straight into `MicroBatcher::submit`:
/// queue wait + compute without protocol or socket, from the timestamps
/// the batcher itself puts on each `Reply`.
fn drive_batcher(case: &Case, qps: f64, count: usize) -> BatcherRun {
    let batcher = MicroBatcher::start(case.engine.clone(), BatcherConfig::default());
    let (tx, rx) = mpsc::channel::<Reply>();
    let gap = Duration::from_secs_f64(1.0 / qps);
    let start = Instant::now() + Duration::from_millis(1);
    let mut shed = 0;
    for i in 0..count {
        wait_until(i, start + gap.mul_f64(i as f64));
        let mut request = case.requests[i % case.requests.len()].clone();
        request.id = i as u64;
        shed += usize::from(!batcher.submit(request, tx.clone()));
    }
    drop(tx);
    batcher.shutdown();
    let replies: Vec<Reply> = rx.into_iter().collect();
    let wrong = replies
        .iter()
        .filter(|r| r.action != case.expected[r.id as usize % case.expected.len()])
        .count();
    for r in &replies {
        trace::closed(Span::ServeBatcher, r.submitted, r.completed, r.id);
    }
    let latency: Vec<f64> = replies
        .iter()
        .map(|r| r.completed.duration_since(r.submitted).as_secs_f64() * 1e6)
        .collect();
    BatcherRun {
        sent: count,
        failed: shed + wrong + (count - shed).abs_diff(replies.len()),
        latency_us: sorted(&latency),
        mean_batch: replies.iter().map(|r| r.batch_size as f64).sum::<f64>()
            / replies.len().max(1) as f64,
    }
}
