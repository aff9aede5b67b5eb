//! The three simulator workloads: one trace, one policy, `construct +
//! inject + run` as the timed body, and a checkpoint round trip half-way.
//!
//! * `sim_mrsch_100k` — a disrupted 100k-job trace under a *trained*
//!   MRSch policy: state encoding and the network forward pass do almost
//!   all the work, the event engine almost none.
//! * `sim_fcfs_1m` — a disrupted 1M-job trace at 70 % load under
//!   `HeadOfQueue`: shallow wait queue, so the event queue and handlers
//!   dominate.
//! * `sim_backlog_100k` — a clean 100k-job trace at 95 % load under
//!   `HeadOfQueue`: deep wait queue, so scheduling-instance and backfill
//!   scans dominate.

use crate::replay;
use crate::report::{timed_reps, timed_setup, Digest, Report, RunArgs};
use crate::stats::median;
use crate::trace::{self, Span};
use crate::wrappers::{TimedQueue, TracedMrsch, TracedPolicy};
use mrsch::{GoalMode, StateEncoder};
use mrsch_dfp::{DfpAgent, DfpConfig, StateModuleKind};
use mrsch_eval::{default_training_curriculum, trained_mrsch, BuildContext};
use mrsch_workload::disruption::{DisruptionConfig, DrainSpec};
use mrsch_workload::scenario::{JobSource, Scenario};
use mrsch_workload::{StressConfig, ThetaConfig, WorkloadSpec};
use mrsim::policy::{HeadOfQueue, Policy};
use mrsim::{
    EventQueue, IndexedEventQueue, InjectedEvent, Job, SimParams, SimReport, Simulator,
    SystemConfig,
};
use std::time::{Duration, Instant};

/// Share of the measuring time given to the timed body; the rest goes to
/// the checkpoint round trips.
const BODY_SHARE: f64 = 0.7;
/// The trained policy is a fixed artifact of the system under test, like
/// `EngineSpec::default()`'s seed: `--seed` varies the trace it schedules,
/// not the network doing the scheduling.
pub const POLICY_SEED: u64 = 20_220_517;
/// Round trips timed on one half-way simulator: at least this many, more
/// while they fit in [`CKPT_BUDGET`] (a 100k-job snapshot takes tens of
/// milliseconds, a 1M-job one most of a second).
const CKPT_MIN_REPS: usize = 6;
const CKPT_BUDGET: Duration = Duration::from_millis(1500);

/// What it takes to build a second agent with a trained agent's weights
/// (the traced run re-composes the policy around its own `DfpAgent`).
pub struct AgentParts {
    pub cfg: DfpConfig,
    pub checkpoint: Vec<u8>,
}

/// Build and train the agent `EngineSpec`-style: a Theta-like 50-job
/// scenario on the workload's system, `episodes` curriculum episodes.
pub fn train_mrsch(
    system: &SystemConfig,
    window: usize,
    seed: u64,
    episodes: usize,
) -> (AgentParts, mrsch::TrainedMrschPolicy) {
    let params = SimParams::new(window, true);
    let nodes = system.capacities()[0];
    let scenario = Scenario::new(
        "e2e-train",
        JobSource::Theta(ThetaConfig {
            machine_nodes: nodes,
            ..ThetaConfig::scaled(50)
        }),
        WorkloadSpec::s1(),
        params,
    )
    .with_seed(seed);
    let curriculum = default_training_curriculum(&scenario, episodes);
    let ctx = BuildContext::new(system, params, seed).with_training(&curriculum);
    let mut mrsch = trained_mrsch(&ctx, StateModuleKind::Mlp);
    let checkpoint = mrsch.agent_mut().network_mut().save_checkpoint().to_vec();
    (
        AgentParts {
            cfg: mrsch.agent().config().clone(),
            checkpoint,
        },
        mrsch.into_eval_policy(),
    )
}

impl AgentParts {
    /// A second agent carrying the same weights.
    pub fn clone_agent(&self) -> DfpAgent {
        let mut agent = DfpAgent::new(self.cfg.clone(), 0);
        agent
            .network_mut()
            .load_checkpoint(&self.checkpoint)
            .expect("own checkpoint loads into the same architecture");
        agent
    }
}

struct Case {
    system: SystemConfig,
    params: SimParams,
    jobs: Vec<Job>,
    events: Vec<InjectedEvent>,
    /// Present when the workload's policy is the trained MRSch agent.
    agent: Option<AgentParts>,
}

/// The disruption mix of the disrupted traces: 5 % cancels, 5 % overruns
/// at 1.5× the estimate, a 25 % node drain over the trace's 2nd quarter.
fn disruption_mix(span: u64) -> DisruptionConfig {
    DisruptionConfig {
        cancel_fraction: 0.05,
        overrun_fraction: 0.05,
        overrun_factor: 1.5,
        drains: vec![DrainSpec {
            resource: 0,
            fraction: 0.25,
            at: span / 4,
            duration: span / 4,
        }],
    }
}

/// Stretch or squeeze submit times so the offered load on resource 0
/// (demand × runtime over capacity × arrival span) is exactly `target`.
/// The generator only aims at its utilization in expectation; near
/// saturation a 1 % difference in realized load moves the wait-queue
/// depth, and with it the run time, by far more than 1 %.
fn pin_offered_load(jobs: &mut [Job], capacity: u64, target: f64) {
    let span = jobs.last().map_or(0, |j| j.submit).max(1) as f64;
    let work: f64 = jobs.iter().map(|j| (j.demands[0] * j.runtime) as f64).sum();
    let scale = work / (capacity as f64 * span) / target;
    for job in jobs {
        job.submit = (job.submit as f64 * scale).round() as u64;
    }
}

fn disrupted_params() -> SimParams {
    SimParams {
        enforce_walltime: true,
        tick: Some(900),
        ..SimParams::new(10, true)
    }
}

fn setup(args: &RunArgs) -> (Case, Box<dyn Policy>) {
    let seed = args.seed;
    match args.workload.as_str() {
        "sim_mrsch_100k" => {
            let system = SystemConfig::two_resource(256, 75);
            let mut clean =
                StressConfig::engine(args.size(100_000, 2_000), system.capacities()).generate(seed);
            pin_offered_load(&mut clean, 256, 0.7);
            let span = clean.last().expect("nonempty trace").submit;
            let trace = disruption_mix(span).synthesize(&clean, &system, seed ^ 0xD15);
            let (agent, policy) = train_mrsch(&system, 10, POLICY_SEED, args.size(8, 2));
            let case = Case {
                system,
                params: disrupted_params(),
                jobs: trace.jobs,
                events: trace.events,
                agent: Some(agent),
            };
            (case, Box::new(policy))
        }
        "sim_fcfs_1m" => {
            let system = SystemConfig::two_resource(256, 32);
            let mut clean = StressConfig::engine(args.size(1_000_000, 20_000), system.capacities())
                .generate(seed);
            pin_offered_load(&mut clean, 256, 0.7);
            let span = clean.last().expect("nonempty trace").submit;
            let trace = disruption_mix(span).synthesize(&clean, &system, seed ^ 0xD15);
            let case = Case {
                system,
                params: disrupted_params(),
                jobs: trace.jobs,
                events: trace.events,
                agent: None,
            };
            (case, Box::new(HeadOfQueue))
        }
        "sim_backlog_100k" => {
            let system = SystemConfig::two_resource(256, 32);
            let mut jobs = StressConfig {
                utilization: 0.95,
                ..StressConfig::engine(args.size(100_000, 5_000), system.capacities())
            }
            .generate(seed);
            pin_offered_load(&mut jobs, 256, 0.95);
            let params = SimParams::new(10, true);
            (
                Case {
                    system,
                    params,
                    jobs,
                    events: Vec::new(),
                    agent: None,
                },
                Box::new(HeadOfQueue),
            )
        }
        other => unreachable!("not a sim workload: {other}"),
    }
}

impl Case {
    fn simulator<Q: EventQueue>(&self) -> Simulator<Q> {
        let mut sim =
            Simulator::<Q>::with_queue(self.system.clone(), self.jobs.clone(), self.params)
                .expect("generated trace fits the system");
        sim.inject_all(&self.events)
            .expect("generated events reference the trace");
        sim
    }

    /// The timed body: construct, inject, run to drain.
    fn body(&self, policy: &mut dyn Policy) -> SimReport {
        self.simulator::<IndexedEventQueue>().run(policy)
    }

    /// The same body with a span at each boundary into `sim`.
    fn traced_body(&self, rep: usize, policy: &mut dyn Policy) -> SimReport {
        trace::span(Span::Body, rep as u64, || {
            let mut sim = trace::span(Span::SimConstruct, 0, || {
                self.simulator::<TimedQueue<IndexedEventQueue>>()
            });
            let report = trace::span(Span::SimRun, 0, || sim.run(policy));
            trace::span(Span::SimTeardown, 0, || drop(sim));
            report
        })
    }
}

/// Jobs the report does not account for (0 when accounting closes).
fn unaccounted(report: &SimReport, jobs: usize) -> u64 {
    let seen =
        report.jobs_completed + report.jobs_cancelled + report.jobs_killed + report.jobs_unfinished;
    (jobs.abs_diff(seen) + report.jobs_unfinished) as u64
}

/// FNV-1a over every `SimReport` field except `records`.
pub fn report_digest(r: &SimReport) -> f64 {
    let mut d = Digest::default();
    for name in &r.resource_names {
        d.bytes(name.as_bytes());
    }
    for x in [
        r.jobs_completed,
        r.jobs_cancelled,
        r.jobs_killed,
        r.jobs_unfinished,
        r.backfilled_jobs,
    ] {
        d.u64(x as u64);
    }
    for x in [
        r.start_time,
        r.end_time,
        r.makespan,
        r.max_wait,
        r.decisions,
        r.instances,
    ] {
        d.u64(x);
    }
    for &x in r
        .resource_utilization
        .iter()
        .chain(&r.capacity_lost_unit_seconds)
    {
        d.f64(x);
    }
    for x in [
        r.energy_active_joules,
        r.energy_idle_joules,
        r.avg_wait,
        r.avg_slowdown,
        r.avg_bounded_slowdown,
    ] {
        d.f64(x);
    }
    for (_, count) in r.event_counts.rows() {
        d.u64(count);
    }
    d.finish()
}

/// What one checkpoint drill measured.
struct Checkpoint {
    encode_s: Vec<f64>,
    restore_s: Vec<f64>,
    bytes: usize,
    resume_s: f64,
    resumed: SimReport,
}

/// Step a fresh simulator to half of `reference`'s scheduling instances,
/// time `snapshot()` + `restore()` there repeatedly, then run one restored
/// simulator to drain.
fn checkpoint_drill(case: &Case, reference: &SimReport, policy: &mut dyn Policy) -> Checkpoint {
    policy.reset();
    let mut sim = case.simulator::<IndexedEventQueue>();
    for _ in 0..reference.instances / 2 {
        if !sim.step(policy) {
            break;
        }
    }
    let (mut encode_s, mut restore_s) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    let mut restored = None;
    timed_reps(CKPT_BUDGET, CKPT_MIN_REPS, |rep| {
        drop(restored.take());
        let t0 = Instant::now();
        let snapshot = trace::span(Span::SnapshotEncode, rep as u64, || sim.snapshot());
        let t1 = Instant::now();
        let back: Simulator = trace::span(Span::SnapshotRestore, rep as u64, || {
            Simulator::restore(&snapshot).expect("own snapshot restores")
        });
        let t2 = Instant::now();
        encode_s.push((t1 - t0).as_secs_f64());
        restore_s.push((t2 - t1).as_secs_f64());
        bytes = snapshot.len();
        restored = Some(back);
    });
    drop(sim);
    // The first round trip allocates its buffers fresh (page faults on a
    // 1M-job snapshot make it several times slower): it is the warm-up.
    encode_s.remove(0);
    restore_s.remove(0);
    let mut restored = restored.expect("at least one round trip");
    let t = Instant::now();
    let resumed = trace::span(Span::SimResume, 0, || restored.run(policy));
    Checkpoint {
        encode_s,
        restore_s,
        bytes,
        resume_s: t.elapsed().as_secs_f64(),
        resumed,
    }
}

/// Set-up ends with one reduced-size warm-up of the timed body: the
/// first twentieth of the trace, clean.
fn setup_and_warm_up(args: &RunArgs) -> (Case, Box<dyn Policy>) {
    let (case, mut policy) = setup(args);
    let prefix = case.jobs[..case.jobs.len() / 20].to_vec();
    let mut sim = Simulator::new(case.system.clone(), prefix, case.params)
        .expect("a prefix of a valid trace is valid");
    sim.run(policy.as_mut());
    policy.reset();
    (case, policy)
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let (case, mut policy) = timed_setup(report, || setup_and_warm_up(args));
    let policy = policy.as_mut();
    let jobs = case.jobs.len();
    let budget = Duration::from_secs_f64(args.seconds).mul_f64(BODY_SHARE);

    let t = Instant::now();
    let reference = case.body(policy);
    let mut walls = vec![t.elapsed().as_secs_f64()];
    report.failed += unaccounted(&reference, jobs);
    let mut equal = true;

    let mut traced = args.traced.then(|| {
        trace::start();
        traced_policy(&case)
    });
    let untraced_wall = walls[0];
    if let Some(traced) = traced.as_mut() {
        walls = timed_reps(budget, 1, |rep| {
            traced.as_policy().reset();
            equal &= case.traced_body(rep, traced.as_policy()) == reference;
        });
    } else {
        walls.extend(timed_reps(
            budget - Duration::from_secs_f64(walls[0]).min(budget),
            1,
            |_| {
                policy.reset();
                equal &= case.body(policy) == reference;
            },
        ));
    }
    // Every repetition, the untraced reference of a traced run, the drill.
    report.attempted += (jobs * (walls.len() + usize::from(args.traced) + 1)) as u64;
    let name = if args.traced {
        "report_equal_traced_and_untraced"
    } else {
        "report_equal_across_reps"
    };
    report.check(name, equal, format!("{} reps", walls.len()));

    let ckpt = checkpoint_drill(&case, &reference, policy);
    report.failed += unaccounted(&ckpt.resumed, jobs);
    report.check(
        "checkpointed_run_equals_uninterrupted",
        ckpt.resumed == reference,
        format!("{} snapshot bytes", ckpt.bytes),
    );
    report.check(
        "job_accounting_closes",
        report.failed == 0,
        format!("{jobs} jobs, digest {}", report_digest(&reference)),
    );

    let Some(traced) = traced else {
        let rates: Vec<f64> = walls.iter().map(|w| jobs as f64 / w).collect();
        report.metric_of("throughput", &rates);
        let round_trips: Vec<f64> = ckpt
            .encode_s
            .iter()
            .zip(&ckpt.restore_s)
            .map(|(e, r)| (e + r) * 1e3)
            .collect();
        report.metric_of("response_ms", &round_trips);
        return;
    };

    if let Some(agent) = &case.agent {
        let inputs = traced.recorded();
        replay::nn_forward(agent.clone_agent().network_mut(), &inputs);
        replay::linalg_gemv(&agent.cfg, inputs.len());
    }
    let tracer = trace::finish();
    let reps = walls.len() as f64;
    let per_rep = |s: f64| s / reps;
    let policy_span = if case.agent.is_some() {
        Span::CorePolicy
    } else {
        Span::SimPolicy
    };
    let run_s = per_rep(tracer.total_s(Span::SimRun));
    let self_s = per_rep(tracer.self_s(Span::SimRun));
    let events = reference.event_counts.total() as f64;
    let (depth_mean, depth_max) = traced.depths();
    report.metric(
        "trace.overhead_pct",
        (median(&walls) / untraced_wall - 1.0) * 100.0,
    );
    report.trace_summary(&tracer, reps);
    report.metric("sim.run_s", run_s);
    report.metric(
        "sim.construct_s",
        per_rep(tracer.total_s(Span::SimConstruct)),
    );
    report.metric(
        "sim.event_queue_s",
        per_rep(tracer.total_s(Span::SimEventQueue)),
    );
    report.metric(
        "sim.event_queue_ops",
        per_rep(tracer.agg(Span::SimEventQueue).count as f64),
    );
    report.metric("sim.self_s", self_s);
    report.metric("sim.ns_per_event", self_s * 1e9 / events.max(1.0));
    report.metric(
        "sim.ns_per_instance",
        self_s * 1e9 / (reference.instances as f64).max(1.0),
    );
    report.metric("sim.events", events);
    report.metric("sim.decisions", reference.decisions as f64);
    report.metric("sim.instances", reference.instances as f64);
    report.metric("sim.backfilled_jobs", reference.backfilled_jobs as f64);
    report.metric("sim.queue_depth_mean", depth_mean);
    report.metric("sim.queue_depth_max", depth_max as f64);
    report.metric("sim.report_digest", report_digest(&reference));
    report.metric("policy_share", per_rep(tracer.total_s(policy_span)) / run_s);
    report.metric("snapshot.encode_s", median(&ckpt.encode_s));
    report.metric("snapshot.restore_s", median(&ckpt.restore_s));
    report.metric("snapshot.bytes", ckpt.bytes as f64);
    report.metric("sim.resume_s", ckpt.resume_s);
    if let Some(agent) = &case.agent {
        report.metric(
            "sim.measurement_s",
            per_rep(tracer.total_s(Span::SimMeasurement)),
        );
        report.metric("core.encode_s", per_rep(tracer.total_s(Span::CoreEncode)));
        report.metric("core.valid_s", per_rep(tracer.total_s(Span::CoreValid)));
        report.metric("core.goal_s", per_rep(tracer.total_s(Span::CoreGoal)));
        report.metric("dfp.act_s", per_rep(tracer.total_s(Span::DfpAct)));
        report.metric("dfp.act_ns", tracer.mean_ns(Span::DfpAct));
        report.metric("nn.forward_ns", tracer.mean_ns(Span::NnForward));
        report.metric(
            "linalg.gemv_ns_per_decision",
            tracer.mean_ns(Span::LinalgGemv),
        );
        report.metric(
            "linalg.flops_per_decision",
            replay::flops_per_decision(&agent.cfg),
        );
        report.metric(
            "linalg.weight_bytes_per_decision",
            replay::weight_bytes_per_decision(&agent.cfg),
        );
    }
    crate::write_trace(args, "", &tracer);
}

/// The wrapped policy of the traced run: `HeadOfQueue` as is, the MRSch
/// policy re-composed around a second agent with the same weights.
fn traced_policy(case: &Case) -> Box<dyn TracedSimPolicy> {
    match &case.agent {
        Some(agent) => {
            let encoder = StateEncoder::with_hour_scale(case.system.clone(), case.params.window);
            let inner = TracedMrsch::new(agent.clone_agent(), encoder, GoalMode::Dynamic);
            Box::new(TracedPolicy::new(inner, Span::CorePolicy))
        }
        None => Box::new(TracedPolicy::new(HeadOfQueue, Span::SimPolicy)),
    }
}

/// The traced policy of a sim workload, whichever policy it wraps.
trait TracedSimPolicy {
    fn as_policy(&mut self) -> &mut dyn Policy;
    fn depths(&self) -> (f64, usize);
    fn recorded(&self) -> Vec<crate::wrappers::NetInput>;
}

impl TracedSimPolicy for TracedPolicy<HeadOfQueue> {
    fn as_policy(&mut self) -> &mut dyn Policy {
        self
    }
    fn depths(&self) -> (f64, usize) {
        (self.depth_mean(), self.depth_max)
    }
    fn recorded(&self) -> Vec<crate::wrappers::NetInput> {
        Vec::new()
    }
}

impl TracedSimPolicy for TracedPolicy<TracedMrsch> {
    fn as_policy(&mut self) -> &mut dyn Policy {
        self
    }
    fn depths(&self) -> (f64, usize) {
        (self.depth_mean(), self.depth_max)
    }
    fn recorded(&self) -> Vec<crate::wrappers::NetInput> {
        self.inner.recorded.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5k-job disrupted trace (cancels, overruns, a node drain, ticks)
    /// and, for the MRSch case, a briefly trained agent.
    fn disrupted_case(with_agent: bool) -> (Case, Box<dyn Policy>) {
        let system = SystemConfig::two_resource(64, 16);
        let mut clean = StressConfig::engine(5_000, system.capacities()).generate(11);
        pin_offered_load(&mut clean, 64, 0.7);
        let span = clean.last().unwrap().submit;
        let trace = disruption_mix(span).synthesize(&clean, &system, 12);
        let (agent, policy): (_, Box<dyn Policy>) = if with_agent {
            let (agent, policy) = train_mrsch(&system, 10, 13, 2);
            (Some(agent), Box::new(policy))
        } else {
            (None, Box::new(HeadOfQueue))
        };
        let case = Case {
            system,
            params: disrupted_params(),
            jobs: trace.jobs,
            events: trace.events,
            agent,
        };
        (case, policy)
    }

    #[test]
    fn timed_queue_and_traced_policy_are_transparent() {
        let (case, mut policy) = disrupted_case(false);
        let plain = case.body(policy.as_mut());
        assert!(
            plain.jobs_cancelled > 0 && plain.jobs_killed > 0,
            "the trace is disrupted"
        );
        trace::start();
        let mut wrapped = traced_policy(&case);
        let traced = case.traced_body(0, wrapped.as_policy());
        let tracer = trace::finish();
        assert_eq!(traced, plain);
        assert_eq!(unaccounted(&plain, case.jobs.len()), 0);
        // The wrappers saw every queue operation and every decision.
        assert!(tracer.agg(Span::SimEventQueue).count > plain.event_counts.total());
        assert_eq!(tracer.agg(Span::SimPolicy).count, 2 * plain.decisions + 1);
        assert_eq!(report_digest(&traced), report_digest(&plain));
    }

    #[test]
    fn traced_mrsch_decides_exactly_like_the_trained_policy() {
        let (case, mut policy) = disrupted_case(true);
        let plain = case.body(policy.as_mut());
        assert!(plain.decisions > 1_000);
        trace::start();
        let mut wrapped = traced_policy(&case);
        let traced = case.traced_body(0, wrapped.as_policy());
        let tracer = trace::finish();
        // Same decisions => same schedule => same report, record by record.
        assert_eq!(traced, plain);
        assert_eq!(tracer.agg(Span::DfpAct).count, plain.decisions);
        assert_eq!(tracer.agg(Span::CoreEncode).count, plain.decisions);
        assert_eq!(
            wrapped.recorded().len(),
            TracedMrsch::RECORD.min(plain.decisions as usize)
        );
        // And a checkpoint taken half-way continues to the same report.
        let ckpt = checkpoint_drill(&case, &plain, policy.as_mut());
        assert_eq!(ckpt.resumed, plain);
    }

    #[test]
    fn pinning_makes_the_offered_load_exact() {
        let mut jobs = StressConfig::engine(20_000, vec![256, 32]).generate(5);
        pin_offered_load(&mut jobs, 256, 0.95);
        let span = jobs.last().unwrap().submit as f64;
        let work: f64 = jobs.iter().map(|j| (j.demands[0] * j.runtime) as f64).sum();
        let load = work / (256.0 * span);
        assert!((load - 0.95).abs() < 1e-3, "{load}");
        assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
    }
}
