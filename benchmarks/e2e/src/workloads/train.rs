//! `train_curriculum`: a 48-episode disruption-hardening curriculum
//! through `Mrsch::train_with_curriculum` — the learner (batch-32 GEMM
//! forward/backward, Adam, replay sampling) beside the rollouts.
//! Inference-only changes should barely move it.

use crate::replay;
use crate::report::{timed_reps, timed_setup, Report, RunArgs};
use crate::stats::median;
use crate::trace::{self, Span};
use crate::wrappers::TracedPolicy;
use mrsch::{GoalMode, Mode, Mrsch, MrschBuilder, MrschPolicy, StateEncoder, TrainerConfig};
use mrsch_linalg::ParallelPolicy;
use mrsch_workload::disruption::DisruptionConfig;
use mrsch_workload::scenario::{Curriculum, JobSource, Scenario};
use mrsch_workload::{ThetaConfig, WorkloadSpec};
use mrsim::{Job, SimParams, Simulator, SystemConfig};
use std::time::{Duration, Instant};

/// Share of the measuring time given to training.
const TRAIN_SHARE: f64 = 0.85;
/// Time given to checkpoint round trips of the trained agent.
const RELOAD_BUDGET: Duration = Duration::from_millis(500);
/// Clean episodes the curriculum never trains on.
const HELD_OUT_EPISODES: u64 = 4;
/// Training steps replayed for the batch-32 GEMM timings.
const GEMM_REPLAY_STEPS: usize = 64;

struct Case {
    system: SystemConfig,
    params: SimParams,
    curriculum: Curriculum,
    held_out: Vec<Vec<Job>>,
    seed: u64,
}

fn setup(args: &RunArgs) -> Case {
    let system = SystemConfig::two_resource(64, 16);
    let params = SimParams::new(10, true);
    let clean = Scenario::new(
        "clean",
        JobSource::Theta(ThetaConfig {
            machine_nodes: 64,
            ..ThetaConfig::scaled(args.size(100, 30))
        }),
        WorkloadSpec::s1(),
        params,
    )
    .with_seed(args.seed);
    let held_out = (0..HELD_OUT_EPISODES)
        .map(|k| clean.materialize(&system, (1 << 32) + k).jobs)
        .collect();
    let hardening = |per_phase: usize| {
        Curriculum::disruption_hardening(
            clean.clone(),
            DisruptionConfig {
                cancel_fraction: 0.3,
                ..Default::default()
            },
            DisruptionConfig::node_drain(0.25, 600, 2400),
            per_phase,
        )
    };
    let mut case = Case {
        system,
        params,
        curriculum: hardening(2),
        held_out,
        seed: args.seed,
    };
    // One reduced-size warm-up of the timed body: 2 episodes per phase.
    case.train(TrainerConfig::default());
    case.curriculum = hardening(args.size(16, 2));
    case
}

impl Case {
    fn agent(&self, trainer: TrainerConfig) -> Mrsch {
        MrschBuilder::new(self.system.clone(), self.params)
            .seed(self.seed)
            .trainer(trainer)
            .build()
    }

    /// The timed body: the whole curriculum through the training engine.
    /// Returns the trained agent and how many episodes misbehaved.
    fn train(&self, trainer: TrainerConfig) -> (Mrsch, u64) {
        let mut mrsch = self.agent(trainer);
        let outcome = mrsch.train_with_curriculum(&self.curriculum);
        let bad = outcome
            .phases
            .iter()
            .flat_map(|p| &p.reports)
            .filter(|r| r.jobs_unfinished > 0)
            .count() as u64
            + self
                .curriculum
                .total_episodes()
                .abs_diff(outcome.total_episodes()) as u64;
        (mrsch, bad)
    }
}

fn checkpoint(mrsch: &mut Mrsch) -> Vec<u8> {
    mrsch.agent_mut().network_mut().save_checkpoint().to_vec()
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let case = timed_setup(report, || setup(args));
    let episodes = case.curriculum.total_episodes();
    let budget = Duration::from_secs_f64(args.seconds).mul_f64(TRAIN_SHARE);

    let mut trained = None;
    let mut checkpoints: Vec<Vec<u8>> = Vec::new();
    // Two repetitions at least when untraced: the weights must repeat.
    let min_reps = if args.traced { 1 } else { 2 };
    let walls = timed_reps(
        if args.traced { Duration::ZERO } else { budget },
        min_reps,
        |_| {
            let (mut mrsch, bad) = case.train(TrainerConfig::default());
            report.attempted += episodes as u64;
            report.failed += bad;
            checkpoints.push(checkpoint(&mut mrsch));
            trained = Some(mrsch);
        },
    );
    let mut trained = trained.expect("at least one repetition");
    report.check(
        "checkpoint_equal_across_reps",
        checkpoints.windows(2).all(|w| w[0] == w[1]),
        format!("{} reps, {} bytes", checkpoints.len(), checkpoints[0].len()),
    );
    report.check(
        "train_steps_as_configured",
        trained.agent().train_steps() > 0 && trained.agent().episodes() == episodes as u64,
        format!("{} gradient steps", trained.agent().train_steps()),
    );

    // The interactive operation on a trained agent is the same as on a
    // simulator: checkpoint it and bring it back (what a `PolicyCache` hit
    // does) — save the weights, build a fresh agent, load them. Its cost
    // depends on the network's size, not on what the seed taught it.
    let mut reloaded = None;
    let reload_ms: Vec<f64> = timed_reps(RELOAD_BUDGET, 10, |_| {
        let bytes = checkpoint(&mut trained);
        let mut fresh = case.agent(TrainerConfig::default());
        fresh
            .agent_mut()
            .network_mut()
            .load_checkpoint(&bytes)
            .expect("own checkpoint loads into the same architecture");
        reloaded = Some(fresh);
    })
    .iter()
    .map(|s| s * 1e3)
    .collect();
    // The reloaded agent must schedule held-out episodes exactly as the
    // trained one does, with every job accounted for.
    let mut reloaded = reloaded.expect("at least one reload");
    let mut same = true;
    for jobs in &case.held_out {
        let (a, b) = (trained.evaluate(jobs), reloaded.evaluate(jobs));
        report.attempted += 1;
        report.failed += u64::from(!a.all_jobs_accounted(jobs.len()));
        same &= a == b;
    }
    report.check("reloaded_agent_evaluates_like_the_trained_one", same, "");

    if !args.traced {
        let rates: Vec<f64> = walls.iter().map(|w| episodes as f64 / w).collect();
        report.metric_of("throughput", &rates);
        report.metric_of("response_ms", &reload_ms);
        return;
    }

    // Traced run. The engine's loops are private, so the same work is
    // re-composed here from public pieces as a serial loop — once with
    // tracing off (what the wrappers cost) and once with it on.
    let engine_wall = walls[0];
    let (serial_wall, _) = serial_loop(&case);
    trace::start();
    let (traced_wall, agent_stats) = serial_loop(&case);
    report.attempted += 2 * episodes as u64;

    // Two rollout workers: same weights, different wall-clock.
    let t = Instant::now();
    let (mut two, bad) = case.train(TrainerConfig::default().workers(2));
    let workers2_wall = t.elapsed().as_secs_f64();
    report.attempted += episodes as u64;
    report.failed += bad;
    report.check(
        "workers2_checkpoint_equals_workers1",
        checkpoint(&mut two) == checkpoints[0],
        format!("{} core(s) available", crate::host::cores()),
    );

    // The crates' default GEMM policy, for comparison (see `workloads::run`).
    mrsch_linalg::set_default_policy(ParallelPolicy::Auto);
    let t = Instant::now();
    let (mut auto, bad) = case.train(TrainerConfig::default());
    let auto_wall = t.elapsed().as_secs_f64();
    mrsch_linalg::set_default_policy(ParallelPolicy::Serial);
    report.attempted += episodes as u64;
    report.failed += bad;
    report.check(
        "auto_policy_checkpoint_equals_serial",
        checkpoint(&mut auto) == checkpoints[0],
        "",
    );

    replay::linalg_gemm_train(trained.agent().config(), GEMM_REPLAY_STEPS);
    let tracer = trace::finish();

    let body_s = tracer.total_s(Span::Body);
    report.metric(
        "trace.overhead_pct",
        (traced_wall / serial_wall - 1.0) * 100.0,
    );
    report.trace_summary(&tracer, 1.0);
    report.metric(
        "workload.materialize_s",
        tracer.total_s(Span::WorkloadMaterialize),
    );
    report.metric("sim.construct_s", tracer.total_s(Span::SimLoad));
    report.metric("sim.run_s", tracer.total_s(Span::SimRun));
    report.metric("sim.self_s", tracer.self_s(Span::SimRun));
    report.metric("core.rollout_s", tracer.total_s(Span::CoreRollout));
    report.metric("dfp.train_batch_s", tracer.total_s(Span::DfpTrainBatch));
    report.metric("dfp.train_batch_ns", tracer.mean_ns(Span::DfpTrainBatch));
    report.metric("dfp.train_steps", agent_stats.0 as f64);
    report.metric("dfp.replay_len", agent_stats.1 as f64);
    report.metric("learn_share", tracer.total_s(Span::DfpTrainBatch) / body_s);
    report.metric(
        "policy_share",
        tracer.total_s(Span::CoreRollout) / tracer.total_s(Span::SimRun),
    );
    report.metric("linalg.gemm_fwd_ns", tracer.mean_ns(Span::LinalgGemmFwd));
    report.metric(
        "linalg.gemm_gradw_ns",
        tracer.mean_ns(Span::LinalgGemmGradW),
    );
    report.metric(
        "linalg.gemm_gradx_ns",
        tracer.mean_ns(Span::LinalgGemmGradX),
    );
    report.metric("core.engine_overhead_s", engine_wall - serial_wall);
    report.metric("core.workers2_speedup", median(&walls) / workers2_wall);
    report.metric("linalg.auto_policy_speedup", median(&walls) / auto_wall);
    crate::write_trace(args, "", &tracer);
}

/// The curriculum as a bench-side serial loop: per episode `materialize`
/// → `EpisodeSpec::install` → `run` under `MrschPolicy` in `Mode::Train`
/// (the `select`/`feedback` spans are the rollout), then the episode's
/// gradient steps one `train_batch` span each. Returns the wall-clock and
/// the agent's `(train_steps, replay_len)`.
fn serial_loop(case: &Case) -> (f64, (u64, usize)) {
    let t = Instant::now();
    let trainer = TrainerConfig::default();
    let mut mrsch = case.agent(trainer.clone());
    let encoder = StateEncoder::with_hour_scale(case.system.clone(), case.params.window);
    let mut sim: Option<Simulator> = None;
    trace::span(Span::Body, 0, || {
        let mut episode = 0u64;
        for phase in case.curriculum.phases() {
            for k in 0..phase.episodes as u64 {
                let spec = trace::span(Span::WorkloadMaterialize, episode, || {
                    phase.scenario.materialize(&case.system, k)
                });
                trace::span(Span::SimLoad, episode, || match sim.as_mut() {
                    Some(sim) => spec.install(sim).expect("episode fits the system"),
                    None => {
                        sim = Some(
                            spec.simulator(case.system.clone())
                                .expect("episode fits the system"),
                        )
                    }
                });
                let policy = MrschPolicy::new(
                    mrsch.agent_mut(),
                    encoder.clone(),
                    GoalMode::Dynamic,
                    Mode::Train,
                )
                .with_batches_per_episode(0);
                let mut policy = TracedPolicy::new(policy, Span::CoreRollout);
                let sim = sim.as_mut().expect("just installed");
                trace::span(Span::SimRun, episode, || sim.run(&mut policy));
                drop(policy);
                for step in 0..trainer.batches_per_episode as u64 {
                    trace::span(Span::DfpTrainBatch, step, || {
                        mrsch.agent_mut().train_batch()
                    });
                }
                episode += 1;
            }
        }
    });
    let stats = (mrsch.agent().train_steps(), mrsch.agent().replay_len());
    (t.elapsed().as_secs_f64(), stats)
}
