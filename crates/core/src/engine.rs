//! The scenario-driven training engine: curriculum phases rolled out by
//! parallel workers, merged deterministically into one learner.
//!
//! # Architecture
//!
//! Training proceeds in **rounds**. At the start of a round the learner
//! ([`mrsch_dfp::DfpAgent`]) is frozen into a
//! [`mrsch_dfp::PolicySnapshot`]; the round's episodes (at most
//! [`TrainerConfig::round_size`]) are materialized from the active
//! [`CurriculumPhase`]'s [`Scenario`] and rolled out — each episode on a
//! private `Simulator` (reused across episodes via `Simulator::load`)
//! with a private RNG seeded from the master seed and the global episode
//! index. Workers only decide *where* an episode runs, never *what* it
//! computes: an episode's experience stream is a pure function of
//! `(snapshot, scenario, episode index, master seed)`. The per-worker
//! buffers are then merged into the shared replay **in episode order**,
//! the learner takes `round_size × batches_per_episode` gradient steps,
//! and the next round begins.
//!
//! # Determinism
//!
//! Because rollouts are pure and the merge order is fixed, training with
//! `workers = 1` and `workers = N` produces **bit-identical** network
//! parameters and identical per-episode `SimReport`s for the same master
//! seed — worker count is a wall-clock knob, not a semantics knob (the
//! property `tests/training_determinism.rs` pins). This extends the
//! repo's serial-vs-parallel GEMM guarantee up through the training loop
//! itself.

use crate::encoder::StateEncoder;
use crate::goal::GoalMode;
use crate::training::Mrsch;
use mrsch_dfp::rollout::EpisodeRecorder;
use mrsch_dfp::{Experience, PolicySnapshot};
use mrsch_workload::scenario::{mix_seed, Curriculum, EpisodeSpec};
use mrsim::policy::{Policy, SchedulerView, StepFeedback};
use mrsim::resources::SystemConfig;
use mrsim::simulator::Simulator;
use mrsim::SimReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training-loop knobs, split out of `MrschBuilder` so the same agent
/// definition can be trained serially, in parallel, or under different
/// synchronization granularities.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Rollout worker threads. `1` is the serial path — more workers
    /// never change the result, only the wall-clock.
    pub workers: usize,
    /// Episodes rolled out under one frozen policy snapshot. This *does*
    /// affect results (it is the learner's synchronization granularity),
    /// so it is a config value — never derived from the worker count.
    pub round_size: usize,
    /// Gradient steps per absorbed episode.
    pub batches_per_episode: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self { workers: 1, round_size: 4, batches_per_episode: 32 }
    }
}

impl TrainerConfig {
    /// Set the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Set the frozen-snapshot round size.
    pub fn round_size(mut self, n: usize) -> Self {
        self.round_size = n.max(1);
        self
    }

    /// Set the gradient steps per episode.
    pub fn batches_per_episode(mut self, n: usize) -> Self {
        self.batches_per_episode = n;
        self
    }
}

/// Result of training one curriculum phase.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    /// The phase's scenario name.
    pub name: String,
    /// Episodes trained in this phase.
    pub episodes: usize,
    /// Replay eval loss after each round (NaN until replay holds data).
    pub round_losses: Vec<f32>,
    /// Per-episode rollout reports, in episode order — disruption
    /// counters included, so a phase's cancel/kill/drain exposure is
    /// auditable.
    pub reports: Vec<SimReport>,
}

/// Result of a whole curriculum run.
#[derive(Clone, Debug, Default)]
pub struct EngineOutcome {
    /// One outcome per curriculum phase, in training order.
    pub phases: Vec<PhaseOutcome>,
}

impl EngineOutcome {
    /// Total episodes trained.
    pub fn total_episodes(&self) -> usize {
        self.phases.iter().map(|p| p.episodes).sum()
    }

    /// All per-episode reports in training order.
    pub fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.phases.iter().flat_map(|p| p.reports.iter())
    }
}

/// The curriculum training engine. Owns only its [`TrainerConfig`]; the
/// agent and curriculum are supplied per run.
#[derive(Clone, Debug, Default)]
pub struct TrainingEngine {
    cfg: TrainerConfig,
}

impl TrainingEngine {
    /// Engine with the given knobs.
    pub fn new(cfg: TrainerConfig) -> Self {
        Self { cfg }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Train `mrsch` over `curriculum`, phase by phase.
    pub fn train(&self, mrsch: &mut Mrsch, curriculum: &Curriculum) -> EngineOutcome {
        let system = mrsch.system().clone();
        let encoder = mrsch.encoder_ref().clone();
        let master = mix_seed(mrsch.master_seed(), 0x5ce7a710);
        let mut outcome = EngineOutcome::default();
        for phase in curriculum.phases() {
            // The phase-level mode covers fixed schedules exactly; an
            // annealed schedule additionally stamps a per-episode goal
            // onto each rollout task below.
            let goal_mode = match &phase.goal {
                Some(s) => GoalMode::Fixed(s.goal_at(0, phase.episodes)),
                None => mrsch.goal_mode_ref().clone(),
            };
            outcome
                .phases
                .push(self.train_phase(mrsch, phase, &goal_mode, &system, &encoder, master));
        }
        outcome
    }

    /// One phase of the round loop: roll out a round, absorb it, train,
    /// repeat. Deterministic for any worker count.
    fn train_phase(
        &self,
        mrsch: &mut Mrsch,
        phase: &mrsch_workload::scenario::CurriculumPhase,
        goal_mode: &GoalMode,
        system: &SystemConfig,
        encoder: &StateEncoder,
        master: u64,
    ) -> PhaseOutcome {
        let mut phase_out = PhaseOutcome {
            name: phase.scenario.name.clone(),
            episodes: phase.episodes,
            round_losses: Vec::new(),
            reports: Vec::new(),
        };
        let mut done = 0;
        while done < phase.episodes {
            let count = self.cfg.round_size.max(1).min(phase.episodes - done);
            let base_eps = mrsch.agent().episodes();
            let dfp_cfg = mrsch.agent().config().clone();
            // One frozen snapshot per round, borrowed by every worker —
            // workers read the same weights through the cache-free
            // inference forward pass, so no per-worker network clone
            // exists.
            let snapshot = mrsch.agent().snapshot();
            // Materialize the round: specs from the scenario (keyed
            // by within-phase index, so a phase's episode stream is
            // independent of what preceded it), ε and RNG seeds from
            // the global episode counter.
            let episodes: Vec<RolloutTask> = (0..count)
                .map(|k| RolloutTask {
                    spec: phase.scenario.materialize(system, (done + k) as u64),
                    epsilon: dfp_cfg.epsilon_at(base_eps + k as u64),
                    seed: mix_seed(master, base_eps + k as u64),
                    goal: episode_goal(phase, done + k),
                })
                .collect();
            // Roll the round out across the workers; results come back
            // in episode order regardless of scheduling. The per-worker
            // state is just a reusable simulator.
            let results = mrsim::striped_map(
                self.cfg.workers,
                count,
                || None,
                |sim, k| rollout_episode(&snapshot, encoder, goal_mode, system, sim, &episodes[k]),
            );
            for (exps, report) in results {
                mrsch.agent_mut().absorb_episode(exps);
                phase_out.reports.push(report);
            }
            for _ in 0..count * self.cfg.batches_per_episode {
                mrsch.agent_mut().train_batch();
            }
            phase_out
                .round_losses
                .push(mrsch.agent_mut().eval_loss(256).unwrap_or(f32::NAN));
            done += count;
            if phase.plateau_reached(&phase_out.round_losses) {
                break;
            }
        }
        // Plateau advancement may end a phase early; report what ran.
        phase_out.episodes = done;
        phase_out
    }
}

/// One episode's inputs: everything a worker needs, nothing shared.
pub(crate) struct RolloutTask {
    pub(crate) spec: EpisodeSpec,
    pub(crate) epsilon: f32,
    pub(crate) seed: u64,
    /// Per-episode goal override (annealed schedules); `None` uses the
    /// phase-level mode.
    pub(crate) goal: Option<GoalMode>,
}

/// The per-episode goal for an annealed schedule; `None` when the
/// phase-level mode already covers it (no schedule, or a fixed one).
fn episode_goal(
    phase: &mrsch_workload::scenario::CurriculumPhase,
    episode_in_phase: usize,
) -> Option<GoalMode> {
    match &phase.goal {
        Some(s) if !s.is_fixed() => {
            Some(GoalMode::Fixed(s.goal_at(episode_in_phase, phase.episodes)))
        }
        _ => None,
    }
}

/// Roll out one episode under a shared frozen snapshot, reusing the
/// worker's simulator when one exists. Pure in `(snapshot weights, task)`.
pub(crate) fn rollout_episode(
    snap: &PolicySnapshot,
    encoder: &StateEncoder,
    goal_mode: &GoalMode,
    system: &SystemConfig,
    sim: &mut Option<Simulator>,
    task: &RolloutTask,
) -> (Vec<Experience>, SimReport) {
    match sim {
        Some(s) => task.spec.install(s).expect("scenario jobs must fit the system"),
        None => {
            *sim = Some(
                task.spec
                    .simulator(system.clone())
                    .expect("scenario jobs must fit the system"),
            )
        }
    }
    let s = sim.as_mut().expect("just ensured");
    let mut policy = RolloutPolicy {
        snap,
        epsilon: task.epsilon,
        encoder,
        goal_mode: task.goal.as_ref().unwrap_or(goal_mode),
        recorder: EpisodeRecorder::new(),
        rng: StdRng::seed_from_u64(task.seed),
        state: Vec::new(),
        awaiting: false,
    };
    let report = s.run(&mut policy);
    let RolloutPolicy { snap, mut recorder, .. } = policy;
    let cfg = snap.config();
    let exps = recorder.finish(&cfg.offsets, cfg.measurement_dim);
    (exps, report)
}

/// The worker-side policy: acts ε-greedily through a *shared* frozen
/// snapshot with a private RNG and per-episode ε, and records the
/// episode for later absorption — the detached sibling of `MrschPolicy`
/// in training mode.
struct RolloutPolicy<'a> {
    snap: &'a PolicySnapshot,
    epsilon: f32,
    encoder: &'a StateEncoder,
    goal_mode: &'a GoalMode,
    recorder: EpisodeRecorder,
    rng: StdRng,
    /// The state buffer every decision encodes into.
    state: Vec<f32>,
    awaiting: bool,
}

impl Policy for RolloutPolicy<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        self.encoder.encode_into(view, &mut self.state);
        let meas: Vec<f32> = view.measurement().iter().map(|&x| x as f32).collect();
        let goal = self.goal_mode.goal_for(view);
        let valid = self.encoder.valid_actions(view);
        let action = self.snap.act_with_epsilon(
            self.epsilon,
            &self.state,
            &meas,
            &goal,
            &valid,
            true,
            &mut self.rng,
        )?;
        self.recorder.record_step(&self.state, &meas, &goal, action);
        self.awaiting = true;
        Some(action)
    }

    fn feedback(&mut self, fb: &StepFeedback) {
        if std::mem::take(&mut self.awaiting) {
            let meas_after: Vec<f32> = fb.measurement.iter().map(|&x| x as f32).collect();
            self.recorder.record_outcome(&meas_after);
        }
    }

    fn name(&self) -> &'static str {
        "mrsch-rollout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::MrschBuilder;
    use mrsch_dfp::DfpConfig;
    use mrsch_workload::scenario::{CurriculumPhase, JobSource, Scenario};
    use mrsch_workload::{DisruptionConfig, ThetaConfig, WorkloadSpec};
    use mrsim::simulator::SimParams;

    fn tiny_system() -> SystemConfig {
        SystemConfig::two_resource(16, 8)
    }

    fn tiny_scenario(n: usize, seed: u64) -> Scenario {
        Scenario::new(
            "clean",
            JobSource::Theta(ThetaConfig {
                machine_nodes: 16,
                mean_interarrival: 120.0,
                ..ThetaConfig::scaled(n)
            }),
            WorkloadSpec::s1(),
            SimParams::new(4, true),
        )
        .with_seed(seed)
    }

    fn tiny_mrsch(seed: u64, trainer: TrainerConfig) -> crate::training::Mrsch {
        let mut cfg = DfpConfig::scaled(1, 2, 4);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        MrschBuilder::new(tiny_system(), SimParams::new(4, true))
            .seed(seed)
            .trainer(trainer)
            .dfp_config(cfg)
            .build()
    }

    fn tiny_curriculum(per_phase: usize) -> Curriculum {
        Curriculum::disruption_hardening(
            tiny_scenario(20, 5),
            DisruptionConfig { cancel_fraction: 0.3, ..Default::default() },
            DisruptionConfig::node_drain(0.25, 600, 2400),
            per_phase,
        )
    }

    #[test]
    fn engine_trains_through_all_phases() {
        let trainer = TrainerConfig::default().round_size(2).batches_per_episode(4);
        let mut mrsch = tiny_mrsch(3, trainer.clone());
        let outcome = TrainingEngine::new(trainer).train(&mut mrsch, &tiny_curriculum(2));
        assert_eq!(outcome.phases.len(), 3);
        assert_eq!(outcome.total_episodes(), 6);
        assert_eq!(mrsch.agent().episodes(), 6);
        assert!(mrsch.agent().train_steps() > 0);
        assert!(outcome.phases.iter().flat_map(|p| &p.round_losses).any(|l| l.is_finite()));
        // Phase names follow the hardening order.
        let names: Vec<&str> = outcome.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["clean", "cancel_heavy", "drain_heavy"]);
        // Disrupted phases actually saw disruptions.
        let cancels: u64 = outcome.phases[1].reports.iter().map(|r| r.jobs_cancelled as u64).sum();
        assert!(cancels > 0, "cancel-heavy phase must cancel jobs");
        let lost: f64 = outcome.phases[2]
            .reports
            .iter()
            .map(|r| r.capacity_lost_unit_seconds[0])
            .sum();
        assert!(lost > 0.0, "drain-heavy phase must lose node-seconds");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let curriculum = tiny_curriculum(2);
        let run = |workers: usize| {
            let trainer = TrainerConfig::default()
                .workers(workers)
                .round_size(2)
                .batches_per_episode(4);
            let mut mrsch = tiny_mrsch(9, trainer.clone());
            let outcome = TrainingEngine::new(trainer).train(&mut mrsch, &curriculum);
            let ckpt = mrsch.agent_mut().network_mut().save_checkpoint();
            (outcome, ckpt)
        };
        let (o1, c1) = run(1);
        let (o3, c3) = run(3);
        assert_eq!(c1, c3, "trained weights must be bit-identical across worker counts");
        for (a, b) in o1.reports().zip(o3.reports()) {
            assert_eq!(a, b, "per-episode reports must match");
        }
        assert_eq!(
            o1.phases.iter().map(|p| &p.round_losses).collect::<Vec<_>>(),
            o3.phases.iter().map(|p| &p.round_losses).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn plateau_rule_can_end_a_phase_early() {
        // An enormous tolerance turns "plateau" into "first moment the
        // window is full of finite losses", so the phase must stop at
        // exactly `round_size * window` episodes instead of its budget.
        let trainer = TrainerConfig::default().round_size(1).batches_per_episode(4);
        let budget = 6;
        let phase = CurriculumPhase::new(tiny_scenario(12, 5), budget)
            .advance_on_plateau(2, f32::INFINITY);
        let curriculum = Curriculum::new().phase(phase.clone());
        let mut mrsch = tiny_mrsch(7, trainer.clone());
        let outcome = TrainingEngine::new(trainer.clone()).train(&mut mrsch, &curriculum);
        assert!(
            outcome.phases[0].episodes < budget,
            "phase must end early, ran {}",
            outcome.phases[0].episodes
        );
        assert_eq!(outcome.phases[0].reports.len(), outcome.phases[0].episodes);
        assert_eq!(mrsch.agent().episodes() as usize, outcome.phases[0].episodes);
        // Without the rule the same setup runs the full budget.
        let full = Curriculum::new().phase(CurriculumPhase::new(tiny_scenario(12, 5), budget));
        let mut mrsch2 = tiny_mrsch(7, trainer.clone());
        let out2 = TrainingEngine::new(trainer).train(&mut mrsch2, &full);
        assert_eq!(out2.phases[0].episodes, budget);
    }

    #[test]
    fn goal_override_forces_fixed_goal() {
        // A fixed-goal phase must run (goal_for asserts the length), and
        // the run must stay deterministic.
        let scenario = tiny_scenario(12, 8);
        let curriculum = Curriculum::new()
            .phase(CurriculumPhase::new(scenario, 2).with_goal(vec![0.5, 0.5]));
        let trainer = TrainerConfig::default().round_size(2).batches_per_episode(2);
        let mut mrsch = tiny_mrsch(4, trainer.clone());
        let outcome = TrainingEngine::new(trainer).train(&mut mrsch, &curriculum);
        assert_eq!(outcome.total_episodes(), 2);
        assert_eq!(mrsch.agent().episodes(), 2);
    }
}
