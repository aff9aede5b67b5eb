//! [`MrschPolicy`]: the [`mrsim::Policy`] implementation that puts the
//! DFP agent in the scheduler's seat (Fig. 2 of the paper).
//!
//! In **training mode** the policy explores ε-greedily, records every
//! decision, feeds post-action measurements back to the agent, and closes
//! the DFP episode when the simulation ends. In **evaluation mode** it
//! acts greedily and additionally logs the goal vector at every decision
//! — the `rBB` time series plotted in Figs. 8 and 9.
//!
//! Training mode is the *inline* path: the agent's own persistent RNG
//! drives exploration, which is what the paper's setup describes and
//! what custom training loops over a borrowed agent need. The engine
//! path (`Mrsch::train_episode` / `mrsch::engine`) instead rolls out
//! frozen snapshots with per-episode seeded RNGs so episodes can run on
//! worker threads; both paths build experiences through the same
//! `mrsch_dfp::EpisodeRecorder` and act through the same shared
//! decision rule (`mrsch_dfp::rollout::act_epsilon_greedy`), so they
//! cannot drift — they differ only in where exploration randomness
//! comes from.

use crate::encoder::StateEncoder;
use crate::goal::GoalMode;
use mrsch_dfp::DfpAgent;
use mrsim::metrics::SimReport;
use mrsim::policy::{Policy, SchedulerView, StepFeedback};
use mrsim::SimTime;

/// Operating mode of the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Explore, record experiences, close episodes.
    Train,
    /// Act greedily; no learning side effects.
    Evaluate,
}

/// The MRSch scheduling policy.
pub struct MrschPolicy<'a> {
    agent: &'a mut DfpAgent,
    encoder: StateEncoder,
    goal_mode: GoalMode,
    mode: Mode,
    /// Per-decision goal log: `(time, goal)`.
    goal_log: Vec<(SimTime, Vec<f32>)>,
    /// The state buffer every decision encodes into.
    state: Vec<f32>,
    /// A recorded training step is waiting for its outcome.
    awaiting: bool,
    /// Gradient steps to run after each episode in training mode.
    batches_per_episode: usize,
    /// Losses observed from those post-episode gradient steps.
    losses: Vec<f32>,
}

impl<'a> MrschPolicy<'a> {
    /// Wrap a DFP agent for one simulation run.
    pub fn new(
        agent: &'a mut DfpAgent,
        encoder: StateEncoder,
        goal_mode: GoalMode,
        mode: Mode,
    ) -> Self {
        assert_eq!(
            agent.config().state_dim,
            encoder.state_dim(),
            "agent and encoder disagree on state dimension"
        );
        assert_eq!(
            agent.config().num_actions,
            encoder.window(),
            "agent and encoder disagree on window size"
        );
        Self {
            agent,
            encoder,
            goal_mode,
            mode,
            goal_log: Vec::new(),
            state: Vec::new(),
            awaiting: false,
            batches_per_episode: 32,
            losses: Vec::new(),
        }
    }

    /// Override the number of gradient steps run at each episode end.
    pub fn with_batches_per_episode(mut self, n: usize) -> Self {
        self.batches_per_episode = n;
        self
    }

    /// The goal vectors logged at each decision (Figs. 8–9's `rBB` is
    /// element 1 of each entry in a two-resource system).
    pub fn goal_log(&self) -> &[(SimTime, Vec<f32>)] {
        &self.goal_log
    }

    /// Losses from the post-episode training batches.
    pub fn losses(&self) -> &[f32] {
        &self.losses
    }
}

impl Policy for MrschPolicy<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        self.encoder.encode_into(view, &mut self.state);
        let meas: Vec<f32> = view.measurement().iter().map(|&x| x as f32).collect();
        let goal = self.goal_mode.goal_for(view);
        let valid = self.encoder.valid_actions(view);
        self.goal_log.push((view.now, goal.clone()));
        let explore = self.mode == Mode::Train;
        let action = self.agent.act(&self.state, &meas, &goal, &valid, explore)?;
        if self.mode == Mode::Train {
            self.agent.record_step(&self.state, &meas, &goal, action);
            self.awaiting = true;
        }
        Some(action)
    }

    fn feedback(&mut self, fb: &StepFeedback) {
        if std::mem::take(&mut self.awaiting) {
            let meas_after: Vec<f32> = fb.measurement.iter().map(|&x| x as f32).collect();
            self.agent.record_outcome(&meas_after);
        }
    }

    fn episode_end(&mut self, _report: &SimReport) {
        if self.mode == Mode::Train {
            self.agent.finish_episode();
            for _ in 0..self.batches_per_episode {
                if let Some(loss) = self.agent.train_batch() {
                    self.losses.push(loss);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "mrsch"
    }
}

/// Owned, evaluation-only MRSch policy: a trained agent plus its
/// encoder and goal mode, packaged as a self-contained boxed
/// [`mrsim::Policy`] (built via `Mrsch::into_eval_policy`). This is the
/// form the `mrsch_eval` registry hands to the evaluation harness: it
/// acts greedily, logs the goal vector per decision, and
/// [`Policy::reset`] clears that log so one instance can be reused
/// across episodes.
pub struct TrainedMrschPolicy {
    agent: DfpAgent,
    encoder: StateEncoder,
    goal_mode: GoalMode,
    goal_log: Vec<(SimTime, Vec<f32>)>,
    /// The state buffer every decision encodes into.
    state: Vec<f32>,
}

impl TrainedMrschPolicy {
    pub(crate) fn new(agent: DfpAgent, encoder: StateEncoder, goal_mode: GoalMode) -> Self {
        Self { agent, encoder, goal_mode, goal_log: Vec::new(), state: Vec::new() }
    }

    /// The wrapped agent (checkpointing, inspection).
    pub fn agent(&self) -> &DfpAgent {
        &self.agent
    }

    /// The goal vectors logged at each decision of the latest episode.
    pub fn goal_log(&self) -> &[(SimTime, Vec<f32>)] {
        &self.goal_log
    }
}

impl Policy for TrainedMrschPolicy {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        self.encoder.encode_into(view, &mut self.state);
        let meas: Vec<f32> = view.measurement().iter().map(|&x| x as f32).collect();
        let goal = self.goal_mode.goal_for(view);
        let valid = self.encoder.valid_actions(view);
        self.goal_log.push((view.now, goal.clone()));
        self.agent.act(&self.state, &meas, &goal, &valid, false)
    }

    fn reset(&mut self) {
        self.goal_log.clear();
    }

    fn name(&self) -> &'static str {
        "mrsch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsch_dfp::DfpConfig;
    use mrsim::job::Job;
    use mrsim::resources::SystemConfig;
    use mrsim::simulator::{SimParams, Simulator};

    fn small_setup() -> (SystemConfig, StateEncoder, DfpAgent) {
        let system = SystemConfig::two_resource(8, 4);
        let window = 4;
        let encoder = StateEncoder::with_hour_scale(system.clone(), window);
        let mut cfg = DfpConfig::scaled(encoder.state_dim(), 2, window);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        let agent = DfpAgent::new(cfg, 42);
        (system, encoder, agent)
    }

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(
                    i,
                    (i as u64) * 30,
                    120 + (i as u64 % 5) * 60,
                    600,
                    vec![1 + (i as u64 % 4), (i as u64) % 3],
                )
            })
            .collect()
    }

    #[test]
    fn training_run_completes_and_records() {
        let (system, encoder, mut agent) = small_setup();
        let mut policy =
            MrschPolicy::new(&mut agent, encoder, GoalMode::Dynamic, Mode::Train)
                .with_batches_per_episode(4);
        let mut sim = Simulator::new(system, jobs(30), SimParams::new(4, true))
            .unwrap();
        let report = sim.run(&mut policy);
        assert_eq!(report.jobs_completed, 30);
        assert!(!policy.goal_log().is_empty());
        drop(policy);
        assert_eq!(agent.episodes(), 1);
        assert!(agent.replay_len() > 0, "experiences recorded");
    }

    #[test]
    fn evaluation_mode_has_no_learning_side_effects() {
        let (system, encoder, mut agent) = small_setup();
        let mut policy =
            MrschPolicy::new(&mut agent, encoder, GoalMode::Dynamic, Mode::Evaluate);
        let mut sim = Simulator::new(system, jobs(20), SimParams::new(4, true))
            .unwrap();
        let report = sim.run(&mut policy);
        assert_eq!(report.jobs_completed, 20);
        drop(policy);
        assert_eq!(agent.episodes(), 0);
        assert_eq!(agent.replay_len(), 0);
        assert_eq!(agent.train_steps(), 0);
    }

    #[test]
    fn goal_log_entries_normalize() {
        let (system, encoder, mut agent) = small_setup();
        let mut policy =
            MrschPolicy::new(&mut agent, encoder, GoalMode::Dynamic, Mode::Evaluate);
        let mut sim = Simulator::new(system, jobs(15), SimParams::new(4, true))
            .unwrap();
        sim.run(&mut policy);
        for (_, g) in policy.goal_log() {
            let sum: f32 = g.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "goal weights sum to 1: {g:?}");
        }
    }

    #[test]
    #[should_panic(expected = "state dimension")]
    fn mismatched_encoder_rejected() {
        let (system, _, mut agent) = small_setup();
        let bad = StateEncoder::with_hour_scale(system, 3); // wrong window/dim
        let _ = MrschPolicy::new(&mut agent, bad, GoalMode::Dynamic, Mode::Train);
    }
}
