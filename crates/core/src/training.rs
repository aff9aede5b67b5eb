//! Building and training MRSch agents.
//!
//! [`MrschBuilder`] wires together the system configuration, the state
//! encoder, and a [`DfpConfig`] sized for that encoder, producing an
//! [`Mrsch`] handle that trains — one episode at a time
//! ([`Mrsch::train_episode`]) or over a scenario curriculum such as the
//! paper's §III-D job-set ordering ([`Mrsch::train_with_curriculum`]) —
//! and evaluates on held-out workloads.

use crate::agent::{Mode, MrschPolicy};
use crate::encoder::StateEncoder;
use crate::engine::{EngineOutcome, RolloutTask, TrainerConfig, TrainingEngine};
use crate::goal::GoalMode;
use mrsch_dfp::{DfpAgent, DfpConfig, StateModuleKind};
use mrsch_workload::scenario::{mix_seed, Curriculum};
use mrsim::job::Job;
use mrsim::resources::SystemConfig;
use mrsim::simulator::{SimParams, Simulator};
use mrsim::{SimReport, SimTime};

/// Builder for an [`Mrsch`] scheduling agent.
#[derive(Clone, Debug)]
pub struct MrschBuilder {
    system: SystemConfig,
    params: SimParams,
    seed: u64,
    state_module: StateModuleKind,
    goal_mode: GoalMode,
    trainer: TrainerConfig,
    config_override: Option<DfpConfig>,
}

impl MrschBuilder {
    /// Start building an agent for a system under given simulator
    /// parameters (the window size is taken from `params`).
    pub fn new(system: SystemConfig, params: SimParams) -> Self {
        Self {
            system,
            params,
            seed: 0,
            state_module: StateModuleKind::Mlp,
            goal_mode: GoalMode::Dynamic,
            trainer: TrainerConfig::default(),
            config_override: None,
        }
    }

    /// Set the RNG seed (network init + exploration).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Choose the state-module architecture (Fig. 3 ablation).
    pub fn state_module(mut self, kind: StateModuleKind) -> Self {
        self.state_module = kind;
        self
    }

    /// Choose how goals are produced (dynamic Eq. 1 vs fixed weights).
    pub fn goal_mode(mut self, mode: GoalMode) -> Self {
        self.goal_mode = mode;
        self
    }

    /// Gradient steps per training episode (sugar for the corresponding
    /// [`TrainerConfig`] field).
    pub fn batches_per_episode(mut self, n: usize) -> Self {
        self.trainer.batches_per_episode = n;
        self
    }

    /// Replace the whole training-loop configuration (workers, round
    /// size, gradient steps).
    pub fn trainer(mut self, cfg: TrainerConfig) -> Self {
        self.trainer = cfg;
        self
    }

    /// Replace the auto-sized [`DfpConfig`] entirely (dimension fields are
    /// still overwritten to match the encoder).
    pub fn dfp_config(mut self, cfg: DfpConfig) -> Self {
        self.config_override = Some(cfg);
        self
    }

    /// Build the agent.
    pub fn build(self) -> Mrsch {
        let encoder = StateEncoder::with_hour_scale(self.system.clone(), self.params.window);
        let m = self.system.num_resources();
        let mut cfg = self
            .config_override
            .unwrap_or_else(|| DfpConfig::scaled(encoder.state_dim(), m, self.params.window));
        cfg.state_dim = encoder.state_dim();
        cfg.measurement_dim = m;
        cfg.num_actions = self.params.window;
        cfg.state_module = self.state_module;
        let agent = DfpAgent::new(cfg, self.seed);
        Mrsch {
            agent,
            encoder,
            system: self.system,
            params: self.params,
            goal_mode: self.goal_mode,
            trainer: self.trainer,
            seed: self.seed,
        }
    }
}

/// A ready-to-use MRSch agent bound to one system configuration.
pub struct Mrsch {
    agent: DfpAgent,
    encoder: StateEncoder,
    system: SystemConfig,
    params: SimParams,
    goal_mode: GoalMode,
    trainer: TrainerConfig,
    seed: u64,
}

impl Mrsch {
    /// The wrapped DFP agent.
    pub fn agent(&self) -> &DfpAgent {
        &self.agent
    }

    /// Mutable access to the DFP agent (checkpointing).
    pub fn agent_mut(&mut self) -> &mut DfpAgent {
        &mut self.agent
    }

    /// The system this agent was built for.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Simulator parameters (window, backfill).
    pub fn params(&self) -> SimParams {
        self.params
    }

    /// The training-loop configuration.
    pub fn trainer(&self) -> &TrainerConfig {
        &self.trainer
    }

    /// The state encoder (engine internals).
    pub(crate) fn encoder_ref(&self) -> &StateEncoder {
        &self.encoder
    }

    /// The goal mode (engine internals).
    pub(crate) fn goal_mode_ref(&self) -> &GoalMode {
        &self.goal_mode
    }

    /// The builder seed, from which rollout seeds derive.
    pub(crate) fn master_seed(&self) -> u64 {
        self.seed
    }

    /// Train one episode on a concrete job list. Returns the post-episode
    /// evaluation loss (None until replay holds a batch).
    ///
    /// This is the engine's rollout path at `workers = 1`: the episode
    /// runs under a frozen snapshot with a per-episode RNG derived from
    /// the builder seed and the episode counter, then is absorbed and
    /// trained on — so inline and engine-driven episodes are
    /// interchangeable.
    pub fn train_episode(&mut self, jobs: &[Job]) -> Option<f32> {
        let episode = self.agent.episodes();
        let task = RolloutTask {
            spec: mrsch_workload::scenario::EpisodeSpec {
                jobs: jobs.to_vec(),
                events: Vec::new(),
                params: self.params,
                deps: Vec::new(),
            },
            epsilon: self.agent.epsilon(),
            seed: mix_seed(mix_seed(self.seed, 0x5ce7a710), episode),
            goal: None,
        };
        let snap = self.agent.snapshot();
        let (exps, _report) = crate::engine::rollout_episode(
            &snap,
            &self.encoder,
            &self.goal_mode,
            &self.system,
            &mut None,
            &task,
        );
        self.agent.absorb_episode(exps);
        for _ in 0..self.trainer.batches_per_episode {
            self.agent.train_batch();
        }
        self.agent.eval_loss(256)
    }

    /// Train over a scenario [`Curriculum`] with this agent's
    /// [`TrainerConfig`] (rollout workers, round size) — the full
    /// engine: clean-first phases, disruption hardening, parallel
    /// rollouts, deterministic merge.
    pub fn train_with_curriculum(&mut self, curriculum: &Curriculum) -> EngineOutcome {
        TrainingEngine::new(self.trainer.clone()).train(self, curriculum)
    }

    /// Consume the handle into an owned, evaluation-only
    /// [`crate::agent::TrainedMrschPolicy`] — the boxed-`Policy` form
    /// used by the `mrsch_eval` registry. The policy acts exactly like
    /// [`Mrsch::evaluate`] does (greedy, same encoder and goal mode) but
    /// is self-contained and reusable across episodes via
    /// [`mrsim::Policy::reset`].
    pub fn into_eval_policy(self) -> crate::agent::TrainedMrschPolicy {
        crate::agent::TrainedMrschPolicy::new(self.agent, self.encoder, self.goal_mode)
    }

    /// Evaluate greedily on a job list, returning the simulator report.
    pub fn evaluate(&mut self, jobs: &[Job]) -> SimReport {
        self.run_eval(jobs, &[]).expect("no disruptions: injection cannot fail").0
    }

    /// Evaluate greedily under a disruption trace (cancellations,
    /// walltime kills, capacity drains/returns) injected before the run.
    /// Errors when an event references a job or resource outside this
    /// job set (e.g. a trace synthesized for a different workload).
    pub fn evaluate_disrupted(
        &mut self,
        jobs: &[Job],
        disruptions: &[mrsim::InjectedEvent],
    ) -> Result<SimReport, mrsim::simulator::SimError> {
        Ok(self.run_eval(jobs, disruptions)?.0)
    }

    /// Evaluate and also return the per-decision goal log (Figs. 8–9).
    pub fn evaluate_with_goal_log(
        &mut self,
        jobs: &[Job],
    ) -> (SimReport, Vec<(SimTime, Vec<f32>)>) {
        self.run_eval(jobs, &[]).expect("no disruptions: injection cannot fail")
    }

    #[allow(clippy::type_complexity)]
    fn run_eval(
        &mut self,
        jobs: &[Job],
        disruptions: &[mrsim::InjectedEvent],
    ) -> Result<(SimReport, Vec<(SimTime, Vec<f32>)>), mrsim::simulator::SimError> {
        let mut policy = MrschPolicy::new(
            &mut self.agent,
            self.encoder.clone(),
            self.goal_mode.clone(),
            Mode::Evaluate,
        );
        let mut sim = Simulator::new(self.system.clone(), jobs.to_vec(), self.params)
            .expect("jobs must be valid for the system");
        sim.inject_all(disruptions)?;
        let report = sim.run(&mut policy);
        let log = policy.goal_log().to_vec();
        Ok((report, log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsch_workload::suite::WorkloadSpec;
    use mrsch_workload::theta::{ThetaConfig, TraceJob};

    fn tiny_system() -> SystemConfig {
        SystemConfig::two_resource(16, 8)
    }

    fn tiny_trace(n: usize, seed: u64) -> Vec<TraceJob> {
        ThetaConfig {
            machine_nodes: 16,
            mean_interarrival: 120.0,
            ..ThetaConfig::scaled(n)
        }
        .generate(seed)
    }

    fn tiny_builder() -> MrschBuilder {
        let mut cfg = DfpConfig::scaled(1, 2, 4);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        MrschBuilder::new(tiny_system(), SimParams::new(4, true))
            .seed(3)
            .batches_per_episode(8)
            .dfp_config(cfg)
    }

    #[test]
    fn builder_sizes_config_from_encoder() {
        let mrsch = tiny_builder().build();
        let enc = StateEncoder::with_hour_scale(tiny_system(), 4);
        assert_eq!(mrsch.agent().config().state_dim, enc.state_dim());
        assert_eq!(mrsch.agent().config().num_actions, 4);
        assert_eq!(mrsch.agent().config().measurement_dim, 2);
    }

    #[test]
    fn train_then_evaluate_roundtrip() {
        let mut mrsch = tiny_builder().build();
        let spec = WorkloadSpec::s1();
        let trace = tiny_trace(40, 5);
        let jobs = spec.build(&trace, &tiny_system(), 6);
        let _ = mrsch.train_episode(&jobs);
        assert_eq!(mrsch.agent().episodes(), 1);
        let report = mrsch.evaluate(&jobs);
        assert_eq!(report.jobs_completed, jobs.len());
    }

    #[test]
    fn goal_log_returned_during_evaluation() {
        let mut mrsch = tiny_builder().build();
        let spec = WorkloadSpec::s4();
        let jobs = spec.build(&tiny_trace(30, 11), &tiny_system(), 12);
        let (report, log) = mrsch.evaluate_with_goal_log(&jobs);
        assert_eq!(report.jobs_completed, jobs.len());
        assert!(!log.is_empty());
        for (_, g) in &log {
            assert_eq!(g.len(), 2);
        }
    }

    #[test]
    fn cnn_variant_builds_and_runs() {
        let mut cfg = DfpConfig::scaled(1, 2, 4);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        let mut mrsch = MrschBuilder::new(tiny_system(), SimParams::new(4, true))
            .seed(4)
            .state_module(StateModuleKind::Cnn)
            .dfp_config(cfg)
            .build();
        let spec = WorkloadSpec::s1();
        let jobs = spec.build(&tiny_trace(15, 13), &tiny_system(), 14);
        let report = mrsch.evaluate(&jobs);
        assert_eq!(report.jobs_completed, jobs.len());
    }
}
