//! The **Scalar RL** baseline: policy-gradient RL with a fixed-weight
//! scalar reward (§IV-D).
//!
//! This represents the "simple extension" the paper argues against: take
//! a single-objective RL scheduler and collapse the multi-resource
//! measurement into one number with fixed priorities — here
//! `r = 0.5·CPU-util + 0.5·BB-util` (uniform weights over resources in
//! general). The agent is REINFORCE with a learned value baseline over
//! the same vector state encoding MRSch uses, so the *only* conceptual
//! difference from MRSch is the scalar, statically-weighted objective.

use mrsch::encoder::StateEncoder;
use mrsch_linalg::Matrix;
use mrsch_nn::layer::Activation;
use mrsch_nn::net::Sequential;
use mrsch_nn::opt::{Adam, Optimizer};
use mrsim::metrics::SimReport;
use mrsim::policy::{Policy, SchedulerView, StepFeedback};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the scalar-RL agent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScalarRlConfig {
    /// State dimension (from the [`StateEncoder`]).
    pub state_dim: usize,
    /// Number of actions (window size).
    pub num_actions: usize,
    /// Fixed per-resource reward weights (paper: 0.5 / 0.5).
    pub reward_weights: Vec<f64>,
    /// Hidden width of policy and value networks.
    pub hidden: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Entropy-free exploration: during training actions are sampled from
    /// the softmax; during evaluation argmax. This flag keeps a floor on
    /// the sampling temperature.
    pub temperature: f32,
}

impl ScalarRlConfig {
    /// Defaults for a given encoder geometry with uniform reward weights
    /// over `num_resources`.
    pub fn scaled(state_dim: usize, num_actions: usize, num_resources: usize) -> Self {
        Self {
            state_dim,
            num_actions,
            reward_weights: vec![1.0 / num_resources as f64; num_resources],
            hidden: 64,
            gamma: 0.99,
            learning_rate: 1e-3,
            temperature: 1.0,
        }
    }
}

/// One trajectory step retained for the episode update.
#[derive(Clone, Debug)]
struct TrajStep {
    state: Vec<f32>,
    action: usize,
    valid: Vec<bool>,
    reward: f64,
}

/// The learning agent (kept separate from the per-run [`ScalarRlPolicy`]
/// so one agent can train across many episodes).
#[derive(Debug)]
pub struct ScalarRlAgent {
    cfg: ScalarRlConfig,
    policy_net: Sequential,
    value_net: Sequential,
    opt_policy: Adam,
    opt_value: Adam,
    rng: StdRng,
    episodes: u64,
}

impl ScalarRlAgent {
    /// Fresh agent.
    pub fn new(cfg: ScalarRlConfig, seed: u64) -> Self {
        assert!(!cfg.reward_weights.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let policy_net = Sequential::new()
            .dense(cfg.state_dim, cfg.hidden, &mut rng)
            .activation(Activation::LeakyRelu(0.01))
            .dense(cfg.hidden, cfg.num_actions, &mut rng);
        let value_net = Sequential::new()
            .dense(cfg.state_dim, cfg.hidden, &mut rng)
            .activation(Activation::LeakyRelu(0.01))
            .dense(cfg.hidden, 1, &mut rng);
        let opt_policy = Adam::new(cfg.learning_rate);
        let opt_value = Adam::new(cfg.learning_rate);
        Self { cfg, policy_net, value_net, opt_policy, opt_value, rng, episodes: 0 }
    }

    /// Configuration accessor.
    pub fn config(&self) -> &ScalarRlConfig {
        &self.cfg
    }

    /// Episodes trained.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Scalar reward: fixed-weight combination of the measurement vector.
    pub fn scalar_reward(&self, measurement: &[f64]) -> f64 {
        measurement
            .iter()
            .zip(&self.cfg.reward_weights)
            .map(|(m, w)| m * w)
            .sum()
    }

    /// Masked softmax action probabilities for one state.
    fn action_probs(&mut self, state: &[f32], valid: &[bool]) -> Vec<f32> {
        let x = Matrix::row_vector(state.to_vec());
        let logits = self.policy_net.forward(&x);
        masked_softmax(logits.row(0), valid, self.cfg.temperature)
    }

    /// Choose an action: sampled when `explore`, argmax otherwise.
    fn act(&mut self, state: &[f32], valid: &[bool], explore: bool) -> Option<usize> {
        if !valid.iter().any(|&v| v) {
            return None;
        }
        let probs = self.action_probs(state, valid);
        if explore {
            let mut t = self.rng.gen::<f32>();
            for (i, &p) in probs.iter().enumerate() {
                if p <= 0.0 {
                    continue;
                }
                if t < p {
                    return Some(i);
                }
                t -= p;
            }
        }
        // Argmax fallback (and evaluation path).
        greedy_pick(&probs, valid)
    }

    /// Greedy action through a shared reference (cache-free forward):
    /// the evaluation path of [`TrainedScalarRlPolicy`], bit-identical
    /// to [`ScalarRlAgent::act`] with `explore = false`.
    pub fn act_greedy(&self, state: &[f32], valid: &[bool]) -> Option<usize> {
        if !valid.iter().any(|&v| v) {
            return None;
        }
        let x = Matrix::row_vector(state.to_vec());
        let logits = self.policy_net.forward_inference(&x);
        let probs = masked_softmax(logits.row(0), valid, self.cfg.temperature);
        greedy_pick(&probs, valid)
    }

    /// Serialize both networks (policy first, then value) into one
    /// self-describing [`mrsch_nn::checkpoint`] blob — the format the
    /// content-addressed policy cache stores.
    pub fn save_checkpoint(&mut self) -> bytes::Bytes {
        let Self { policy_net, value_net, .. } = self;
        mrsch_nn::checkpoint::save_visitor(|f| {
            policy_net.visit_params(&mut |p, g| f(p, g));
            value_net.visit_params(&mut |p, g| f(p, g));
        })
    }

    /// Load a checkpoint produced by [`ScalarRlAgent::save_checkpoint`]
    /// into an agent with the identical architecture. The episode
    /// counter and RNG are *not* restored — greedy evaluation
    /// ([`ScalarRlAgent::act_greedy`]) touches neither.
    pub fn load_checkpoint(
        &mut self,
        data: &[u8],
    ) -> Result<(), mrsch_nn::checkpoint::CheckpointError> {
        let Self { policy_net, value_net, .. } = self;
        mrsch_nn::checkpoint::load_visitor(
            |f| {
                policy_net.visit_params(&mut |p, g| f(p, g));
                value_net.visit_params(&mut |p, g| f(p, g));
            },
            data,
        )
    }

    /// REINFORCE-with-baseline update over one finished trajectory.
    fn update(&mut self, traj: &[TrajStep]) {
        if traj.is_empty() {
            self.episodes += 1;
            return;
        }
        // Discounted returns.
        let n = traj.len();
        let mut returns = vec![0.0f64; n];
        let mut acc = 0.0f64;
        for t in (0..n).rev() {
            acc = traj[t].reward + self.cfg.gamma * acc;
            returns[t] = acc;
        }
        // Batch matrices.
        let mut states = Matrix::zeros(n, self.cfg.state_dim);
        for (i, s) in traj.iter().enumerate() {
            states.row_mut(i).copy_from_slice(&s.state);
        }
        // Value baseline + value regression toward returns.
        let values = self.value_net.forward(&states);
        let mut value_grad = Matrix::zeros(n, 1);
        let mut advantages = vec![0.0f32; n];
        for i in 0..n {
            let v = values.get(i, 0);
            let g = returns[i] as f32;
            advantages[i] = g - v;
            value_grad.set(i, 0, 2.0 * (v - g) / n as f32);
        }
        self.value_net.zero_grad();
        self.value_net.backward(&value_grad);
        self.value_net.clip_grad_norm(5.0);
        self.opt_value.step(&mut self.value_net);
        // Policy gradient: dL/dlogits = (softmax − onehot(a)) · adv / n.
        let logits = self.policy_net.forward(&states);
        let mut logit_grad = Matrix::zeros(n, self.cfg.num_actions);
        for i in 0..n {
            let probs = masked_softmax(logits.row(i), &traj[i].valid, self.cfg.temperature);
            let adv = advantages[i] / n as f32;
            for (a, &p) in probs.iter().enumerate().take(self.cfg.num_actions) {
                let indicator = if a == traj[i].action { 1.0 } else { 0.0 };
                logit_grad.set(i, a, (p - indicator) * adv);
            }
        }
        self.policy_net.zero_grad();
        self.policy_net.backward(&logit_grad);
        self.policy_net.clip_grad_norm(5.0);
        self.opt_policy.step(&mut self.policy_net);
        self.episodes += 1;
    }
}

/// Deterministic argmax over valid actions (the shared evaluation rule:
/// `max_by` keeps the *last* maximum, so both acting paths tie-break
/// identically).
fn greedy_pick(probs: &[f32], valid: &[bool]) -> Option<usize> {
    probs
        .iter()
        .enumerate()
        .filter(|&(i, _)| valid[i])
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
}

/// Numerically stable masked softmax with temperature.
fn masked_softmax(logits: &[f32], valid: &[bool], temperature: f32) -> Vec<f32> {
    let t = temperature.max(1e-3);
    let max = logits
        .iter()
        .zip(valid)
        .filter(|&(_, &v)| v)
        .map(|(&l, _)| l)
        .fold(f32::NEG_INFINITY, f32::max);
    let mut exps: Vec<f32> = logits
        .iter()
        .zip(valid)
        .map(|(&l, &v)| if v { ((l - max) / t).exp() } else { 0.0 })
        .collect();
    let sum: f32 = exps.iter().sum();
    if sum > 0.0 {
        for e in &mut exps {
            *e /= sum;
        }
    }
    exps
}

/// Operating mode of the per-run policy wrapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RlMode {
    /// Sample actions and learn at episode end.
    Train,
    /// Greedy actions, no learning.
    Evaluate,
}

/// [`Policy`] adapter running a [`ScalarRlAgent`] inside the simulator.
pub struct ScalarRlPolicy<'a> {
    agent: &'a mut ScalarRlAgent,
    encoder: StateEncoder,
    mode: RlMode,
    traj: Vec<TrajStep>,
    pending: Option<(Vec<f32>, usize, Vec<bool>)>,
    /// The state buffer every decision encodes into.
    state: Vec<f32>,
}

impl<'a> ScalarRlPolicy<'a> {
    /// Wrap an agent for one simulation run.
    pub fn new(agent: &'a mut ScalarRlAgent, encoder: StateEncoder, mode: RlMode) -> Self {
        assert_eq!(agent.cfg.state_dim, encoder.state_dim());
        assert_eq!(agent.cfg.num_actions, encoder.window());
        Self { agent, encoder, mode, traj: Vec::new(), pending: None, state: Vec::new() }
    }
}

impl Policy for ScalarRlPolicy<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        self.encoder.encode_into(view, &mut self.state);
        let valid = self.encoder.valid_actions(view);
        let action = self.agent.act(&self.state, &valid, self.mode == RlMode::Train)?;
        if self.mode == RlMode::Train {
            self.pending = Some((self.state.clone(), action, valid));
        }
        Some(action)
    }

    fn feedback(&mut self, fb: &StepFeedback) {
        if self.mode == RlMode::Train {
            if let Some((state, action, valid)) = self.pending.take() {
                let reward = self.agent.scalar_reward(&fb.measurement);
                self.traj.push(TrajStep { state, action, valid, reward });
            }
        }
    }

    fn episode_end(&mut self, _report: &SimReport) {
        if self.mode == RlMode::Train {
            let traj = std::mem::take(&mut self.traj);
            self.agent.update(&traj);
        }
    }

    fn name(&self) -> &'static str {
        "scalar_rl"
    }
}

/// Owned, evaluation-only wrapper around a trained [`ScalarRlAgent`]:
/// the boxed-`Policy` form the `mrsch_eval` registry hands to the
/// evaluation harness. Acts greedily through the cache-free forward
/// pass; it carries no per-episode state, so [`Policy::reset`] is the
/// default no-op and one instance can be reused across episodes.
pub struct TrainedScalarRlPolicy {
    agent: ScalarRlAgent,
    encoder: StateEncoder,
    /// The state buffer every decision encodes into.
    state: Vec<f32>,
}

impl TrainedScalarRlPolicy {
    /// Take ownership of a trained agent for evaluation runs.
    pub fn new(agent: ScalarRlAgent, encoder: StateEncoder) -> Self {
        assert_eq!(agent.cfg.state_dim, encoder.state_dim());
        assert_eq!(agent.cfg.num_actions, encoder.window());
        Self { agent, encoder, state: Vec::new() }
    }

    /// The wrapped agent.
    pub fn agent(&self) -> &ScalarRlAgent {
        &self.agent
    }

    /// Mutable access to the wrapped agent (checkpoint save/load).
    pub fn agent_mut(&mut self) -> &mut ScalarRlAgent {
        &mut self.agent
    }
}

impl Policy for TrainedScalarRlPolicy {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        self.encoder.encode_into(view, &mut self.state);
        let valid = self.encoder.valid_actions(view);
        self.agent.act_greedy(&self.state, &valid)
    }

    fn name(&self) -> &'static str {
        "scalar_rl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsim::job::Job;
    use mrsim::resources::SystemConfig;
    use mrsim::simulator::{SimParams, Simulator};

    fn setup() -> (SystemConfig, StateEncoder, ScalarRlAgent) {
        let system = SystemConfig::two_resource(8, 4);
        let encoder = StateEncoder::with_hour_scale(system.clone(), 4);
        let cfg = ScalarRlConfig::scaled(encoder.state_dim(), 4, 2);
        let agent = ScalarRlAgent::new(cfg, 9);
        (system, encoder, agent)
    }

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(i, (i as u64) * 25, 100 + (i as u64 % 4) * 50, 600,
                         vec![1 + (i as u64 % 4), i as u64 % 3])
            })
            .collect()
    }

    #[test]
    fn checkpoint_round_trips_both_networks() {
        let (_, _, mut trained) = setup();
        // Nudge the weights away from init so the round trip is not
        // trivially comparing two fresh agents.
        trained.policy_net.visit_params(&mut |p, _| {
            for v in p.as_mut_slice() {
                *v += 0.125;
            }
        });
        let ckpt = trained.save_checkpoint();
        let (_, encoder, mut fresh) = setup();
        fresh.load_checkpoint(&ckpt).expect("identical architecture");
        let state = vec![0.1f32; encoder.state_dim()];
        let valid = vec![true, true, false, true];
        assert_eq!(
            trained.act_greedy(&state, &valid),
            fresh.act_greedy(&state, &valid),
            "restored agent must act identically"
        );
        // A different architecture is rejected, not silently loaded.
        let mut other = ScalarRlAgent::new(
            ScalarRlConfig::scaled(7, 4, 2),
            9,
        );
        assert!(other.load_checkpoint(&ckpt).is_err());
    }

    #[test]
    fn scalar_reward_is_fixed_weighted_sum() {
        let (_, _, agent) = setup();
        assert!((agent.scalar_reward(&[0.8, 0.4]) - 0.6).abs() < 1e-12);
        assert!((agent.scalar_reward(&[0.0, 0.0])).abs() < 1e-12);
    }

    #[test]
    fn masked_softmax_zeroes_invalid() {
        let p = masked_softmax(&[1.0, 2.0, 3.0], &[true, false, true], 1.0);
        assert_eq!(p[1], 0.0);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p[2] > p[0]);
    }

    #[test]
    fn masked_softmax_all_invalid_is_zero() {
        let p = masked_softmax(&[1.0, 2.0], &[false, false], 1.0);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    #[test]
    fn training_episode_updates_agent() {
        let (system, encoder, mut agent) = setup();
        {
            let mut policy = ScalarRlPolicy::new(&mut agent, encoder, RlMode::Train);
            let mut sim =
                Simulator::new(system, jobs(25), SimParams::new(4, true))
                    .unwrap();
            let report = sim.run(&mut policy);
            assert_eq!(report.jobs_completed, 25);
        }
        assert_eq!(agent.episodes(), 1);
    }

    #[test]
    fn evaluation_is_deterministic_and_side_effect_free() {
        let (system, encoder, mut agent) = setup();
        let run = |agent: &mut ScalarRlAgent, encoder: StateEncoder| {
            let mut policy = ScalarRlPolicy::new(agent, encoder, RlMode::Evaluate);
            Simulator::new(system.clone(), jobs(15), SimParams::new(4, true))
                .unwrap()
                .run(&mut policy)
        };
        let a = run(&mut agent, encoder.clone());
        let b = run(&mut agent, encoder);
        assert_eq!(a.records, b.records);
        assert_eq!(agent.episodes(), 0);
    }

    #[test]
    fn update_moves_policy_toward_rewarded_actions() {
        // Single-state bandit: action 0 yields reward 1, action 1 yields 0.
        let cfg = ScalarRlConfig {
            state_dim: 2,
            num_actions: 2,
            reward_weights: vec![1.0],
            hidden: 8,
            gamma: 0.0,
            learning_rate: 5e-2,
            temperature: 1.0,
        };
        let mut agent = ScalarRlAgent::new(cfg, 3);
        let state = vec![1.0f32, 0.0];
        let valid = vec![true, true];
        for _ in 0..60 {
            let traj = vec![
                TrajStep { state: state.clone(), action: 0, valid: valid.clone(), reward: 1.0 },
                TrajStep { state: state.clone(), action: 1, valid: valid.clone(), reward: 0.0 },
            ];
            agent.update(&traj);
        }
        let probs = agent.action_probs(&state, &valid);
        assert!(
            probs[0] > 0.7,
            "policy should prefer the rewarded action: {probs:?}"
        );
    }

    #[test]
    fn owned_eval_policy_matches_borrowed_eval_policy() {
        let (system, encoder, mut agent) = setup();
        let borrowed = {
            let mut policy = ScalarRlPolicy::new(&mut agent, encoder.clone(), RlMode::Evaluate);
            Simulator::new(system.clone(), jobs(20), SimParams::new(4, true))
                .unwrap()
                .run(&mut policy)
        };
        let mut owned = TrainedScalarRlPolicy::new(agent, encoder);
        let owned_report = Simulator::new(system, jobs(20), SimParams::new(4, true))
            .unwrap()
            .run(&mut owned);
        assert_eq!(borrowed.records, owned_report.records, "acting paths must agree");
    }

    #[test]
    fn uniform_weights_match_paper_for_two_resources() {
        let cfg = ScalarRlConfig::scaled(10, 4, 2);
        assert_eq!(cfg.reward_weights, vec![0.5, 0.5]);
    }
}
