//! The decision engine: a frozen DFP network answering requests.
//!
//! [`DecisionEngine`] owns a [`DfpNetwork`] (obtained from a trained
//! [`mrsch::Mrsch`] agent via its [`mrsch_dfp::PolicySnapshot`], i.e.
//! the same frozen-policy artifact the rollout workers use) and decides
//! one request at a time: [`DecisionEngine::decide_one`] is one
//! fused-gemv forward pass (`m == 1` routes through the row-blocked
//! gemv kernel) and the greedy rule the agent acts by. One decision
//! streams the weights once, and a packed batch of `B` measured no
//! cheaper per request than `B` singles, so there is no batched path.

use crate::protocol::Request;
use mrsch::prelude::{JobSource, Scenario, SimParams, SystemConfig, ThetaConfig, WorkloadSpec};
use mrsch_dfp::{greedy_from_scores, DfpConfig, DfpNetwork, PolicySnapshot, StateModuleKind};
use mrsch_eval::{default_training_curriculum, trained_mrsch, BuildContext};

/// A frozen decision-serving engine.
#[derive(Clone, Debug)]
pub struct DecisionEngine {
    net: DfpNetwork,
}

impl DecisionEngine {
    /// Clone the network out of a rollout snapshot.
    pub fn from_snapshot(snap: &PolicySnapshot) -> Self {
        Self { net: snap.network().clone() }
    }

    /// The served network's configuration (request shape contract).
    pub fn config(&self) -> &DfpConfig {
        self.net.config()
    }

    /// Reject requests whose vector shapes don't match the network.
    pub fn check_request(&self, req: &Request) -> Result<(), String> {
        let cfg = self.config();
        let want = [
            ("state", req.state.len(), cfg.state_dim),
            ("meas", req.meas.len(), cfg.measurement_dim),
            ("goal", req.goal.len(), cfg.measurement_dim),
            ("valid", req.valid.len(), cfg.num_actions),
        ];
        for (name, got, expect) in want {
            if got != expect {
                return Err(format!("{name}: expected {expect} values, got {got}"));
            }
        }
        Ok(())
    }

    /// Decide one request (fused-gemv forward pass).
    pub fn decide_one(&self, req: &Request) -> Option<usize> {
        let scores = self.net.action_scores_shared(&req.state, &req.meas, &req.goal);
        greedy_from_scores(&scores, &req.valid)
    }

    /// [`Self::decide_one`] over each request in turn. Kept only because
    /// the end-to-end benchmark harness still calls it; nothing in the
    /// service does.
    pub fn decide_batch(&self, reqs: &[&Request]) -> Vec<Option<usize>> {
        reqs.iter().map(|r| self.decide_one(r)).collect()
    }
}

/// How to build a servable engine from scratch (registry-backed).
#[derive(Clone, Debug)]
pub struct EngineSpec {
    /// Scheduling-window size `W` = number of actions.
    pub window: usize,
    /// Compute nodes of the two-resource system.
    pub nodes: u64,
    /// Burst-buffer units of the two-resource system.
    pub bb: u64,
    /// Seed for network init and (optional) training.
    pub seed: u64,
    /// Curriculum episodes; `0` serves an untrained (but deterministic)
    /// network — enough for latency work, where weights don't matter.
    pub train_episodes: usize,
    /// Jobs per training episode (Theta-derived synthetic trace).
    pub train_jobs: usize,
    /// State-module architecture for the DFP network.
    pub state_module: StateModuleKind,
}

impl Default for EngineSpec {
    fn default() -> Self {
        Self {
            window: 10,
            nodes: 256,
            bb: 75,
            seed: 1,
            train_episodes: 0,
            train_jobs: 50,
            state_module: StateModuleKind::Mlp,
        }
    }
}

/// Build an engine through the PR 4 registry path: construct (and, when
/// `train_episodes > 0`, curriculum-train) an MRSch agent with
/// [`trained_mrsch`], then freeze its policy snapshot.
pub fn build_engine(spec: &EngineSpec) -> DecisionEngine {
    let system = SystemConfig::two_resource(spec.nodes, spec.bb);
    let params = SimParams::new(spec.window, true);
    let curriculum = (spec.train_episodes > 0).then(|| {
        let scenario = Scenario::new(
            "serve-train",
            JobSource::Theta(ThetaConfig {
                machine_nodes: spec.nodes,
                ..ThetaConfig::scaled(spec.train_jobs)
            }),
            WorkloadSpec::s1(),
            params,
        )
        .with_seed(spec.seed);
        default_training_curriculum(&scenario, spec.train_episodes)
    });
    let mut ctx = BuildContext::new(&system, params, spec.seed);
    if let Some(c) = &curriculum {
        ctx = ctx.with_training(c);
    }
    let mrsch = trained_mrsch(&ctx, spec.state_module);
    DecisionEngine::from_snapshot(&mrsch.agent().snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_engine() -> DecisionEngine {
        build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..EngineSpec::default() })
    }

    fn random_request(cfg: &DfpConfig, rng: &mut StdRng, id: u64) -> Request {
        let vec = |n: usize, rng: &mut StdRng| {
            (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<f32>>()
        };
        let mut valid: Vec<bool> = (0..cfg.num_actions).map(|_| rng.gen_bool(0.7)).collect();
        valid[0] = true; // at least one valid action
        Request {
            id,
            state: vec(cfg.state_dim, rng),
            meas: vec(cfg.measurement_dim, rng),
            goal: vec(cfg.measurement_dim, rng),
            valid,
        }
    }

    /// The harness's `decide_batch` entry point answers exactly what
    /// `decide_one` does, request by request.
    #[test]
    fn batch_decisions_bit_identical_to_singles() {
        let engine = test_engine();
        let mut rng = StdRng::seed_from_u64(7);
        let reqs: Vec<Request> =
            (0..8).map(|i| random_request(engine.config(), &mut rng, i)).collect();
        for b in [1usize, 4, 8] {
            let chunk: Vec<&Request> = reqs[..b].iter().collect();
            let batched = engine.decide_batch(&chunk);
            let serial: Vec<Option<usize>> = chunk.iter().map(|r| engine.decide_one(r)).collect();
            assert_eq!(batched, serial, "batch size {b}");
        }
    }

    #[test]
    fn invalid_mask_yields_none_and_shapes_are_checked() {
        let engine = test_engine();
        let mut rng = StdRng::seed_from_u64(3);
        let mut req = random_request(engine.config(), &mut rng, 0);
        assert!(engine.check_request(&req).is_ok());
        for v in req.valid.iter_mut() {
            *v = false;
        }
        assert_eq!(engine.decide_one(&req), None);
        req.state.push(0.0);
        assert!(engine.check_request(&req).is_err());
    }

    #[test]
    fn decisions_are_deterministic_across_engine_builds() {
        let spec = EngineSpec { window: 4, nodes: 16, bb: 8, ..EngineSpec::default() };
        let (a, b) = (build_engine(&spec), build_engine(&spec));
        let mut rng = StdRng::seed_from_u64(11);
        let req = random_request(a.config(), &mut rng, 0);
        assert_eq!(a.decide_one(&req), b.decide_one(&req));
    }
}
