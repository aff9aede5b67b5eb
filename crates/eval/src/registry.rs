//! The unified policy registry: one string-addressable [`PolicySpec`]
//! per scheduler, covering construction, optional training (through the
//! `mrsch::engine` training machinery for learnable policies) and
//! instantiation as a boxed [`mrsim::Policy`].
//!
//! Before this module every experiment driver hand-rolled its own
//! policy constructors (`comparison.rs` had a hard-coded four-method
//! match, the CLI another, `disruption_curriculum.rs` a third). A new
//! policy or a new scenario family now means one registry entry instead
//! of N driver edits: anything that can name a `PolicySpec` ("fcfs",
//! "list:lpt", "ga", "scalar-rl", "mrsch", ...) can run it on any
//! [`Scenario`] through the [`crate::harness`].

use mrsch::prelude::*;
use mrsch_baselines::heuristics::{ListOrder, ListPolicy};
use mrsch_baselines::scalar_rl::{RlMode, ScalarRlAgent, ScalarRlConfig, ScalarRlPolicy};
use mrsch_baselines::{FcfsPolicy, GaPolicy, TrainedScalarRlPolicy};
use serde::{Deserialize, Serialize};

/// MRSch-specific build options.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MrschSpec {
    /// State-module architecture (Fig. 3 ablation: MLP vs CNN).
    pub state_module: StateModuleKind,
    /// Optional display/name tag so one plan can evaluate several MRSch
    /// variants (e.g. "mrsch-clean" vs "mrsch-hardened" differing only
    /// in their training curricula).
    pub tag: Option<String>,
}

impl Default for MrschSpec {
    fn default() -> Self {
        Self { state_module: StateModuleKind::Mlp, tag: None }
    }
}

/// A registered, string-addressable scheduling policy.
///
/// `PolicySpec` knows three things about each policy: how to *name* it
/// ([`PolicySpec::name`] / [`PolicySpec::parse`]), whether it *learns*
/// ([`PolicySpec::is_learnable`]), and how to *build* a ready-to-run
/// boxed [`mrsim::Policy`] for evaluation ([`PolicySpec::build`] —
/// training learnable policies on the way).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Multi-resource FCFS (the paper's "Heuristic").
    Fcfs,
    /// A list-scheduling heuristic (`list:sjf`, `list:lpt`, ...).
    List(ListOrder),
    /// The NSGA-II window optimizer (the paper's "Optimization").
    Ga,
    /// The NSGA-II optimizer re-seeded per grid cell: its RNG derives
    /// from the *grid seed* and it forgoes the harness's instance
    /// reuse, exposing GA's per-seed stochasticity that plain `ga`
    /// deliberately freezes (ROADMAP carry-over).
    GaReseed,
    /// The fixed-weight scalar-reward policy-gradient baseline.
    ScalarRl,
    /// The MRSch DFP agent, trained through the engine.
    Mrsch(MrschSpec),
}

impl PolicySpec {
    /// An `mrsch` spec with default options.
    pub fn mrsch() -> Self {
        PolicySpec::Mrsch(MrschSpec::default())
    }

    /// An `mrsch` spec with a distinguishing tag (several MRSch
    /// variants in one plan).
    pub fn mrsch_tagged(tag: impl Into<String>) -> Self {
        PolicySpec::Mrsch(MrschSpec { tag: Some(tag.into()), ..MrschSpec::default() })
    }

    /// Every registered policy, in canonical order — the full set of
    /// parseable names (minus tag variants). This is what the
    /// conformance test and the CLI's `--policy all` expand to.
    pub fn registered() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Fcfs,
            PolicySpec::List(ListOrder::ShortestFirst),
            PolicySpec::List(ListOrder::LongestFirst),
            PolicySpec::List(ListOrder::SmallestFirst),
            PolicySpec::List(ListOrder::LargestFirst),
            PolicySpec::List(ListOrder::MostDemandingFirst),
            PolicySpec::Ga,
            PolicySpec::GaReseed,
            PolicySpec::ScalarRl,
            PolicySpec::mrsch(),
            PolicySpec::Mrsch(MrschSpec { state_module: StateModuleKind::Cnn, tag: None }),
        ]
    }

    /// Canonical name (round-trips through [`PolicySpec::parse`] unless
    /// a tag overrides it).
    pub fn name(&self) -> String {
        match self {
            PolicySpec::Fcfs => "fcfs".into(),
            PolicySpec::List(o) => match o {
                ListOrder::ShortestFirst => "list:sjf".into(),
                ListOrder::LongestFirst => "list:lpt".into(),
                ListOrder::SmallestFirst => "list:smallest".into(),
                ListOrder::LargestFirst => "list:largest".into(),
                ListOrder::MostDemandingFirst => "list:demanding".into(),
            },
            PolicySpec::Ga => "ga".into(),
            PolicySpec::GaReseed => "ga:reseed".into(),
            PolicySpec::ScalarRl => "scalar-rl".into(),
            PolicySpec::Mrsch(m) => match (&m.tag, m.state_module) {
                (Some(tag), _) => tag.clone(),
                (None, StateModuleKind::Mlp) => "mrsch".into(),
                (None, StateModuleKind::Cnn) => "mrsch:cnn".into(),
            },
        }
    }

    /// Parse a policy name. Accepts the canonical names plus common
    /// aliases (`sjf`, `ljf`, `lpt`, `spt`, `heuristic`, `optimization`,
    /// `scalar_rl`).
    pub fn parse(s: &str) -> Result<PolicySpec, String> {
        let norm = s.trim().to_lowercase();
        let spec = match norm.as_str() {
            "fcfs" | "heuristic" => PolicySpec::Fcfs,
            "list:sjf" | "sjf" | "list:spt" | "spt" => {
                PolicySpec::List(ListOrder::ShortestFirst)
            }
            "list:ljf" | "ljf" | "list:lpt" | "lpt" => PolicySpec::List(ListOrder::LongestFirst),
            "list:smallest" | "smallest" => PolicySpec::List(ListOrder::SmallestFirst),
            "list:largest" | "largest" => PolicySpec::List(ListOrder::LargestFirst),
            "list:demanding" | "demanding" => PolicySpec::List(ListOrder::MostDemandingFirst),
            "ga" | "optimization" => PolicySpec::Ga,
            "ga:reseed" => PolicySpec::GaReseed,
            "scalar-rl" | "scalar_rl" => PolicySpec::ScalarRl,
            "mrsch" => PolicySpec::mrsch(),
            "mrsch:cnn" => {
                PolicySpec::Mrsch(MrschSpec { state_module: StateModuleKind::Cnn, tag: None })
            }
            other => {
                return Err(format!(
                    "unknown policy '{other}' (expected one of: fcfs, list:sjf, list:lpt, \
                     list:smallest, list:largest, list:demanding, ga, ga:reseed, scalar-rl, \
                     mrsch, mrsch:cnn)"
                ))
            }
        };
        Ok(spec)
    }

    /// Parse a comma-separated policy list; `all` expands to the whole
    /// registry.
    pub fn parse_list(s: &str) -> Result<Vec<PolicySpec>, String> {
        if s.trim().eq_ignore_ascii_case("all") {
            return Ok(Self::registered());
        }
        s.split(',').filter(|p| !p.trim().is_empty()).map(Self::parse).collect()
    }

    /// Does this policy train before evaluation?
    pub fn is_learnable(&self) -> bool {
        matches!(self, PolicySpec::ScalarRl | PolicySpec::Mrsch(_))
    }

    /// May the harness reuse one built instance across grid cells
    /// (reset between cells, built with a grid-seed-independent seed)?
    /// `ga:reseed` opts out: it exists precisely to derive fresh GA
    /// randomness from each cell's grid seed. Only consulted for
    /// non-learnable specs (learnable policies train per cell anyway).
    pub fn reuses_instances(&self) -> bool {
        !matches!(self, PolicySpec::GaReseed)
    }

    /// Build (and for learnable policies, train) a ready-to-evaluate
    /// boxed policy.
    ///
    /// Deterministic in `ctx`: the same context always yields a policy
    /// whose episodes replay bit-identically — the property the
    /// registry conformance test pins for every registered spec.
    pub fn build(&self, ctx: &BuildContext<'_>) -> Box<dyn Policy + Send> {
        match self {
            PolicySpec::Fcfs => Box::new(FcfsPolicy::default()),
            PolicySpec::List(order) => Box::new(ListPolicy::new(*order)),
            PolicySpec::Ga | PolicySpec::GaReseed => Box::new(GaPolicy::with_seed(ctx.seed)),
            PolicySpec::ScalarRl => Box::new(trained_scalar_rl(ctx)),
            PolicySpec::Mrsch(m) => Box::new(trained_mrsch(ctx, m.state_module).into_eval_policy()),
        }
    }

    /// [`PolicySpec::build`] through the content-addressed trained-policy
    /// cache: a hit rebuilds the (untrained) policy from the same context
    /// recipe and restores the cached weights instead of training; a miss
    /// trains and stores the checkpoint. Falls back to a plain
    /// [`PolicySpec::build`] for non-learnable specs and untrained
    /// contexts.
    ///
    /// Bit-identity of hit vs miss is the cache's core contract:
    /// evaluation acts greedily (no RNG draws), so restored weights replay
    /// a fresh train's episodes exactly — `crate::harness` pins it.
    pub fn build_cached(
        &self,
        ctx: &BuildContext<'_>,
        cache: Option<&crate::cache::PolicyCache>,
    ) -> Box<dyn Policy + Send> {
        let (cache, curriculum) = match (cache, ctx.train) {
            (Some(cache), Some(cur)) if self.is_learnable() => (cache, cur),
            _ => return self.build(ctx),
        };
        let key = crate::cache::cache_key(
            self,
            ctx.system,
            ctx.params,
            ctx.seed,
            curriculum,
            &ctx.trainer,
            ctx.dfp_config,
        );
        if let Some(payload) = cache.read(key) {
            // A payload that fails to load (corrupt, or a shape drift the
            // key didn't capture) degrades to a miss and is overwritten.
            if let Some(policy) = self.rebuild_from_checkpoint(ctx, &payload) {
                cache.note_hit();
                return policy;
            }
        }
        cache.note_miss();
        let (policy, ckpt) = self.build_trained_with_checkpoint(ctx);
        cache.store(key, &ckpt);
        policy
    }

    /// Rebuild a learnable policy from cached weights: same construction
    /// recipe as a fresh build, minus the training loop.
    fn rebuild_from_checkpoint(
        &self,
        ctx: &BuildContext<'_>,
        payload: &[u8],
    ) -> Option<Box<dyn Policy + Send>> {
        match self {
            PolicySpec::ScalarRl => {
                let (mut agent, encoder) = untrained_scalar_rl(ctx);
                agent.load_checkpoint(payload).ok()?;
                Some(Box::new(TrainedScalarRlPolicy::new(agent, encoder)))
            }
            PolicySpec::Mrsch(m) => {
                let mut mrsch = untrained_mrsch(ctx, m.state_module);
                mrsch.agent_mut().network_mut().load_checkpoint(payload).ok()?;
                Some(Box::new(mrsch.into_eval_policy()))
            }
            _ => None,
        }
    }

    /// Train a learnable policy and capture its weight checkpoint for the
    /// cache on the way out.
    fn build_trained_with_checkpoint(
        &self,
        ctx: &BuildContext<'_>,
    ) -> (Box<dyn Policy + Send>, Vec<u8>) {
        match self {
            PolicySpec::ScalarRl => {
                let mut policy = trained_scalar_rl(ctx);
                let ckpt = policy.agent_mut().save_checkpoint().to_vec();
                (Box::new(policy), ckpt)
            }
            PolicySpec::Mrsch(m) => {
                let mut mrsch = trained_mrsch(ctx, m.state_module);
                let ckpt = mrsch.agent_mut().network_mut().save_checkpoint().to_vec();
                (Box::new(mrsch.into_eval_policy()), ckpt)
            }
            _ => unreachable!("only learnable specs reach the cache path"),
        }
    }
}

/// Everything a [`PolicySpec::build`] needs: the (spec-resolved) system,
/// simulator parameters, a seed, and — for learnable policies — the
/// training curriculum plus engine knobs.
#[derive(Clone, Debug)]
pub struct BuildContext<'a> {
    /// The system the policy will be evaluated on (already extended by
    /// the workload spec, e.g. three-resource for S6–S10).
    pub system: &'a SystemConfig,
    /// Simulator parameters (the window size doubles as the action
    /// count of learnable policies).
    pub params: SimParams,
    /// Seed for network initialization / internal RNGs.
    pub seed: u64,
    /// Training curriculum for learnable policies (`None` leaves them
    /// untrained — useful only for smoke tests).
    pub train: Option<&'a Curriculum>,
    /// Engine knobs for MRSch training (rollout workers, round size,
    /// gradient steps per episode).
    pub trainer: TrainerConfig,
    /// Architecture override for MRSch (tiny networks in tests). The
    /// dimension fields are still resized to match the encoder.
    pub dfp_config: Option<&'a DfpConfig>,
}

impl<'a> BuildContext<'a> {
    /// A context with default engine knobs and no training.
    pub fn new(system: &'a SystemConfig, params: SimParams, seed: u64) -> Self {
        Self { system, params, seed, train: None, trainer: TrainerConfig::default(), dfp_config: None }
    }

    /// Attach a training curriculum.
    pub fn with_training(mut self, curriculum: &'a Curriculum) -> Self {
        self.train = Some(curriculum);
        self
    }
}

/// Build and curriculum-train an MRSch agent — the one place the MRSch
/// construction recipe (ε schedule sized to the episode budget, short
/// prediction horizons) lives. Figure drivers that need the live
/// [`Mrsch`] handle (goal logging, ablations) call this directly; the
/// harness goes through [`PolicySpec::build`], which wraps the result
/// into an owned evaluation policy.
pub fn trained_mrsch(ctx: &BuildContext<'_>, state_module: StateModuleKind) -> Mrsch {
    let mut mrsch = untrained_mrsch(ctx, state_module);
    if let Some(curriculum) = ctx.train {
        mrsch.train_with_curriculum(curriculum);
    }
    mrsch
}

/// The MRSch construction recipe without the training loop — the shared
/// half of [`trained_mrsch`] and the policy cache's checkpoint-restore
/// path ([`PolicySpec::build_cached`]), which must build the *identical*
/// agent before loading cached weights into it. Public for drivers that
/// run `train_with_curriculum` themselves to keep its per-round losses
/// (Fig. 4).
pub fn untrained_mrsch(ctx: &BuildContext<'_>, state_module: StateModuleKind) -> Mrsch {
    let episodes = ctx.train.map(|c| c.total_episodes()).unwrap_or(0).max(1) as f64;
    let mut cfg = ctx.dfp_config.cloned().unwrap_or_else(|| {
        let mut cfg =
            DfpConfig::scaled(1, ctx.system.num_resources(), ctx.params.window);
        // Shorter prediction horizons than DFP's gaming defaults:
        // scheduling instances are minutes apart, so a 32-decision
        // horizon spans hours and its measurement changes are dominated
        // by arrival noise. The nearer offsets carry the learnable
        // signal at this trace scale.
        cfg.offsets = vec![1, 2, 4, 8];
        cfg.offset_weights = vec![0.25, 0.25, 0.5, 1.0];
        cfg
    });
    // The paper decays ε by 0.995 per episode over 40 job sets; at
    // reproduction scale the budget is an order of magnitude smaller,
    // so the decay is proportionally faster — otherwise the agent would
    // still act almost uniformly at random when training ends.
    cfg.epsilon_min = 0.05;
    cfg.epsilon_decay = (cfg.epsilon_min as f64).powf(1.0 / episodes) as f32;
    MrschBuilder::new(ctx.system.clone(), ctx.params)
        .seed(ctx.seed)
        .state_module(state_module)
        .trainer(ctx.trainer.clone())
        .dfp_config(cfg)
        .build()
}

/// Build and train the scalar-RL baseline over the same curriculum
/// episodes an MRSch agent would see (scenario-materialized jobs,
/// disruption events injected), then freeze it for evaluation.
fn trained_scalar_rl(ctx: &BuildContext<'_>) -> TrainedScalarRlPolicy {
    let (mut agent, encoder) = untrained_scalar_rl(ctx);
    if let Some(curriculum) = ctx.train {
        for phase in curriculum.phases() {
            for episode in 0..phase.episodes {
                let spec = phase.scenario.materialize(ctx.system, episode as u64);
                let mut sim = spec
                    .simulator(ctx.system.clone())
                    .expect("scenario episode must fit the system");
                let mut policy = ScalarRlPolicy::new(&mut agent, encoder.clone(), RlMode::Train);
                sim.run(&mut policy);
            }
        }
    }
    TrainedScalarRlPolicy::new(agent, encoder)
}

/// The scalar-RL construction recipe without the training loop (see
/// [`untrained_mrsch`] for why the split exists).
fn untrained_scalar_rl(ctx: &BuildContext<'_>) -> (ScalarRlAgent, StateEncoder) {
    let encoder = StateEncoder::with_hour_scale(ctx.system.clone(), ctx.params.window);
    let cfg = ScalarRlConfig::scaled(
        encoder.state_dim(),
        ctx.params.window,
        ctx.system.num_resources(),
    );
    (ScalarRlAgent::new(cfg, ctx.seed), encoder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for spec in PolicySpec::registered() {
            let name = spec.name();
            assert_eq!(PolicySpec::parse(&name).unwrap(), spec, "{name}");
        }
    }

    #[test]
    fn aliases_and_lists_parse() {
        assert_eq!(PolicySpec::parse("LPT").unwrap(), PolicySpec::List(ListOrder::LongestFirst));
        assert_eq!(PolicySpec::parse("heuristic").unwrap(), PolicySpec::Fcfs);
        assert_eq!(PolicySpec::parse("scalar_rl").unwrap(), PolicySpec::ScalarRl);
        let list = PolicySpec::parse_list("fcfs, ga").unwrap();
        assert_eq!(list, vec![PolicySpec::Fcfs, PolicySpec::Ga]);
        assert_eq!(PolicySpec::parse_list("all").unwrap(), PolicySpec::registered());
        assert!(PolicySpec::parse("bogus").is_err());
    }

    #[test]
    fn tags_rename_mrsch_variants() {
        let tagged = PolicySpec::mrsch_tagged("mrsch-hardened");
        assert_eq!(tagged.name(), "mrsch-hardened");
        assert!(tagged.is_learnable());
    }

    #[test]
    fn registered_names_are_unique() {
        let names: Vec<String> = PolicySpec::registered().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }

    #[test]
    fn ga_reseed_is_registered_and_forgoes_instance_reuse() {
        assert!(PolicySpec::registered().contains(&PolicySpec::GaReseed));
        assert_eq!(PolicySpec::parse("ga:reseed").unwrap(), PolicySpec::GaReseed);
        assert!(!PolicySpec::GaReseed.is_learnable());
        assert!(!PolicySpec::GaReseed.reuses_instances());
        // Every other registered spec keeps the reuse contract.
        for spec in PolicySpec::registered() {
            if spec != PolicySpec::GaReseed {
                assert!(spec.reuses_instances(), "{}", spec.name());
            }
        }
    }

    #[test]
    fn non_learnable_build_needs_no_curriculum() {
        let system = SystemConfig::two_resource(8, 4);
        let ctx = BuildContext::new(&system, SimParams::new(4, true), 3);
        for spec in [PolicySpec::Fcfs, PolicySpec::Ga, PolicySpec::List(ListOrder::ShortestFirst)]
        {
            let mut policy = spec.build(&ctx);
            assert!(!spec.is_learnable());
            policy.reset(); // must not panic
        }
    }
}
