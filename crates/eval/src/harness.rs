//! The scenario evaluation harness: a declarative [`EvalPlan`]
//! (`policies × scenarios × seeds`) executed as a worker-threaded grid
//! with a deterministic merge, yielding an [`EvalGrid`] of per-cell
//! [`SimReport`]s plus multi-seed [`Aggregate`]s and one shared
//! CSV/table emitter.
//!
//! # Determinism
//!
//! Every cell is a pure function of `(policy spec, scenario, seed)`:
//! evaluation episodes are materialized through
//! [`Scenario::materialize`] with a seed-derived episode index,
//! learnable policies are trained from a seed-derived context, and
//! stateless/seeded policies are reused across cells only through
//! [`mrsim::Policy::reset`] (which restores their initial state
//! bit-exactly). Worker count is therefore a wall-clock knob, never a
//! semantics knob — the same guarantee the training engine makes for
//! rollout workers.

use crate::cache::PolicyCache;
use crate::columns::{self, Column};
use crate::registry::{BuildContext, PolicySpec};
use crate::table;
use mrsch::prelude::*;
use mrsch_workload::scenario::mix_seed;
use std::collections::HashMap;
use std::sync::Arc;

/// Salt decorrelating a grid cell's *evaluation* episode from the
/// training episodes (`0..n`) materialized from the same scenario.
const EVAL_EPISODE_SALT: u64 = 0xE7A1_0001;

/// Salt decorrelating the default training stream from the evaluation
/// stream of the same scenario.
const TRAIN_SCENARIO_SALT: u64 = 0x7121_0002;

/// Salt deriving the (grid-seed-independent) build seed of reusable
/// non-learnable policies.
const POLICY_BUILD_SALT: u64 = 0xB01D_0003;

/// The default training curriculum of a scenario: one phase of the
/// scenario itself (seed-shifted so training episodes never coincide
/// with evaluation episodes), for `episodes` episodes. Plans use this
/// for learnable policies when no explicit curriculum is attached.
pub fn default_training_curriculum(scenario: &Scenario, episodes: usize) -> Curriculum {
    let mut train = scenario.clone();
    train.name = format!("{}-train", scenario.name);
    train.seed = mix_seed(scenario.seed, TRAIN_SCENARIO_SALT);
    Curriculum::new().phase(CurriculumPhase::new(train, episodes.max(1)))
}

/// Parse a seed specification: either a half-open range `a..b` or a
/// comma-separated list (`0..4` → `[0, 1, 2, 3]`; `1,5,9` → `[1, 5, 9]`).
pub fn parse_seed_spec(s: &str) -> Result<Vec<u64>, String> {
    let s = s.trim();
    if let Some((a, b)) = s.split_once("..") {
        let lo: u64 = a.trim().parse().map_err(|_| format!("bad seed range start '{a}'"))?;
        let hi: u64 = b.trim().parse().map_err(|_| format!("bad seed range end '{b}'"))?;
        if hi <= lo {
            return Err(format!("empty seed range '{s}'"));
        }
        return Ok((lo..hi).collect());
    }
    let seeds: Result<Vec<u64>, _> = s
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| p.trim().parse::<u64>().map_err(|_| format!("bad seed '{p}'")))
        .collect();
    let seeds = seeds?;
    if seeds.is_empty() {
        return Err("no seeds given".into());
    }
    Ok(seeds)
}

/// A declarative evaluation grid: run every policy on every scenario
/// under every seed.
#[derive(Clone, Debug)]
pub struct EvalPlan {
    /// Base (unextended) system; each scenario's workload spec resolves
    /// its own system from this (e.g. adding a third resource).
    pub base_system: SystemConfig,
    /// The policies to evaluate (names must be unique).
    pub policies: Vec<PolicySpec>,
    /// The scenarios to evaluate on (names must be unique).
    pub scenarios: Vec<Scenario>,
    /// The seeds of the replication axis.
    pub seeds: Vec<u64>,
    trainer: TrainerConfig,
    train_episodes: usize,
    scenario_train: Vec<Option<Curriculum>>,
    policy_train: Vec<Option<Curriculum>>,
    workers: usize,
    dfp_config: Option<DfpConfig>,
    policy_cache: Option<Arc<PolicyCache>>,
}

impl EvalPlan {
    /// A plan over the full grid `policies × scenarios × seeds`.
    ///
    /// # Panics
    /// Panics on an empty axis or duplicate policy/scenario names —
    /// names are the grid's coordinates. Duplicate *seeds* are allowed
    /// on purpose: running the same seed twice is the harness-level
    /// determinism probe (`multi_seed` pins std == 0 this way); user
    /// entry points like the CLI reject them instead, where they would
    /// silently double-count a replication.
    pub fn new(
        base_system: SystemConfig,
        policies: Vec<PolicySpec>,
        scenarios: Vec<Scenario>,
        seeds: Vec<u64>,
    ) -> Self {
        assert!(!policies.is_empty(), "EvalPlan needs at least one policy");
        assert!(!scenarios.is_empty(), "EvalPlan needs at least one scenario");
        assert!(!seeds.is_empty(), "EvalPlan needs at least one seed");
        let mut names: Vec<String> = policies.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), policies.len(), "duplicate policy names in plan");
        let mut snames: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        snames.sort();
        snames.dedup();
        assert_eq!(snames.len(), scenarios.len(), "duplicate scenario names in plan");
        let ns = scenarios.len();
        let np = policies.len();
        Self {
            base_system,
            policies,
            scenarios,
            seeds,
            trainer: TrainerConfig::default(),
            train_episodes: 4,
            scenario_train: vec![None; ns],
            policy_train: vec![None; np],
            workers: 0,
            dfp_config: None,
            policy_cache: None,
        }
    }

    /// Engine knobs for learnable-policy training (rollout workers,
    /// round size, gradient steps per episode).
    pub fn trainer(mut self, cfg: TrainerConfig) -> Self {
        self.trainer = cfg;
        self
    }

    /// Episodes of the default (scenario-derived) training curriculum.
    pub fn train_episodes(mut self, n: usize) -> Self {
        self.train_episodes = n.max(1);
        self
    }

    /// Attach an explicit training curriculum to scenario `idx`
    /// (learnable policies evaluated on that scenario train on it
    /// instead of the scenario's own default stream).
    pub fn scenario_training(mut self, idx: usize, curriculum: Curriculum) -> Self {
        self.scenario_train[idx] = Some(curriculum);
        self
    }

    /// Attach an explicit training curriculum to policy `idx` — the
    /// strongest override (e.g. a clean-trained vs a hardened MRSch in
    /// one plan).
    pub fn policy_training(mut self, idx: usize, curriculum: Curriculum) -> Self {
        self.policy_train[idx] = Some(curriculum);
        self
    }

    /// Grid worker threads (`0` = auto: one per cell up to the
    /// available parallelism). Never changes results, only wall-clock.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Architecture override for MRSch policies (tiny networks in
    /// tests).
    pub fn dfp_config(mut self, cfg: DfpConfig) -> Self {
        self.dfp_config = Some(cfg);
        self
    }

    /// Consult (and fill) a content-addressed trained-policy cache for
    /// learnable cells: a hit restores the cached weights instead of
    /// training, bit-identically to a fresh train. Share the `Arc` to
    /// read the hit/miss counters after [`EvalPlan::run`].
    pub fn policy_cache(mut self, cache: Arc<PolicyCache>) -> Self {
        self.policy_cache = Some(cache);
        self
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.policies.len() * self.scenarios.len() * self.seeds.len()
    }

    /// Execute the full grid and collect every cell, in
    /// `(policy, scenario, seed)`-major order regardless of scheduling.
    pub fn run(&self) -> EvalGrid {
        let np = self.policies.len();
        let ns = self.scenarios.len();
        let nk = self.seeds.len();
        let n = np * ns * nk;
        let workers = if self.workers == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            self.workers
        };
        let cells = mrsim::striped_map(
            workers,
            n,
            || (HashMap::new(), HashMap::new()),
            |(cache, sims), idx| self.run_cell(idx, ns, nk, cache, sims),
        );
        EvalGrid { cells }
    }

    /// Run one grid cell. `cache` holds this worker's reusable
    /// non-learnable policy instances keyed by `(policy, scenario)`;
    /// [`mrsim::Policy::reset`] guarantees a cached instance behaves
    /// exactly like a fresh one, so which worker owns which cell never
    /// shows in the results. `sims` holds this worker's simulators, one
    /// per scenario (scenarios fix the resolved system, so the pools
    /// match): later cells swap their episode in via
    /// [`Simulator::load`] instead of rebuilding the simulator — the
    /// same reuse the training engine's rollout workers do, with the
    /// same bit-identical-to-fresh guarantee.
    fn run_cell(
        &self,
        idx: usize,
        ns: usize,
        nk: usize,
        cache: &mut HashMap<(usize, usize), Box<dyn Policy + Send>>,
        sims: &mut HashMap<usize, Simulator>,
    ) -> EvalCell {
        let pi = idx / (ns * nk);
        let si = (idx / nk) % ns;
        let seed = self.seeds[idx % nk];
        let scenario = &self.scenarios[si];
        let spec = &self.policies[pi];
        let (system, episode) = eval_episode(scenario, &self.base_system, seed);
        let cp_bound = episode.makespan_lower_bound(&system);
        let report = if spec.is_learnable() {
            let fallback;
            let curriculum = match self.policy_train[pi]
                .as_ref()
                .or(self.scenario_train[si].as_ref())
            {
                Some(c) => c,
                None => {
                    fallback = default_training_curriculum(scenario, self.train_episodes);
                    &fallback
                }
            };
            for phase in curriculum.phases() {
                assert_eq!(
                    phase.scenario.params.window, scenario.params.window,
                    "training and evaluation windows must match (policy '{}', scenario '{}')",
                    spec.name(), scenario.name
                );
            }
            let ctx = BuildContext {
                system: &system,
                params: scenario.params,
                seed,
                train: Some(curriculum),
                trainer: self.trainer.clone(),
                dfp_config: self.dfp_config.as_ref(),
            };
            let mut policy = spec.build_cached(&ctx, self.policy_cache.as_deref());
            run_episode(sims, si, &system, &episode, policy.as_mut())
        } else if spec.reuses_instances() {
            // Reusable policies are built with a grid-seed-independent
            // seed so a cached instance (reset between cells) and a
            // fresh one are interchangeable.
            let ctx = BuildContext::new(
                &system,
                scenario.params,
                mix_seed(scenario.seed, POLICY_BUILD_SALT ^ pi as u64),
            );
            let policy = cache.entry((pi, si)).or_insert_with(|| spec.build(&ctx));
            policy.reset();
            run_episode(sims, si, &system, &episode, policy.as_mut())
        } else {
            // Non-reusable specs (`ga:reseed`) are rebuilt every cell
            // with the grid seed itself, so their internal randomness
            // varies across the seed axis instead of being frozen at
            // build time.
            let ctx = BuildContext::new(&system, scenario.params, seed);
            let mut policy = spec.build(&ctx);
            run_episode(sims, si, &system, &episode, policy.as_mut())
        };
        EvalCell { policy: spec.name(), scenario: scenario.name.clone(), seed, cp_bound, report }
    }
}

/// The evaluation episode of the cell `(_, scenario, seed)` and the
/// system it runs on (the scenario's workload spec resolved against
/// `base_system`) — the one derivation [`EvalPlan::run`] and
/// [`EvalCell::run`] share, exposed for drivers that need the episode's
/// jobs themselves (goal-vector logging).
pub fn eval_episode(
    scenario: &Scenario,
    base_system: &SystemConfig,
    seed: u64,
) -> (SystemConfig, EpisodeSpec) {
    let system = scenario.spec.system_for(base_system);
    let episode = scenario.materialize(&system, mix_seed(seed, EVAL_EPISODE_SALT));
    (system, episode)
}

/// Run one materialized episode under a policy, reusing the worker's
/// per-scenario simulator when one exists ([`EpisodeSpec::install`]
/// swaps the trace, parameters, dependency graph and injected events
/// via [`Simulator::load`], bit-identically to a fresh construction —
/// the ROADMAP "grid cells rebuild the simulator per cell" item).
fn run_episode(
    sims: &mut HashMap<usize, Simulator>,
    si: usize,
    system: &SystemConfig,
    episode: &EpisodeSpec,
    policy: &mut dyn Policy,
) -> SimReport {
    use std::collections::hash_map::Entry;
    let sim = match sims.entry(si) {
        Entry::Occupied(slot) => {
            let sim = slot.into_mut();
            episode.install(sim).expect("scenario episode must fit the system");
            sim
        }
        Entry::Vacant(slot) => slot.insert(
            episode.simulator(system.clone()).expect("scenario episode must fit the system"),
        ),
    };
    sim.run(policy)
}

/// One `(policy, scenario, seed)` result.
#[derive(Clone, Debug)]
pub struct EvalCell {
    /// Policy name ([`PolicySpec::name`]).
    pub policy: String,
    /// Scenario name.
    pub scenario: String,
    /// Grid seed.
    pub seed: u64,
    /// Policy-independent makespan lower bound of this cell's episode
    /// ([`EpisodeSpec::makespan_lower_bound`]): critical path ∨ resource
    /// area. The regret baseline for DAG scenarios (exact for
    /// cancellation-free episodes).
    pub cp_bound: u64,
    /// The full simulator report (disruption counters included).
    pub report: SimReport,
}

impl EvalCell {
    /// Evaluate a hand-built policy as the cell `(name, scenario, seed)`
    /// on the episode an [`EvalPlan`] would give that cell — for
    /// variants no [`PolicySpec`] names (a fixed goal vector, a live
    /// agent whose goal log is read afterwards).
    pub fn run(
        name: impl Into<String>,
        scenario: &Scenario,
        base_system: &SystemConfig,
        seed: u64,
        policy: &mut dyn Policy,
    ) -> EvalCell {
        let (system, episode) = eval_episode(scenario, base_system, seed);
        let cp_bound = episode.makespan_lower_bound(&system);
        let report = run_episode(&mut HashMap::new(), 0, &system, &episode, policy);
        EvalCell { policy: name.into(), scenario: scenario.name.clone(), seed, cp_bound, report }
    }

    /// Relative makespan regret against the critical-path/area lower
    /// bound: `makespan / bound − 1` (0 when the bound is degenerate).
    pub fn cp_regret(&self) -> f64 {
        if self.cp_bound == 0 {
            return 0.0;
        }
        self.report.makespan as f64 / self.cp_bound as f64 - 1.0
    }
}

/// Aggregated metric: mean ± population standard deviation over seeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aggregate {
    /// Mean over seeds.
    pub mean: f64,
    /// Population standard deviation over seeds.
    pub std: f64,
}

impl Aggregate {
    /// Aggregate a sample.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self { mean: 0.0, std: 0.0 };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Self { mean, std: var.sqrt() }
    }

    /// Aggregate one column over a set of cells.
    fn over(cells: &[&EvalCell], column: Column) -> Self {
        Self::of(&cells.iter().map(|c| column.number(c)).collect::<Vec<f64>>())
    }
}

/// Every cell of an executed [`EvalPlan`] — the single result type all
/// drivers share. Tables are [`Column`] selections over its cells.
#[derive(Clone, Debug, Default)]
pub struct EvalGrid {
    /// All cells in `(policy, scenario, seed)`-major plan order.
    pub cells: Vec<EvalCell>,
}

impl EvalGrid {
    /// Merge several grids (e.g. per-seed plans run separately) into
    /// one, concatenating cells in order.
    pub fn merge(grids: impl IntoIterator<Item = EvalGrid>) -> EvalGrid {
        EvalGrid { cells: grids.into_iter().flat_map(|g| g.cells).collect() }
    }

    /// Policy names in first-appearance order.
    pub fn policies(&self) -> Vec<String> {
        first_appearances(self.cells.iter().map(|c| &c.policy))
    }

    /// Scenario names in first-appearance order.
    pub fn scenarios(&self) -> Vec<String> {
        first_appearances(self.cells.iter().map(|c| &c.scenario))
    }

    /// Look up one cell.
    pub fn cell(&self, policy: &str, scenario: &str, seed: u64) -> Option<&EvalCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.scenario == scenario && c.seed == seed)
    }

    /// The cells scenario by scenario (the order the paper's figures
    /// list them in), plan order within a scenario.
    pub fn by_scenario(&self) -> Vec<&EvalCell> {
        let scenarios = self.scenarios();
        scenarios.iter().flat_map(|s| self.cells.iter().filter(move |c| &c.scenario == s)).collect()
    }

    /// Mean ± std of one column over the seeds of a `(policy, scenario)`
    /// pair (`None` when no cell matches).
    pub fn aggregate(&self, policy: &str, scenario: &str, column: Column) -> Option<Aggregate> {
        let cells = self.pair(policy, scenario);
        (!cells.is_empty()).then(|| Aggregate::over(&cells, column))
    }

    /// The cells of one `(policy, scenario)` pair, in seed order.
    fn pair(&self, policy: &str, scenario: &str) -> Vec<&EvalCell> {
        self.cells.iter().filter(|c| c.policy == policy && c.scenario == scenario).collect()
    }

    /// Seed-aggregated rows, one per `(scenario, policy)` pair in
    /// first-appearance order: the `keys` of the pair's first cell, the
    /// number of seeds, then mean and std of every metric.
    pub fn aggregate_rows(&self, keys: &[Column], metrics: &[Column]) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for scenario in self.scenarios() {
            for policy in self.policies() {
                let cells = self.pair(&policy, &scenario);
                let Some(first) = cells.first() else { continue };
                let mut row: Vec<String> = keys.iter().map(|k| k.text(first)).collect();
                row.push(cells.len().to_string());
                for &metric in metrics {
                    let agg = Aggregate::over(&cells, metric);
                    row.extend([table::f(agg.mean), table::f(agg.std)]);
                }
                rows.push(row);
            }
        }
        rows
    }

    /// Per-cell CSV (one row per grid cell, plan order).
    pub fn cell_csv(&self) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let t = columns::table("", &columns::CELL_CSV, &self.cells);
        (t.header, t.rows)
    }

    /// Seed-aggregated CSV (one row per `(policy, scenario)` with
    /// mean ± std columns).
    pub fn aggregate_csv(&self) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let header = vec![
            "policy",
            "scenario",
            "seeds",
            "node_util_mean",
            "node_util_std",
            "bb_util_mean",
            "bb_util_std",
            "avg_wait_h_mean",
            "avg_wait_h_std",
            "avg_slowdown_mean",
            "avg_slowdown_std",
            "makespan_s_mean",
            "makespan_s_std",
            "cp_regret_mean",
            "cp_regret_std",
            "energy_kwh_mean",
            "energy_kwh_std",
        ];
        let keys = [columns::POLICY, columns::SCENARIO];
        (header, self.aggregate_rows(&keys, &columns::AGGREGATE_CSV))
    }
}

/// Distinct names in first-appearance order.
fn first_appearances<'a>(names: impl Iterator<Item = &'a String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for name in names {
        if !out.contains(name) {
            out.push(name.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario(name: &str, jobs: usize, seed: u64) -> Scenario {
        Scenario::new(
            name,
            JobSource::Theta(ThetaConfig {
                machine_nodes: 16,
                mean_interarrival: 120.0,
                ..ThetaConfig::scaled(jobs)
            }),
            WorkloadSpec::s1(),
            SimParams::new(4, true),
        )
        .with_seed(seed)
    }

    fn tiny_plan(policies: Vec<PolicySpec>, seeds: Vec<u64>) -> EvalPlan {
        EvalPlan::new(
            SystemConfig::two_resource(16, 8),
            policies,
            vec![tiny_scenario("clean", 18, 5)],
            seeds,
        )
    }

    #[test]
    fn grid_covers_every_cell_in_plan_order() {
        let plan = tiny_plan(
            vec![PolicySpec::Fcfs, PolicySpec::parse("list:lpt").unwrap()],
            vec![1, 2],
        );
        assert_eq!(plan.cell_count(), 4);
        let grid = plan.run();
        assert_eq!(grid.cells.len(), 4);
        let coords: Vec<(String, u64)> =
            grid.cells.iter().map(|c| (c.policy.clone(), c.seed)).collect();
        assert_eq!(
            coords,
            vec![
                ("fcfs".into(), 1),
                ("fcfs".into(), 2),
                ("list:lpt".into(), 1),
                ("list:lpt".into(), 2)
            ]
        );
        for c in &grid.cells {
            assert!(c.report.jobs_completed > 0, "{}/{}", c.policy, c.seed);
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        let mk = || {
            tiny_plan(
                vec![PolicySpec::Fcfs, PolicySpec::Ga, PolicySpec::parse("list:sjf").unwrap()],
                vec![3, 4],
            )
        };
        let serial = mk().workers(1).run();
        let parallel = mk().workers(4).run();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.report, b.report, "{} seed {} drifted", a.policy, a.seed);
        }
    }

    #[test]
    fn simulator_reuse_matches_fresh_construction() {
        // With one worker, seeds 2 and 3 run on a simulator that the
        // seed-1 cell already used (swapped via `Simulator::load`).
        // Each single-seed plan builds its simulator fresh — every cell
        // must agree bit-exactly.
        let reused = tiny_plan(vec![PolicySpec::Fcfs], vec![1, 2, 3]).workers(1).run();
        let fresh = EvalGrid::merge(
            [1u64, 2, 3]
                .map(|s| tiny_plan(vec![PolicySpec::Fcfs], vec![s]).workers(1).run()),
        );
        assert_eq!(reused.cells.len(), fresh.cells.len());
        for (a, b) in reused.cells.iter().zip(&fresh.cells) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.report, b.report, "seed {} drifted under simulator reuse", a.seed);
        }
    }

    #[test]
    fn cached_instances_match_fresh_instances() {
        // Two seeds share one cached GA instance per worker; serially
        // the second cell runs on a reset instance. Rerunning the plan
        // (fresh instances) must reproduce both cells bit-identically.
        let plan = tiny_plan(vec![PolicySpec::Ga], vec![9, 10]);
        let once = plan.clone().workers(1).run();
        let twice = plan.workers(1).run();
        for (a, b) in once.cells.iter().zip(&twice.cells) {
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn ga_reseed_derives_its_rng_from_the_grid_seed() {
        // `ga:reseed` must behave exactly like a GA instance built
        // fresh per cell with the grid seed — recompute one cell by
        // hand through the harness's own episode derivation.
        let plan = tiny_plan(
            vec![PolicySpec::Ga, PolicySpec::parse("ga:reseed").unwrap()],
            vec![21, 22],
        );
        let grid = plan.clone().workers(1).run();
        let reran = plan.workers(2).run();
        for (a, b) in grid.cells.iter().zip(&reran.cells) {
            assert_eq!(a.report, b.report, "{} seed {} drifted", a.policy, a.seed);
        }
        let scenario = tiny_scenario("clean", 18, 5);
        let base = SystemConfig::two_resource(16, 8);
        let system = scenario.spec.system_for(&base);
        for seed in [21u64, 22] {
            let episode = scenario.materialize(&system, mix_seed(seed, EVAL_EPISODE_SALT));
            let ctx = BuildContext::new(&system, scenario.params, seed);
            let mut policy = PolicySpec::GaReseed.build(&ctx);
            let mut sims = HashMap::new();
            let expected = run_episode(&mut sims, 0, &system, &episode, policy.as_mut());
            let cell = grid.cell("ga:reseed", "clean", seed).expect("cell exists");
            assert_eq!(cell.report, expected, "seed {seed} not derived from grid seed");
        }
        // Plain `ga` freezes its RNG at build time; the reseeded
        // variant draws it per cell, so the two must not collapse onto
        // each other for every seed.
        let differs = [21u64, 22].iter().any(|&s| {
            grid.cell("ga", "clean", s).unwrap().report
                != grid.cell("ga:reseed", "clean", s).unwrap().report
        });
        assert!(differs, "ga:reseed reproduced ga on every seed");
    }

    #[test]
    fn aggregates_and_csv_cover_the_grid() {
        let grid = tiny_plan(vec![PolicySpec::Fcfs], vec![1, 2, 3]).run();
        let util = grid.aggregate("fcfs", "clean", columns::NODE_UTIL).expect("pair exists");
        assert!(util.mean > 0.0);
        assert!(util.std >= 0.0);
        assert!(grid.aggregate("ga", "clean", columns::NODE_UTIL).is_none());
        let (header, rows) = grid.cell_csv();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), header.len());
        let (aheader, arows) = grid.aggregate_csv();
        assert_eq!(arows.len(), 1);
        assert_eq!(arows[0].len(), aheader.len());
        assert_eq!(arows[0][..4], ["fcfs".to_string(), "clean".into(), "3".into(), table::f(util.mean)]);
    }

    fn tiny_dfp_config() -> DfpConfig {
        let mut cfg = DfpConfig::scaled(1, 2, 4);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        cfg
    }

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mrsch-harness-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_hit_replays_bit_identical_to_cache_miss() {
        // Run the same learnable plan three times: uncached, cold cache
        // (misses + stores), warm cache (hits only). All three grids
        // must agree bit-exactly on every report — the tentpole cache
        // contract.
        let dir = temp_cache_dir("bitident");
        let mk = || {
            tiny_plan(
                vec![PolicySpec::mrsch(), PolicySpec::ScalarRl],
                vec![1, 2],
            )
            .train_episodes(2)
            .dfp_config(tiny_dfp_config())
            .workers(1)
        };
        let uncached = mk().run();
        let cold_cache = Arc::new(PolicyCache::new(&dir));
        let cold = mk().policy_cache(Arc::clone(&cold_cache)).run();
        assert_eq!(cold_cache.hits(), 0, "cold cache must not hit");
        assert_eq!(cold_cache.misses(), 4, "every learnable cell trains once");
        assert_eq!(cold_cache.stores(), 4);
        let warm_cache = Arc::new(PolicyCache::new(&dir));
        let warm = mk().policy_cache(Arc::clone(&warm_cache)).run();
        assert_eq!(warm_cache.misses(), 0, "warm cache must never retrain");
        assert_eq!(warm_cache.hits(), 4);
        for ((u, c), w) in uncached.cells.iter().zip(&cold.cells).zip(&warm.cells) {
            assert_eq!(u.report, c.report, "{}/{}: cold-cache drift", u.policy, u.seed);
            assert_eq!(u.report, w.report, "{}/{}: warm-cache drift", u.policy, u.seed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_keys_separate_seeds_and_policies() {
        // Two seeds × two learnable policies must produce four distinct
        // entries — and a second scenario seed must not reuse them.
        let dir = temp_cache_dir("separate");
        let cache = Arc::new(PolicyCache::new(&dir));
        tiny_plan(vec![PolicySpec::mrsch(), PolicySpec::ScalarRl], vec![1, 2])
            .train_episodes(1)
            .dfp_config(tiny_dfp_config())
            .workers(1)
            .policy_cache(Arc::clone(&cache))
            .run();
        assert_eq!(cache.stores(), 4);
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 4, "each (policy, seed) cell gets its own entry");
        // A different scenario seed changes the training curriculum and
        // therefore the keys: everything misses again.
        let cache2 = Arc::new(PolicyCache::new(&dir));
        EvalPlan::new(
            SystemConfig::two_resource(16, 8),
            vec![PolicySpec::mrsch(), PolicySpec::ScalarRl],
            vec![tiny_scenario("clean", 18, 6)],
            vec![1, 2],
        )
        .train_episodes(1)
        .dfp_config(tiny_dfp_config())
        .workers(1)
        .policy_cache(Arc::clone(&cache2))
        .run();
        assert_eq!(cache2.hits(), 0, "different scenario seed must not hit");
        assert_eq!(cache2.misses(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_specs_parse() {
        assert_eq!(parse_seed_spec("0..4").unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(parse_seed_spec("1,5, 9").unwrap(), vec![1, 5, 9]);
        assert_eq!(parse_seed_spec("7").unwrap(), vec![7]);
        assert!(parse_seed_spec("4..4").is_err());
        assert!(parse_seed_spec("x").is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate policy names")]
    fn duplicate_policies_rejected() {
        let _ = tiny_plan(vec![PolicySpec::Fcfs, PolicySpec::Fcfs], vec![1]);
    }

    #[test]
    fn default_training_curriculum_decorrelates_from_eval() {
        let scenario = tiny_scenario("clean", 12, 3);
        let cur = default_training_curriculum(&scenario, 3);
        assert_eq!(cur.total_episodes(), 3);
        let system = SystemConfig::two_resource(16, 8);
        let train_ep = cur.phases()[0].scenario.materialize(&system, 0);
        let eval_ep = scenario.materialize(&system, mix_seed(0, EVAL_EPISODE_SALT));
        assert_ne!(train_ep.jobs, eval_ep.jobs, "train and eval streams must differ");
    }
}
