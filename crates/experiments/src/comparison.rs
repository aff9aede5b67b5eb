//! The paper's experimental design as [`EvalPlan`]s — the one place the
//! train/test split, the §III-D job-set curriculum, the S1–S10 suites
//! and the four-method legend are written down. Every comparison figure
//! runs [`suite_plan`] and selects columns from the resulting
//! [`mrsch_eval::EvalGrid`].
//!
//! For every workload of a suite a plan runs, under identical simulator
//! mechanics (same window, same reservation + EASY backfilling):
//!
//! * **MRSch** — trained with the recommended curriculum, then evaluated
//!   greedily with the dynamic goal vector,
//! * **Optimization** — the NSGA-II window scheduler (no training),
//! * **Scalar RL** — the policy-gradient baseline trained on the same
//!   curriculum with the fixed-weight scalar reward,
//! * **Heuristic** — multi-resource FCFS.
//!
//! Policy construction and training go through [`PolicySpec`]; this
//! module contains **no** policy constructors of its own. Workloads are
//! evaluated on the chronological *test* split, never on training data
//! (§IV-A). The whole suite runs as one parallel evaluation grid.

use crate::scale::ExpScale;
use mrsch::prelude::*;
use mrsch_eval::columns::{self, Column, Get};
use mrsch_eval::{BuildContext, EvalGrid, EvalPlan, PolicySpec};
use mrsch_workload::jobset::{curriculum, CurriculumOrder};
use mrsch_workload::split::{paper_split, Split};

/// The paper's legend: registry policy name → figure label, in legend
/// order — the single mapping from the paper's methods to runnable
/// policies.
pub const LEGEND: [(&str, &str); 4] = [
    ("mrsch", "MRSch"),
    ("ga", "Optimization"),
    ("scalar-rl", "Scalar RL"),
    ("fcfs", "Heuristic"),
];

/// The four compared methods as registry specs, in legend order.
pub fn paper_methods() -> Vec<PolicySpec> {
    LEGEND
        .iter()
        .map(|(name, _)| PolicySpec::parse(name).expect("legend names are registry names"))
        .collect()
}

/// The figure label of a policy (its registry name when the legend does
/// not list it).
pub fn legend(policy: &str) -> &str {
    LEGEND.iter().find(|(name, _)| *name == policy).map_or(policy, |(_, label)| *label)
}

/// The workload a cell ran ("S1" … "S10") — the scenario name.
pub const WORKLOAD: Column = columns::SCENARIO.named("workload");
/// The paper's label for the cell's policy ([`legend`]).
pub const METHOD: Column =
    Column { name: "method", get: Get::Text(|c| legend(&c.policy).to_string()) };

/// One numeric reading per cell for derived figures (Kiviat axes,
/// relative improvements): workload, method label, and the values of the
/// requested columns.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Workload name.
    pub workload: String,
    /// Method label ([`legend`]).
    pub method: String,
    /// One value per requested column.
    pub values: Vec<f64>,
}

/// Read `columns` off every cell, workload by workload.
pub fn samples(grid: &EvalGrid, columns: &[Column]) -> Vec<Sample> {
    grid.by_scenario()
        .into_iter()
        .map(|c| Sample {
            workload: c.scenario.clone(),
            method: legend(&c.policy).to_string(),
            values: columns.iter().map(|col| col.number(c)).collect(),
        })
        .collect()
}

/// The evaluation scenario of a workload spec: the chronological test
/// split of the base trace, truncated to the scale's evaluation size.
/// Named after the workload so grid cells read naturally.
pub fn eval_scenario(spec: &WorkloadSpec, scale: &ExpScale, seed: u64) -> Scenario {
    eval_scenario_from_split(spec, scale, seed, &paper_split(&scale.base_trace(seed)))
}

fn eval_scenario_from_split(
    spec: &WorkloadSpec,
    scale: &ExpScale,
    seed: u64,
    split: &Split,
) -> Scenario {
    let mut test = split.test.clone();
    test.truncate(scale.eval_jobs);
    Scenario::new(spec.name.clone(), JobSource::Trace(test), spec.clone(), scale.sim_params())
        .with_seed(seed ^ 0xEA1)
}

/// A §III-D job-set curriculum (sampled / real / synthetic job sets
/// from the chronological *train* split in the given `order`, repeated
/// `train_rounds` times) expressed as a scenario [`Curriculum`]: one
/// single-episode phase per job set, in training order.
pub fn jobset_curriculum(
    order: CurriculumOrder,
    spec: &WorkloadSpec,
    scale: &ExpScale,
    seed: u64,
) -> Curriculum {
    jobset_curriculum_from_split(order, spec, scale, seed, &paper_split(&scale.base_trace(seed)))
}

/// The paper's recommended curriculum: sampled → real → synthetic.
pub fn paper_curriculum(spec: &WorkloadSpec, scale: &ExpScale, seed: u64) -> Curriculum {
    jobset_curriculum(CurriculumOrder::recommended(), spec, scale, seed)
}

fn jobset_curriculum_from_split(
    order: CurriculumOrder,
    spec: &WorkloadSpec,
    scale: &ExpScale,
    seed: u64,
    split: &Split,
) -> Curriculum {
    let sets = curriculum(
        order,
        &split.train,
        &scale.trace_config(),
        scale.sets_per_phase,
        scale.jobs_per_set,
        seed ^ 0x5EED,
    );
    let mut cur = Curriculum::new();
    for round in 0..scale.train_rounds.max(1) {
        for (i, (kind, set)) in sets.iter().enumerate() {
            let scenario = Scenario::new(
                format!("train-r{round}-{i}-{kind:?}"),
                JobSource::Trace(set.clone()),
                spec.clone(),
                scale.sim_params(),
            )
            .with_seed(seed.wrapping_add(round as u64 * 101 + i as u64));
            cur = cur.phase(CurriculumPhase::new(scenario, 1));
        }
    }
    cur
}

/// The training knobs every figure shares at a scale.
fn trainer(scale: &ExpScale) -> TrainerConfig {
    TrainerConfig::default().batches_per_episode(scale.batches_per_episode)
}

/// The [`EvalPlan`] of `policies` over a set of workload specs at one
/// seed: one scenario per workload (test split), the paper curriculum
/// attached to each, every learnable policy trained per cell.
pub fn suite_plan(
    specs: &[WorkloadSpec],
    policies: Vec<PolicySpec>,
    scale: &ExpScale,
    seed: u64,
) -> EvalPlan {
    // The base trace and its chronological split are workload-spec
    // independent; synthesize and split once for the whole plan.
    let split = paper_split(&scale.base_trace(seed));
    let scenarios: Vec<Scenario> = specs
        .iter()
        .map(|spec| eval_scenario_from_split(spec, scale, seed, &split))
        .collect();
    let mut plan = EvalPlan::new(scale.base_system(), policies, scenarios, vec![seed])
        .trainer(trainer(scale));
    for (i, spec) in specs.iter().enumerate() {
        let order = CurriculumOrder::recommended();
        let training = jobset_curriculum_from_split(order, spec, scale, seed, &split);
        plan = plan.scenario_training(i, training);
    }
    plan
}

/// Run the paper's four methods on `specs` — the grid behind Figs. 5–7,
/// 10 and the multi-seed replication.
pub fn comparison_grid(specs: &[WorkloadSpec], scale: &ExpScale, seed: u64) -> EvalGrid {
    suite_plan(specs, paper_methods(), scale, seed).run()
}

/// Train a live MRSch agent for a workload spec on `curriculum`, through
/// the registry's construction recipe (ε schedule sized to the
/// curriculum, short prediction horizons), keeping the engine's
/// per-round losses. The agent equals the one a [`suite_plan`] cell
/// trains from the same `(spec, scale, seed, curriculum)`.
///
/// For the figures that need more than a report from the agent: Fig. 4
/// reads the losses, Figs. 8–9 its goal log, the ablations swap its goal
/// mode.
pub fn train_mrsch_on(
    spec: &WorkloadSpec,
    scale: &ExpScale,
    seed: u64,
    curriculum: &Curriculum,
) -> (Mrsch, EngineOutcome) {
    let system = spec.system_for(&scale.base_system());
    let ctx = BuildContext {
        trainer: trainer(scale),
        ..BuildContext::new(&system, scale.sim_params(), seed).with_training(curriculum)
    };
    let mut agent = mrsch_eval::untrained_mrsch(&ctx, StateModuleKind::Mlp);
    let outcome = agent.train_with_curriculum(curriculum);
    (agent, outcome)
}

/// [`train_mrsch_on`] the paper's recommended curriculum.
pub fn train_mrsch(spec: &WorkloadSpec, scale: &ExpScale, seed: u64) -> Mrsch {
    train_mrsch_on(spec, scale, seed, &paper_curriculum(spec, scale, seed)).0
}

#[cfg(test)]
pub(crate) fn tiny_scale(eval_jobs: usize, jobs_per_set: usize) -> ExpScale {
    ExpScale { eval_jobs, jobs_per_set, batches_per_episode: 2, ..ExpScale::quick() }
}

/// An untrained two-method grid over S1–S2, for table-shape tests.
#[cfg(test)]
pub(crate) fn baseline_grid() -> EvalGrid {
    let specs = [WorkloadSpec::s1(), WorkloadSpec::s2()];
    suite_plan(&specs, vec![PolicySpec::Fcfs, PolicySpec::Ga], &tiny_scale(20, 12), 3).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_labels_and_order() {
        let labels: Vec<&str> = LEGEND.iter().map(|(_, label)| *label).collect();
        assert_eq!(labels, ["MRSch", "Optimization", "Scalar RL", "Heuristic"]);
        assert_eq!(legend("scalar-rl"), "Scalar RL");
        assert_eq!(legend("mrsch-hardened"), "mrsch-hardened", "unlisted names pass through");
    }

    #[test]
    fn methods_map_to_unique_registry_specs() {
        let names: Vec<String> = paper_methods().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["mrsch", "ga", "scalar-rl", "fcfs"]);
    }

    #[test]
    fn paper_curriculum_covers_rounds_and_sets() {
        let scale = ExpScale::quick();
        let cur = paper_curriculum(&WorkloadSpec::s1(), &scale, 3);
        // sets_per_phase per kind × 3 kinds × train_rounds single-episode phases.
        assert_eq!(cur.total_episodes(), 3 * scale.sets_per_phase * scale.train_rounds);
        assert!(cur.phases().iter().all(|p| p.episodes == 1));
    }

    #[test]
    fn run_workload_produces_all_methods() {
        let scale = tiny_scale(30, 20);
        let grid = comparison_grid(&[WorkloadSpec::s1()], &scale, 42);
        assert_eq!(grid.policies(), ["mrsch", "ga", "scalar-rl", "fcfs"]);
        for cell in &grid.cells {
            assert_eq!((cell.scenario.as_str(), cell.seed), ("S1", 42));
            assert_eq!(cell.report.jobs_completed, 30, "{} must finish all jobs", cell.policy);
        }
        let labels: Vec<String> = samples(&grid, &[]).into_iter().map(|s| s.method).collect();
        assert_eq!(labels, ["MRSch", "Optimization", "Scalar RL", "Heuristic"]);
    }

    #[test]
    fn all_methods_see_identical_workload() {
        // Same eval scenario cell: all methods complete the same job
        // count and their reports span the same submit horizon.
        let scale = tiny_scale(25, 15);
        let grid = comparison_grid(&[WorkloadSpec::s3()], &scale, 7);
        let completed: Vec<usize> = grid.cells.iter().map(|c| c.report.jobs_completed).collect();
        assert!(completed.windows(2).all(|w| w[0] == w[1]));
        let starts: Vec<u64> = grid.cells.iter().map(|c| c.report.start_time).collect();
        assert!(starts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn live_agent_equals_the_plan_cell() {
        // `train_mrsch` + `EvalCell::run` (the path Figs. 8–9 and the
        // ablations take) must reproduce the `mrsch` cell of the plan.
        let (scale, spec, seed) = (tiny_scale(20, 12), WorkloadSpec::s2(), 5);
        let grid = suite_plan(std::slice::from_ref(&spec), vec![PolicySpec::mrsch()], &scale, seed)
            .run();
        let mut policy = train_mrsch(&spec, &scale, seed).into_eval_policy();
        let live = mrsch_eval::EvalCell::run(
            "mrsch",
            &eval_scenario(&spec, &scale, seed),
            &scale.base_system(),
            seed,
            &mut policy,
        );
        assert_eq!(live.report, grid.cells[0].report);
        assert_eq!(live.cp_bound, grid.cells[0].cp_bound);
    }
}
