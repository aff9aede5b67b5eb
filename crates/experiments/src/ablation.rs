//! Ablations of MRSch's design choices (beyond the paper's own MLP-vs-CNN
//! study):
//!
//! * **Dynamic vs fixed goal** (§III-B) — the paper's central claim is
//!   that dynamic resource prioritizing beats a static 50/50 weighting;
//!   here the *same* DFP agent runs with `GoalMode::Dynamic` and
//!   `GoalMode::Fixed`, isolating the goal mechanism from everything else.
//! * **Starvation guards on/off** (§III-C) — disabling reservation +
//!   EASY backfilling reproduces the "directly applying DFP … results in
//!   severe job starvation" observation via the max-wait metric.
//! * **Window size** (§III-A "Action") — sweeps `W` to expose the
//!   trade-off between action-space size and scheduling flexibility.
//!
//! Each variant is one hand-built [`EvalCell`] — the agent a comparison
//! plan would train, evaluated on the episode that plan would evaluate —
//! whose `policy` field carries the configuration label.

use crate::comparison::{eval_scenario, train_mrsch};
use crate::scale::ExpScale;
use mrsch::agent::{Mode, MrschPolicy};
use mrsch::prelude::*;
use mrsch_eval::columns::{
    self, AVG_SLOWDOWN, AVG_WAIT_H, BB_UTIL, MAX_WAIT_H, NODE_UTIL, POLICY,
};
use mrsch_eval::{EvalCell, EvalGrid, Table};

/// Evaluate one trained agent under each `(label, goal mode, backfill)`
/// variant on the workload's evaluation scenario.
fn variants(
    spec: &WorkloadSpec,
    scale: &ExpScale,
    seed: u64,
    variants: [(&str, GoalMode, bool); 2],
) -> Vec<EvalCell> {
    let mut agent = train_mrsch(spec, scale, seed);
    let base = scale.base_system();
    let encoder = StateEncoder::with_hour_scale(spec.system_for(&base), scale.window);
    variants
        .into_iter()
        .map(|(label, goal, backfill)| {
            let mut scenario = eval_scenario(spec, scale, seed);
            scenario.params = SimParams::new(scale.window, backfill);
            let mut policy =
                MrschPolicy::new(agent.agent_mut(), encoder.clone(), goal, Mode::Evaluate);
            EvalCell::run(label, &scenario, &base, seed, &mut policy)
        })
        .collect()
}

/// Ablation 1: dynamic (Eq. 1) vs fixed uniform goal, same trained agent
/// on S5 (the most unbalanced contention).
pub fn goal_mode(scale: &ExpScale, seed: u64) -> Vec<EvalCell> {
    let goals = [
        ("dynamic_goal(eq1)", GoalMode::Dynamic, true),
        ("fixed_goal(0.5/0.5)", GoalMode::uniform(2), true),
    ];
    variants(&WorkloadSpec::s5(), scale, seed, goals)
}

/// Ablation 2: starvation guards (reservation + EASY backfilling) on/off,
/// same trained agent on S4.
pub fn starvation_guards(scale: &ExpScale, seed: u64) -> Vec<EvalCell> {
    let guards =
        [("guards_on", GoalMode::Dynamic, true), ("guards_off", GoalMode::Dynamic, false)];
    variants(&WorkloadSpec::s4(), scale, seed, guards)
}

/// Ablation 3: window-size sweep on S4, one agent trained per size under
/// identical budgets.
pub fn window_size(scale: &ExpScale, seed: u64, windows: &[usize]) -> Vec<EvalCell> {
    let spec = WorkloadSpec::s4();
    windows
        .iter()
        .map(|&window| {
            let scale = ExpScale { window, ..*scale };
            let mut policy = train_mrsch(&spec, &scale, seed).into_eval_policy();
            let scenario = eval_scenario(&spec, &scale, seed);
            EvalCell::run(format!("window_{window}"), &scenario, &scale.base_system(), seed, &mut policy)
        })
        .collect()
}

/// All three ablations as one table, one row per configuration.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    let mut cells = goal_mode(scale, seed);
    cells.extend(starvation_guards(scale, seed));
    cells.extend(window_size(scale, seed, &[1, 5, 10, 20]));
    vec![table(&EvalGrid { cells })]
}

/// The ablation table of a set of configuration cells.
pub fn table(grid: &EvalGrid) -> Table {
    columns::table(
        "Ablations — goal mode (S5), starvation guards (S4), window size (S4)",
        &[POLICY.named("config"), NODE_UTIL, BB_UTIL, AVG_WAIT_H, MAX_WAIT_H, AVG_SLOWDOWN],
        &grid.cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::tiny_scale;

    #[test]
    fn goal_mode_ablation_produces_both_rows() {
        let cells = goal_mode(&tiny_scale(25, 15), 61);
        assert_eq!(cells.len(), 2);
        assert!(cells[0].policy.contains("dynamic"));
        assert!(cells[1].policy.contains("fixed"));
        for c in &cells {
            assert!(NODE_UTIL.number(c) > 0.0);
        }
    }

    #[test]
    fn starvation_guard_rows_complete() {
        let cells = starvation_guards(&tiny_scale(25, 15), 62);
        assert_eq!(cells.len(), 2);
        // Both runs must finish all jobs (the guard affects waits, not
        // completion, on finite traces).
        for c in &cells {
            assert_eq!(c.report.jobs_completed, 25, "{}", c.policy);
        }
        let t = table(&EvalGrid { cells });
        assert_eq!(t.header[0], "config");
        assert_eq!((t.rows[0][0].as_str(), t.rows[1][0].as_str()), ("guards_on", "guards_off"));
    }

    #[test]
    fn window_sweep_covers_requested_sizes() {
        let cells = window_size(&tiny_scale(25, 15), 63, &[1, 4]);
        let labels: Vec<&str> = cells.iter().map(|c| c.policy.as_str()).collect();
        assert_eq!(labels, ["window_1", "window_4"]);
    }
}
