//! Disruption-curriculum comparison: does hardening on cancel/overrun/
//! drain-heavy training phases pay off when the evaluation trace is
//! itself disrupted?
//!
//! One [`EvalPlan`] evaluates three registry policies on the identical
//! disrupted held-out scenario (a mid-trace node drain plus user
//! cancellations and walltime overruns — the PR-2 `node_drain_recovery`
//! setting):
//!
//! * **fcfs** — the untrained heuristic baseline,
//! * **mrsch-clean** — MRSch trained on disruption-free episodes,
//! * **mrsch-hardened** — MRSch trained through
//!   [`Curriculum::disruption_hardening`] (clean → cancel/overrun-heavy
//!   → drain-heavy), same total episode budget and seed.
//!
//! The two MRSch entries are the *same* [`PolicySpec`] with different
//! per-policy training curricula — exactly the kind of variant
//! comparison the registry's tags exist for. No policy constructors
//! live here.

use crate::scale::ExpScale;
use mrsch::prelude::*;
use mrsch_eval::columns::{
    self, AVG_SLOWDOWN, AVG_WAIT_H, BB_UTIL, CANCELLED, KILLED, LOST_NODE_S, MAKESPAN_S,
    NODE_UTIL, POLICY, UNFINISHED,
};
use mrsch_eval::{EvalGrid, EvalPlan, PolicySpec, Table};
use mrsch_workload::split::paper_split;
use mrsim::SimTime;

/// Episodes per curriculum phase at a given scale.
fn episodes_per_phase(scale: &ExpScale) -> usize {
    (scale.sets_per_phase * scale.train_rounds).max(2)
}

/// The disrupted evaluation setting: 25 % node drain a third of the way
/// in (one simulated hour), 15 % cancels, 10 % overruns.
fn eval_disruption(horizon: SimTime) -> DisruptionConfig {
    DisruptionConfig {
        cancel_fraction: 0.15,
        overrun_fraction: 0.10,
        overrun_factor: 1.5,
        drains: vec![DrainSpec { resource: 0, fraction: 0.25, at: horizon / 3, duration: 3600 }],
    }
}

/// Run the comparison: cells `fcfs`, `mrsch-clean`, `mrsch-hardened` on
/// the one disrupted scenario.
pub fn run(scale: &ExpScale, seed: u64) -> EvalGrid {
    let system = scale.base_system();
    let spec = WorkloadSpec::s2();
    let trace = scale.base_trace(seed);
    let split = paper_split(&trace);
    let train_slice = &split.train[..(scale.jobs_per_set * 2).min(split.train.len())];
    let test_slice = &split.test[..scale.eval_jobs.min(split.test.len())];
    let horizon = test_slice.iter().map(|t| t.submit).max().unwrap_or(0);
    let eval_params = SimParams {
        enforce_walltime: true,
        ..SimParams::new(scale.window, true)
    };

    // The held-out evaluation scenario: test split + the disruption set.
    let eval_scenario = Scenario::new(
        "disrupted-test",
        JobSource::Trace(test_slice.to_vec()),
        spec.clone(),
        eval_params,
    )
    .with_disruption("disrupted-test", eval_disruption(horizon))
    .with_seed(seed ^ 0xd15);

    // Both agents train from the same seed and episode budget; only the
    // curricula differ.
    let clean_scenario = Scenario::new(
        "clean",
        JobSource::Trace(train_slice.to_vec()),
        spec.clone(),
        SimParams::new(scale.window, true),
    )
    .with_seed(seed ^ 0x5c);
    let per_phase = episodes_per_phase(scale);
    let clean_curriculum =
        Curriculum::new().phase(CurriculumPhase::new(clean_scenario.clone(), 3 * per_phase));
    let hardened_curriculum = Curriculum::disruption_hardening(
        clean_scenario,
        DisruptionConfig {
            cancel_fraction: 0.25,
            overrun_fraction: 0.15,
            overrun_factor: 1.5,
            drains: Vec::new(),
        },
        eval_disruption(horizon),
        per_phase,
    );

    EvalPlan::new(
        system,
        vec![
            PolicySpec::Fcfs,
            PolicySpec::mrsch_tagged("mrsch-clean"),
            PolicySpec::mrsch_tagged("mrsch-hardened"),
        ],
        vec![eval_scenario],
        vec![seed],
    )
    .trainer(TrainerConfig::default().batches_per_episode(scale.batches_per_episode))
    .policy_training(1, clean_curriculum)
    .policy_training(2, hardened_curriculum)
    .run()
}

/// The comparison table (one scenario, one seed: cells are already in
/// policy order).
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    vec![columns::table(
        "Disruption-curriculum comparison (disrupted held-out trace)",
        &[
            POLICY.named("method"),
            NODE_UTIL,
            BB_UTIL,
            AVG_WAIT_H,
            AVG_SLOWDOWN,
            MAKESPAN_S.named("makespan"),
            CANCELLED,
            KILLED,
            UNFINISHED,
            LOST_NODE_S,
        ],
        &run(scale, seed).cells,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::tiny_scale;

    #[test]
    #[ignore = "experiment-scale (trains two agents); run with --ignored / in CI"]
    fn three_rows_with_disruption_accounting() {
        let grid = run(&tiny_scale(30, 20), 33);
        assert_eq!(grid.policies(), ["fcfs", "mrsch-clean", "mrsch-hardened"]);
        for c in &grid.cells {
            assert!(
                c.report.all_jobs_accounted(c.report.records.len()),
                "{}: every job must be accounted",
                c.policy
            );
            assert!(LOST_NODE_S.number(c) > 0.0, "{}: drain fired", c.policy);
            assert!(c.report.jobs_cancelled > 0, "{}: cancels fired", c.policy);
            assert!(c.report.jobs_killed > 0, "{}: walltime kills fired", c.policy);
        }
        // Hardening must pay somewhere on the disrupted trace (all
        // lower-is-better except utilization).
        let (clean, hardened) = (&grid.cells[1].report, &grid.cells[2].report);
        assert!(
            hardened.avg_wait < clean.avg_wait
                || hardened.avg_slowdown < clean.avg_slowdown
                || hardened.makespan < clean.makespan
                || hardened.max_wait < clean.max_wait
                || hardened.resource_utilization[0] > clean.resource_utilization[0],
            "the hardened agent must beat the clean-trained one on >= 1 metric"
        );
    }
}
