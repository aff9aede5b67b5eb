//! Multi-seed replication: run the method comparison across several
//! seeds and report mean ± standard deviation per method and metric.
//!
//! Single-seed RL comparisons are noisy; the paper reports single runs,
//! but a reproduction should quantify run-to-run spread. Each seed
//! re-synthesizes the trace, re-trains the learning methods, and
//! re-evaluates — so the spread includes workload, initialization and
//! exploration variance. The per-seed grids are `comparison_grid`s
//! and the aggregation is the harness's own
//! [`EvalGrid::aggregate_rows`] — this module holds no policy plumbing
//! of its own.

use crate::comparison::{comparison_grid, METHOD, WORKLOAD};
use crate::scale::ExpScale;
use mrsch_eval::columns::{AVG_SLOWDOWN, AVG_WAIT_H, BB_UTIL, NODE_UTIL};
use mrsch_eval::{EvalGrid, Table};
use mrsch_workload::suite::WorkloadSpec;

/// Run the four methods on `specs` once per seed (each seed
/// re-synthesizes its trace, so the seeds are separate plans, one
/// thread each) and merge the grids in seed order.
pub fn run(specs: &[WorkloadSpec], scale: &ExpScale, seeds: &[u64]) -> EvalGrid {
    assert!(!seeds.is_empty(), "need at least one seed");
    EvalGrid::merge(mrsim::striped_map(
        seeds.len(),
        seeds.len(),
        || (),
        |_, i| comparison_grid(specs, scale, seeds[i]),
    ))
}

/// Mean ± std of the four evaluation metrics per (workload, method).
pub fn table(grid: &EvalGrid) -> Table {
    let header = vec![
        "workload",
        "method",
        "seeds",
        "node_util_mean",
        "node_util_std",
        "bb_util_mean",
        "bb_util_std",
        "avg_wait_h_mean",
        "avg_wait_h_std",
        "avg_slowdown_mean",
        "avg_slowdown_std",
    ];
    let metrics = [NODE_UTIL, BB_UTIL, AVG_WAIT_H, AVG_SLOWDOWN];
    Table::new(
        "multi-seed comparison — mean ± std over seeds",
        header,
        grid.aggregate_rows(&[WORKLOAD, METHOD], &metrics),
    )
}

/// S4 and S5 under `seed`, `seed + 1` and `seed + 2`.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    let specs = [WorkloadSpec::s4(), WorkloadSpec::s5()];
    vec![table(&run(&specs, scale, &[seed, seed + 1, seed + 2]))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::tiny_scale;

    #[test]
    fn aggregates_across_two_seeds() {
        let grid = run(&[WorkloadSpec::s1()], &tiny_scale(20, 12), &[1, 2]);
        let t = table(&grid);
        assert_eq!(t.rows.len(), 4);
        let methods: Vec<&str> = t.rows.iter().map(|r| r[1].as_str()).collect();
        assert_eq!(methods, ["MRSch", "Optimization", "Scalar RL", "Heuristic"]);
        for (row, policy) in t.rows.iter().zip(grid.policies()) {
            assert_eq!(row[2], "2", "two seeds aggregated");
            let util = grid.aggregate(&policy, "S1", NODE_UTIL).unwrap();
            assert!(util.mean > 0.0 && util.std >= 0.0);
            assert!(grid.aggregate(&policy, "S1", AVG_SLOWDOWN).unwrap().mean >= 1.0);
        }
    }

    #[test]
    fn deterministic_methods_have_zero_variance_under_same_seed() {
        // Same seed twice: every method (including trained ones, which are
        // seeded) must produce identical metrics -> std == 0.
        let grid = run(&[WorkloadSpec::s1()], &tiny_scale(15, 10), &[7, 7]);
        for policy in grid.policies() {
            let wait = grid.aggregate(&policy, "S1", AVG_WAIT_H).unwrap();
            assert!(wait.std.abs() < 1e-12, "{policy} not deterministic: std {}", wait.std);
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_rejected() {
        let _ = run(&[WorkloadSpec::s1()], &ExpScale::quick(), &[]);
    }
}
