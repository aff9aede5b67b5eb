//! Fig. 10 — the three-resource case study (§V-E): CPU + burst buffer +
//! power on S6–S10, shown as five-axis Kiviat charts.
//!
//! The extra axis is `Avg_SysPower` — the utilization of the power
//! budget, which the site wants maximized (run as hot as the budget
//! allows, §V-E's third objective).

use crate::comparison::comparison_grid;
use crate::kiviat::{self, Axis};
use crate::scale::ExpScale;
use mrsch_eval::columns::{AVG_SLOWDOWN, AVG_WAIT_H, BB_UTIL, NODE_UTIL, POWER_UTIL};
use mrsch_eval::{EvalGrid, Table};
use mrsch_workload::suite::WorkloadSpec;

/// The axes of Fig. 10, in order.
pub const AXES: [Axis; 5] = [
    Axis { name: "node_util_norm", column: NODE_UTIL, higher_better: true },
    Axis { name: "bb_util_norm", column: BB_UTIL, higher_better: true },
    Axis { name: "power_util_norm", column: POWER_UTIL, higher_better: true },
    Axis { name: "inv_wait_norm", column: AVG_WAIT_H, higher_better: false },
    Axis { name: "inv_slowdown_norm", column: AVG_SLOWDOWN, higher_better: false },
];

/// The five-axis Kiviat charts of a three-resource comparison grid.
pub fn table(grid: &EvalGrid) -> Table {
    let rows = kiviat::of_grid(&AXES, grid);
    kiviat::table("Fig. 10 — three-resource case study (normalized axes)", &AXES, &rows)
}

/// Run the four methods on S6–S10 and chart them.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    vec![table(&comparison_grid(&WorkloadSpec::three_resource_suite(), scale, seed))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::tiny_scale;

    #[test]
    fn three_resource_workload_runs_all_methods() {
        let grid = comparison_grid(&[WorkloadSpec::s6()], &tiny_scale(25, 15), 51);
        assert_eq!(grid.cells.len(), 4);
        for c in &grid.cells {
            assert_eq!(c.report.resource_utilization.len(), 3, "power axis present");
            assert_eq!(c.report.jobs_completed, 25);
        }
        let t = table(&grid);
        assert_eq!(t.rows.len(), 4, "one chart of four methods");
        assert_eq!(t.header.len(), 2 + 5 + 1, "keys, five axes, area");
    }
}
