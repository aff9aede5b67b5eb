//! Fig. 5 — system-level metrics: node and burst-buffer utilization for
//! the four methods on S1–S5.

use crate::comparison::{comparison_grid, METHOD, WORKLOAD};
use crate::scale::ExpScale;
use mrsch_eval::columns::{self, BB_UTIL, NODE_UTIL};
use mrsch_eval::{EvalGrid, Table};
use mrsch_workload::suite::WorkloadSpec;

/// The two panels of Fig. 5 as one table over a comparison grid.
pub fn table(grid: &EvalGrid) -> Table {
    columns::table(
        "Fig. 5 — system-level metrics (utilization)",
        &[WORKLOAD, METHOD, NODE_UTIL, BB_UTIL],
        grid.by_scenario(),
    )
}

/// Run the four methods on S1–S5 and tabulate.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    vec![table(&comparison_grid(&WorkloadSpec::two_resource_suite(), scale, seed))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::baseline_grid;
    use mrsch_eval::table;

    #[test]
    fn csv_rows_align_with_results() {
        let grid = baseline_grid();
        let t = table(&grid);
        assert_eq!(t.header, ["workload", "method", "node_util", "bb_util"]);
        assert_eq!(t.rows.len(), grid.cells.len());
        // Workload-major, legend labels, the report's own utilization.
        assert_eq!(t.rows[0][..2], ["S1", "Heuristic"]);
        assert_eq!(t.rows[1][..2], ["S1", "Optimization"]);
        let fcfs_s1 = grid.cell("fcfs", "S1", 3).unwrap();
        assert_eq!(t.rows[0][2], table::f(fcfs_s1.report.resource_utilization[0]));
        assert_eq!(t.rows[0][3], table::f(fcfs_s1.report.resource_utilization[1]));
    }
}
