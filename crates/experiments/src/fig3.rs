//! Fig. 3 — state-module ablation: MLP vs CNN.
//!
//! Trains two otherwise-identical MRSch agents per workload — one with
//! the paper's MLP state module, one with the original DFP's CNN — and
//! compares the four evaluation metrics on S1–S5. The paper finds MLP
//! better by up to 7 % because scheduler state has no spatial locality
//! for convolutions to exploit.
//!
//! The grid is the comparison plan of Figs. 5–7 with the policies
//! `[mrsch, mrsch:cnn]`, so its `mrsch` rows *are* those figures' MRSch
//! rows.

use crate::comparison::{suite_plan, WORKLOAD};
use crate::scale::ExpScale;
use mrsch_eval::columns::{self, Column, Get, AVG_SLOWDOWN, AVG_WAIT_H, BB_UTIL, NODE_UTIL};
use mrsch_eval::{EvalGrid, PolicySpec, Table};
use mrsch_workload::suite::WorkloadSpec;

/// The state module behind a cell's policy: `"MLP"` or `"CNN"`.
pub const ARCH: Column = Column {
    name: "arch",
    get: Get::Text(|c| if c.policy.ends_with(":cnn") { "CNN".into() } else { "MLP".into() }),
};

/// Train and evaluate both architectures on `specs`.
pub fn run(specs: &[WorkloadSpec], scale: &ExpScale, seed: u64) -> EvalGrid {
    let policies = ["mrsch", "mrsch:cnn"].map(|p| PolicySpec::parse(p).expect("registry name"));
    suite_plan(specs, policies.to_vec(), scale, seed).run()
}

/// The four panels of Fig. 3 as one table.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    vec![columns::table(
        "Fig. 3 — MLP vs CNN state module (S1–S5)",
        &[WORKLOAD, ARCH, NODE_UTIL, BB_UTIL, AVG_WAIT_H, AVG_SLOWDOWN],
        run(&WorkloadSpec::two_resource_suite(), scale, seed).by_scenario(),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::{comparison_grid, tiny_scale};

    #[test]
    #[ignore = "experiment-scale (trains 10 agents); run with --ignored / in CI"]
    fn ablation_produces_both_arches_per_workload() {
        let t = &tables(&tiny_scale(20, 15), 11)[0];
        assert_eq!(t.rows.len(), 10, "5 workloads x 2 architectures");
        for pair in t.rows.chunks(2) {
            assert_eq!(pair[0][0], pair[1][0], "same workload");
            assert_eq!((pair[0][1].as_str(), pair[1][1].as_str()), ("MLP", "CNN"));
            for row in pair {
                let node_util: f64 = row[2].parse().unwrap();
                let slowdown: f64 = row[5].parse().unwrap();
                assert!(node_util > 0.0 && node_util <= 1.0);
                assert!(slowdown >= 1.0);
            }
        }
    }

    #[test]
    fn mrsch_rows_equal_the_comparison_figures_mrsch_rows() {
        // Fig. 3's MLP agent and Figs. 5–6's MRSch are the same
        // (workload, seed) configuration: same plan, same cells. (They
        // were two code paths seeding job materialization differently.)
        let (scale, seed) = (tiny_scale(30, 20), 11);
        let specs = [WorkloadSpec::s1()];
        let fig3 = run(&specs, &scale, seed);
        let fig5 = comparison_grid(&specs, &scale, seed);
        let (a, b) = (&fig3.cells[0], fig5.cell("mrsch", "S1", seed).unwrap());
        assert_eq!((a.policy.as_str(), ARCH.text(a).as_str()), ("mrsch", "MLP"));
        assert_eq!(a.report, b.report);
        for column in columns::CELL_CSV {
            assert_eq!(column.text(a), column.text(b), "{}", column.name);
        }
    }
}
