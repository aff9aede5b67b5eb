//! Fig. 7 — Kiviat charts: overall scheduling performance per workload.
//!
//! Four axes: node utilization, burst-buffer utilization, `1/avg_wait`
//! and `1/avg_slowdown`, each normalized so the best method scores 1.

use crate::comparison::comparison_grid;
use crate::kiviat::{self, Axis, KiviatRow};
use crate::scale::ExpScale;
use mrsch_eval::columns::{AVG_SLOWDOWN, AVG_WAIT_H, BB_UTIL, NODE_UTIL};
use mrsch_eval::Table;
use mrsch_workload::suite::WorkloadSpec;

/// The axes of Fig. 7, in order.
pub const AXES: [Axis; 4] = [
    Axis { name: "node_util_norm", column: NODE_UTIL, higher_better: true },
    Axis { name: "bb_util_norm", column: BB_UTIL, higher_better: true },
    Axis { name: "inv_wait_norm", column: AVG_WAIT_H, higher_better: false },
    Axis { name: "inv_slowdown_norm", column: AVG_SLOWDOWN, higher_better: false },
];

/// The Kiviat charts as a table.
pub fn table(rows: &[KiviatRow]) -> Table {
    kiviat::table("Fig. 7 — Kiviat charts (normalized; 1.0 = best method per axis)", &AXES, rows)
}

/// Run the four methods on S1–S5; the charts plus the method with the
/// largest area per workload (the paper: MRSch on every one).
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    let grid = comparison_grid(&WorkloadSpec::two_resource_suite(), scale, seed);
    let rows = kiviat::of_grid(&AXES, &grid);
    let all = kiviat::mrsch_wins_everywhere(&rows);
    let winners = Table::new(
        format!("largest area per workload (MRSch on all: {all})"),
        vec!["workload", "largest_area"],
        kiviat::winners(&rows).into_iter().map(|(workload, method)| vec![workload, method]).collect(),
    );
    vec![table(&rows), winners]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::Sample;

    /// A reading on the four axes: utilizations from `util`, wait and
    /// slowdown from `wait`.
    fn sample(workload: &str, method: &str, util: f64, wait: f64) -> Sample {
        Sample {
            workload: workload.into(),
            method: method.into(),
            values: vec![util, util * 0.8, wait, 1.0 + wait],
        }
    }

    fn charts(samples: &[Sample]) -> Vec<KiviatRow> {
        kiviat::charts(samples, &AXES.map(|a| a.higher_better))
    }

    #[test]
    fn charts_grouped_by_workload() {
        let rows = charts(&[
            sample("S1", "MRSch", 0.9, 100.0),
            sample("S1", "Heuristic", 0.5, 400.0),
            sample("S2", "MRSch", 0.8, 150.0),
            sample("S2", "Heuristic", 0.6, 300.0),
        ]);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.axes.len() == 4));
        // Normalized within each workload: every workload has a 1.0 on
        // every axis.
        for wl in ["S1", "S2"] {
            for k in 0..4 {
                assert!(rows.iter().any(|r| r.workload == wl && (r.axes[k] - 1.0).abs() < 1e-12));
            }
        }
    }

    #[test]
    fn dominant_method_ranks_first_and_wins() {
        let rows =
            charts(&[sample("S1", "MRSch", 0.9, 100.0), sample("S1", "Heuristic", 0.5, 400.0)]);
        assert_eq!(kiviat::winners(&rows), [("S1".to_string(), "MRSch".to_string())]);
        assert!(kiviat::mrsch_wins_everywhere(&rows));
    }

    #[test]
    fn losing_mrsch_detected() {
        let rows =
            charts(&[sample("S1", "MRSch", 0.4, 500.0), sample("S1", "Heuristic", 0.9, 100.0)]);
        assert!(!kiviat::mrsch_wins_everywhere(&rows));
    }
}
