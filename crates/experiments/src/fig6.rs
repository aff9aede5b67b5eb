//! Fig. 6 — user-level metrics: average job wait time (hours) and average
//! job slowdown for the four methods on S1–S5.

use crate::comparison::{comparison_grid, samples, Sample, LEGEND, METHOD, WORKLOAD};
use crate::scale::ExpScale;
use mrsch_eval::columns::{self, AVG_SLOWDOWN, AVG_WAIT_H};
use mrsch_eval::table::{self, Table};
use mrsch_eval::EvalGrid;
use mrsch_workload::suite::WorkloadSpec;

/// The two panels of Fig. 6 as one table over a comparison grid.
pub fn table(grid: &EvalGrid) -> Table {
    columns::table(
        "Fig. 6 — user-level metrics",
        &[WORKLOAD, METHOD, AVG_WAIT_H, AVG_SLOWDOWN],
        grid.by_scenario(),
    )
}

/// Best improvement of MRSch over every other method, as
/// `(wait_reduction_pct, slowdown_reduction_pct)` maxima across the suite
/// — the paper headline is "up to 48 % / 41 %". Each sample carries
/// `[avg_wait_h, avg_slowdown]`.
pub fn mrsch_improvements(samples: &[Sample]) -> (f64, f64) {
    let mut best = [0.0f64; 2];
    for workload in samples.chunk_by(|a, b| a.workload == b.workload) {
        let Some(mrsch) = workload.iter().find(|s| s.method == LEGEND[0].1) else { continue };
        for other in workload.iter().filter(|s| s.method != mrsch.method) {
            for (k, best) in best.iter_mut().enumerate() {
                if other.values[k] > 1e-9 {
                    let reduction = (other.values[k] - mrsch.values[k]) / other.values[k];
                    *best = best.max(100.0 * reduction);
                }
            }
        }
    }
    (best[0], best[1])
}

/// Run the four methods on S1–S5; the figure plus the headline
/// reductions.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    let grid = comparison_grid(&WorkloadSpec::two_resource_suite(), scale, seed);
    let (wait_pct, slowdown_pct) =
        mrsch_improvements(&samples(&grid, &[AVG_WAIT_H, AVG_SLOWDOWN]));
    let headline = Table::new(
        "best MRSch reduction against any other method (paper: up to 48 % / 41 %)",
        vec!["wait_reduction_pct", "slowdown_reduction_pct"],
        vec![vec![table::f(wait_pct), table::f(slowdown_pct)]],
    );
    vec![table(&grid), headline]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::baseline_grid;

    fn sample(workload: &str, method: &str, wait_h: f64) -> Sample {
        Sample { workload: workload.into(), method: method.into(), values: vec![wait_h, 1.0] }
    }

    #[test]
    fn improvements_measure_reduction() {
        let samples = [
            sample("S1", "MRSch", 1.0),
            sample("S1", "Heuristic", 2.0),
            // A workload where MRSch loses contributes nothing.
            sample("S2", "MRSch", 3.0),
            sample("S2", "Heuristic", 2.0),
        ];
        let (wait_pct, slowdown_pct) = mrsch_improvements(&samples);
        assert!((wait_pct - 50.0).abs() < 1e-9, "50% reduction, got {wait_pct}");
        assert_eq!(slowdown_pct, 0.0);
    }

    #[test]
    fn csv_rows_shape() {
        let grid = baseline_grid();
        let t = table(&grid);
        assert_eq!(t.header, ["workload", "method", "avg_wait_h", "avg_slowdown"]);
        assert_eq!(t.rows.len(), grid.cells.len());
        assert_eq!(t.rows[3][..2], ["S2", "Optimization"]);
    }
}
