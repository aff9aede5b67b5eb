//! Fig. 9 — box plot of `rBB` across S1–S5.
//!
//! The paper's two observations: (1) `rBB` varies dynamically (unlike the
//! scalar-RL fixed 0.5), and (2) every box statistic is largest for S5
//! (the most BB-contended workload).

use crate::fig8::rbb_log;
use crate::scale::ExpScale;
use mrsch_eval::table::{self, Table};
use mrsch_linalg::stats::box_summary;
use mrsch_workload::suite::WorkloadSpec;

/// Every `rBB` a trained agent chose on each workload's evaluation
/// episode, as `(workload, values)`.
pub fn run(scale: &ExpScale, seed: u64) -> Vec<(String, Vec<f64>)> {
    WorkloadSpec::two_resource_suite()
        .into_iter()
        .map(|spec| {
            let values = rbb_log(&spec, scale, seed).into_iter().map(|(_, r)| r).collect();
            (spec.name, values)
        })
        .collect()
}

/// Box statistics (five-number summary + mean) of one series per row;
/// an empty series has no row.
pub fn box_table(title: &str, series: &[(String, Vec<f64>)]) -> Table {
    let rows = series
        .iter()
        .filter_map(|(label, values)| {
            let s = box_summary(values)?;
            let stats = [s.min, s.q1, s.median, s.q3, s.max, s.mean];
            Some(std::iter::once(label.clone()).chain(stats.map(table::f)).collect())
        })
        .collect();
    Table::new(title, vec!["workload", "min", "q1", "median", "q3", "max", "mean"], rows)
}

/// The box plot as a table.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    vec![box_table("Fig. 9 — box plot of rBB per workload", &run(scale, seed))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::tiny_scale;

    #[test]
    fn five_boxes_ordered_and_bounded() {
        let series = run(&tiny_scale(16, 10), 41);
        assert_eq!(box_table("", &series).rows.len(), 5);
        for (workload, values) in &series {
            let s = box_summary(values).expect("decisions must exist");
            assert!(s.min >= 0.0 && s.max <= 1.0, "{workload}");
            assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        }
    }

    #[test]
    #[ignore = "experiment-scale (5 workloads); run with --ignored / in CI"]
    fn s5_mean_exceeds_s1_mean() {
        // S5 is the most BB-contended workload; its rBB should sit higher
        // than S1's (the paper's Fig. 9 observation 2).
        let series = run(&tiny_scale(50, 15), 43);
        let mean = |wl: &str| {
            let (_, values) = series.iter().find(|(w, _)| w == wl).unwrap();
            box_summary(values).unwrap().mean
        };
        assert!(
            mean("S5") > mean("S1"),
            "S5 rBB mean {} should exceed S1's {}",
            mean("S5"),
            mean("S1")
        );
    }
}
