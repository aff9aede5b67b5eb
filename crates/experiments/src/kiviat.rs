//! Kiviat charts (Figs. 7 and 10): per-workload normalization of the
//! comparison grid onto 4 or 5 axes.
//!
//! The paper normalizes each metric to `[0, 1]` across methods, where 1
//! is the best method for that metric. Utilizations (and average system
//! power) are higher-better and divide by the per-metric maximum; wait
//! and slowdown are plotted as reciprocals (`1/x`) and then normalized
//! the same way. A larger polygon area means better overall performance.

use crate::comparison::{samples, Sample, LEGEND};
use mrsch_eval::table::{self, Table};
use mrsch_eval::{Column, EvalGrid};

/// One axis of a chart: the CSV header of its normalized value, the
/// column it reads, and whether larger raw values are better (wait and
/// slowdown are not, and are inverted first).
#[derive(Clone, Copy, Debug)]
pub struct Axis {
    /// Header of the normalized column.
    pub name: &'static str,
    /// Raw metric.
    pub column: Column,
    /// Maximized (utilization) or minimized (wait, slowdown)?
    pub higher_better: bool,
}

/// One method's normalized axes on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct KiviatRow {
    /// Workload name.
    pub workload: String,
    /// Method label.
    pub method: String,
    /// Normalized axis values in `[0, 1]`, aligned with the axis list.
    pub axes: Vec<f64>,
}

impl KiviatRow {
    /// Polygon area of the row ([`polygon_area`]).
    pub fn area(&self) -> f64 {
        polygon_area(&self.axes)
    }
}

/// Normalize raw per-method readings into Kiviat rows, workload by
/// workload (`samples` lists each workload's methods contiguously).
pub fn charts(samples: &[Sample], higher_better: &[bool]) -> Vec<KiviatRow> {
    let mut out = Vec::with_capacity(samples.len());
    for group in samples.chunk_by(|a, b| a.workload == b.workload) {
        let raw: Vec<Vec<f64>> = group.iter().map(|s| s.values.clone()).collect();
        for (sample, axes) in group.iter().zip(normalize(&raw, higher_better)) {
            out.push(KiviatRow {
                workload: sample.workload.clone(),
                method: sample.method.clone(),
                axes,
            });
        }
    }
    out
}

/// The Kiviat rows of a comparison grid on the given axes.
pub fn of_grid(axes: &[Axis], grid: &EvalGrid) -> Vec<KiviatRow> {
    let columns: Vec<Column> = axes.iter().map(|a| a.column).collect();
    let higher_better: Vec<bool> = axes.iter().map(|a| a.higher_better).collect();
    charts(&samples(grid, &columns), &higher_better)
}

/// The Kiviat figure: one row per (workload, method) with the
/// normalized axes and the polygon area.
pub fn table(title: &str, axes: &[Axis], rows: &[KiviatRow]) -> Table {
    let mut header = vec!["workload", "method"];
    header.extend(axes.iter().map(|a| a.name));
    header.push("area");
    let rows = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.workload.clone(), r.method.clone()];
            row.extend(r.axes.iter().map(|a| table::f(*a)));
            row.push(table::f(r.area()));
            row
        })
        .collect();
    Table::new(title, header, rows)
}

/// The method with the largest polygon area on each workload, in
/// workload order (the first listed wins a tie).
pub fn winners(rows: &[KiviatRow]) -> Vec<(String, String)> {
    rows.chunk_by(|a, b| a.workload == b.workload)
        .map(|chart| {
            let best = chart
                .iter()
                .reduce(|best, r| if r.area() > best.area() { r } else { best })
                .expect("chunks are non-empty");
            (best.workload.clone(), best.method.clone())
        })
        .collect()
}

/// Does MRSch have the largest area on every workload? (The paper's
/// summary claim for Fig. 7.)
pub fn mrsch_wins_everywhere(rows: &[KiviatRow]) -> bool {
    winners(rows).iter().all(|(_, method)| method == LEGEND[0].1)
}

/// Normalize raw metric values into Kiviat axes.
///
/// `raw[i][k]` is the raw value of metric `k` for method `i`;
/// `higher_better[k]` says whether metric `k` is maximized (utilization)
/// or minimized (wait, slowdown — these are inverted first).
pub fn normalize(raw: &[Vec<f64>], higher_better: &[bool]) -> Vec<Vec<f64>> {
    let nmetrics = higher_better.len();
    for row in raw {
        assert_eq!(row.len(), nmetrics, "ragged raw metric matrix");
    }
    // Convert lower-better metrics to reciprocals.
    let oriented: Vec<Vec<f64>> = raw
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(k, &v)| {
                    if higher_better[k] {
                        v
                    } else {
                        1.0 / v.max(1e-9)
                    }
                })
                .collect()
        })
        .collect();
    // Per-metric max over methods = 1.0.
    let maxima: Vec<f64> = (0..nmetrics)
        .map(|k| {
            oriented
                .iter()
                .map(|row| row[k])
                .fold(f64::NEG_INFINITY, f64::max)
                .max(1e-12)
        })
        .collect();
    oriented
        .iter()
        .map(|row| row.iter().zip(&maxima).map(|(v, mx)| v / mx).collect())
        .collect()
}

/// Polygon area of a Kiviat row (axes at equal angles) — the paper's
/// "larger area = better overall performance" summary.
pub fn polygon_area(axes: &[f64]) -> f64 {
    let n = axes.len();
    if n < 3 {
        return 0.0;
    }
    let angle = std::f64::consts::TAU / n as f64;
    0.5 * (0..n)
        .map(|i| axes[i] * axes[(i + 1) % n] * angle.sin())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_method_gets_one_per_axis() {
        // metric0 higher-better, metric1 lower-better.
        let raw = vec![vec![0.8, 2.0], vec![0.4, 1.0]];
        let rows = normalize(&raw, &[true, false]);
        assert!((rows[0][0] - 1.0).abs() < 1e-12, "a best on util");
        assert!((rows[1][1] - 1.0).abs() < 1e-12, "b best on wait");
        assert!((rows[1][0] - 0.5).abs() < 1e-12);
        assert!((rows[0][1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_axes_in_unit_interval() {
        let raw = vec![
            vec![0.9, 0.8, 4.0, 8.0],
            vec![0.5, 0.9, 2.0, 3.0],
            vec![0.7, 0.1, 9.0, 2.0],
            vec![0.2, 0.3, 1.0, 9.0],
        ];
        for axes in normalize(&raw, &[true, true, false, false]) {
            for a in axes {
                assert!((0.0..=1.0 + 1e-12).contains(&a), "axis {a}");
            }
        }
    }

    #[test]
    fn dominant_method_has_larger_area() {
        let raw = vec![vec![0.9, 0.9, 1.0, 1.0], vec![0.3, 0.3, 5.0, 5.0]];
        let rows = normalize(&raw, &[true, true, false, false]);
        assert!(polygon_area(&rows[0]) > polygon_area(&rows[1]));
    }

    #[test]
    fn zero_wait_is_safe() {
        let rows = normalize(&[vec![0.5, 0.0]], &[true, false]);
        assert!(rows[0][1].is_finite());
    }

    #[test]
    fn area_degenerate_cases() {
        assert_eq!(polygon_area(&[1.0, 1.0]), 0.0);
        assert!(polygon_area(&[1.0, 1.0, 1.0, 1.0]) > 0.0);
    }
}
