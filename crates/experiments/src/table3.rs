//! Table III — the S1–S5 workload definitions, plus realized statistics
//! of each materialized workload (participation fraction, BB range,
//! node-hours) so the suite can be audited at any scale.

use crate::scale::ExpScale;
use mrsch_eval::table::{self, Table};
use mrsch_workload::suite::WorkloadSpec;

/// Realized statistics of a materialized workload.
#[derive(Clone, Debug)]
pub struct WorkloadStats {
    /// Workload name.
    pub name: String,
    /// Declared burst-buffer participation.
    pub spec_participation: f64,
    /// Observed fraction of jobs with a BB request.
    pub realized_participation: f64,
    /// Smallest nonzero BB request (units).
    pub bb_min: u64,
    /// Largest BB request (units).
    pub bb_max: u64,
    /// Total requested node·seconds (scaled workloads halve this).
    pub node_seconds: u128,
    /// Number of jobs.
    pub jobs: usize,
}

/// Materialize the S1–S5 suite at a scale and collect statistics.
pub fn run(scale: &ExpScale, seed: u64) -> Vec<WorkloadStats> {
    let base = scale.base_trace(seed);
    let system = scale.base_system();
    WorkloadSpec::two_resource_suite()
        .into_iter()
        .map(|spec| {
            let jobs = spec.build(&base, &system, seed ^ 0x7AB1E);
            let bbs: Vec<u64> =
                jobs.iter().map(|j| j.demands[1]).filter(|&b| b > 0).collect();
            WorkloadStats {
                name: spec.name.clone(),
                spec_participation: spec.bb_participation,
                realized_participation: bbs.len() as f64 / jobs.len() as f64,
                bb_min: bbs.iter().copied().min().unwrap_or(0),
                bb_max: bbs.iter().copied().max().unwrap_or(0),
                node_seconds: jobs
                    .iter()
                    .map(|j| j.demands[0] as u128 * j.runtime as u128)
                    .sum(),
                jobs: jobs.len(),
            }
        })
        .collect()
}

/// Table III with realized columns.
pub fn table(stats: &[WorkloadStats]) -> Table {
    let header = vec![
        "workload",
        "spec_participation",
        "realized_participation",
        "bb_min_units",
        "bb_max_units",
        "node_seconds",
        "jobs",
    ];
    let rows = stats
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                table::f(s.spec_participation),
                table::f(s.realized_participation),
                s.bb_min.to_string(),
                s.bb_max.to_string(),
                s.node_seconds.to_string(),
                s.jobs.to_string(),
            ]
        })
        .collect();
    Table::new("Table III — workloads (realized at current scale)", header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_statistics_track_specs() {
        let stats = run(&ExpScale::quick(), 3);
        assert_eq!(stats.len(), 5);
        for s in &stats {
            assert!(
                (s.realized_participation - s.spec_participation).abs() < 0.08,
                "{}: realized {} vs spec {}",
                s.name,
                s.realized_participation,
                s.spec_participation
            );
        }
        // S5 has ~half the node-seconds of S4.
        let s4 = stats.iter().find(|s| s.name == "S4").unwrap();
        let s5 = stats.iter().find(|s| s.name == "S5").unwrap();
        let ratio = s5.node_seconds as f64 / s4.node_seconds as f64;
        assert!((ratio - 0.5).abs() < 0.1, "S5/S4 node-seconds {ratio}");
    }

    #[test]
    fn s3_bb_floor_above_s1() {
        let stats = run(&ExpScale::quick(), 4);
        let s1 = stats.iter().find(|s| s.name == "S1").unwrap();
        let s3 = stats.iter().find(|s| s.name == "S3").unwrap();
        assert!(s3.bb_min >= s1.bb_min, "S3 draws from the larger range");
    }

    #[test]
    fn csv_shape() {
        let stats = run(&ExpScale::quick(), 5);
        let t = table(&stats);
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[1][..2], ["S2", "0.7500"]);
    }
}
