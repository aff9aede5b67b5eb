//! The column registry: every named value a table can show about an
//! [`EvalCell`]. A figure or CSV is a *selection* of these columns over
//! a grid's cells ([`table()`]) — `EvalGrid::cell_csv`, the seed
//! aggregates and every comparison figure of `mrsch-experiments` read
//! cells through here, so a metric is derived from a `SimReport` in
//! exactly one place.

use crate::harness::EvalCell;
use crate::table::{self, Table};

/// How a column reads its value off a cell.
#[derive(Clone, Copy, Debug)]
pub enum Get {
    /// A label.
    Text(fn(&EvalCell) -> String),
    /// A count, printed as an integer.
    Count(fn(&EvalCell) -> u64),
    /// A measurement, printed with [`table::f`].
    Real(fn(&EvalCell) -> f64),
}

/// One named projection of a grid cell.
#[derive(Clone, Copy, Debug)]
pub struct Column {
    /// Header name.
    pub name: &'static str,
    /// The projection.
    pub get: Get,
}

impl Column {
    /// The same projection under another header name (figures keep the
    /// paper's vocabulary: "workload" for scenario, "method" for policy).
    pub const fn named(self, name: &'static str) -> Column {
        Column { name, get: self.get }
    }

    /// The cell's value as table text.
    pub fn text(&self, cell: &EvalCell) -> String {
        match self.get {
            Get::Text(get) => get(cell),
            Get::Count(get) => get(cell).to_string(),
            Get::Real(get) => table::f(get(cell)),
        }
    }

    /// The cell's value as a number (NaN for a label).
    pub fn number(&self, cell: &EvalCell) -> f64 {
        match self.get {
            Get::Text(_) => f64::NAN,
            Get::Count(get) => get(cell) as f64,
            Get::Real(get) => get(cell),
        }
    }
}

/// Utilization of resource `k` (0 when the system has no such resource).
fn util(cell: &EvalCell, k: usize) -> f64 {
    cell.report.resource_utilization.get(k).copied().unwrap_or(0.0)
}

/// Policy name.
pub const POLICY: Column = Column { name: "policy", get: Get::Text(|c| c.policy.clone()) };
/// Scenario name.
pub const SCENARIO: Column = Column { name: "scenario", get: Get::Text(|c| c.scenario.clone()) };
/// Grid seed.
pub const SEED: Column = Column { name: "seed", get: Get::Count(|c| c.seed) };
/// Utilization of resource 0 (nodes).
pub const NODE_UTIL: Column = Column { name: "node_util", get: Get::Real(|c| util(c, 0)) };
/// Utilization of resource 1 (burst buffer).
pub const BB_UTIL: Column = Column { name: "bb_util", get: Get::Real(|c| util(c, 1)) };
/// Utilization of resource 2 (the power budget of S6–S10).
pub const POWER_UTIL: Column = Column { name: "power_util", get: Get::Real(|c| util(c, 2)) };
/// Average job wait, hours.
pub const AVG_WAIT_H: Column =
    Column { name: "avg_wait_h", get: Get::Real(|c| c.report.avg_wait_hours()) };
/// Maximum job wait, hours (the starvation indicator).
pub const MAX_WAIT_H: Column =
    Column { name: "max_wait_h", get: Get::Real(|c| c.report.max_wait as f64 / 3600.0) };
/// Average slowdown.
pub const AVG_SLOWDOWN: Column =
    Column { name: "avg_slowdown", get: Get::Real(|c| c.report.avg_slowdown) };
/// Makespan, seconds.
pub const MAKESPAN_S: Column = Column { name: "makespan_s", get: Get::Count(|c| c.report.makespan) };
/// Jobs that ran to completion.
pub const COMPLETED: Column =
    Column { name: "completed", get: Get::Count(|c| c.report.jobs_completed as u64) };
/// Jobs cancelled (disruptions).
pub const CANCELLED: Column =
    Column { name: "cancelled", get: Get::Count(|c| c.report.jobs_cancelled as u64) };
/// Jobs killed at their walltime (disruptions).
pub const KILLED: Column =
    Column { name: "killed", get: Get::Count(|c| c.report.jobs_killed as u64) };
/// Jobs that never reached a terminal state.
pub const UNFINISHED: Column =
    Column { name: "unfinished", get: Get::Count(|c| c.report.jobs_unfinished as u64) };
/// The cell's makespan lower bound, seconds.
pub const CP_BOUND_S: Column = Column { name: "cp_bound_s", get: Get::Count(|c| c.cp_bound) };
/// Relative makespan regret against that bound ([`EvalCell::cp_regret`]).
pub const CP_REGRET: Column = Column { name: "cp_regret", get: Get::Real(EvalCell::cp_regret) };
/// Metered energy, kWh (0 without a power model).
pub const ENERGY_KWH: Column =
    Column { name: "energy_kwh", get: Get::Real(|c| c.report.energy_kwh()) };
/// Node·seconds of capacity lost to drains.
pub const LOST_NODE_S: Column = Column {
    name: "capacity_lost_node_s",
    get: Get::Real(|c| c.report.capacity_lost_unit_seconds.first().copied().unwrap_or(0.0)),
};

/// The columns of the per-cell grid CSV (`EvalGrid::cell_csv`).
pub const CELL_CSV: [Column; 15] = [
    POLICY, SCENARIO, SEED, NODE_UTIL, BB_UTIL, AVG_WAIT_H, AVG_SLOWDOWN, MAKESPAN_S, COMPLETED,
    CANCELLED, KILLED, UNFINISHED, CP_BOUND_S, CP_REGRET, ENERGY_KWH,
];

/// The metrics of the seed-aggregated CSV (`EvalGrid::aggregate_csv`),
/// each as a mean and a standard deviation.
pub const AGGREGATE_CSV: [Column; 7] =
    [NODE_UTIL, BB_UTIL, AVG_WAIT_H, AVG_SLOWDOWN, MAKESPAN_S, CP_REGRET, ENERGY_KWH];

/// One row per cell, one column per selection.
pub fn table<'a>(
    title: impl Into<String>,
    columns: &[Column],
    cells: impl IntoIterator<Item = &'a EvalCell>,
) -> Table {
    let rows = cells.into_iter().map(|c| columns.iter().map(|col| col.text(c)).collect()).collect();
    Table::new(title, columns.iter().map(|c| c.name).collect(), rows)
}
