//! Fig. 8 — fluctuation of `rBB` (the burst-buffer goal weight, Eq. 1)
//! over a 12-hour window under the S5 workload.
//!
//! A trained MRSch agent is evaluated on S5 with goal logging; the
//! resulting `(time, rBB)` series is windowed to 12 simulated hours.

use crate::comparison::{eval_scenario, train_mrsch};
use crate::fig9;
use crate::scale::ExpScale;
use mrsch_eval::table::{self, Table};
use mrsch_workload::suite::WorkloadSpec;
use mrsim::SimTime;

/// The `rBB` time series.
#[derive(Clone, Debug)]
pub struct Fig8Series {
    /// `(time in seconds, rBB)` samples at each scheduling decision
    /// within the selected window.
    pub samples: Vec<(SimTime, f64)>,
    /// Start of the 12-hour window.
    pub window_start: SimTime,
}

/// Duration of the plotted window: 12 hours.
pub const WINDOW_SECS: SimTime = 12 * 3600;

/// Train the comparison figures' MRSch agent for `spec` and log `rBB`
/// at every decision of its evaluation episode (the episode a
/// `suite_plan` cell of the same workload and seed runs).
pub fn rbb_log(spec: &WorkloadSpec, scale: &ExpScale, seed: u64) -> Vec<(SimTime, f64)> {
    let scenario = eval_scenario(spec, scale, seed);
    let (_, episode) = mrsch_eval::eval_episode(&scenario, &scale.base_system(), seed);
    let (_, log) = train_mrsch(spec, scale, seed).evaluate_with_goal_log(&episode.jobs);
    log.into_iter().map(|(t, goal)| (t, goal[1] as f64)).collect()
}

/// Log `rBB` on S5 and slice a 12-hour window (starting at one quarter
/// of the trace, a deterministic stand-in for the paper's "randomly
/// selected 12 hours").
pub fn run(scale: &ExpScale, seed: u64) -> Fig8Series {
    let log = rbb_log(&WorkloadSpec::s5(), scale, seed);
    let window_start = log.last().map_or(0, |(t, _)| *t) / 4;
    let samples = log
        .into_iter()
        .filter(|(t, _)| (window_start..window_start + WINDOW_SECS).contains(t))
        .collect();
    Fig8Series { samples, window_start }
}

/// The series (time relative to the window start) plus its box summary.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    let series = run(scale, seed);
    let rows = series
        .samples
        .iter()
        .map(|(t, r)| vec![(t - series.window_start).to_string(), table::f(*r)])
        .collect();
    let title = format!(
        "Fig. 8 — rBB over a 12-hour window of S5 (start at t={} s)",
        series.window_start
    );
    let values: Vec<f64> = series.samples.iter().map(|(_, r)| *r).collect();
    vec![
        Table::new(title, vec!["t_seconds", "r_bb"], rows),
        fig9::box_table("rBB within the window", &[("S5".to_string(), values)]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::tiny_scale;

    #[test]
    fn series_is_windowed_and_in_unit_interval() {
        let series = run(&tiny_scale(40, 15), 31);
        assert!(!series.samples.is_empty(), "window must contain decisions");
        for (t, r) in &series.samples {
            assert!(*t >= series.window_start && *t < series.window_start + WINDOW_SECS);
            assert!((0.0..=1.0).contains(r), "rBB {r} out of [0,1]");
        }
    }

    #[test]
    fn rbb_fluctuates_under_s5() {
        // The paper's point: the weight is dynamic, not constant 0.5.
        let series = run(&tiny_scale(60, 15), 32);
        let values: Vec<f64> = series.samples.iter().map(|(_, r)| *r).collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.01, "rBB should fluctuate: [{min}, {max}]");
    }
}
