//! Fig. 1 — the motivating example: statically weighting multiple
//! resources fails to schedule efficiently.
//!
//! Four one-hour jobs contend for two resources (A and B, each with
//! capacity 100 %). A fixed-priority greedy scheduler (equal weights on
//! both utilizations) picks `(J2, J3)` first and needs **3 hours**; the
//! ideal order `(J1, J3)` then `(J2, J4)` needs **2 hours**. The concrete
//! demand values below realize exactly the decision pattern described in
//! the paper's §I.

use mrsch_eval::Table;
use mrsim::job::Job;
use mrsim::policy::{Policy, SchedulerView};
use mrsim::resources::SystemConfig;
use mrsim::simulator::{SimParams, Simulator};

/// Outcome of the motivating example.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig1Result {
    /// Makespan (hours) under the fixed-weight greedy scheduler.
    pub fixed_weight_makespan_h: f64,
    /// Makespan (hours) under the ideal order.
    pub ideal_makespan_h: f64,
    /// Start hour of each job (by id) under the fixed-weight scheduler.
    pub fixed_weight_starts_h: Vec<f64>,
    /// Start hour of each job (by id) under the ideal order.
    pub ideal_starts_h: Vec<f64>,
}

const HOUR: u64 = 3600;

/// The two-resource system of the example (capacities as percentages).
pub fn system() -> SystemConfig {
    SystemConfig::new(vec![
        mrsim::resources::ResourceSpec::new("resource_a", 100),
        mrsim::resources::ResourceSpec::new("resource_b", 100),
    ])
}

/// The four jobs of Fig. 1(a). Demands are percentages of capacity; all
/// jobs run one hour and arrive together.
pub fn jobs() -> Vec<Job> {
    vec![
        Job::new(0, 0, HOUR, HOUR, vec![80, 10]), // J1: A-heavy
        Job::new(1, 0, HOUR, HOUR, vec![55, 55]), // J2: big & balanced
        Job::new(2, 0, HOUR, HOUR, vec![20, 45]), // J3
        Job::new(3, 0, HOUR, HOUR, vec![45, 15]), // J4
    ]
}

/// Fixed-priority greedy policy: at every decision pick the *fitting*
/// window job that maximizes the equal-weighted post-placement
/// utilization — the "fixed weight method" of the example.
#[derive(Debug, Default)]
pub struct FixedWeightGreedy;

impl Policy for FixedWeightGreedy {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        let caps = view.config.capacities();
        let mut best: Option<(usize, f64)> = None;
        for (idx, jv) in view.window.iter().enumerate() {
            if !view.pools.fits(&jv.job.demands) {
                continue;
            }
            let gain: f64 = jv
                .job
                .demands
                .iter()
                .zip(&caps)
                .map(|(&d, &c)| if c == 0 { 0.0 } else { 0.5 * d as f64 / c as f64 })
                .sum();
            if best.map(|(_, g)| gain > g).unwrap_or(true) {
                best = Some((idx, gain));
            }
        }
        best.map(|(idx, _)| idx)
    }

    fn name(&self) -> &'static str {
        "fixed_weight_greedy"
    }
}

/// Policy that selects jobs in a fixed priority order (the "ideal" order
/// an oracle would pick).
#[derive(Debug)]
pub struct FixedOrder {
    order: Vec<usize>,
}

impl FixedOrder {
    /// Priority list of job ids, most preferred first.
    pub fn new(order: Vec<usize>) -> Self {
        Self { order }
    }
}

impl Policy for FixedOrder {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        for &jid in &self.order {
            if let Some(idx) = view.window.iter().position(|jv| jv.job.id == jid) {
                if view.pools.fits(&view.window[idx].job.demands) {
                    return Some(idx);
                }
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "fixed_order"
    }
}

/// Run both schedules.
pub fn run() -> Fig1Result {
    let params = SimParams::new(4, false);
    let run_with = |policy: &mut dyn Policy| {
        let mut sim = Simulator::new(system(), jobs(), params).unwrap();
        let report = sim.run(policy);
        let starts = report
            .records
            .iter()
            .map(|r| r.start as f64 / HOUR as f64)
            .collect::<Vec<_>>();
        (report.makespan as f64 / HOUR as f64, starts)
    };
    let (fixed_weight_makespan_h, fixed_weight_starts_h) = run_with(&mut FixedWeightGreedy);
    let (ideal_makespan_h, ideal_starts_h) =
        run_with(&mut FixedOrder::new(vec![0, 2, 1, 3]));
    Fig1Result {
        fixed_weight_makespan_h,
        ideal_makespan_h,
        fixed_weight_starts_h,
        ideal_starts_h,
    }
}

/// Both schedules, one row each: the makespan and every job's start
/// hour (the fixed-weight row loses one hour against the ideal order).
pub fn table(result: &Fig1Result) -> Table {
    let row = |schedule: &str, makespan_h: f64, starts_h: &[f64]| {
        let hours = std::iter::once(makespan_h).chain(starts_h.iter().copied());
        std::iter::once(schedule.to_string()).chain(hours.map(|h| format!("{h:.0}"))).collect()
    };
    Table::new(
        "Fig. 1 — motivating example (two resources, four 1-hour jobs)",
        vec!["schedule", "makespan_h", "j1_start_h", "j2_start_h", "j3_start_h", "j4_start_h"],
        vec![
            row("fixed_weight_greedy", result.fixed_weight_makespan_h, &result.fixed_weight_starts_h),
            row("ideal_order", result.ideal_makespan_h, &result.ideal_starts_h),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_weight_needs_three_hours() {
        let r = run();
        assert_eq!(r.fixed_weight_makespan_h, 3.0, "paper: three hours");
    }

    #[test]
    fn ideal_order_needs_two_hours() {
        let r = run();
        assert_eq!(r.ideal_makespan_h, 2.0, "paper: two hours");
    }

    #[test]
    fn fixed_weight_first_wave_is_j2_j3() {
        let r = run();
        // J2 (id 1) and J3 (id 2) start at hour 0 under fixed weights.
        assert_eq!(r.fixed_weight_starts_h[1], 0.0);
        assert_eq!(r.fixed_weight_starts_h[2], 0.0);
        assert!(r.fixed_weight_starts_h[0] > 0.0);
        assert!(r.fixed_weight_starts_h[3] > 0.0);
    }

    #[test]
    fn ideal_waves_are_j1_j3_then_j2_j4() {
        let r = run();
        assert_eq!(r.ideal_starts_h, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn every_pairing_constraint_of_the_figure_holds() {
        let js = jobs();
        let cap = 100u64;
        let fits2 = |a: usize, b: usize| {
            js[a].demands[0] + js[b].demands[0] <= cap
                && js[a].demands[1] + js[b].demands[1] <= cap
        };
        assert!(fits2(0, 2), "ideal wave 1 (J1, J3)");
        assert!(fits2(1, 3), "ideal wave 2 (J2, J4)");
        assert!(fits2(1, 2), "greedy wave (J2, J3)");
        assert!(!fits2(0, 1), "J1+J2 conflict on A");
        assert!(!fits2(0, 3), "J1+J4 conflict on A (forces 3rd hour)");
    }
}
