//! Metric accumulation and the end-of-run report (§IV-B of the paper).
//!
//! System-level metrics integrate used-unit-seconds over the simulated
//! timeline; user-level metrics aggregate per-job wait and slowdown.
//! With time-varying capacity the collector additionally integrates the
//! *online-capacity* and *capacity-lost* unit-seconds so utilization can
//! be normalized by the capacity that actually existed, not the static
//! configuration.

use crate::event::EventKind;
use crate::job::{JobOutcome, JobRecord};
use crate::resources::PoolState;
use crate::simulator::PowerModel;
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Streaming accumulator of per-resource used·time integrals.
#[derive(Clone, Debug)]
pub struct MetricsCollector {
    /// Fields are `pub(crate)` for `crate::snapshot`, which persists the
    /// partial integrals with exact f64 bits so a restored run's final
    /// report is bit-identical.
    pub(crate) start: Option<SimTime>,
    pub(crate) last: SimTime,
    pub(crate) used_unit_secs: Vec<f64>,
    /// Integral of the *online* capacity (current, post-disruption).
    pub(crate) cap_unit_secs: Vec<f64>,
    /// Integral of `base_capacity - online_capacity` (clamped at 0):
    /// node-seconds lost to drains, kW-seconds lost to power caps, ...
    pub(crate) lost_unit_secs: Vec<f64>,
    /// Integral of `online_capacity - used` (clamped at 0): unit-seconds
    /// spent online but idle. Tracked per interval rather than derived
    /// as `cap - used` at the end because drain debt lets `used` exceed
    /// the online capacity transiently — the per-interval clamp keeps
    /// idle-energy accounting exact under disruptions.
    pub(crate) idle_unit_secs: Vec<f64>,
}

impl MetricsCollector {
    /// Collector for a system with `nres` resources.
    pub fn new(nres: usize) -> Self {
        Self {
            start: None,
            last: 0,
            used_unit_secs: vec![0.0; nres],
            cap_unit_secs: vec![0.0; nres],
            lost_unit_secs: vec![0.0; nres],
            idle_unit_secs: vec![0.0; nres],
        }
    }

    /// Advance the clock to `now`, crediting the interval since the last
    /// advance at the current pool occupancy and capacity. Must be called
    /// *before* occupancy or capacity changes at `now`.
    pub fn advance(&mut self, pools: &PoolState, now: SimTime) {
        if self.start.is_none() {
            self.start = Some(now);
            self.last = now;
            return;
        }
        let dt = now.saturating_sub(self.last) as f64;
        if dt > 0.0 {
            for r in 0..pools.num_resources() {
                self.used_unit_secs[r] += pools.used(r) as f64 * dt;
                self.cap_unit_secs[r] += pools.capacity(r) as f64 * dt;
                self.lost_unit_secs[r] +=
                    pools.base_capacity(r).saturating_sub(pools.capacity(r)) as f64 * dt;
                self.idle_unit_secs[r] +=
                    pools.capacity(r).saturating_sub(pools.used(r)) as f64 * dt;
            }
            self.last = now;
        }
    }

    /// Timeline start (first advance), if any.
    pub fn start_time(&self) -> Option<SimTime> {
        self.start
    }

    /// Finalize utilizations over `[start, end]` for *static* capacities
    /// (the pre-disruption behavior; kept for post-hoc re-aggregation).
    pub fn utilizations(&self, capacities: &[u64], end: SimTime) -> Vec<f64> {
        let start = self.start.unwrap_or(0);
        let elapsed = end.saturating_sub(start) as f64;
        capacities
            .iter()
            .zip(&self.used_unit_secs)
            .map(|(&cap, &used)| {
                if elapsed <= 0.0 || cap == 0 {
                    0.0
                } else {
                    used / (cap as f64 * elapsed)
                }
            })
            .collect()
    }

    /// Utilizations normalized by the *integrated online capacity* —
    /// honest under drains and returns. Falls back to the static formula
    /// when no capacity-seconds were accumulated. Identical to
    /// [`MetricsCollector::utilizations`] when capacity never changed.
    pub fn utilizations_dynamic(&self, capacities: &[u64], end: SimTime) -> Vec<f64> {
        let any_cap: f64 = self.cap_unit_secs.iter().sum();
        if any_cap <= 0.0 {
            return self.utilizations(capacities, end);
        }
        self.used_unit_secs
            .iter()
            .zip(&self.cap_unit_secs)
            .map(|(&used, &cap)| if cap <= 0.0 { 0.0 } else { used / cap })
            .collect()
    }

    /// Per-resource unit-seconds of capacity lost to disruptions so far.
    pub fn capacity_lost(&self) -> Vec<f64> {
        self.lost_unit_secs.clone()
    }

    /// `(active, idle)` energy in joules under a per-node power model:
    /// allocated node-seconds at `active_watts` plus online-but-idle
    /// node-seconds at `idle_watts` (drained nodes draw nothing).
    pub fn energy_joules(&self, power: PowerModel) -> (f64, f64) {
        let used = self.used_unit_secs.first().copied().unwrap_or(0.0);
        let idle = self.idle_unit_secs.first().copied().unwrap_or(0.0);
        (power.active_watts as f64 * used, power.idle_watts as f64 * idle)
    }
}

/// Per-kind event counters, indexed by [`EventKind::index`]. Extending
/// [`EventKind`] automatically grows this breakdown — no changes needed
/// here.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EventCounts {
    pub(crate) counts: Vec<u64>,
}

impl EventCounts {
    /// Zeroed counters for every known kind.
    pub fn new() -> Self {
        Self { counts: vec![0; EventKind::KIND_COUNT] }
    }

    /// Record one occurrence of `kind`.
    pub fn bump(&mut self, kind: EventKind) {
        if self.counts.is_empty() {
            self.counts = vec![0; EventKind::KIND_COUNT];
        }
        self.counts[kind.index()] += 1;
    }

    /// Count of events of `kind` processed.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts.get(kind.index()).copied().unwrap_or(0)
    }

    /// `(name, count)` rows for every kind, in rank order.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        EventKind::KIND_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, self.counts.get(i).copied().unwrap_or(0)))
            .collect()
    }

    /// Total events processed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Immutable end-of-run report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Names of the schedulable resources, aligned with the metric vectors.
    pub resource_names: Vec<String>,
    /// Number of jobs that ran to completion.
    pub jobs_completed: usize,
    /// Number of jobs cancelled by their users (queued or running).
    pub jobs_cancelled: usize,
    /// Number of jobs killed at their walltime limit.
    pub jobs_killed: usize,
    /// Jobs that never reached a terminal state (stuck in queue when the
    /// event stream drained — 0 in any well-formed scenario).
    pub jobs_unfinished: usize,
    /// First event time (trace start).
    pub start_time: SimTime,
    /// Last completion time.
    pub end_time: SimTime,
    /// `end_time - start_time`.
    pub makespan: SimTime,
    /// Time-averaged utilization per resource over the makespan,
    /// normalized by the capacity actually online at each instant
    /// (§IV-B metrics 1 and 2 generalized to R resources + disruptions).
    pub resource_utilization: Vec<f64>,
    /// Per-resource unit-seconds of capacity lost to drains/power caps.
    pub capacity_lost_unit_seconds: Vec<f64>,
    /// Joules drawn by allocated nodes (`active_watts` per node-second).
    /// Zero unless the run carried a [`PowerModel`] in its `SimParams`.
    pub energy_active_joules: f64,
    /// Joules drawn by online-but-idle nodes (`idle_watts` each) — the
    /// waste an energy-aware scheduler can recover by packing or
    /// draining idle capacity.
    pub energy_idle_joules: f64,
    /// Per-kind counts of every event the engine processed.
    pub event_counts: EventCounts,
    /// Average job wait time in seconds over completed jobs (§IV-B
    /// metric 3).
    pub avg_wait: f64,
    /// Maximum completed-job wait time in seconds (starvation indicator).
    pub max_wait: SimTime,
    /// Average job slowdown over completed jobs (§IV-B metric 4).
    pub avg_slowdown: f64,
    /// Average bounded slowdown (10 s runtime floor).
    pub avg_bounded_slowdown: f64,
    /// Jobs started via backfilling.
    pub backfilled_jobs: usize,
    /// Total policy decisions taken.
    pub decisions: u64,
    /// Total scheduling instances.
    pub instances: u64,
    /// Per-job records, ordered by job id. Includes cancelled and killed
    /// jobs; user-level averages above cover [`JobOutcome::Finished`]
    /// records only.
    pub records: Vec<JobRecord>,
}

impl SimReport {
    /// Assemble a report from records and the utilization integral.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        resource_names: Vec<String>,
        mut records: Vec<JobRecord>,
        collector: &MetricsCollector,
        capacities: &[u64],
        end_time: SimTime,
        decisions: u64,
        instances: u64,
        event_counts: EventCounts,
        jobs_unfinished: usize,
        power: Option<PowerModel>,
    ) -> Self {
        let (energy_active_joules, energy_idle_joules) =
            power.map(|p| collector.energy_joules(p)).unwrap_or((0.0, 0.0));
        records.sort_by_key(|r| r.id);
        let finished: Vec<&JobRecord> =
            records.iter().filter(|r| r.outcome == JobOutcome::Finished).collect();
        let n = finished.len().max(1) as f64;
        let avg_wait = finished.iter().map(|r| r.wait() as f64).sum::<f64>() / n;
        let max_wait = finished.iter().map(|r| r.wait()).max().unwrap_or(0);
        let avg_slowdown = finished.iter().map(|r| r.slowdown()).sum::<f64>() / n;
        let avg_bounded_slowdown =
            finished.iter().map(|r| r.bounded_slowdown(10)).sum::<f64>() / n;
        let backfilled_jobs = records.iter().filter(|r| r.backfilled).count();
        let jobs_completed = finished.len();
        let jobs_cancelled =
            records.iter().filter(|r| r.outcome == JobOutcome::Cancelled).count();
        let jobs_killed =
            records.iter().filter(|r| r.outcome == JobOutcome::Killed).count();
        let start_time = collector.start_time().unwrap_or(0);
        SimReport {
            resource_names,
            jobs_completed,
            jobs_cancelled,
            jobs_killed,
            jobs_unfinished,
            start_time,
            end_time,
            makespan: end_time.saturating_sub(start_time),
            resource_utilization: collector.utilizations_dynamic(capacities, end_time),
            capacity_lost_unit_seconds: collector.capacity_lost(),
            energy_active_joules,
            energy_idle_joules,
            event_counts,
            avg_wait,
            max_wait,
            avg_slowdown,
            avg_bounded_slowdown,
            backfilled_jobs,
            decisions,
            instances,
            records,
        }
    }

    /// Average wait in hours (the unit of the paper's Fig. 6a).
    pub fn avg_wait_hours(&self) -> f64 {
        self.avg_wait / 3600.0
    }

    /// Total energy drawn in joules (active + idle).
    pub fn energy_total_joules(&self) -> f64 {
        self.energy_active_joules + self.energy_idle_joules
    }

    /// Total energy in kilowatt-hours — the unit of the grid CSV's
    /// energy column.
    pub fn energy_kwh(&self) -> f64 {
        self.energy_total_joules() / 3.6e6
    }

    /// Every job in the trace reached a terminal state (finished,
    /// cancelled, or killed) — the disruption-scenario sanity invariant.
    pub fn all_jobs_accounted(&self, trace_len: usize) -> bool {
        self.jobs_unfinished == 0
            && self.jobs_completed + self.jobs_cancelled + self.jobs_killed == trace_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::resources::SystemConfig;

    fn rec(id: usize, submit: SimTime, start: SimTime, end: SimTime, bf: bool) -> JobRecord {
        JobRecord { id, submit, start, end, backfilled: bf, outcome: JobOutcome::Finished }
    }

    #[test]
    fn collector_integrates_occupancy() {
        let cfg = SystemConfig::two_resource(10, 10);
        let mut pools = PoolState::new(&cfg);
        let mut mc = MetricsCollector::new(2);
        mc.advance(&pools, 0); // establishes start
        pools.allocate(&Job::new(0, 0, 100, 100, vec![5, 2]), 0);
        mc.advance(&pools, 100); // 100 s at 5/10 and 2/10
        pools.release(0);
        mc.advance(&pools, 200); // 100 s idle
        let u = mc.utilizations(&[10, 10], 200);
        assert!((u[0] - 0.25).abs() < 1e-12, "5 nodes * 100s / (10 * 200s)");
        assert!((u[1] - 0.10).abs() < 1e-12);
        // Constant capacity: the dynamic normalization agrees exactly.
        let ud = mc.utilizations_dynamic(&[10, 10], 200);
        assert!((ud[0] - u[0]).abs() < 1e-15);
        assert_eq!(mc.capacity_lost(), vec![0.0, 0.0]);
    }

    #[test]
    fn collector_tracks_capacity_loss() {
        let cfg = SystemConfig::two_resource(10, 10);
        let mut pools = PoolState::new(&cfg);
        let mut mc = MetricsCollector::new(2);
        mc.advance(&pools, 0);
        pools.allocate(&Job::new(0, 0, 200, 200, vec![5, 0]), 0);
        mc.advance(&pools, 100);
        pools.adjust_capacity(0, -4); // 10 -> 6 online for the second half
        mc.advance(&pools, 200);
        // Lost: 4 units * 100 s.
        assert!((mc.capacity_lost()[0] - 400.0).abs() < 1e-9);
        // Dynamic utilization: 5*200 used over 10*100 + 6*100 capacity.
        let u = mc.utilizations_dynamic(&[10, 10], 200);
        assert!((u[0] - 1000.0 / 1600.0).abs() < 1e-12);
        // Static normalization underestimates: 1000 / 2000.
        assert!((mc.utilizations(&[10, 10], 200)[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn collector_energy_split_is_exact() {
        let cfg = SystemConfig::two_resource(10, 10);
        let mut pools = PoolState::new(&cfg);
        let mut mc = MetricsCollector::new(2);
        mc.advance(&pools, 0);
        pools.allocate(&Job::new(0, 0, 100, 100, vec![4, 0]), 0);
        mc.advance(&pools, 100); // 4 nodes active, 6 idle for 100 s
        pools.release(0);
        mc.advance(&pools, 150); // 10 nodes idle for 50 s
        let (active, idle) = mc.energy_joules(PowerModel::new(60, 215));
        assert!((active - 215.0 * 400.0).abs() < 1e-9, "{active}");
        assert!((idle - 60.0 * (600.0 + 500.0)).abs() < 1e-9, "{idle}");
    }

    #[test]
    fn collector_zero_elapsed_is_safe() {
        let cfg = SystemConfig::two_resource(4, 4);
        let pools = PoolState::new(&cfg);
        let mut mc = MetricsCollector::new(2);
        mc.advance(&pools, 50);
        assert_eq!(mc.utilizations(&[4, 4], 50), vec![0.0, 0.0]);
        assert_eq!(mc.utilizations_dynamic(&[4, 4], 50), vec![0.0, 0.0]);
    }

    #[test]
    fn event_counts_bump_and_report() {
        let mut ec = EventCounts::new();
        ec.bump(EventKind::Submit(0));
        ec.bump(EventKind::Submit(1));
        ec.bump(EventKind::Finish(0));
        ec.bump(EventKind::Cancel(1));
        ec.bump(EventKind::Tick);
        assert_eq!(ec.count(EventKind::Submit(9)), 2, "counts are per kind, not per job");
        assert_eq!(ec.count(EventKind::Finish(0)), 1);
        assert_eq!(ec.count(EventKind::WalltimeKill(0)), 0);
        assert_eq!(ec.total(), 5);
        let rows = ec.rows();
        assert_eq!(rows.len(), EventKind::KIND_COUNT);
        assert!(rows.contains(&("cancel", 1)));
        assert!(rows.contains(&("tick", 1)));
    }

    #[test]
    fn report_aggregates_user_metrics() {
        let cfg = SystemConfig::two_resource(4, 4);
        let pools = PoolState::new(&cfg);
        let mut mc = MetricsCollector::new(2);
        mc.advance(&pools, 0);
        let records = vec![rec(0, 0, 0, 100, false), rec(1, 0, 100, 200, true)];
        let r = SimReport::assemble(
            vec!["nodes".into(), "bb".into()],
            records,
            &mc,
            &[4, 4],
            200,
            5,
            3,
            EventCounts::new(),
            0,
            None,
        );
        assert_eq!(r.jobs_completed, 2);
        assert_eq!(r.makespan, 200);
        assert!((r.avg_wait - 50.0).abs() < 1e-12);
        assert_eq!(r.max_wait, 100);
        assert!((r.avg_slowdown - 1.5).abs() < 1e-12);
        assert_eq!(r.backfilled_jobs, 1);
        assert_eq!(r.resource_utilization, [0.0, 0.0]);
        assert!(r.all_jobs_accounted(2));
    }

    #[test]
    fn report_separates_outcomes() {
        let mc = MetricsCollector::new(1);
        let records = vec![
            rec(0, 0, 10, 110, false),
            JobRecord {
                id: 1,
                submit: 0,
                start: 50,
                end: 50,
                backfilled: false,
                outcome: JobOutcome::Cancelled,
            },
            JobRecord {
                id: 2,
                submit: 0,
                start: 0,
                end: 60,
                backfilled: false,
                outcome: JobOutcome::Killed,
            },
        ];
        let r = SimReport::assemble(
            vec!["nodes".into()],
            records,
            &mc,
            &[4],
            110,
            3,
            3,
            EventCounts::new(),
            0,
            None,
        );
        assert_eq!(r.jobs_completed, 1);
        assert_eq!(r.jobs_cancelled, 1);
        assert_eq!(r.jobs_killed, 1);
        assert!(r.all_jobs_accounted(3));
        assert!(!r.all_jobs_accounted(4), "a fourth job would be unaccounted");
        // User metrics cover the finished job only: wait 10, not 50.
        assert!((r.avg_wait - 10.0).abs() < 1e-12);
        assert_eq!(r.max_wait, 10);
    }

    #[test]
    fn empty_records_are_safe() {
        let mc = MetricsCollector::new(1);
        let r = SimReport::assemble(
            vec!["nodes".into()],
            vec![],
            &mc,
            &[4],
            0,
            0,
            0,
            EventCounts::new(),
            0,
            None,
        );
        assert_eq!(r.jobs_completed, 0);
        assert_eq!(r.avg_wait, 0.0);
        assert_eq!(r.max_wait, 0);
    }

    #[test]
    fn wait_hours_conversion() {
        let mc = MetricsCollector::new(1);
        let records = vec![rec(0, 0, 7200, 7300, false)];
        let r = SimReport::assemble(
            vec!["nodes".into()],
            records,
            &mc,
            &[4],
            7300,
            1,
            1,
            EventCounts::new(),
            0,
            None,
        );
        assert!((r.avg_wait_hours() - 2.0).abs() < 1e-9);
    }
}
