//! The scheduling-policy interface.
//!
//! A [`Policy`] is consulted at every *scheduling instance* (triggered by
//! job submission or completion). The simulator repeatedly asks it to
//! select one job from the window; fitting selections start immediately,
//! the first non-fitting selection becomes the reservation and ends the
//! instance (§III-C). After every applied selection the policy receives a
//! [`StepFeedback`] carrying the post-action measurement vector — this is
//! the feedback channel DFP and the scalar-RL baseline learn from.

use crate::job::{Job, JobId};
use crate::metrics::SimReport;
use crate::resources::{PoolState, SystemConfig};
use crate::SimTime;

/// One waiting job as seen by a policy.
#[derive(Clone, Copy, Debug)]
pub struct JobView<'a> {
    /// The underlying job (demands, estimate, submit). Policies must not
    /// use [`Job::runtime`] — that is trace ground truth the real system
    /// would not know; the simulator exposes it only for completeness.
    pub job: &'a Job,
    /// How long the job has been waiting (`now - submit`) — the "queued
    /// time" element of the paper's job encoding.
    pub queued: SimTime,
}

/// Everything a policy may observe at a decision point.
#[derive(Clone, Debug)]
pub struct SchedulerView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Monotone scheduling-instance counter (one per trigger event batch).
    pub instance: u64,
    /// Monotone decision counter (one per `select` call).
    pub decision: u64,
    /// The window: up to `W` oldest waiting jobs.
    pub window: Vec<JobView<'a>>,
    /// Live allocation state (free units, running allocations).
    pub pools: &'a PoolState,
    /// Static system description.
    pub config: &'a SystemConfig,
    /// Ids of *all* waiting jobs (window is a prefix of this). In a
    /// workflow (DAG) trace this is exactly the **ready frontier**:
    /// dependency-held jobs are not enqueued until their predecessors
    /// settle, so they are invisible here and in the window. See
    /// [`SchedulerView::ready_frontier`].
    pub queued: &'a [JobId],
    /// Full job table, indexable by [`JobId`].
    pub jobs: &'a [Job],
}

impl<'a> SchedulerView<'a> {
    /// Current measurement vector (per-resource utilization, normalized
    /// by the capacity *currently online* — honest under disruptions).
    pub fn measurement(&self) -> Vec<f64> {
        self.pools.measurement()
    }

    /// Does window entry `idx` fit in the free resources right now?
    pub fn fits(&self, idx: usize) -> bool {
        self.pools.fits(&self.window[idx].job.demands)
    }

    /// The ready frontier of the workflow DAG: every waiting job whose
    /// predecessors have all settled. For an independent-job trace this
    /// is simply the whole wait queue — the two views coincide because
    /// the simulator never enqueues a dependency-held job, so policies
    /// written against either name observe identical state.
    pub fn ready_frontier(&self) -> &'a [JobId] {
        self.queued
    }

    /// Capacity of each pool currently online (drains/power caps applied).
    pub fn current_capacities(&self) -> Vec<u64> {
        (0..self.pools.num_resources()).map(|r| self.pools.capacity(r)).collect()
    }

    /// The goal-vector weights of the paper's Eq. (1): for each resource
    /// `j`, the normalized total outstanding demand-time
    /// `r_j = Σ_i P_ij·t_i / Σ_j Σ_i P_ij·t_i`, summed over *all* jobs in
    /// the system — queued jobs (with their full estimate) and running
    /// jobs (with their remaining estimate). Demand fractions are taken
    /// over the capacity *currently online*, so a drained pool reads as
    /// proportionally more contended.
    ///
    /// Falls back to uniform weights when no job demands anything.
    pub fn contention_weights(&self) -> Vec<f64> {
        let nres = self.config.num_resources();
        let caps = self.current_capacities();
        let mut demand_time = vec![0.0f64; nres];
        for &jid in self.queued {
            let job = &self.jobs[jid];
            let t = job.estimate as f64;
            for r in 0..nres {
                demand_time[r] += job.demand_fraction(r, caps[r]) * t;
            }
        }
        for alloc in self.pools.running() {
            let remaining = alloc.est_end.saturating_sub(self.now) as f64;
            for r in 0..nres {
                let frac = if caps[r] == 0 {
                    0.0
                } else {
                    alloc.demands[r] as f64 / caps[r] as f64
                };
                demand_time[r] += frac * remaining;
            }
        }
        let total: f64 = demand_time.iter().sum();
        if total <= 0.0 {
            return vec![1.0 / nres as f64; nres];
        }
        demand_time.iter().map(|d| d / total).collect()
    }
}

/// Post-action feedback delivered to the policy.
#[derive(Clone, Debug)]
pub struct StepFeedback {
    /// Decision counter value of the corresponding `select` call.
    pub decision: u64,
    /// Window index the policy chose.
    pub action: usize,
    /// The job that was chosen.
    pub job: JobId,
    /// `true` if the job started immediately; `false` if it became the
    /// reservation (ending the instance).
    pub started: bool,
    /// Measurement vector *after* the action was applied.
    pub measurement: Vec<f64>,
    /// Simulation time of the decision.
    pub now: SimTime,
}

/// A scheduling policy: the agent side of the simulator's agent–environment
/// loop.
pub trait Policy {
    /// Choose a window index to schedule next, or `None` to end the
    /// scheduling instance without a reservation. Indices out of range are
    /// treated as `None`.
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize>;

    /// Observe the effect of the most recent selection. Default: ignore.
    fn feedback(&mut self, _fb: &StepFeedback) {}

    /// Called once when the trace is exhausted and the simulation ends.
    fn episode_end(&mut self, _report: &SimReport) {}

    /// Restore the policy to its initial (post-construction) state so
    /// one instance can be reused across episodes, the way the
    /// simulator itself is reused via `Simulator::load`. After `reset`,
    /// running an episode must be **bit-identical** to running it on a
    /// freshly built instance — stateful policies (internal RNGs,
    /// cached plans, logs) must restore their seeds and clear their
    /// caches. Stateless policies keep the default no-op.
    fn reset(&mut self) {}

    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str {
        "policy"
    }
}

/// Reference policy: always select the head of the window.
///
/// Combined with the simulator's reservation + EASY backfilling mechanics
/// this *is* the paper's "Heuristic" baseline (FCFS extended to
/// multi-resource scheduling); it also serves as the trivial policy for
/// simulator unit tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeadOfQueue;

impl Policy for HeadOfQueue {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn name(&self) -> &'static str {
        "fcfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::SystemConfig;

    #[test]
    fn contention_weights_match_eq1_hand_computation() {
        // System: 10 nodes, 10 BB. One queued job: 5 nodes, 0 BB, est 100.
        // Another queued: 0 nodes, 10 BB, est 50.
        // rA = 0.5*100 = 50 ; rB = 1.0*50 = 50 -> weights (0.5, 0.5).
        let config = SystemConfig::two_resource(10, 10);
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![5, 0]),
            Job::new(1, 0, 50, 50, vec![0, 10]),
        ];
        let pools = PoolState::new(&config);
        let queued = vec![0, 1];
        let view = SchedulerView {
            now: 0,
            instance: 0,
            decision: 0,
            window: vec![],
            pools: &pools,
            config: &config,
            queued: &queued,
            jobs: &jobs,
        };
        let w = view.contention_weights();
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contention_weights_include_running_jobs() {
        let config = SystemConfig::two_resource(10, 10);
        let jobs = vec![Job::new(0, 0, 100, 100, vec![10, 0])];
        let mut pools = PoolState::new(&config);
        pools.allocate(&jobs[0], 0);
        let queued: Vec<JobId> = vec![];
        let view = SchedulerView {
            now: 50, // remaining estimate 50
            instance: 0,
            decision: 0,
            window: vec![],
            pools: &pools,
            config: &config,
            queued: &queued,
            jobs: &jobs,
        };
        let w = view.contention_weights();
        assert!((w[0] - 1.0).abs() < 1e-12, "all contention on nodes");
        assert_eq!(w[1], 0.0);
    }

    #[test]
    fn contention_weights_uniform_when_idle() {
        let config = SystemConfig::two_resource(4, 4);
        let jobs: Vec<Job> = vec![];
        let pools = PoolState::new(&config);
        let queued: Vec<JobId> = vec![];
        let view = SchedulerView {
            now: 0,
            instance: 0,
            decision: 0,
            window: vec![],
            pools: &pools,
            config: &config,
            queued: &queued,
            jobs: &jobs,
        };
        assert_eq!(view.contention_weights(), vec![0.5, 0.5]);
    }

    #[test]
    fn view_exposes_disruption_state() {
        let config = SystemConfig::two_resource(8, 4);
        let jobs: Vec<Job> = vec![];
        let mut pools = PoolState::new(&config);
        pools.adjust_capacity(0, -2); // 25 % node drain
        let queued: Vec<JobId> = vec![];
        let view = SchedulerView {
            now: 0,
            instance: 0,
            decision: 0,
            window: vec![],
            pools: &pools,
            config: &config,
            queued: &queued,
            jobs: &jobs,
        };
        assert_eq!(view.current_capacities(), vec![6, 4]);
    }

    #[test]
    fn contention_weights_use_current_capacity() {
        // One queued job wanting 4 nodes + 4 BB. At full capacity (8, 8)
        // the weights are even; with half the nodes drained the node side
        // reads twice as contended.
        let config = SystemConfig::two_resource(8, 8);
        let jobs = vec![Job::new(0, 0, 100, 100, vec![4, 4])];
        let mut pools = PoolState::new(&config);
        let queued = vec![0];
        let make = |pools: &PoolState| -> Vec<f64> {
            SchedulerView {
                now: 0,
                instance: 0,
                decision: 0,
                window: vec![],
                pools,
                config: &config,
                queued: &queued,
                jobs: &jobs,
            }
            .contention_weights()
        };
        let even = make(&pools);
        assert!((even[0] - 0.5).abs() < 1e-12);
        pools.adjust_capacity(0, -4);
        let drained = make(&pools);
        assert!((drained[0] - 2.0 / 3.0).abs() < 1e-12, "nodes weight doubles: {drained:?}");
    }

    #[test]
    fn head_of_queue_selects_zero_or_none() {
        let config = SystemConfig::two_resource(4, 4);
        let jobs = vec![Job::new(0, 0, 10, 10, vec![1, 1])];
        let pools = PoolState::new(&config);
        let queued = vec![0];
        let mut view = SchedulerView {
            now: 0,
            instance: 0,
            decision: 0,
            window: vec![JobView { job: &jobs[0], queued: 0 }],
            pools: &pools,
            config: &config,
            queued: &queued,
            jobs: &jobs,
        };
        let mut p = HeadOfQueue;
        assert_eq!(p.select(&view), Some(0));
        view.window.clear();
        assert_eq!(p.select(&view), None);
        assert_eq!(p.name(), "fcfs");
    }
}
