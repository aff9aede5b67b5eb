//! Jobs: the unit of work a batch scheduler places.
//!
//! HPC jobs are *rigid*: they request a fixed amount of every schedulable
//! resource and hold all of it from start to completion (§I of the paper
//! contrasts this with data-center malleable tasks).

use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Identifier of a job within one simulation (dense, 0-based).
pub type JobId = usize;

/// A rigid batch job as read from a workload trace.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Dense identifier; must equal the job's index in the trace vector.
    pub id: JobId,
    /// Submission (arrival) time.
    pub submit: SimTime,
    /// Actual runtime, known to the simulator from the trace but *not*
    /// revealed to scheduling policies until completion.
    pub runtime: SimTime,
    /// User-supplied walltime estimate; policies and backfilling plan with
    /// this value. Real traces almost always have `estimate >= runtime`.
    pub estimate: SimTime,
    /// Requested units of each schedulable resource, aligned with
    /// [`crate::resources::SystemConfig::resources`].
    pub demands: Vec<u64>,
}

impl Job {
    /// Construct a job. Runtime and estimate are clamped to at least 1
    /// second (zero-length jobs would stall event-driven progress).
    pub fn new(
        id: JobId,
        submit: SimTime,
        runtime: SimTime,
        estimate: SimTime,
        demands: Vec<u64>,
    ) -> Self {
        Self {
            id,
            submit,
            runtime: runtime.max(1),
            estimate: estimate.max(1).max(runtime),
            demands,
        }
    }

    /// Demand for resource `r` as a fraction of system capacity — the
    /// `P_ij` of the paper's Table II / Eq. (1).
    pub fn demand_fraction(&self, r: usize, capacity: u64) -> f64 {
        if capacity == 0 {
            0.0
        } else {
            self.demands[r] as f64 / capacity as f64
        }
    }
}

/// Lifecycle state of a job inside the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted and waiting in the queue.
    Queued,
    /// Executing on the system.
    Running,
    /// Completed.
    Finished,
    /// Removed by a user cancellation (while queued or running).
    Cancelled,
    /// Killed by the walltime enforcer at `start + estimate`.
    Killed,
}

impl JobState {
    /// True once the job can never run again (finished, cancelled, killed).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Finished | JobState::Cancelled | JobState::Killed)
    }
}

/// How a job left the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Ran to completion.
    Finished,
    /// Cancelled by its user. If it never started, `start == end` is the
    /// cancellation time and the record carries pure queue wait.
    Cancelled,
    /// Ran but was killed at its walltime limit (`end = start + estimate`).
    Killed,
}

/// Per-job outcome recorded by the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job this record describes.
    pub id: JobId,
    /// Submission time (copied from the job for self-containedness).
    pub submit: SimTime,
    /// Time the job began executing (for a cancelled-while-queued job,
    /// the cancellation time — see [`JobOutcome::Cancelled`]).
    pub start: SimTime,
    /// Time the job left the system.
    pub end: SimTime,
    /// Whether the job started via backfilling rather than direct
    /// selection (diagnostics for the backfill tests and ablations).
    pub backfilled: bool,
    /// How the job left the system.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Queue wait time: `start - submit`.
    pub fn wait(&self) -> SimTime {
        self.start - self.submit
    }

    /// Actual runtime: `end - start`.
    pub fn runtime(&self) -> SimTime {
        self.end - self.start
    }

    /// Slowdown: `(wait + runtime) / runtime` (§IV-B metric 4).
    pub fn slowdown(&self) -> f64 {
        let rt = self.runtime().max(1) as f64;
        (self.wait() as f64 + rt) / rt
    }

    /// Bounded slowdown with a 10-second floor on runtime, a standard
    /// robustness variant reported alongside plain slowdown.
    pub fn bounded_slowdown(&self, bound: SimTime) -> f64 {
        let rt = self.runtime().max(1) as f64;
        let denom = rt.max(bound as f64);
        ((self.wait() as f64 + rt) / denom).max(1.0)
    }
}

/// Struct-of-arrays mirror of a job trace — the simulator's hot-path
/// view.
///
/// `Vec<Job>` stays the API type (policies borrow `&Job`s), but each
/// job's `demands` lives in its own heap allocation, which makes the
/// scheduler's inner loops (`fits` checks over the wait queue, end-event
/// scheduling on start) pointer-chase per candidate. The slab stores the
/// hot scalar fields and all demand vectors flattened at a fixed stride,
/// so a million-job trace scans contiguously.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobSlab {
    submit: Vec<SimTime>,
    runtime: Vec<SimTime>,
    estimate: Vec<SimTime>,
    /// All demand vectors back to back; job `i` owns
    /// `demands[i * nres .. (i + 1) * nres]`.
    demands: Vec<u64>,
    /// Per-resource minimum demand over the whole trace: a pool with
    /// fewer free units than this can start no job at all, which ends a
    /// backfill pass without looking at the queue.
    min_demands: Vec<u64>,
    nres: usize,
}

impl JobSlab {
    /// Build the slab from a dense-id trace. `nres` is the number of
    /// schedulable resources; every job must demand exactly that many.
    pub fn from_jobs(jobs: &[Job], nres: usize) -> Self {
        let mut slab = Self {
            submit: Vec::with_capacity(jobs.len()),
            runtime: Vec::with_capacity(jobs.len()),
            estimate: Vec::with_capacity(jobs.len()),
            demands: Vec::with_capacity(jobs.len() * nres),
            min_demands: vec![u64::MAX; nres],
            nres,
        };
        for job in jobs {
            debug_assert_eq!(job.demands.len(), nres, "job {} demand arity", job.id);
            slab.submit.push(job.submit);
            slab.runtime.push(job.runtime);
            slab.estimate.push(job.estimate);
            slab.demands.extend_from_slice(&job.demands);
            for (min, &d) in slab.min_demands.iter_mut().zip(&job.demands) {
                *min = (*min).min(d);
            }
        }
        slab
    }

    /// Number of jobs in the slab.
    pub fn len(&self) -> usize {
        self.submit.len()
    }

    /// True when the slab holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.submit.is_empty()
    }

    /// Submission time of job `id`.
    #[inline]
    pub fn submit(&self, id: JobId) -> SimTime {
        self.submit[id]
    }

    /// True runtime of job `id`.
    #[inline]
    pub fn runtime(&self, id: JobId) -> SimTime {
        self.runtime[id]
    }

    /// Walltime estimate of job `id`.
    #[inline]
    pub fn estimate(&self, id: JobId) -> SimTime {
        self.estimate[id]
    }

    /// Demand vector of job `id` (stride-`nres` slice into the flat pool).
    #[inline]
    pub fn demands(&self, id: JobId) -> &[u64] {
        &self.demands[id * self.nres..(id + 1) * self.nres]
    }

    /// The smallest demand any job of the trace places on each resource
    /// (`u64::MAX` per resource for an empty trace).
    #[inline]
    pub fn min_demands(&self) -> &[u64] {
        &self.min_demands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_clamps_zero_runtime() {
        let j = Job::new(0, 5, 0, 0, vec![1]);
        assert_eq!(j.runtime, 1);
        assert!(j.estimate >= j.runtime);
    }

    #[test]
    fn estimate_never_below_runtime() {
        let j = Job::new(0, 0, 100, 10, vec![1]);
        assert_eq!(j.estimate, 100);
    }

    #[test]
    fn demand_fraction_matches_pij() {
        let j = Job::new(0, 0, 10, 10, vec![25, 0]);
        assert_eq!(j.demand_fraction(0, 100), 0.25);
        assert_eq!(j.demand_fraction(1, 100), 0.0);
        assert_eq!(j.demand_fraction(0, 0), 0.0, "zero capacity is safe");
    }

    #[test]
    fn record_derived_metrics() {
        let r = JobRecord { id: 0, submit: 100, start: 160, end: 220, backfilled: false, outcome: JobOutcome::Finished };
        assert_eq!(r.wait(), 60);
        assert_eq!(r.runtime(), 60);
        assert!((r.slowdown() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_floors_tiny_jobs() {
        // 1-second job that waited 99 seconds: raw slowdown 100,
        // bounded (10s) slowdown 10.
        let r = JobRecord { id: 0, submit: 0, start: 99, end: 100, backfilled: true, outcome: JobOutcome::Finished };
        assert!((r.slowdown() - 100.0).abs() < 1e-12);
        assert!((r.bounded_slowdown(10) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_never_below_one() {
        let r = JobRecord { id: 0, submit: 0, start: 0, end: 2, backfilled: false, outcome: JobOutcome::Finished };
        assert_eq!(r.bounded_slowdown(10), 1.0);
    }

    #[test]
    fn slab_mirrors_the_trace_fields() {
        let jobs = vec![
            Job::new(0, 5, 10, 20, vec![3, 1]),
            Job::new(1, 7, 1, 1, vec![0, 2]),
            Job::new(2, 9, 4, 6, vec![5, 0]),
        ];
        let slab = JobSlab::from_jobs(&jobs, 2);
        assert_eq!(slab.len(), 3);
        assert!(!slab.is_empty());
        for job in &jobs {
            assert_eq!(slab.submit(job.id), job.submit);
            assert_eq!(slab.runtime(job.id), job.runtime);
            assert_eq!(slab.estimate(job.id), job.estimate);
            assert_eq!(slab.demands(job.id), &job.demands[..]);
        }
        assert_eq!(slab.min_demands(), &[0, 0]);
        assert_eq!(JobSlab::from_jobs(&jobs[..1], 2).min_demands(), &[3, 1]);
    }

    #[test]
    fn empty_slab_is_empty() {
        let slab = JobSlab::from_jobs(&[], 2);
        assert_eq!(slab.len(), 0);
        assert!(slab.is_empty());
    }
}
