//! The discrete-event simulation engine (the CQSim replacement).
//!
//! [`Simulator::run`] is a pure dispatch loop: it pops events, routes
//! each to its handler in [`crate::handlers`], and runs one scheduling
//! instance per distinct timestamp. Event kinds — including the
//! disruption kinds (cancel, walltime kill, capacity change) and the
//! periodic tick — are therefore additive: see the module docs of
//! [`crate::event`].

use crate::backfill::{can_backfill, compute_reservation, ReservationPlan};
use crate::event::{EventHandle, EventKind, EventQueue, IndexedEventQueue, InjectedEvent};
use crate::handlers;
use crate::job::{Job, JobId, JobOutcome, JobRecord, JobSlab, JobState};
use crate::metrics::{EventCounts, MetricsCollector, SimReport};
use crate::policy::{JobView, Policy, SchedulerView, StepFeedback};
use crate::queue::WaitQueue;
use crate::resources::{PoolState, SystemConfig};
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Per-unit power draw of the primary (node) resource, in integer watts
/// so [`SimParams`] stays `Copy + Eq` and snapshots stay bit-exact.
///
/// Energy accounting splits the node pool into *allocated* units (drawing
/// `active_watts` each) and *online-but-idle* units (drawing `idle_watts`
/// each); drained units draw nothing. The integrals live in
/// [`crate::metrics::MetricsCollector`] and surface as the energy fields
/// of [`crate::SimReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Watts drawn by one online node with no job on it.
    pub idle_watts: u64,
    /// Watts drawn by one node allocated to a running job.
    pub active_watts: u64,
}

impl PowerModel {
    /// A power model from idle and active per-node watts.
    pub fn new(idle_watts: u64, active_watts: u64) -> Self {
        Self { idle_watts, active_watts }
    }

    /// Representative HPC node numbers (idle 60 W, full-load 215 W) —
    /// the same figures as `mrsch_workload`'s power-aware suite.
    pub fn hpc_default() -> Self {
        Self { idle_watts: 60, active_watts: 215 }
    }
}

/// Tunable simulator parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimParams {
    /// Scheduling-window size `W` (the paper uses 10).
    pub window: usize,
    /// Enable the reservation + EASY-backfilling starvation protection.
    /// Disabling it reproduces the "directly applying DFP ... results in
    /// severe job starvation" ablation of §III-C.
    pub backfill: bool,
    /// Kill jobs whose true runtime exceeds their walltime estimate at
    /// `start + estimate`, as real RJMS do. Off by default: trace replays
    /// without disruptions let over-runners finish (the seed behavior).
    pub enforce_walltime: bool,
    /// Period of the [`EventKind::Tick`] pulse for time-driven policies.
    /// `None` (default) disables ticking.
    pub tick: Option<SimTime>,
    /// Per-node power model for energy accounting. `None` (default)
    /// reports zero energy — the pre-energy behavior.
    pub power: Option<PowerModel>,
}

impl SimParams {
    /// Parameters with a given window and backfill toggle, disruptions
    /// off — the common construction throughout tests and experiments.
    pub fn new(window: usize, backfill: bool) -> Self {
        Self { window, backfill, enforce_walltime: false, tick: None, power: None }
    }
}

impl Default for SimParams {
    fn default() -> Self {
        Self::new(10, true)
    }
}

/// Errors raised when constructing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A job is inconsistent with the system configuration.
    InvalidJob(String),
    /// Job ids must equal their index in the trace vector.
    NonDenseIds(JobId),
    /// An injected event references a job or resource that does not exist.
    InvalidEvent(String),
    /// A periodic checkpoint could not be written or restored.
    Snapshot(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            SimError::NonDenseIds(id) => {
                write!(f, "job ids must be dense; found out-of-place id {id}")
            }
            SimError::InvalidEvent(msg) => write!(f, "invalid injected event: {msg}"),
            SimError::Snapshot(msg) => write!(f, "snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The trace-driven simulator.
///
/// Owns the job table, event queue, waiting queue, pool state and metric
/// accumulators; [`Simulator::run`] drives a [`Policy`] over the whole
/// trace and returns the [`SimReport`]. Fields are crate-visible so the
/// per-kind handlers in [`crate::handlers`] can mutate them directly.
///
/// The engine is generic over its [`EventQueue`]; the default
/// [`IndexedEventQueue`] is what every production caller gets, while the
/// equivalence test suites instantiate [`Simulator::with_queue`] with the
/// reference [`crate::BinaryHeapEventQueue`] to prove the two produce
/// bit-identical [`SimReport`]s.
#[derive(Debug)]
pub struct Simulator<Q: EventQueue = IndexedEventQueue> {
    pub(crate) config: SystemConfig,
    pub(crate) params: SimParams,
    pub(crate) jobs: Vec<Job>,
    /// Struct-of-arrays mirror of `jobs` for the scheduling hot paths.
    pub(crate) slab: JobSlab,
    pub(crate) states: Vec<JobState>,
    pub(crate) events: Q,
    pub(crate) queue: WaitQueue,
    pub(crate) pools: PoolState,
    pub(crate) collector: MetricsCollector,
    pub(crate) records: Vec<JobRecord>,
    pub(crate) counts: EventCounts,
    pub(crate) now: SimTime,
    pub(crate) decisions: u64,
    pub(crate) instances: u64,
    /// Jobs in a terminal state (finished + cancelled + killed).
    pub(crate) finished: usize,
    /// Wait-time-aware cancel replay: `Some(delay)` schedules a
    /// `Cancel` at `start + delay` of the *simulated* run when the job
    /// starts (see [`Simulator::schedule_cancel_after_start`]).
    pub(crate) replay_cancels: Vec<Option<SimTime>>,
    /// Handle of each started job's pending natural-end event (finish,
    /// walltime kill, or armed replay cancel). `settle` cancels it
    /// eagerly instead of leaving a tombstone for the queue to skip.
    pub(crate) end_event: Vec<Option<EventHandle>>,
    /// Times of injected capacity-*increase* events, sorted; with
    /// `cap_cursor` this answers `earliest_capacity_return` in O(1)
    /// instead of scanning the whole pending-event set.
    pub(crate) cap_returns: Vec<SimTime>,
    pub(crate) cap_cursor: usize,
    /// Predecessor lists of the workflow dependency DAG, set via
    /// [`Simulator::set_dependencies`]. Empty (the default) means the
    /// trace is independent jobs. A job with outstanding predecessors is
    /// *held*: its submission marks it arrived but it does not enter the
    /// wait queue (and is thus invisible to policies) until every
    /// predecessor reaches a terminal state.
    pub(crate) deps: Vec<Vec<JobId>>,
    /// Successor adjacency derived from `deps` (empty iff `deps` is).
    pub(crate) succs: Vec<Vec<JobId>>,
    /// Outstanding (non-terminal) predecessor count per job.
    pub(crate) pending_preds: Vec<u32>,
    /// Whether each job's `Submit` event has fired — distinguishes a
    /// dependency-held job from one that has not arrived yet.
    pub(crate) arrived: Vec<bool>,
}

/// Validate a predecessor table against a trace of `n` dense-id jobs and
/// derive the successor adjacency. Rejects out-of-range ids, self-loops
/// and cycles (Kahn's algorithm). Shared by [`Simulator::set_dependencies`]
/// and snapshot restore.
pub(crate) fn validate_deps(
    n: usize,
    deps: &[Vec<JobId>],
) -> Result<Vec<Vec<JobId>>, String> {
    if deps.len() != n {
        return Err(format!("dependency table covers {} jobs, trace has {n}", deps.len()));
    }
    let mut succs: Vec<Vec<JobId>> = vec![Vec::new(); n];
    for (j, preds) in deps.iter().enumerate() {
        for &p in preds {
            if p >= n {
                return Err(format!("job {j} depends on out-of-range job {p}"));
            }
            if p == j {
                return Err(format!("job {j} depends on itself"));
            }
            succs[p].push(j);
        }
    }
    // Kahn's algorithm: every job must be reachable from the zero-indegree
    // frontier, otherwise the graph has a cycle and would deadlock.
    let mut indeg: Vec<usize> = deps.iter().map(|p| p.len()).collect();
    let mut ready: Vec<JobId> = (0..n).filter(|&j| indeg[j] == 0).collect();
    let mut seen = 0usize;
    while let Some(j) = ready.pop() {
        seen += 1;
        for &s in &succs[j] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    if seen != n {
        return Err("dependency graph contains a cycle".into());
    }
    Ok(succs)
}

impl Simulator<IndexedEventQueue> {
    /// Build a simulator over a trace (with the default indexed queue —
    /// see [`Simulator::with_queue`] to pick the implementation).
    ///
    /// Job ids must be dense (`jobs[i].id == i`) and every job must be
    /// feasible on the system (`demands <= capacity` per resource).
    pub fn new(
        config: SystemConfig,
        jobs: Vec<Job>,
        params: SimParams,
    ) -> Result<Self, SimError> {
        Self::with_queue(config, jobs, params)
    }
}

impl<Q: EventQueue> Simulator<Q> {
    /// [`Simulator::new`] generic over the event-queue implementation.
    pub fn with_queue(
        config: SystemConfig,
        jobs: Vec<Job>,
        params: SimParams,
    ) -> Result<Self, SimError> {
        Self::validate_trace(&config, &jobs)?;
        let nres = config.num_resources();
        let n = jobs.len();
        let mut sim = Self {
            pools: PoolState::new(&config),
            slab: JobSlab::from_jobs(&jobs, nres),
            queue: WaitQueue::new(&config.capacities()),
            config,
            params,
            jobs,
            states: vec![JobState::Queued; n],
            events: Q::default(),
            collector: MetricsCollector::new(nres),
            records: Vec::new(),
            counts: EventCounts::new(),
            now: 0,
            decisions: 0,
            instances: 0,
            finished: 0,
            replay_cancels: vec![None; n],
            end_event: vec![None; n],
            cap_returns: Vec::new(),
            cap_cursor: 0,
            deps: Vec::new(),
            succs: Vec::new(),
            pending_preds: vec![0; n],
            arrived: vec![false; n],
        };
        sim.seed_events();
        Ok(sim)
    }

    /// Install a workflow dependency DAG over the loaded trace: `deps[j]`
    /// lists the jobs that must reach a terminal state before job `j`
    /// becomes schedulable. Call on a fresh (or freshly reset/loaded)
    /// simulator, before the first [`Simulator::step`].
    ///
    /// While held, a job is invisible to policies — the wait queue (and
    /// therefore [`crate::SchedulerView`]) carries only the **ready
    /// frontier**. A predecessor's *any* terminal state (finished,
    /// cancelled, or killed) releases its successors: a workflow whose
    /// upstream task dies still gets its downstream tasks scheduled
    /// rather than deadlocking the episode; policies observe the failure
    /// through the report instead.
    ///
    /// Dependencies survive [`Simulator::reset`] (the same episode can be
    /// re-run bit-identically) and are cleared by
    /// [`Simulator::load_trace`]/[`Simulator::load`] (a new trace means a
    /// new DAG).
    pub fn set_dependencies(&mut self, deps: Vec<Vec<JobId>>) -> Result<(), SimError> {
        let succs = validate_deps(self.jobs.len(), &deps).map_err(SimError::InvalidJob)?;
        self.pending_preds = deps.iter().map(|p| p.len() as u32).collect();
        self.succs = succs;
        self.deps = deps;
        Ok(())
    }

    /// Number of arrived jobs currently held back by unfinished
    /// predecessors (0 in a dependency-free trace).
    pub fn held_jobs(&self) -> usize {
        (0..self.jobs.len())
            .filter(|&j| {
                self.arrived[j]
                    && self.pending_preds[j] > 0
                    && self.states[j] == JobState::Queued
            })
            .count()
    }

    /// A job `p` reached a terminal state: decrement every successor's
    /// outstanding-predecessor count and enqueue the ones that become
    /// ready (arrived, still queued, all predecessors settled).
    pub(crate) fn release_successors(&mut self, p: JobId) {
        if self.succs.is_empty() {
            return;
        }
        let succs = std::mem::take(&mut self.succs[p]);
        for &s in &succs {
            debug_assert!(self.pending_preds[s] > 0);
            self.pending_preds[s] -= 1;
            if self.pending_preds[s] == 0
                && self.arrived[s]
                && self.states[s] == JobState::Queued
                && !self.queue.contains(s)
            {
                self.queue.enqueue(s, self.slab.demands(s));
            }
        }
        self.succs[p] = succs;
    }

    fn validate_trace(config: &SystemConfig, jobs: &[Job]) -> Result<(), SimError> {
        for (i, job) in jobs.iter().enumerate() {
            if job.id != i {
                return Err(SimError::NonDenseIds(job.id));
            }
            config.validate_job(job).map_err(SimError::InvalidJob)?;
        }
        Ok(())
    }

    /// Schedule the trace's submissions and the anchored tick chain into
    /// an empty event queue (shared by construction and reset).
    fn seed_events(&mut self) {
        for id in 0..self.slab.len() {
            self.events.push(self.slab.submit(id), EventKind::Submit(id));
        }
        if let Some(period) = self.params.tick {
            // Anchor the tick chain to the trace start so ticking never
            // drags start_time (and the capacity integral) earlier than
            // the first real event.
            let t0 = (0..self.slab.len()).map(|id| self.slab.submit(id)).min().unwrap_or(0);
            self.events.push(t0 + period.max(1), EventKind::Tick);
        }
    }

    /// Return this simulator to its freshly constructed state so the
    /// same trace can be run again without rebuilding — rollout workers
    /// reuse one simulator across training episodes. Injected events
    /// and relative cancels are cleared; re-inject before re-running.
    pub fn reset(&mut self) {
        let n = self.jobs.len();
        self.states.clear();
        self.states.resize(n, JobState::Queued);
        self.events = Q::default();
        self.queue = WaitQueue::new(&self.config.capacities());
        self.pools = PoolState::new(&self.config);
        self.collector = MetricsCollector::new(self.config.num_resources());
        self.records.clear();
        self.counts = EventCounts::new();
        self.now = 0;
        self.decisions = 0;
        self.instances = 0;
        self.finished = 0;
        self.replay_cancels.clear();
        self.replay_cancels.resize(n, None);
        self.end_event.clear();
        self.end_event.resize(n, None);
        self.cap_returns.clear();
        self.cap_cursor = 0;
        // The DAG itself survives a reset (same trace, same episode);
        // only its runtime progress is rewound.
        self.pending_preds = if self.deps.is_empty() {
            vec![0; n]
        } else {
            self.deps.iter().map(|p| p.len() as u32).collect()
        };
        self.arrived.clear();
        self.arrived.resize(n, false);
        self.seed_events();
    }

    /// Swap in a new trace and [`Simulator::reset`] — the cheap
    /// alternative to constructing a fresh simulator per episode. The
    /// incoming jobs face the same validation as [`Simulator::new`];
    /// on error the simulator keeps its previous trace untouched.
    pub fn load_trace(&mut self, jobs: Vec<Job>) -> Result<(), SimError> {
        Self::validate_trace(&self.config, &jobs)?;
        self.slab = JobSlab::from_jobs(&jobs, self.config.num_resources());
        self.jobs = jobs;
        self.deps = Vec::new();
        self.succs = Vec::new();
        self.reset();
        Ok(())
    }

    /// [`Simulator::load_trace`] plus a parameter swap, for reuse across
    /// episodes whose scenarios differ in `SimParams` (walltime
    /// enforcement, ticking). A loaded simulator behaves bit-identically
    /// to a freshly constructed one.
    pub fn load(&mut self, jobs: Vec<Job>, params: SimParams) -> Result<(), SimError> {
        Self::validate_trace(&self.config, &jobs)?;
        self.params = params;
        self.slab = JobSlab::from_jobs(&jobs, self.config.num_resources());
        self.jobs = jobs;
        self.deps = Vec::new();
        self.succs = Vec::new();
        self.reset();
        Ok(())
    }

    /// Schedule an external event (disruption traces: cancels, walltime
    /// kills, capacity changes, extra ticks) before running.
    pub fn inject(&mut self, event: InjectedEvent) -> Result<(), SimError> {
        match event.kind {
            EventKind::Cancel(id)
            | EventKind::WalltimeKill(id)
            | EventKind::Finish(id)
            | EventKind::Submit(id) => {
                if id >= self.jobs.len() {
                    return Err(SimError::InvalidEvent(format!(
                        "job {id} out of range ({} jobs)",
                        self.jobs.len()
                    )));
                }
            }
            EventKind::CapacityChange { resource, .. } => {
                if resource >= self.config.num_resources() {
                    return Err(SimError::InvalidEvent(format!(
                        "resource {resource} out of range ({} pools)",
                        self.config.num_resources()
                    )));
                }
            }
            EventKind::Tick => {}
        }
        if let EventKind::CapacityChange { delta, .. } = event.kind {
            // Index capacity *returns* so reservation planning can ask
            // for the earliest one without scanning the event set.
            if delta > 0 {
                let at = self.cap_returns.partition_point(|&t| t <= event.time);
                self.cap_returns.insert(at, event.time);
            }
        }
        self.events.push(event.time, event.kind);
        Ok(())
    }

    /// Inject a whole disruption trace (see [`Simulator::inject`]).
    pub fn inject_all(&mut self, events: &[InjectedEvent]) -> Result<(), SimError> {
        for e in events {
            self.inject(*e)?;
        }
        Ok(())
    }

    /// Schedule a cancellation relative to the job's (yet unknown)
    /// start: when the job starts in *this* simulated schedule, a
    /// `Cancel` fires at `start + delay`.
    ///
    /// This is the wait-time-aware SWF cancel replay: the archive
    /// records a cancelled job's observed lifetime in its runtime
    /// column, so replaying the cancel `runtime` seconds after the
    /// *simulated* start reproduces the user's behavior even when the
    /// simulated schedule diverges from the original (the older
    /// `submit + recorded_runtime` proxy is only faithful when the two
    /// track). A job that never starts keeps waiting and is reported as
    /// unfinished — exactly what the original user saw up to the log's
    /// horizon.
    pub fn schedule_cancel_after_start(
        &mut self,
        id: JobId,
        delay: SimTime,
    ) -> Result<(), SimError> {
        if id >= self.jobs.len() {
            return Err(SimError::InvalidEvent(format!(
                "job {id} out of range ({} jobs)",
                self.jobs.len()
            )));
        }
        self.replay_cancels[id] = Some(delay);
        Ok(())
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The live pool state (current capacity, free units, allocations).
    pub fn pools(&self) -> &PoolState {
        &self.pools
    }

    /// Run the whole trace under `policy`, returning the report.
    ///
    /// This loop is kind-agnostic: every event is routed through
    /// [`handlers::dispatch`]; all events sharing a timestamp are applied
    /// as one batch, then a single scheduling instance runs.
    pub fn run(&mut self, policy: &mut dyn Policy) -> SimReport {
        while self.step(policy) {}
        let report = self.report();
        policy.episode_end(&report);
        report
    }

    /// Process the next live timestamp batch: advance the clock to the
    /// next live event, apply every live event sharing its timestamp,
    /// then run one scheduling instance. Returns `false` once the event
    /// set is drained ([`Simulator::run`] is `while self.step(..) {}`
    /// plus the report).
    ///
    /// Between `step` calls the simulator sits at an *event boundary* —
    /// the states [`Simulator::snapshot`] may checkpoint and
    /// [`Simulator::restore`] continues from bit-identically. Periodic
    /// snapshotting (`ShardedSim`) and the crash drills drive this
    /// directly instead of `run`.
    pub fn step(&mut self, policy: &mut dyn Policy) -> bool {
        self.step_with(policy, Self::backfill_pass)
    }

    /// [`Simulator::step`] with the backfill pass as a parameter, so the
    /// tests can drive the same engine through the reference pass.
    fn step_with(&mut self, policy: &mut dyn Policy, backfill: fn(&mut Self, JobId)) -> bool {
        while let Some(event) = self.events.pop() {
            // Tombstoned events (see `handlers::is_live`) are dropped
            // without advancing the clock or triggering scheduling.
            if !handlers::is_live(self, &event.kind) {
                continue;
            }
            // Advance the utilization integral to the event time *before*
            // applying occupancy or capacity changes.
            self.collector.advance(&self.pools, event.time);
            self.now = event.time;
            handlers::dispatch(self, &event.kind);
            while self.events.peek_time() == Some(self.now) {
                let e = self.events.pop().expect("peeked");
                if handlers::is_live(self, &e.kind) {
                    handlers::dispatch(self, &e.kind);
                }
            }
            debug_assert!(self.pools.check_conservation());
            self.schedule(policy, backfill);
            return true;
        }
        false
    }

    /// Assemble the end-of-run report for the state so far — what `run`
    /// returns after the last step. Public so a restored-and-finished
    /// stepped run can produce the same report `run` would have.
    pub fn final_report(&self) -> SimReport {
        self.report()
    }

    /// Terminal-state bookkeeping shared by the finish/cancel/kill
    /// handlers of a *started* job: update its provisional record in
    /// place and count it.
    pub(crate) fn settle(&mut self, id: JobId, state: JobState, outcome: JobOutcome) {
        self.states[id] = state;
        self.finished += 1;
        // Cancel the job's pending natural-end event by handle: when the
        // settle was *triggered by* that event the handle is stale and
        // the cancel is a detected no-op; when something else ended the
        // job first (a cancel, an injected finish) the event is removed
        // outright instead of lingering as a tombstone.
        if let Some(handle) = self.end_event[id].take() {
            self.events.cancel(handle);
        }
        let now = self.now;
        let rec = self
            .records
            .iter_mut()
            .rev()
            .find(|r| r.id == id)
            .expect("settle: started jobs always have a provisional record");
        rec.end = now;
        rec.outcome = outcome;
        self.release_successors(id);
    }

    /// Terminal bookkeeping for a job that never started (cancelled while
    /// waiting in the queue or while dependency-held): record the pure
    /// queue wait and release its successors.
    pub(crate) fn cancel_nonstarted(&mut self, id: JobId) {
        self.states[id] = JobState::Cancelled;
        self.finished += 1;
        let now = self.now;
        self.records.push(JobRecord {
            id,
            submit: self.slab.submit(id),
            start: now,
            end: now,
            backfilled: false,
            outcome: JobOutcome::Cancelled,
        });
        self.release_successors(id);
    }

    fn start_job(&mut self, id: JobId, backfilled: bool) {
        debug_assert_eq!(self.pending_preds[id], 0, "held job {id} must not start");
        let (runtime, estimate) = (self.slab.runtime(id), self.slab.estimate(id));
        self.pools.allocate_parts(id, self.slab.demands(id), self.now, estimate, runtime);
        self.states[id] = JobState::Running;
        let was_queued = self.queue.remove(id, self.slab.demands(id));
        debug_assert!(was_queued, "started job {id} was not queued");
        // The job's natural end: a walltime kill at the estimate for
        // enforced overrunners, a finish at the runtime otherwise.
        let (end_kind, end_after) = if self.params.enforce_walltime && runtime > estimate {
            (EventKind::WalltimeKill(id), estimate)
        } else {
            (EventKind::Finish(id), runtime)
        };
        let handle = match self.replay_cancels[id] {
            // Wait-aware cancel replay: the start time is now known, so
            // the deferred cancel becomes a concrete event. A recorded
            // lifetime at or before the natural end *is* the job's fate
            // (in an SWF replay the two coincide exactly — the runtime
            // column records the observed lifetime), so the cancel
            // replaces the natural-end event rather than racing it.
            Some(delay) if delay <= end_after => {
                self.events.push(self.now + delay, EventKind::Cancel(id))
            }
            _ => self.events.push(self.now + end_after, end_kind),
        };
        self.end_event[id] = Some(handle);
        self.records.push(JobRecord {
            id,
            submit: self.slab.submit(id),
            start: self.now,
            end: self.now + runtime, // provisional; confirmed at settle
            backfilled,
            outcome: JobOutcome::Finished, // provisional
        });
        debug_assert!(self.pools.check_conservation());
    }

    /// One scheduling instance: selection loop, then reservation +
    /// backfilling.
    fn schedule(&mut self, policy: &mut dyn Policy, backfill: fn(&mut Self, JobId)) {
        if self.queue.is_empty() {
            return;
        }
        self.instances += 1;
        let mut reserved: Option<JobId> = None;
        loop {
            if self.queue.is_empty() {
                break;
            }
            let selection = {
                let view = self.view();
                policy.select(&view)
            };
            self.decisions += 1;
            let window = self.queue.window(self.params.window);
            let idx = match selection {
                Some(i) if i < window.len() => i,
                _ => break,
            };
            let jid = window[idx];
            let fits = self.pools.fits(self.slab.demands(jid));
            if fits {
                self.start_job(jid, false);
                let fb = StepFeedback {
                    decision: self.decisions - 1,
                    action: idx,
                    job: jid,
                    started: true,
                    measurement: self.pools.measurement(),
                    now: self.now,
                };
                policy.feedback(&fb);
            } else {
                let fb = StepFeedback {
                    decision: self.decisions - 1,
                    action: idx,
                    job: jid,
                    started: false,
                    measurement: self.pools.measurement(),
                    now: self.now,
                };
                policy.feedback(&fb);
                reserved = Some(jid);
                break;
            }
        }
        if self.params.backfill {
            if let Some(res_id) = reserved {
                backfill(self, res_id);
            }
        }
    }

    /// EASY backfilling behind the reservation for `res_id`: start, in
    /// queue order, every waiting job that cannot delay it. One forward
    /// sweep — see the [`crate::backfill`] module docs for why resuming
    /// behind each started job equals rescanning from the head.
    ///
    /// When capacity is drained below the reserved job's demand no shadow
    /// time exists ([`compute_reservation`] returns `None`). The
    /// reservation then waits for a capacity-return event; if one is
    /// already scheduled, its time acts as a conservative shadow
    /// (candidates must be estimated to finish before it, so the return
    /// finds the machine as free as it is now). Under a *permanent*
    /// shrink no future could unblock the reserved job, so any fitting
    /// candidate may start — stalling the whole queue behind an
    /// infeasible job would be worse.
    fn backfill_pass(&mut self, res_id: JobId) {
        let gate = self.earliest_capacity_return();
        let mut from = 0;
        // A pool with fewer free units than the trace's smallest demand
        // on it can start nothing: leave without planning or sweeping.
        while self.pools.fits(self.slab.min_demands()) {
            let plan =
                compute_reservation(&self.pools, self.slab.demands(res_id), self.now);
            let found = self
                .queue
                .first_match(from, &self.pools.free, |j| self.may_backfill(j, plan.as_ref(), gate));
            let Some((seq, job)) = found else { break };
            self.start_job(job, true);
            from = seq + 1;
        }
    }

    /// The admission test of one backfill candidate: the EASY rule under
    /// a plan, else "ends before the scheduled capacity return", else
    /// (permanent shrink) "fits". Every branch implies `pools.fits` —
    /// which [`WaitQueue::first_match`] relies on, and which keeps the
    /// reserved job itself (it does not fit) from passing.
    fn may_backfill(
        &self,
        job: JobId,
        plan: Option<&ReservationPlan>,
        capacity_return: Option<SimTime>,
    ) -> bool {
        let (demands, estimate) = (self.slab.demands(job), self.slab.estimate(job));
        match (plan, capacity_return) {
            (Some(plan), _) => can_backfill(plan, &self.pools, demands, estimate, self.now),
            (None, Some(t_return)) => {
                self.pools.fits(demands) && self.now + estimate <= t_return
            }
            (None, None) => self.pools.fits(demands),
        }
    }

    /// The pre-index pass, kept as the oracle the tests compare against:
    /// after every start, recompute the plan with the O(running²) planner
    /// and rescan the whole queue from its head.
    #[cfg(test)]
    fn backfill_pass_reference(&mut self, res_id: JobId) {
        loop {
            let plan = crate::backfill::compute_reservation_reference(
                &self.pools,
                self.slab.demands(res_id),
                self.now,
            );
            let gate = match &plan {
                Some(_) => None,
                None => self.earliest_capacity_return(),
            };
            let candidate = self
                .queue
                .all()
                .iter()
                .copied()
                .filter(|&j| j != res_id)
                .find(|&j| match (&plan, gate) {
                    (Some(p), _) => can_backfill(
                        p,
                        &self.pools,
                        self.slab.demands(j),
                        self.slab.estimate(j),
                        self.now,
                    ),
                    (None, Some(t_return)) => {
                        self.pools.fits(self.slab.demands(j))
                            && self.now + self.slab.estimate(j) <= t_return
                    }
                    (None, None) => self.pools.fits(self.slab.demands(j)),
                });
            match candidate {
                Some(j) => self.start_job(j, true),
                None => break,
            }
        }
    }

    /// Earliest pending capacity-*increase* event, if any — the time a
    /// drained machine is next expected to grow. O(1): injected returns
    /// are indexed in `cap_returns` and consumed in fire order.
    fn earliest_capacity_return(&self) -> Option<SimTime> {
        self.cap_returns.get(self.cap_cursor).copied()
    }

    /// The reservation plan the current instance would compute for a job
    /// (diagnostics; `None` while capacity is drained below its demand).
    pub fn reservation_for(&self, id: JobId) -> Option<ReservationPlan> {
        compute_reservation(&self.pools, self.slab.demands(id), self.now)
    }

    fn view(&self) -> SchedulerView<'_> {
        let window = self
            .queue
            .window(self.params.window)
            .iter()
            .map(|&id| JobView {
                job: &self.jobs[id],
                queued: self.now.saturating_sub(self.jobs[id].submit),
            })
            .collect();
        SchedulerView {
            now: self.now,
            instance: self.instances,
            decision: self.decisions,
            window,
            pools: &self.pools,
            config: &self.config,
            queued: self.queue.all(),
            jobs: &self.jobs,
        }
    }

    fn report(&self) -> SimReport {
        SimReport::assemble(
            self.config.resources.iter().map(|r| r.name.clone()).collect(),
            self.records
                .iter()
                .filter(|r| self.states[r.id].is_terminal())
                .copied()
                .collect(),
            &self.collector,
            &self.config.capacities(),
            self.now,
            self.decisions,
            self.instances,
            self.counts.clone(),
            self.jobs.len() - self.finished,
            self.params.power,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::HeadOfQueue;

    fn sys(nodes: u64, bb: u64) -> SystemConfig {
        SystemConfig::two_resource(nodes, bb)
    }

    fn run_fcfs(config: SystemConfig, jobs: Vec<Job>) -> SimReport {
        let mut sim = Simulator::new(config, jobs, SimParams::default()).unwrap();
        sim.run(&mut HeadOfQueue)
    }

    #[test]
    fn single_job_executes_exactly() {
        let report = run_fcfs(sys(4, 4), vec![Job::new(0, 10, 100, 120, vec![2, 1])]);
        assert_eq!(report.jobs_completed, 1);
        let rec = &report.records[0];
        assert_eq!(rec.start, 10);
        assert_eq!(rec.end, 110, "runs for actual runtime, not estimate");
        assert_eq!(report.makespan, 100);
        assert_eq!(rec.outcome, JobOutcome::Finished);
        assert!(report.all_jobs_accounted(1));
    }

    #[test]
    fn serial_execution_when_jobs_conflict() {
        // Both jobs need all nodes: second starts when first finishes.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![4, 0]),
            Job::new(1, 0, 50, 50, vec![4, 0]),
        ];
        let report = run_fcfs(sys(4, 4), jobs);
        assert_eq!(report.records[0].start, 0);
        assert_eq!(report.records[1].start, 100);
        assert_eq!(report.end_time, 150);
    }

    #[test]
    fn parallel_execution_when_resources_allow() {
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 0, 100, 100, vec![2, 0]),
        ];
        let report = run_fcfs(sys(4, 4), jobs);
        assert_eq!(report.records[0].start, 0);
        assert_eq!(report.records[1].start, 0);
        assert_eq!(report.makespan, 100);
    }

    #[test]
    fn burst_buffer_contention_serializes() {
        // Plenty of nodes, but both jobs want the whole burst buffer.
        let jobs = vec![
            Job::new(0, 0, 60, 60, vec![1, 4]),
            Job::new(1, 0, 60, 60, vec![1, 4]),
        ];
        let report = run_fcfs(sys(16, 4), jobs);
        assert_eq!(report.records[1].start, 60, "BB is the bottleneck");
    }

    #[test]
    fn easy_backfill_lets_short_job_skip() {
        // t=0: J0 takes all 4 nodes for 100 s.
        // J1 (4 nodes) must wait -> reserved at shadow=100.
        // J2 (1 node, 50 s) fits now and ends before the shadow: backfills.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![4, 0]),
            Job::new(1, 1, 100, 100, vec![4, 0]),
            Job::new(2, 2, 50, 50, vec![1, 0]),
        ];
        // 5 nodes: J0 leaves 1 free.
        let report = run_fcfs(sys(5, 4), jobs);
        let rec2 = report.records.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(rec2.start, 2, "short job backfills immediately on arrival");
        assert!(rec2.backfilled);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 100, "reservation honored, not delayed");
        assert_eq!(report.backfilled_jobs, 1);
    }

    #[test]
    fn backfill_never_delays_reservation() {
        // J2 would delay J1 if allowed to backfill (runs 500 s on the one
        // free node while J1 needs all 5 at t=100).
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![4, 0]),
            Job::new(1, 1, 100, 100, vec![5, 0]),
            Job::new(2, 2, 500, 500, vec![1, 0]),
        ];
        let report = run_fcfs(sys(5, 4), jobs);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 100, "reservation must not be delayed");
        let rec2 = report.records.iter().find(|r| r.id == 2).unwrap();
        assert!(rec2.start >= 100, "long job waits behind the reservation");
    }

    #[test]
    fn backfill_disabled_blocks_short_jobs() {
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![4, 0]),
            Job::new(1, 1, 100, 100, vec![4, 0]),
            Job::new(2, 2, 50, 50, vec![1, 0]),
        ];
        let mut sim = Simulator::new(sys(5, 4), jobs, SimParams::new(10, false)).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec2 = report.records.iter().find(|r| r.id == 2).unwrap();
        assert!(rec2.start >= 100, "without backfill the short job waits");
        assert_eq!(report.backfilled_jobs, 0);
    }

    #[test]
    fn all_jobs_complete_and_ids_preserved() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::new(i, (i as SimTime) * 10, 30 + i as SimTime, 60, vec![1 + (i as u64 % 3), i as u64 % 2]))
            .collect();
        let report = run_fcfs(sys(6, 6), jobs);
        assert_eq!(report.jobs_completed, 20);
        for (i, rec) in report.records.iter().enumerate() {
            assert_eq!(rec.id, i);
            assert!(rec.start >= rec.submit);
            assert!(rec.end > rec.start);
        }
    }

    #[test]
    fn utilization_exact_for_simple_case() {
        // One job occupying half the nodes for the whole makespan.
        let report = run_fcfs(sys(4, 4), vec![Job::new(0, 0, 100, 100, vec![2, 0])]);
        assert!((report.resource_utilization[0] - 0.5).abs() < 1e-9);
        assert_eq!(report.resource_utilization[1], 0.0);
    }

    #[test]
    fn rejects_infeasible_job() {
        let err = Simulator::new(
            sys(4, 4),
            vec![Job::new(0, 0, 10, 10, vec![5, 0])],
            SimParams::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidJob(_)));
    }

    #[test]
    fn rejects_non_dense_ids() {
        let err = Simulator::new(
            sys(4, 4),
            vec![Job::new(3, 0, 10, 10, vec![1, 0])],
            SimParams::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::NonDenseIds(3));
    }

    #[test]
    fn rejects_invalid_injected_events() {
        let mut sim = Simulator::new(
            sys(4, 4),
            vec![Job::new(0, 0, 10, 10, vec![1, 0])],
            SimParams::default(),
        )
        .unwrap();
        assert!(matches!(
            sim.inject(InjectedEvent::new(5, EventKind::Cancel(7))),
            Err(SimError::InvalidEvent(_))
        ));
        assert!(matches!(
            sim.inject(InjectedEvent::new(5, EventKind::CapacityChange { resource: 9, delta: -1 })),
            Err(SimError::InvalidEvent(_))
        ));
        sim.inject(InjectedEvent::new(5, EventKind::Cancel(0))).unwrap();
    }

    #[test]
    fn window_limits_policy_choice() {
        // Policy that always selects the LAST window entry; with window=1
        // it behaves exactly like FCFS.
        struct LastInWindow;
        impl Policy for LastInWindow {
            fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
                if view.window.is_empty() {
                    None
                } else {
                    Some(view.window.len() - 1)
                }
            }
        }
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 0, 100, 100, vec![2, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs.clone(), SimParams::new(1, true)).unwrap();
        let report = sim.run(&mut LastInWindow);
        assert_eq!(report.records[0].start, 0, "window=1 forces FCFS order");
        assert_eq!(report.records[1].start, 100);
    }

    #[test]
    fn policy_receives_feedback_for_each_decision() {
        #[derive(Default)]
        struct Counting {
            feedbacks: usize,
            starts: usize,
            reserves: usize,
            episode_ends: usize,
        }
        impl Policy for Counting {
            fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
                (!view.window.is_empty()).then_some(0)
            }
            fn feedback(&mut self, fb: &StepFeedback) {
                self.feedbacks += 1;
                if fb.started {
                    self.starts += 1;
                } else {
                    self.reserves += 1;
                }
            }
            fn episode_end(&mut self, _r: &SimReport) {
                self.episode_ends += 1;
            }
        }
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 0, 100, 100, vec![2, 0]), // forces a reservation
        ];
        let mut p = Counting::default();
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.run(&mut p);
        assert_eq!(p.starts, 2);
        assert!(p.reserves >= 1, "the conflicting job must be reserved");
        assert_eq!(p.episode_ends, 1);
        assert_eq!(p.feedbacks, p.starts + p.reserves);
    }

    #[test]
    fn simultaneous_finish_and_submit_processed_in_order() {
        // J1 arrives exactly when J0 finishes: must start immediately.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 100, 10, 10, vec![2, 0]),
        ];
        let report = run_fcfs(sys(2, 2), jobs);
        assert_eq!(report.records[1].start, 100);
    }

    #[test]
    fn overstayed_estimate_handled() {
        // Job 0's estimate is shorter than runtime (user under-estimate;
        // Job::new clamps estimate >= runtime, so craft via raw struct).
        let j0 = Job { id: 0, submit: 0, runtime: 100, estimate: 50, demands: vec![2, 0] };
        let j1 = Job::new(1, 10, 10, 10, vec![2, 0]);
        let report = run_fcfs(sys(2, 2), vec![j0, j1]);
        // J1 reserved with shadow=50 (estimate), but J0 actually runs to 100.
        // At t=100 the finish event retriggers scheduling; J1 starts then.
        assert_eq!(report.records[1].start, 100);
        assert_eq!(report.jobs_completed, 2);
    }

    #[test]
    fn walltime_enforcement_kills_overrunners() {
        // Same trace as `overstayed_estimate_handled`, but with the
        // enforcer on: J0 dies at its estimate (t=50) and J1 starts then.
        let j0 = Job { id: 0, submit: 0, runtime: 100, estimate: 50, demands: vec![2, 0] };
        let j1 = Job::new(1, 10, 10, 10, vec![2, 0]);
        let mut sim = Simulator::new(
            sys(2, 2),
            vec![j0, j1],
            SimParams { enforce_walltime: true, ..SimParams::default() },
        )
        .unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec0 = report.records.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(rec0.outcome, JobOutcome::Killed);
        assert_eq!(rec0.end, 50, "killed exactly at start + estimate");
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 50, "killed job's resources free immediately");
        assert_eq!(report.jobs_killed, 1);
        assert_eq!(report.jobs_completed, 1);
        assert!(report.all_jobs_accounted(2));
    }

    #[test]
    fn cancel_dequeues_waiting_job() {
        // J1 can never start while J0 runs; cancelling it at t=30 frees
        // the queue and the run ends at J0's finish.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 10, 50, 50, vec![2, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.inject(InjectedEvent::new(30, EventKind::Cancel(1))).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.outcome, JobOutcome::Cancelled);
        assert_eq!(rec1.start, 30, "queued cancel records the cancel time");
        assert_eq!(rec1.end, 30);
        assert_eq!(report.end_time, 100);
        assert_eq!(report.jobs_cancelled, 1);
        assert!(report.all_jobs_accounted(2));
    }

    #[test]
    fn cancel_releases_running_job() {
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 10, 50, 50, vec![2, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.inject(InjectedEvent::new(40, EventKind::Cancel(0))).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec0 = report.records.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(rec0.outcome, JobOutcome::Cancelled);
        assert_eq!(rec0.end, 40);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 40, "freed resources start the next job at once");
        assert_eq!(rec1.outcome, JobOutcome::Finished);
        assert!(report.all_jobs_accounted(2));
    }

    #[test]
    fn cancel_after_finish_is_noop() {
        let jobs = vec![Job::new(0, 0, 10, 10, vec![1, 0])];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.inject(InjectedEvent::new(50, EventKind::Cancel(0))).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_cancelled, 0);
        assert_eq!(report.records[0].outcome, JobOutcome::Finished);
    }

    #[test]
    fn capacity_drain_and_return_roundtrip() {
        // One job holds 2 of 4 nodes. Drain 2 at t=10 (both free), return
        // them at t=50. The second job (4 nodes) can only start after the
        // return AND the first job's finish.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 5, 10, 10, vec![4, 0]),
        ];
        let mut sim = Simulator::new(sys(4, 4), jobs, SimParams::default()).unwrap();
        sim.inject_all(&[
            InjectedEvent::new(10, EventKind::CapacityChange { resource: 0, delta: -2 }),
            InjectedEvent::new(50, EventKind::CapacityChange { resource: 0, delta: 2 }),
        ])
        .unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 100, "starts when J0 frees the last 2 nodes");
        assert!(report.all_jobs_accounted(2));
        // 2 units offline for 40 s.
        assert!((report.capacity_lost_unit_seconds[0] - 80.0).abs() < 1e-9);
        assert_eq!(
            report.event_counts.count(EventKind::CapacityChange { resource: 0, delta: 0 }),
            2
        );
    }

    #[test]
    fn drain_never_interrupts_running_jobs() {
        // Drain the whole machine while a job runs: the job completes,
        // capacity hits zero only as it releases, and returns revive it.
        let jobs = vec![
            Job::new(0, 0, 50, 50, vec![4, 0]),
            Job::new(1, 10, 10, 10, vec![1, 0]),
        ];
        let mut sim = Simulator::new(sys(4, 4), jobs, SimParams::default()).unwrap();
        sim.inject_all(&[
            InjectedEvent::new(20, EventKind::CapacityChange { resource: 0, delta: -4 }),
            InjectedEvent::new(80, EventKind::CapacityChange { resource: 0, delta: 4 }),
        ])
        .unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec0 = report.records.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(rec0.outcome, JobOutcome::Finished);
        assert_eq!(rec0.end, 50, "drain waited for the release");
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 80, "queued job waits out the total drain");
        assert!(report.all_jobs_accounted(2));
    }

    #[test]
    fn tick_triggers_scheduling_and_terminates() {
        let jobs = vec![Job::new(0, 0, 100, 100, vec![1, 0])];
        let mut sim = Simulator::new(
            sys(2, 2),
            jobs,
            SimParams { tick: Some(10), ..SimParams::default() },
        )
        .unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.jobs_completed, 1);
        let ticks = report.event_counts.count(EventKind::Tick);
        assert!(ticks >= 9, "ticks cover the 100 s run: {ticks}");
        assert!(ticks <= 12, "ticking stops once the system drains: {ticks}");
    }

    #[test]
    fn unplanned_backfill_cannot_outlive_a_scheduled_capacity_return() {
        // Drain leaves the reserved job (28 nodes) unplannable; the
        // return at t=200 would let it start. A long candidate that fits
        // now must NOT backfill past the return; a short one may.
        let jobs = vec![
            Job::new(0, 150, 1000, 1000, vec![28, 0]), // reserved, unplannable
            Job::new(1, 151, 500_000, 500_000, vec![20, 0]), // would starve J0
            Job::new(2, 152, 30, 30, vec![20, 0]),     // finishes before the return
        ];
        let mut sim = Simulator::new(sys(32, 8), jobs, SimParams::default()).unwrap();
        sim.inject_all(&[
            InjectedEvent::new(100, EventKind::CapacityChange { resource: 0, delta: -5 }),
            InjectedEvent::new(200, EventKind::CapacityChange { resource: 0, delta: 5 }),
        ])
        .unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec0 = report.records.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(rec0.start, 200, "reserved job starts at the capacity return");
        let rec2 = report.records.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(rec2.start, 152, "short candidate backfills during the drain");
        assert!(rec2.backfilled);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert!(rec1.start >= 200, "long candidate must wait out the drain window");
        assert!(report.all_jobs_accounted(3));
    }

    #[test]
    fn injected_extra_tick_chain_still_terminates() {
        // Regression: two tick chains (the params one + an injected one)
        // must not count each other as pending work and re-arm forever.
        let jobs = vec![Job::new(0, 0, 100, 100, vec![1, 0])];
        let mut sim = Simulator::new(
            sys(2, 2),
            jobs,
            SimParams { tick: Some(10), ..SimParams::default() },
        )
        .unwrap();
        sim.inject(InjectedEvent::new(5, EventKind::Tick)).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.jobs_completed, 1);
        let ticks = report.event_counts.count(EventKind::Tick);
        assert!(ticks <= 25, "both chains stop at drain time: {ticks}");
    }

    #[test]
    fn ticks_anchor_to_the_first_submit() {
        // A trace starting late must not have its start_time (and thus
        // makespan and utilization) dragged earlier by the tick chain.
        let jobs = vec![Job::new(0, 80_000, 100, 100, vec![1, 0])];
        let mut sim = Simulator::new(
            sys(2, 2),
            jobs,
            SimParams { tick: Some(600), ..SimParams::default() },
        )
        .unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.start_time, 80_000, "no pre-trace ticks");
        assert_eq!(report.makespan, 100);
        assert!(report.event_counts.count(EventKind::Tick) <= 2);
    }

    #[test]
    fn cancel_at_submit_instant_cancels_the_job() {
        // Submit and cancel at the same timestamp: the submit enqueues
        // first (rank order), then the cancel removes the job.
        let jobs = vec![
            Job::new(0, 50, 100, 100, vec![2, 0]),
            Job::new(1, 50, 10, 10, vec![1, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.inject(InjectedEvent::new(50, EventKind::Cancel(0))).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.jobs_cancelled, 1);
        let rec0 = report.records.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(rec0.outcome, JobOutcome::Cancelled);
        assert_eq!((rec0.start, rec0.end), (50, 50));
        assert!(report.all_jobs_accounted(2));
    }

    #[test]
    fn three_resource_power_budget_enforced() {
        // 3 jobs, each drawing 4 kW of a 10 kW budget: only two co-run
        // even though nodes and BB are plentiful.
        let config = SystemConfig::three_resource(100, 100, 10);
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![10, 5, 4]),
            Job::new(1, 0, 100, 100, vec![10, 5, 4]),
            Job::new(2, 0, 100, 100, vec![10, 5, 4]),
        ];
        let mut sim = Simulator::new(config, jobs, SimParams::default()).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let starts: Vec<SimTime> =
            report.records.iter().map(|r| r.start).collect();
        assert_eq!(starts[0], 0);
        assert_eq!(starts[1], 0);
        assert_eq!(starts[2], 100, "third job must wait for the power budget");
        // Power utilization: 8/10 for first 100 s, 4/10 for next 100 s.
        assert!((report.resource_utilization[2] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn backfill_respects_power_dimension() {
        // Reservation on power: the backfill candidate fits nodes/BB but
        // would consume power needed by the reserved job.
        let config = SystemConfig::three_resource(100, 100, 10);
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![10, 0, 8]), // running, 8 kW
            Job::new(1, 1, 50, 50, vec![10, 0, 6]),   // reserved (needs 6)
            Job::new(2, 2, 500, 500, vec![1, 0, 2]),  // long candidate, 2 kW
        ];
        let mut sim = Simulator::new(config, jobs, SimParams::default()).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 100, "reservation honored on the power axis");
        let rec2 = report.records.iter().find(|r| r.id == 2).unwrap();
        // extra_power = projected_free(100)=10 minus reserved 6 = 4 >= 2:
        // the long candidate may backfill without delaying the reservation.
        assert_eq!(rec2.start, 2);
        assert!(rec2.backfilled);
    }

    #[test]
    fn power_cap_ramp_throttles_admission() {
        // A power-cap drain on the third resource: with the budget halved
        // the second 4 kW job has to wait for the ramp back up.
        let config = SystemConfig::three_resource(100, 100, 10);
        let jobs = vec![
            Job::new(0, 0, 200, 200, vec![10, 0, 4]),
            Job::new(1, 20, 100, 100, vec![10, 0, 4]),
        ];
        let mut sim = Simulator::new(config, jobs, SimParams::default()).unwrap();
        sim.inject_all(&[
            InjectedEvent::new(10, EventKind::CapacityChange { resource: 2, delta: -5 }),
            InjectedEvent::new(90, EventKind::CapacityChange { resource: 2, delta: 5 }),
        ])
        .unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 90, "admission waits for the power budget to return");
        assert!(report.all_jobs_accounted(2));
    }

    #[test]
    fn reset_reproduces_identical_run() {
        let jobs: Vec<Job> = (0..12)
            .map(|i| Job::new(i, (i as SimTime) * 20, 40 + i as SimTime, 90, vec![1 + (i as u64 % 3), 0]))
            .collect();
        let mut sim = Simulator::new(sys(4, 4), jobs, SimParams::default()).unwrap();
        let first = sim.run(&mut HeadOfQueue);
        sim.reset();
        let second = sim.run(&mut HeadOfQueue);
        assert_eq!(first, second, "a reset simulator replays bit-identically");
    }

    #[test]
    fn reset_clears_injected_events_and_relative_cancels() {
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 10, 50, 50, vec![2, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.inject(InjectedEvent::new(30, EventKind::Cancel(1))).unwrap();
        sim.schedule_cancel_after_start(0, 40).unwrap();
        let disrupted = sim.run(&mut HeadOfQueue);
        assert_eq!(disrupted.jobs_cancelled, 2);
        sim.reset();
        let clean = sim.run(&mut HeadOfQueue);
        assert_eq!(clean.jobs_cancelled, 0, "reset drops disruption state");
        assert_eq!(clean.jobs_completed, 2);
    }

    #[test]
    fn load_trace_swaps_jobs_and_validates() {
        let mut sim = Simulator::new(
            sys(4, 4),
            vec![Job::new(0, 0, 10, 10, vec![1, 0])],
            SimParams::default(),
        )
        .unwrap();
        assert_eq!(sim.run(&mut HeadOfQueue).jobs_completed, 1);
        // Infeasible replacement is rejected and the old trace survives.
        assert!(matches!(
            sim.load_trace(vec![Job::new(0, 0, 10, 10, vec![9, 0])]),
            Err(SimError::InvalidJob(_))
        ));
        let replacement = vec![
            Job::new(0, 0, 30, 30, vec![2, 0]),
            Job::new(1, 5, 30, 30, vec![2, 1]),
        ];
        sim.load_trace(replacement.clone()).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.jobs_completed, 2);
        // Equivalent to building fresh.
        let mut fresh = Simulator::new(sys(4, 4), replacement, SimParams::default()).unwrap();
        assert_eq!(report, fresh.run(&mut HeadOfQueue));
    }

    #[test]
    fn relative_cancel_fires_at_simulated_start_plus_delay() {
        // J1 waits behind J0 (starts at t=100, not its submit t=10); the
        // recorded 30 s lifetime must count from the *simulated* start.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 10, 50, 50, vec![2, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.schedule_cancel_after_start(1, 30).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.outcome, JobOutcome::Cancelled);
        assert_eq!(rec1.start, 100);
        assert_eq!(rec1.end, 130, "cancel at simulated start + recorded lifetime");
        assert!(report.all_jobs_accounted(2));
    }

    #[test]
    fn relative_cancel_after_natural_finish_is_noop() {
        // Recorded lifetime (50) exceeds the simulated runtime (10): the
        // job finishes first and the late cancel tombstones away.
        let jobs = vec![Job::new(0, 0, 10, 10, vec![1, 0])];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.schedule_cancel_after_start(0, 50).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_cancelled, 0);
        assert_eq!(report.records[0].outcome, JobOutcome::Finished);
    }

    #[test]
    fn relative_cancel_for_never_started_job_reports_unfinished() {
        // J1 demands all four nodes but a permanent drain removes two
        // before it could ever start: it waits past the horizon, so its
        // deferred cancel never becomes a concrete event.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![1, 0]),
            Job::new(1, 10, 50, 50, vec![4, 0]),
        ];
        let mut sim = Simulator::new(sys(4, 4), jobs, SimParams::default()).unwrap();
        sim.inject(InjectedEvent::new(5, EventKind::CapacityChange { resource: 0, delta: -2 }))
            .unwrap();
        sim.schedule_cancel_after_start(1, 20).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_cancelled, 0, "deferred cancel never armed");
        assert_eq!(report.jobs_unfinished, 1, "never-started job stays waiting");
    }

    #[test]
    fn relative_cancel_rejects_unknown_job() {
        let mut sim = Simulator::new(
            sys(2, 2),
            vec![Job::new(0, 0, 10, 10, vec![1, 0])],
            SimParams::default(),
        )
        .unwrap();
        assert!(matches!(
            sim.schedule_cancel_after_start(3, 10),
            Err(SimError::InvalidEvent(_))
        ));
    }

    #[test]
    fn decisions_and_instances_counted() {
        let jobs = vec![Job::new(0, 0, 10, 10, vec![1, 0])];
        let report = run_fcfs(sys(2, 2), jobs);
        assert!(report.decisions >= 1);
        assert!(report.instances >= 1);
        assert_eq!(report.event_counts.count(EventKind::Submit(0)), 1);
        assert_eq!(report.event_counts.count(EventKind::Finish(0)), 1);
    }

    #[test]
    fn dag_chain_forces_serial_order_despite_free_resources() {
        // All three fit simultaneously, but the chain 0 -> 1 -> 2 gates
        // each start on its predecessor's completion.
        let jobs = vec![
            Job::new(0, 0, 10, 10, vec![1, 0]),
            Job::new(1, 0, 20, 20, vec![1, 0]),
            Job::new(2, 0, 30, 30, vec![1, 0]),
        ];
        let mut sim = Simulator::new(sys(4, 4), jobs, SimParams::default()).unwrap();
        sim.set_dependencies(vec![vec![], vec![0], vec![1]]).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.records[0].start, 0);
        assert_eq!(report.records[1].start, 10, "released by pred finish");
        assert_eq!(report.records[2].start, 30);
        assert_eq!(report.end_time, 60);
        assert!(report.all_jobs_accounted(3));
    }

    #[test]
    fn dag_fanout_runs_parallel_and_join_waits_for_all() {
        // 0 -> {1, 2} -> 3: the fan-out pair runs concurrently once the
        // root finishes, and the join waits for the *last* predecessor.
        let jobs = vec![
            Job::new(0, 0, 10, 10, vec![4, 0]),
            Job::new(1, 0, 20, 20, vec![2, 0]),
            Job::new(2, 0, 20, 20, vec![2, 0]),
            Job::new(3, 0, 5, 5, vec![4, 0]),
        ];
        let mut sim = Simulator::new(sys(4, 4), jobs, SimParams::default()).unwrap();
        sim.set_dependencies(vec![vec![], vec![0], vec![0], vec![1, 2]]).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.records[1].start, 10);
        assert_eq!(report.records[2].start, 10, "siblings start together");
        assert_eq!(report.records[3].start, 30, "join gated on slowest pred");
        assert_eq!(report.end_time, 35);
    }

    #[test]
    fn dag_no_task_starts_before_predecessors_terminal() {
        // Conservation check over a wider graph: every record's start is
        // >= every predecessor's end.
        let jobs: Vec<Job> = (0..8)
            .map(|i| Job::new(i, 0, 7 + (i as u64) * 3, 40, vec![1 + (i as u64) % 2, 0]))
            .collect();
        let deps = vec![
            vec![],
            vec![0],
            vec![0],
            vec![1],
            vec![1, 2],
            vec![2],
            vec![3, 4],
            vec![4, 5],
        ];
        let mut sim = Simulator::new(sys(4, 4), jobs, SimParams::default()).unwrap();
        sim.set_dependencies(deps.clone()).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert!(report.all_jobs_accounted(8));
        let end_of = |id: usize| report.records.iter().find(|r| r.id == id).unwrap().end;
        for rec in &report.records {
            for &p in &deps[rec.id] {
                assert!(
                    rec.start >= end_of(p),
                    "job {} started at {} before pred {} ended at {}",
                    rec.id,
                    rec.start,
                    p,
                    end_of(p)
                );
            }
        }
    }

    #[test]
    fn dag_cancelled_predecessor_releases_successor() {
        // Any terminal predecessor state releases: a cancelled stage must
        // not deadlock its downstream tasks.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 0, 10, 10, vec![2, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.set_dependencies(vec![vec![], vec![0]]).unwrap();
        sim.inject(InjectedEvent::new(30, EventKind::Cancel(0))).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.jobs_cancelled, 1);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 30, "released the instant the pred cancels");
        assert_eq!(rec1.outcome, JobOutcome::Finished);
    }

    #[test]
    fn dag_cancel_of_held_job_settles_it() {
        // Job 1 is dependency-held (arrived, never queued) when its
        // cancel lands: it must settle as cancelled, not linger forever.
        let jobs = vec![
            Job::new(0, 0, 100, 100, vec![2, 0]),
            Job::new(1, 0, 10, 10, vec![2, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.set_dependencies(vec![vec![], vec![0]]).unwrap();
        sim.inject(InjectedEvent::new(50, EventKind::Cancel(1))).unwrap();
        let report = sim.run(&mut HeadOfQueue);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.outcome, JobOutcome::Cancelled);
        assert_eq!(rec1.start, 50);
        assert_eq!(rec1.end, 50, "held job settles with zero runtime");
        assert!(report.all_jobs_accounted(2));
    }

    #[test]
    fn dag_rejects_malformed_graphs() {
        let mk = || {
            Simulator::new(
                sys(2, 2),
                vec![
                    Job::new(0, 0, 10, 10, vec![1, 0]),
                    Job::new(1, 0, 10, 10, vec![1, 0]),
                ],
                SimParams::default(),
            )
            .unwrap()
        };
        // Wrong length.
        assert!(matches!(mk().set_dependencies(vec![vec![]]), Err(SimError::InvalidJob(_))));
        // Out-of-range predecessor.
        assert!(matches!(
            mk().set_dependencies(vec![vec![], vec![7]]),
            Err(SimError::InvalidJob(_))
        ));
        // Self-loop.
        assert!(matches!(
            mk().set_dependencies(vec![vec![0], vec![]]),
            Err(SimError::InvalidJob(_))
        ));
        // Two-cycle.
        assert!(matches!(
            mk().set_dependencies(vec![vec![1], vec![0]]),
            Err(SimError::InvalidJob(_))
        ));
    }

    #[test]
    fn dag_survives_reset_bit_identically() {
        let jobs = vec![
            Job::new(0, 0, 10, 10, vec![2, 0]),
            Job::new(1, 0, 20, 20, vec![2, 0]),
            Job::new(2, 0, 5, 5, vec![2, 0]),
        ];
        let mut sim = Simulator::new(sys(2, 2), jobs, SimParams::default()).unwrap();
        sim.set_dependencies(vec![vec![], vec![0], vec![0, 1]]).unwrap();
        let first = sim.run(&mut HeadOfQueue);
        sim.reset();
        let second = sim.run(&mut HeadOfQueue);
        assert_eq!(first, second, "reset must re-arm dependency holds");
        assert_eq!(first.records[2].start, 30);
    }

    #[test]
    fn energy_split_matches_hand_computation() {
        // 2 of 4 nodes busy for 100 s: active = 215 W x 200 unit-s,
        // idle = 60 W x 200 unit-s. Only resource 0 carries energy.
        let params = SimParams { power: Some(PowerModel::new(60, 215)), ..SimParams::default() };
        let mut sim = Simulator::new(
            sys(4, 4),
            vec![Job::new(0, 0, 100, 100, vec![2, 1])],
            params,
        )
        .unwrap();
        let report = sim.run(&mut HeadOfQueue);
        assert_eq!(report.energy_active_joules, 215.0 * 200.0);
        assert_eq!(report.energy_idle_joules, 60.0 * 200.0);
        assert_eq!(report.energy_total_joules(), 215.0 * 200.0 + 60.0 * 200.0);
        assert!((report.energy_kwh() - report.energy_total_joules() / 3.6e6).abs() < 1e-12);
    }

    #[test]
    fn no_power_model_reports_zero_energy() {
        let report = run_fcfs(sys(4, 4), vec![Job::new(0, 0, 100, 100, vec![2, 1])]);
        assert_eq!(report.energy_active_joules, 0.0);
        assert_eq!(report.energy_idle_joules, 0.0);
        assert_eq!(report.energy_total_joules(), 0.0);
    }

    /// Old-vs-new backfill: the same engine driven through
    /// `backfill_pass` (one plan per start, one forward sweep over the
    /// size-class index) and through `backfill_pass_reference` (the
    /// literal pre-index loop) must start the same jobs at the same
    /// times.
    mod backfill_oracle {
        use super::*;
        use proptest::prelude::*;

        /// Picks a pseudo-random window slot per decision (an LCG, so
        /// two runs that see the same states make the same choices).
        struct RandomWindow(u64);

        impl Policy for RandomWindow {
            fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (!view.window.is_empty()).then(|| (self.0 >> 33) as usize % view.window.len())
            }
        }

        const CAPACITIES: [u64; 3] = [16, 8, 12];
        /// Demand vectors many jobs share (zero demands included).
        const PALETTE: [[u64; 3]; 4] = [[4, 2, 3], [1, 0, 1], [8, 4, 0], [2, 1, 12]];

        /// (submit gap, runtime, estimate, demands, palette pick).
        type JobDraw = (u64, u64, u64, (u64, u64, u64), u8);
        /// (time, kind, job or pool, units, return delay).
        type EventDraw = (u64, u8, usize, u64, u64);

        #[derive(Clone, Debug)]
        struct Case {
            nres: usize,
            jobs: Vec<Job>,
            events: Vec<InjectedEvent>,
            params: SimParams,
            /// `None` = `HeadOfQueue`, `Some(seed)` = [`RandomWindow`].
            policy_seed: Option<u64>,
        }

        fn case(
            (nres, sharing, window, enforce_walltime): (usize, u8, usize, bool),
            policy_seed: Option<u64>,
            jobs: Vec<JobDraw>,
            events: Vec<EventDraw>,
        ) -> Case {
            let mut submit = 0;
            let jobs: Vec<Job> = jobs
                .into_iter()
                .enumerate()
                .map(|(id, (gap, runtime, estimate, (a, b, c), pick))| {
                    submit += gap;
                    // sharing 0: every vector from the palette; 1: half
                    // of them; 2: every job draws its own.
                    let shared = sharing == 0 || (sharing == 1 && pick < 4);
                    let demands = if shared { PALETTE[pick as usize % 4] } else { [a, b, c] };
                    // A struct literal, not `Job::new`: the estimate may
                    // fall short of the runtime (an overrun).
                    Job { id, submit, runtime, estimate, demands: demands[..nres].to_vec() }
                })
                .collect();
            let events = events
                .into_iter()
                .flat_map(|(time, kind, which, units, delay)| {
                    let drain = EventKind::CapacityChange {
                        resource: which % nres,
                        delta: -(units as i64),
                    };
                    let back = EventKind::CapacityChange {
                        resource: which % nres,
                        delta: units as i64,
                    };
                    match kind {
                        0 | 1 => vec![InjectedEvent::new(time, EventKind::Cancel(which % jobs.len()))],
                        // A drain with a scheduled return (the gate
                        // branch) and a permanent shrink (neither).
                        2 => vec![
                            InjectedEvent::new(time, drain),
                            InjectedEvent::new(time + delay, back),
                        ],
                        _ => vec![InjectedEvent::new(time, drain)],
                    }
                })
                .collect();
            let params = SimParams { enforce_walltime, ..SimParams::new(window, true) };
            Case { nres, jobs, events, params, policy_seed }
        }

        fn run(case: &Case, backfill: fn(&mut Simulator, JobId)) -> (Vec<JobRecord>, SimReport) {
            let config = SystemConfig::new(
                ["nodes", "bb", "power"][..case.nres]
                    .iter()
                    .zip(CAPACITIES)
                    .map(|(name, cap)| crate::resources::ResourceSpec::new(*name, cap))
                    .collect(),
            );
            let mut sim = Simulator::new(config, case.jobs.clone(), case.params).unwrap();
            sim.inject_all(&case.events).unwrap();
            let mut policy: Box<dyn Policy> = match case.policy_seed {
                None => Box::new(HeadOfQueue),
                Some(seed) => Box::new(RandomWindow(seed)),
            };
            while sim.step_with(policy.as_mut(), backfill) {
                assert!(sim.pools.check_conservation());
            }
            (sim.records.clone(), sim.final_report())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn new_pass_starts_what_the_restart_from_head_pass_starts(
                shape in (2usize..=3, 0u8..3, 0usize..3, prop::bool::ANY),
                policy in (prop::bool::ANY, 0u64..u64::MAX),
                jobs in prop::collection::vec(
                    (0u64..30, 1u64..120, 1u64..160, (0u64..=16, 0u64..=8, 0u64..=12), 0u8..8),
                    1..60,
                ),
                events in prop::collection::vec(
                    (0u64..1500, 0u8..4, 0usize..60, 1u64..14, 1u64..600),
                    0..6,
                ),
            ) {
                let (nres, sharing, window, enforce_walltime) = shape;
                let shape = (nres, sharing, [1, 4, 10][window], enforce_walltime);
                let case = case(shape, policy.0.then_some(policy.1), jobs, events);
                let (new_records, new_report) = run(&case, Simulator::backfill_pass);
                let (old_records, old_report) = run(&case, Simulator::backfill_pass_reference);
                prop_assert_eq!(new_records, old_records);
                prop_assert_eq!(new_report, old_report);
            }
        }
    }
}
