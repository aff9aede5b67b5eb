//! Simulator checkpoint/restart on the `mrsch-snapshot` codec.
//!
//! [`Simulator::snapshot`] serializes *every* piece of run state — the
//! job table, per-job lifecycle states, the pending event set (in the
//! implementation-independent [`SavedEvent`] form, so a snapshot taken
//! under one [`EventQueue`] restores into the other), the FCFS waiting
//! queue, pool state including drain debt, the metric integrals with
//! exact f64 bits, per-job records, event counters, the clock, and the
//! replay-cancel / end-event / capacity-return bookkeeping arrays —
//! into one `MRSS` frame (see `mrsch_snapshot::frame` for the layout).
//!
//! The acceptance contract, locked by the tests below and the crash
//! drills in `tests/snapshot_restart.rs`: a run snapshotted at **any
//! event boundary** (between [`Simulator::step`] calls) and restored
//! with [`Simulator::restore`] continues **bit-identically** — the
//! final [`crate::SimReport`] equals the uninterrupted run's, for both
//! queue implementations.
//!
//! Pending events are the subtle part. Handles are implementation-
//! specific (a heap sequence number vs. a packed slot+generation), so
//! the snapshot stores each started job's pending natural-end event as
//! its original insertion *sequence* and the whole pending set as
//! `(time, kind, seq)` triples. [`EventQueue::restore_events`] re-pushes them
//! in ascending original-seq order, reproducing every tie-break under
//! fresh sequence numbers, and returns handles aligned with the input
//! so the end-event array can be remapped exactly.

use crate::event::{EventHandle, EventKind, EventQueue, SavedEvent};
use crate::job::{Job, JobOutcome, JobRecord, JobSlab, JobState};
use crate::metrics::{EventCounts, MetricsCollector};
use crate::queue::WaitQueue;
use crate::resources::{Allocation, PoolState, ResourceSpec, SystemConfig};
use crate::simulator::{validate_deps, PowerModel, SimParams, Simulator};
use crate::SimTime;
use mrsch_snapshot::{
    decode_framed, frame, CodecError, Decode, Encode, Reader, Writer,
};
use std::collections::HashMap;

/// Frame magic of a simulator checkpoint.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MRSS";
/// Newest checkpoint format version this build reads and writes.
/// v2 added the workflow-DAG state (`deps`/`arrived`), the per-node
/// [`PowerModel`] in `SimParams`, and the idle-capacity integral.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Why a checkpoint could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream failed codec validation (bad magic/version,
    /// truncation, checksum mismatch, malformed field).
    Codec(CodecError),
    /// The payload decoded cleanly but describes an inconsistent
    /// simulator (dangling job ids, mismatched vector lengths, ...).
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Codec(e) => write!(f, "snapshot codec error: {e}"),
            SnapshotError::Invalid(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

fn invalid(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid(msg.into())
}

// --- codec impls for the sim types a checkpoint contains -----------------

impl Encode for ResourceSpec {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        w.put_u64(self.capacity);
    }
}

impl Decode for ResourceSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self { name: String::decode(r)?, capacity: r.get_u64()? })
    }
}

impl Encode for PowerModel {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.idle_watts);
        w.put_u64(self.active_watts);
    }
}

impl Decode for PowerModel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self { idle_watts: r.get_u64()?, active_watts: r.get_u64()? })
    }
}

impl Encode for SimParams {
    fn encode(&self, w: &mut Writer) {
        self.window.encode(w);
        self.backfill.encode(w);
        self.enforce_walltime.encode(w);
        self.tick.encode(w);
        self.power.encode(w);
    }
}

impl Decode for SimParams {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            window: usize::decode(r)?,
            backfill: bool::decode(r)?,
            enforce_walltime: bool::decode(r)?,
            tick: Option::<SimTime>::decode(r)?,
            power: Option::<PowerModel>::decode(r)?,
        })
    }
}

impl Encode for Job {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        w.put_u64(self.submit);
        w.put_u64(self.runtime);
        w.put_u64(self.estimate);
        self.demands.encode(w);
    }
}

impl Decode for Job {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Raw struct, not Job::new: the constructor clamps runtime and
        // estimate, but crafted traces (and tests) legitimately carry
        // estimate < runtime — a checkpoint must round-trip them as-is.
        Ok(Self {
            id: usize::decode(r)?,
            submit: r.get_u64()?,
            runtime: r.get_u64()?,
            estimate: r.get_u64()?,
            demands: Vec::decode(r)?,
        })
    }
}

impl Encode for JobState {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Finished => 2,
            JobState::Cancelled => 3,
            JobState::Killed => 4,
        });
    }
}

impl Decode for JobState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(JobState::Queued),
            1 => Ok(JobState::Running),
            2 => Ok(JobState::Finished),
            3 => Ok(JobState::Cancelled),
            4 => Ok(JobState::Killed),
            _ => Err(CodecError::Malformed("unknown JobState tag")),
        }
    }
}

impl Encode for JobOutcome {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            JobOutcome::Finished => 0,
            JobOutcome::Cancelled => 1,
            JobOutcome::Killed => 2,
        });
    }
}

impl Decode for JobOutcome {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(JobOutcome::Finished),
            1 => Ok(JobOutcome::Cancelled),
            2 => Ok(JobOutcome::Killed),
            _ => Err(CodecError::Malformed("unknown JobOutcome tag")),
        }
    }
}

impl Encode for JobRecord {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        w.put_u64(self.submit);
        w.put_u64(self.start);
        w.put_u64(self.end);
        self.backfilled.encode(w);
        self.outcome.encode(w);
    }
}

impl Decode for JobRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            id: usize::decode(r)?,
            submit: r.get_u64()?,
            start: r.get_u64()?,
            end: r.get_u64()?,
            backfilled: bool::decode(r)?,
            outcome: JobOutcome::decode(r)?,
        })
    }
}

impl Encode for Allocation {
    fn encode(&self, w: &mut Writer) {
        self.job.encode(w);
        self.demands.encode(w);
        w.put_u64(self.start);
        w.put_u64(self.est_end);
        w.put_u64(self.actual_end);
    }
}

impl Decode for Allocation {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            job: usize::decode(r)?,
            demands: Vec::decode(r)?,
            start: r.get_u64()?,
            est_end: r.get_u64()?,
            actual_end: r.get_u64()?,
        })
    }
}

impl Encode for PoolState {
    fn encode(&self, w: &mut Writer) {
        self.base_capacities.encode(w);
        self.capacities.encode(w);
        self.free.encode(w);
        self.draining.encode(w);
        self.running.encode(w);
    }
}

impl Decode for PoolState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            base_capacities: Vec::decode(r)?,
            capacities: Vec::decode(r)?,
            free: Vec::decode(r)?,
            draining: Vec::decode(r)?,
            running: Vec::decode(r)?,
        })
    }
}

impl Encode for MetricsCollector {
    fn encode(&self, w: &mut Writer) {
        self.start.encode(w);
        w.put_u64(self.last);
        self.used_unit_secs.encode(w);
        self.cap_unit_secs.encode(w);
        self.lost_unit_secs.encode(w);
        self.idle_unit_secs.encode(w);
    }
}

impl Decode for MetricsCollector {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            start: Option::<SimTime>::decode(r)?,
            last: r.get_u64()?,
            used_unit_secs: Vec::decode(r)?,
            cap_unit_secs: Vec::decode(r)?,
            lost_unit_secs: Vec::decode(r)?,
            idle_unit_secs: Vec::decode(r)?,
        })
    }
}

impl Encode for EventKind {
    fn encode(&self, w: &mut Writer) {
        match *self {
            EventKind::Finish(id) => {
                w.put_u8(0);
                id.encode(w);
            }
            EventKind::WalltimeKill(id) => {
                w.put_u8(1);
                id.encode(w);
            }
            EventKind::Cancel(id) => {
                w.put_u8(2);
                id.encode(w);
            }
            EventKind::CapacityChange { resource, delta } => {
                w.put_u8(3);
                resource.encode(w);
                w.put_i64(delta);
            }
            EventKind::Submit(id) => {
                w.put_u8(4);
                id.encode(w);
            }
            EventKind::Tick => w.put_u8(5),
        }
    }
}

impl Decode for EventKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(EventKind::Finish(usize::decode(r)?)),
            1 => Ok(EventKind::WalltimeKill(usize::decode(r)?)),
            2 => Ok(EventKind::Cancel(usize::decode(r)?)),
            3 => Ok(EventKind::CapacityChange {
                resource: usize::decode(r)?,
                delta: r.get_i64()?,
            }),
            4 => Ok(EventKind::Submit(usize::decode(r)?)),
            5 => Ok(EventKind::Tick),
            _ => Err(CodecError::Malformed("unknown EventKind tag")),
        }
    }
}

impl Encode for SavedEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.time);
        self.kind.encode(w);
        w.put_u64(self.seq);
    }
}

impl Decode for SavedEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self { time: r.get_u64()?, kind: EventKind::decode(r)?, seq: r.get_u64()? })
    }
}

// --- the checkpoint payload ----------------------------------------------

/// Decoded checkpoint payload: every [`Simulator`] field in
/// implementation-independent form, before consistency validation.
struct SimState {
    config: SystemConfig,
    params: SimParams,
    jobs: Vec<Job>,
    states: Vec<JobState>,
    waiting: Vec<usize>,
    pools: PoolState,
    collector: MetricsCollector,
    records: Vec<JobRecord>,
    counts: Vec<u64>,
    now: SimTime,
    decisions: u64,
    instances: u64,
    finished: usize,
    replay_cancels: Vec<Option<SimTime>>,
    cap_returns: Vec<SimTime>,
    cap_cursor: usize,
    events: Vec<SavedEvent>,
    /// Per job: original insertion seq of its pending natural-end event.
    end_event: Vec<Option<u64>>,
    /// Workflow-DAG predecessor lists (empty = independent jobs). The
    /// successor adjacency and outstanding-predecessor counts are
    /// re-derived on restore from `deps` + the terminal states.
    deps: Vec<Vec<usize>>,
    /// Whether each job's Submit event has fired.
    arrived: Vec<bool>,
}

impl Decode for SimState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            config: SystemConfig { resources: Vec::decode(r)? },
            params: SimParams::decode(r)?,
            jobs: Vec::decode(r)?,
            states: Vec::decode(r)?,
            waiting: Vec::decode(r)?,
            pools: PoolState::decode(r)?,
            collector: MetricsCollector::decode(r)?,
            records: Vec::decode(r)?,
            counts: Vec::decode(r)?,
            now: r.get_u64()?,
            decisions: r.get_u64()?,
            instances: r.get_u64()?,
            finished: usize::decode(r)?,
            replay_cancels: Vec::decode(r)?,
            cap_returns: Vec::decode(r)?,
            cap_cursor: usize::decode(r)?,
            events: Vec::decode(r)?,
            end_event: Vec::decode(r)?,
            deps: Vec::decode(r)?,
            arrived: Vec::decode(r)?,
        })
    }
}

impl<Q: EventQueue> Simulator<Q> {
    /// Serialize the complete run state into one checksummed `MRSS`
    /// frame. Valid at any event boundary: freshly built, mid-run
    /// between [`Simulator::step`] calls, or drained.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256 + self.jobs.len() * 64);
        self.config.resources.encode(&mut w);
        self.params.encode(&mut w);
        self.jobs.encode(&mut w);
        self.states.encode(&mut w);
        self.queue.all().to_vec().encode(&mut w);
        self.pools.encode(&mut w);
        self.collector.encode(&mut w);
        self.records.encode(&mut w);
        self.counts.counts.encode(&mut w);
        w.put_u64(self.now);
        w.put_u64(self.decisions);
        w.put_u64(self.instances);
        self.finished.encode(&mut w);
        self.replay_cancels.encode(&mut w);
        self.cap_returns.encode(&mut w);
        self.cap_cursor.encode(&mut w);
        self.events.save_events().encode(&mut w);
        // Handles are impl-specific: persist each started job's pending
        // natural-end event as its original insertion sequence instead.
        w.put_u64(self.end_event.len() as u64);
        for handle in &self.end_event {
            handle.and_then(|h| self.events.handle_seq(h)).encode(&mut w);
        }
        self.deps.encode(&mut w);
        self.arrived.encode(&mut w);
        frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &w.into_bytes())
    }

    /// Rebuild a simulator from [`Simulator::snapshot`] bytes. The
    /// target queue implementation is chosen by `Q` and need not match
    /// the one the snapshot was taken under — the pending-event set is
    /// stored logically. Running it to completion yields a report
    /// bit-identical to the uninterrupted original.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (_version, state): (u16, SimState) =
            decode_framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
        Self::from_state(state)
    }

    fn from_state(s: SimState) -> Result<Self, SnapshotError> {
        let nres = s.config.resources.len();
        if nres == 0 {
            return Err(invalid("config has no resources"));
        }
        let n = s.jobs.len();
        for (i, job) in s.jobs.iter().enumerate() {
            if job.id != i {
                return Err(invalid(format!("job ids not dense at index {i}")));
            }
            s.config.validate_job(job).map_err(SnapshotError::Invalid)?;
        }
        for (name, len) in [
            ("states", s.states.len()),
            ("replay_cancels", s.replay_cancels.len()),
            ("end_event", s.end_event.len()),
            ("arrived", s.arrived.len()),
        ] {
            if len != n {
                return Err(invalid(format!("{name} length {len} != {n} jobs")));
            }
        }
        let (succs, pending_preds) = if s.deps.is_empty() {
            (Vec::new(), vec![0u32; n])
        } else {
            let succs = validate_deps(n, &s.deps).map_err(invalid)?;
            // Outstanding counts are re-derived, not stored: a predecessor
            // already terminal at snapshot time has already released.
            let pending = s
                .deps
                .iter()
                .map(|preds| {
                    preds.iter().filter(|&&p| !s.states[p].is_terminal()).count() as u32
                })
                .collect();
            (succs, pending)
        };
        for (name, len) in [
            ("base_capacities", s.pools.base_capacities.len()),
            ("capacities", s.pools.capacities.len()),
            ("free", s.pools.free.len()),
            ("draining", s.pools.draining.len()),
            ("used_unit_secs", s.collector.used_unit_secs.len()),
            ("cap_unit_secs", s.collector.cap_unit_secs.len()),
            ("lost_unit_secs", s.collector.lost_unit_secs.len()),
            ("idle_unit_secs", s.collector.idle_unit_secs.len()),
        ] {
            if len != nres {
                return Err(invalid(format!("{name} length {len} != {nres} resources")));
            }
        }
        for alloc in &s.pools.running {
            if alloc.job >= n || alloc.demands.len() != nres {
                return Err(invalid(format!("running allocation of job {} invalid", alloc.job)));
            }
        }
        if !s.pools.check_conservation() {
            return Err(invalid("pool state violates unit conservation"));
        }
        if !s.counts.is_empty() && s.counts.len() != EventKind::KIND_COUNT {
            return Err(invalid(format!("event counts have {} slots", s.counts.len())));
        }
        if s.cap_cursor > s.cap_returns.len() {
            return Err(invalid("cap_cursor beyond cap_returns"));
        }
        for rec in &s.records {
            if rec.id >= n {
                return Err(invalid(format!("record references unknown job {}", rec.id)));
            }
        }
        let event_job_ok = |kind: &EventKind| match *kind {
            EventKind::Finish(id)
            | EventKind::WalltimeKill(id)
            | EventKind::Cancel(id)
            | EventKind::Submit(id) => id < n,
            EventKind::CapacityChange { resource, .. } => resource < nres,
            EventKind::Tick => true,
        };
        if let Some(bad) = s.events.iter().find(|e| !event_job_ok(&e.kind)) {
            return Err(invalid(format!("pending event references out-of-range id: {bad:?}")));
        }

        let mut queue = WaitQueue::new(&s.config.capacities());
        for &id in &s.waiting {
            if id >= n {
                return Err(invalid(format!("waiting job {id} out of range")));
            }
            if queue.contains(id) {
                return Err(invalid(format!("waiting job {id} duplicated")));
            }
            queue.enqueue(id, &s.jobs[id].demands);
        }

        let mut events = Q::default();
        let handles = events.restore_events(&s.events);
        let seq_to_handle: HashMap<u64, EventHandle> =
            s.events.iter().zip(&handles).map(|(se, &h)| (se.seq, h)).collect();
        let mut end_event = Vec::with_capacity(n);
        for (id, saved) in s.end_event.iter().enumerate() {
            end_event.push(match saved {
                None => None,
                Some(seq) => Some(*seq_to_handle.get(seq).ok_or_else(|| {
                    invalid(format!("job {id} end event seq {seq} not in pending set"))
                })?),
            });
        }

        let counts = if s.counts.is_empty() {
            EventCounts::new()
        } else {
            EventCounts { counts: s.counts }
        };
        Ok(Self {
            slab: JobSlab::from_jobs(&s.jobs, nres),
            config: s.config,
            params: s.params,
            jobs: s.jobs,
            states: s.states,
            events,
            queue,
            pools: s.pools,
            collector: s.collector,
            records: s.records,
            counts,
            now: s.now,
            decisions: s.decisions,
            instances: s.instances,
            finished: s.finished,
            replay_cancels: s.replay_cancels,
            end_event,
            cap_returns: s.cap_returns,
            cap_cursor: s.cap_cursor,
            deps: s.deps,
            succs,
            pending_preds,
            arrived: s.arrived,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BinaryHeapEventQueue, IndexedEventQueue, InjectedEvent};
    use crate::policy::HeadOfQueue;
    use crate::SimReport;

    fn disrupted_sim<Q: EventQueue>() -> Simulator<Q> {
        // A trace exercising every piece of checkpointed state: walltime
        // enforcement (kills + a crafted under-estimate), ticks, injected
        // cancels, a drain below free units (drain debt), a capacity
        // return (cap_returns/cap_cursor), and replay cancels.
        let mut jobs: Vec<Job> = (0..30)
            .map(|i| {
                Job::new(
                    i,
                    (i as SimTime) * 13 % 200,
                    20 + (i as SimTime) * 7 % 90,
                    40 + (i as SimTime) * 5 % 70,
                    vec![1 + (i as u64) % 3, (i as u64) % 2],
                )
            })
            .collect();
        jobs[4] = Job { id: 4, submit: 52, runtime: 80, estimate: 30, demands: vec![2, 1] };
        let config = SystemConfig::two_resource(6, 4);
        let params = SimParams {
            window: 5,
            backfill: true,
            enforce_walltime: true,
            tick: Some(17),
            power: Some(PowerModel::new(60, 215)),
        };
        let mut sim = Simulator::<Q>::with_queue(config, jobs, params).unwrap();
        // A small workflow inside the disruption soup: a chain through the
        // kill-prone early jobs plus a fan-in, so boundary sweeps exercise
        // held jobs, releases-by-kill, and snapshotting mid-hold.
        let mut deps = vec![Vec::new(); 30];
        deps[6] = vec![2, 4];
        deps[9] = vec![6];
        deps[15] = vec![9, 11];
        sim.set_dependencies(deps).unwrap();
        sim.inject_all(&[
            InjectedEvent::new(40, EventKind::Cancel(7)),
            InjectedEvent::new(60, EventKind::CapacityChange { resource: 0, delta: -5 }),
            InjectedEvent::new(150, EventKind::CapacityChange { resource: 0, delta: 5 }),
            InjectedEvent::new(90, EventKind::Cancel(11)),
        ])
        .unwrap();
        sim.schedule_cancel_after_start(9, 15).unwrap();
        sim.schedule_cancel_after_start(20, 3).unwrap();
        sim
    }

    fn reference_report<Q: EventQueue>() -> SimReport {
        disrupted_sim::<Q>().run(&mut HeadOfQueue)
    }

    /// Snapshot after `k` steps, restore into `R`, finish both, compare.
    fn continue_from<Q: EventQueue, R: EventQueue>(k: usize) -> (SimReport, SimReport) {
        let reference = reference_report::<Q>();
        let mut sim = disrupted_sim::<Q>();
        for _ in 0..k {
            assert!(sim.step(&mut HeadOfQueue), "trace has more than {k} batches");
        }
        let bytes = sim.snapshot();
        let mut restored = Simulator::<R>::restore(&bytes).unwrap();
        while restored.step(&mut HeadOfQueue) {}
        (reference, restored.final_report())
    }

    #[test]
    fn restore_continues_bit_identically_at_every_boundary() {
        // Exhaustive sweep: snapshot between every pair of consecutive
        // steps of the whole disrupted run.
        let reference = reference_report::<IndexedEventQueue>();
        let total_steps = {
            let mut sim = disrupted_sim::<IndexedEventQueue>();
            let mut n = 0;
            while sim.step(&mut HeadOfQueue) {
                n += 1;
            }
            n
        };
        assert!(total_steps > 20, "trace is non-trivial: {total_steps} batches");
        for k in 0..=total_steps {
            let (expected, got) = continue_from::<IndexedEventQueue, IndexedEventQueue>(k);
            assert_eq!(expected, reference);
            assert_eq!(got, reference, "restored run diverged after snapshot at step {k}");
        }
    }

    #[test]
    fn mid_backlog_snapshot_keeps_its_bytes_and_restore_rebuilds_the_index() {
        // The size-class index of the wait queue is derived state: the
        // frame stores `queue.all()` only. 35 steps in, 15 jobs wait.
        let mut sim = disrupted_sim::<IndexedEventQueue>();
        for _ in 0..35 {
            assert!(sim.step(&mut HeadOfQueue));
        }
        assert_eq!(sim.queue.len(), 15);
        let bytes = sim.snapshot();
        // Length and FNV-1a of this frame as written before the index
        // existed (commit 69a870a).
        let digest = mrsch_snapshot::fnv1a64(&bytes);
        assert_eq!((bytes.len(), digest), (3164, 0x7dc5_e342_acf7_8d7d));

        let restored = Simulator::<IndexedEventQueue>::restore(&bytes).unwrap();
        assert_eq!(restored.queue.all(), sim.queue.all());
        for free in [[6, 4], [3, 1], [2, 0], [1, 1], [0, 0]] {
            let fits = |j: usize| sim.jobs[j].demands.iter().zip(&free).all(|(d, f)| d <= f);
            let expect = sim.queue.all().iter().copied().find(|&j| fits(j));
            assert_eq!(sim.queue.first_match(0, &free, fits).map(|(_, j)| j), expect);
            assert_eq!(restored.queue.first_match(0, &free, fits).map(|(_, j)| j), expect);
        }
    }

    #[test]
    fn restore_crosses_queue_implementations_both_ways() {
        for k in [0, 3, 11, 25] {
            let (reference, via_heap) = continue_from::<IndexedEventQueue, BinaryHeapEventQueue>(k);
            assert_eq!(via_heap, reference, "indexed -> heap at step {k}");
            let (heap_ref, via_idx) = continue_from::<BinaryHeapEventQueue, IndexedEventQueue>(k);
            assert_eq!(via_idx, heap_ref, "heap -> indexed at step {k}");
            assert_eq!(heap_ref, reference, "queue impls agree on the reference");
        }
    }

    #[test]
    fn snapshot_of_drained_sim_restores_to_same_report() {
        let mut sim = disrupted_sim::<IndexedEventQueue>();
        let report = sim.run(&mut HeadOfQueue);
        let restored = Simulator::<IndexedEventQueue>::restore(&sim.snapshot()).unwrap();
        assert_eq!(restored.final_report(), report);
    }

    #[test]
    fn fresh_snapshot_equals_fresh_run() {
        let sim = disrupted_sim::<IndexedEventQueue>();
        let bytes = sim.snapshot();
        let mut restored = Simulator::<IndexedEventQueue>::restore(&bytes).unwrap();
        assert_eq!(restored.run(&mut HeadOfQueue), reference_report::<IndexedEventQueue>());
    }

    #[test]
    fn corrupted_snapshots_return_typed_errors() {
        let mut sim = disrupted_sim::<IndexedEventQueue>();
        for _ in 0..5 {
            sim.step(&mut HeadOfQueue);
        }
        let bytes = sim.snapshot();
        // Truncations at every prefix length fail without panicking.
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    Simulator::<IndexedEventQueue>::restore(&bytes[..cut]),
                    Err(SnapshotError::Codec(_))
                ),
                "cut at {cut}"
            );
        }
        // A flipped payload byte is caught by the checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(matches!(
            Simulator::<IndexedEventQueue>::restore(&corrupt),
            Err(SnapshotError::Codec(CodecError::ChecksumMismatch { .. }))
        ));
        // Wrong magic is identified as such.
        let mut wrong = bytes;
        wrong[0] = b'X';
        assert!(matches!(
            Simulator::<IndexedEventQueue>::restore(&wrong),
            Err(SnapshotError::Codec(CodecError::BadMagic { .. }))
        ));
    }

    #[test]
    fn semantically_invalid_payload_is_rejected() {
        // Re-frame a valid payload with an inconsistent field: claim a
        // waiting job beyond the job table.
        let sim = Simulator::<IndexedEventQueue>::new(
            SystemConfig::two_resource(4, 4),
            vec![Job::new(0, 0, 10, 10, vec![1, 0])],
            SimParams::default(),
        )
        .unwrap();
        let bytes = sim.snapshot();
        let (version, payload) =
            mrsch_snapshot::unframe(SNAPSHOT_MAGIC, &bytes).unwrap();
        let mut r = Reader::new(payload);
        let mut state = SimState::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        state.waiting = vec![99];
        let mut w = Writer::new();
        state.config.resources.encode(&mut w);
        state.params.encode(&mut w);
        state.jobs.encode(&mut w);
        state.states.encode(&mut w);
        state.waiting.encode(&mut w);
        state.pools.encode(&mut w);
        state.collector.encode(&mut w);
        state.records.encode(&mut w);
        state.counts.encode(&mut w);
        w.put_u64(state.now);
        w.put_u64(state.decisions);
        w.put_u64(state.instances);
        state.finished.encode(&mut w);
        state.replay_cancels.encode(&mut w);
        state.cap_returns.encode(&mut w);
        state.cap_cursor.encode(&mut w);
        state.events.encode(&mut w);
        state.end_event.encode(&mut w);
        state.deps.encode(&mut w);
        state.arrived.encode(&mut w);
        let reframed = frame(SNAPSHOT_MAGIC, version, &w.into_bytes());
        assert!(matches!(
            Simulator::<IndexedEventQueue>::restore(&reframed),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn snapshot_restore_preserves_public_accessors() {
        let mut sim = disrupted_sim::<IndexedEventQueue>();
        for _ in 0..8 {
            sim.step(&mut HeadOfQueue);
        }
        let restored = Simulator::<IndexedEventQueue>::restore(&sim.snapshot()).unwrap();
        assert_eq!(restored.now(), sim.now());
        assert_eq!(restored.config(), sim.config());
        assert_eq!(restored.pools().free(0), sim.pools().free(0));
        assert_eq!(restored.pools().draining(0), sim.pools().draining(0));
        assert_eq!(restored.pools().num_running(), sim.pools().num_running());
    }
}
