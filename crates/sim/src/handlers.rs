//! Per-kind event handlers — the pluggable half of the event engine.
//!
//! `Simulator::run` is a pure dispatch loop: it pops events and calls
//! [`dispatch`], which routes each [`EventKind`] to exactly one handler
//! below. Adding a new event kind therefore touches `crate::event` (the
//! variant) and this module (one handler + one dispatch arm) — nothing
//! else. See the module docs of [`crate::event`] for the recipe and
//! `dispatch_covers_every_kind` below for the enforcement test.
//!
//! Handlers mutate simulator state but never trigger scheduling
//! themselves: the run loop batches all events sharing a timestamp and
//! runs a single scheduling instance afterwards, so same-instant
//! releases, capacity changes and arrivals are all visible to one
//! coherent policy decision.

use crate::event::{EventKind, EventQueue};
use crate::job::{JobId, JobOutcome, JobState};
use crate::simulator::Simulator;

/// Is a popped event still meaningful? Cancels and kills leave stale
/// events behind (a cancelled job's `Finish`, a finished job's late
/// `Cancel`); the run loop drops those *without advancing the clock*, so
/// a schedule's end time reflects real activity, not tombstones. New
/// kinds are live by default — add an arm only if they can go stale.
///
/// Takes the kind by reference, like [`dispatch`]: the run loop probes
/// and routes popped events without copying them, so growing a future
/// variant (payload-carrying events) never adds a per-event copy to the
/// hot loop.
pub(crate) fn is_live<Q: EventQueue>(sim: &Simulator<Q>, kind: &EventKind) -> bool {
    match *kind {
        EventKind::Finish(id) | EventKind::WalltimeKill(id) => sim.pools.is_running(id),
        EventKind::Cancel(id) => !sim.states[id].is_terminal(),
        // A tick is only meaningful while the system can still evolve;
        // skipping a dead tick also stops the re-arm chain. Other
        // pending ticks do NOT count as "can evolve" — two tick chains
        // must not keep each other alive.
        EventKind::Tick => {
            sim.events.non_tick_len() > 0
                || sim.pools.num_running() > 0
                || !sim.queue.is_empty()
        }
        _ => true,
    }
}

/// Route one event to its handler. The only kind-dispatch in the engine.
pub(crate) fn dispatch<Q: EventQueue>(sim: &mut Simulator<Q>, kind: &EventKind) {
    sim.counts.bump(*kind);
    match *kind {
        EventKind::Submit(id) => on_submit(sim, id),
        EventKind::Finish(id) => on_finish(sim, id),
        EventKind::Cancel(id) => on_cancel(sim, id),
        EventKind::WalltimeKill(id) => on_walltime_kill(sim, id),
        EventKind::CapacityChange { resource, delta } => {
            on_capacity_change(sim, resource, delta)
        }
        EventKind::Tick => on_tick(sim),
    }
}

/// A job arrives into the waiting queue. Duplicate or late submissions
/// (possible in injected disruption traces) are ignored. A job with
/// outstanding DAG predecessors is marked arrived but *held* — it joins
/// the queue only when `Simulator::release_successors` clears its last
/// predecessor, so policies only ever see the ready frontier.
fn on_submit<Q: EventQueue>(sim: &mut Simulator<Q>, id: JobId) {
    if sim.states[id] != JobState::Queued || sim.queue.contains(id) {
        return;
    }
    sim.arrived[id] = true;
    if sim.pending_preds[id] > 0 {
        return;
    }
    sim.queue.enqueue(id, sim.slab.demands(id));
}

/// A running job completes and releases its resources.
fn on_finish<Q: EventQueue>(sim: &mut Simulator<Q>, id: JobId) {
    // A Finish may race a Cancel/WalltimeKill that already released the
    // job at an earlier instant; terminal states make it a no-op.
    if sim.states[id].is_terminal() || !sim.pools.is_running(id) {
        return;
    }
    sim.pools.release(id);
    sim.settle(id, JobState::Finished, JobOutcome::Finished);
}

/// A user cancels a job: dequeue if waiting, release if running.
fn on_cancel<Q: EventQueue>(sim: &mut Simulator<Q>, id: JobId) {
    if sim.states[id].is_terminal() {
        return;
    }
    if sim.pools.is_running(id) {
        sim.pools.release(id);
        sim.settle(id, JobState::Cancelled, JobOutcome::Cancelled);
    } else if sim.queue.remove(id, sim.slab.demands(id)) {
        sim.cancel_nonstarted(id);
    } else if sim.arrived[id] {
        // Arrived, not running, not in the queue, not terminal: the job
        // is dependency-held. Settle it and release its successors so a
        // cancelled workflow stage cannot deadlock its downstream tasks.
        sim.cancel_nonstarted(id);
    }
    // Cancel before the job's own Submit event (or after Finish): no-op.
}

/// The walltime enforcer kills a job that exceeded its estimate.
fn on_walltime_kill<Q: EventQueue>(sim: &mut Simulator<Q>, id: JobId) {
    if sim.states[id].is_terminal() || !sim.pools.is_running(id) {
        return;
    }
    sim.pools.release(id);
    sim.settle(id, JobState::Killed, JobOutcome::Killed);
}

/// Capacity of one pool changes (node drain/return, power-cap ramp).
fn on_capacity_change<Q: EventQueue>(sim: &mut Simulator<Q>, resource: usize, delta: i64) {
    sim.pools.adjust_capacity(resource, delta);
    if delta > 0 {
        // This return has fired: the capacity-return index moves on so
        // `earliest_capacity_return` only ever reports *pending* ones.
        debug_assert_eq!(sim.cap_returns.get(sim.cap_cursor), Some(&sim.now));
        sim.cap_cursor += 1;
    }
}

/// Periodic pulse: no state change — the run loop's post-batch
/// scheduling instance is the whole effect. Re-arms itself while the
/// simulation can still make progress.
fn on_tick<Q: EventQueue>(sim: &mut Simulator<Q>) {
    if let Some(period) = sim.params.tick {
        // Stop ticking once nothing can ever happen again (no pending
        // *non-tick* events, nothing running): otherwise the run would
        // never terminate — in particular, a second injected tick chain
        // must not count as pending work, or two chains would sustain
        // each other forever.
        if sim.events.non_tick_len() > 0 || sim.pools.num_running() > 0 {
            let next = sim.now + period.max(1);
            sim.events.push(next, EventKind::Tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::policy::HeadOfQueue;
    use crate::resources::SystemConfig;
    use crate::simulator::{SimParams, Simulator};

    /// The registry covers every kind: dispatching any variant must not
    /// panic and must bump exactly its own counter. A new variant that
    /// misses a dispatch arm fails compilation (exhaustive match); this
    /// test additionally pins the counter wiring.
    #[test]
    fn dispatch_covers_every_kind() {
        let kinds = [
            EventKind::Finish(0),
            EventKind::WalltimeKill(0),
            EventKind::Cancel(0),
            EventKind::CapacityChange { resource: 0, delta: 0 },
            EventKind::Submit(0),
            EventKind::Tick,
        ];
        assert_eq!(kinds.len(), EventKind::KIND_COUNT);
        for kind in kinds {
            let mut sim = Simulator::new(
                SystemConfig::two_resource(4, 4),
                vec![Job::new(0, 0, 10, 10, vec![1, 0])],
                SimParams::default(),
            )
            .unwrap();
            // Drain the pre-scheduled Submit so handlers see a quiet system.
            sim.run(&mut HeadOfQueue);
            let before = sim.counts.count(kind);
            dispatch(&mut sim, &kind);
            assert_eq!(sim.counts.count(kind), before + 1, "{kind:?} counter");
        }
    }
}
