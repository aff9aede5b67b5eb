//! Transparent wrappers that time the calls *into* a layer from outside
//! it: an [`EventQueue`] around the simulator's queue, a [`Policy`]
//! around any policy, and a re-composition of `TrainedMrschPolicy::select`
//! from the public pieces it is made of.
//!
//! "Transparent" is a tested property: a run through a wrapper produces
//! the same `SimReport` as the unwrapped run.

use crate::trace::{self, Span};
use mrsch::{GoalMode, StateEncoder};
use mrsch_dfp::DfpAgent;
use mrsim::event::{Event, EventHandle, EventKind, EventQueue, SavedEvent};
use mrsim::metrics::SimReport;
use mrsim::policy::{Policy, SchedulerView, StepFeedback};
use mrsim::SimTime;

/// An event queue that records a `sim.event_queue` span around every
/// push / pop / cancel / peek of the queue it wraps.
#[derive(Debug, Default)]
pub struct TimedQueue<Q: EventQueue>(Q);

impl<Q: EventQueue> EventQueue for TimedQueue<Q> {
    fn push(&mut self, time: SimTime, kind: EventKind) -> EventHandle {
        trace::span(Span::SimEventQueue, 0, || self.0.push(time, kind))
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        trace::span(Span::SimEventQueue, 0, || self.0.cancel(handle))
    }

    fn pop(&mut self) -> Option<Event> {
        trace::span(Span::SimEventQueue, 0, || self.0.pop())
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        trace::span(Span::SimEventQueue, 0, || self.0.peek_time())
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn non_tick_len(&self) -> usize {
        self.0.non_tick_len()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(SimTime, EventKind)) {
        self.0.for_each_pending(f)
    }

    fn save_events(&self) -> Vec<SavedEvent> {
        self.0.save_events()
    }

    fn handle_seq(&self, handle: EventHandle) -> Option<u64> {
        self.0.handle_seq(handle)
    }

    fn restore_events(&mut self, events: &[SavedEvent]) -> Vec<EventHandle> {
        self.0.restore_events(events)
    }
}

/// A policy that records one span per `select` / `feedback` /
/// `episode_end` of the policy it wraps (all under `span`, so the time
/// lands in the wrapped policy's layer) and the wait-queue depth each
/// decision saw.
pub struct TracedPolicy<P> {
    pub inner: P,
    span: Span,
    pub selects: u64,
    pub depth_sum: u64,
    pub depth_max: usize,
}

impl<P: Policy> TracedPolicy<P> {
    pub fn new(inner: P, span: Span) -> Self {
        Self {
            inner,
            span,
            selects: 0,
            depth_sum: 0,
            depth_max: 0,
        }
    }

    pub fn depth_mean(&self) -> f64 {
        if self.selects == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.selects as f64
        }
    }
}

impl<P: Policy> Policy for TracedPolicy<P> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        self.selects += 1;
        self.depth_sum += view.queued.len() as u64;
        self.depth_max = self.depth_max.max(view.queued.len());
        trace::span(self.span, view.decision, || self.inner.select(view))
    }

    fn feedback(&mut self, fb: &StepFeedback) {
        trace::span(self.span, fb.decision, || self.inner.feedback(fb))
    }

    fn episode_end(&mut self, report: &SimReport) {
        trace::span(self.span, 0, || self.inner.episode_end(report))
    }

    fn reset(&mut self) {
        self.inner.reset();
        (self.selects, self.depth_sum, self.depth_max) = (0, 0, 0);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One recorded network input: `(state, measurement, goal)`.
pub type NetInput = (Vec<f32>, Vec<f32>, Vec<f32>);

/// `TrainedMrschPolicy::select`, re-composed from the public functions it
/// calls, with a span around each: `StateEncoder::encode`,
/// `SchedulerView::measurement`, `GoalMode::goal_for`,
/// `StateEncoder::valid_actions`, `DfpAgent::act`. Keeps the same
/// per-decision goal log, so it does the same work per decision.
pub struct TracedMrsch {
    agent: DfpAgent,
    encoder: StateEncoder,
    goal_mode: GoalMode,
    goal_log: Vec<(SimTime, Vec<f32>)>,
    /// The first [`TracedMrsch::RECORD`] network inputs, for the kernel
    /// replays at this workload's shapes.
    pub recorded: Vec<NetInput>,
}

impl TracedMrsch {
    pub const RECORD: usize = 1_000;

    pub fn new(agent: DfpAgent, encoder: StateEncoder, goal_mode: GoalMode) -> Self {
        Self {
            agent,
            encoder,
            goal_mode,
            goal_log: Vec::new(),
            recorded: Vec::new(),
        }
    }
}

impl Policy for TracedMrsch {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        let id = view.decision;
        let state = trace::span(Span::CoreEncode, id, || self.encoder.encode(view));
        let meas: Vec<f32> = trace::span(Span::SimMeasurement, id, || view.measurement())
            .iter()
            .map(|&x| x as f32)
            .collect();
        let goal = trace::span(Span::CoreGoal, id, || self.goal_mode.goal_for(view));
        let valid = trace::span(Span::CoreValid, id, || self.encoder.valid_actions(view));
        self.goal_log.push((view.now, goal.clone()));
        if self.recorded.len() < Self::RECORD {
            self.recorded
                .push((state.clone(), meas.clone(), goal.clone()));
        }
        trace::span(Span::DfpAct, id, || {
            self.agent.act(&state, &meas, &goal, &valid, false)
        })
    }

    fn reset(&mut self) {
        self.goal_log.clear();
    }

    fn name(&self) -> &'static str {
        "mrsch"
    }
}
