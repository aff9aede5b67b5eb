//! Bounded, work-conserving request queue with a worker pool.
//!
//! Requests land in a bounded queue. A free worker pops the oldest one
//! and decides it with [`DecisionEngine::decide_one`] **now** — it
//! never waits for company. There is no batched path and no flush
//! deadline: one decision streams the weights once, and a packed batch
//! of 8 measured no cheaper per request than 8 singles (the benchmark's
//! `serve.decide_batch8_ns_per_req` vs `serve.decide_one_ns`), so
//! holding a request back to decide it with others would add latency
//! and buy no throughput. The type keeps its `MicroBatcher` name
//! because the end-to-end benchmark harness imports it.
//!
//! The *decisions* served are a pure function of the requests: arrival
//! timing and worker count only move latency/throughput, never outputs.
//! The `worker_count_never_changes_decisions` test locks this.
//!
//! Backpressure is explicit: [`MicroBatcher::submit`] returns `false`
//! (and counts a drop) instead of blocking when the queue is full, so
//! an overloaded server degrades by shedding load, not by stalling its
//! accept loop.

use crate::engine::DecisionEngine;
use crate::protocol::Request;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Queue and worker-pool knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Queue bound; submits beyond it are dropped (shed, not blocked).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self { queue_capacity: 1024, workers: 1 }
    }
}

/// One answered request, with the timing the histogram needs.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Echoed request id.
    pub id: u64,
    /// The decision (`None` when no action was valid).
    pub action: Option<usize>,
    /// When the request entered the queue.
    pub submitted: Instant,
    /// When the decision was made.
    pub completed: Instant,
    /// 1 for a request a worker decided; 0 for a synthetic reply (shape
    /// error, shed request) that no worker saw.
    pub batch_size: usize,
}

struct Pending {
    req: Request,
    submitted: Instant,
    tx: Sender<Reply>,
}

struct Inner {
    engine: DecisionEngine,
    cfg: BatcherConfig,
    queue: Mutex<VecDeque<Pending>>,
    notify: Condvar,
    shutdown: AtomicBool,
    dropped: AtomicU64,
}

/// The queueing front end around a [`DecisionEngine`].
pub struct MicroBatcher {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawn the worker pool.
    pub fn start(engine: DecisionEngine, cfg: BatcherConfig) -> Self {
        assert!(cfg.workers >= 1, "workers must be >= 1");
        let inner = Arc::new(Inner {
            engine,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mrsch-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn batcher worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Enqueue a request; its [`Reply`] arrives on `reply_tx`. Returns
    /// `false` (and counts a drop) when the queue is at capacity.
    pub fn submit(&self, req: Request, reply_tx: Sender<Reply>) -> bool {
        let mut queue = self.inner.queue.lock().unwrap();
        if queue.len() >= self.inner.cfg.queue_capacity {
            drop(queue);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        queue.push_back(Pending { req, submitted: Instant::now(), tx: reply_tx });
        drop(queue);
        self.inner.notify.notify_one();
        true
    }

    /// Requests shed because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The engine behind the queue (shape checks happen before submit).
    pub fn engine(&self) -> &DecisionEngine {
        &self.inner.engine
    }

    /// Drain the queue, stop the workers, and join them.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.notify.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut queue = inner.queue.lock().unwrap();
    loop {
        // Work-conserving: decide the oldest request the moment one is
        // queued; sleep only on an empty queue, exit on shutdown.
        let Some(pending) = queue.pop_front() else {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            queue = inner.notify.wait(queue).unwrap();
            continue;
        };
        drop(queue);

        let action = inner.engine.decide_one(&pending.req);
        // A closed receiver just means the client went away.
        let _ = pending.tx.send(Reply {
            id: pending.req.id,
            action,
            submitted: pending.submitted,
            completed: Instant::now(),
            batch_size: 1,
        });
        queue = inner.queue.lock().unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineSpec};
    use crate::loadgen::synth_requests;
    use std::collections::BTreeMap;
    use std::sync::mpsc;
    use std::time::Duration;

    fn collect_decisions(
        engine: &DecisionEngine,
        reqs: &[Request],
        cfg: BatcherConfig,
    ) -> BTreeMap<u64, Option<usize>> {
        let batcher = MicroBatcher::start(engine.clone(), cfg);
        let (tx, rx) = mpsc::channel();
        for req in reqs {
            assert!(batcher.submit(req.clone(), tx.clone()), "queue should not shed");
        }
        let mut out = BTreeMap::new();
        for _ in 0..reqs.len() {
            let reply = rx.recv().expect("reply");
            out.insert(reply.id, reply.action);
        }
        batcher.shutdown();
        out
    }

    #[test]
    fn worker_count_never_changes_decisions() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 24, 99);
        let serial: BTreeMap<u64, Option<usize>> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();
        for workers in [1usize, 2, 4] {
            let got = collect_decisions(
                &engine,
                &reqs,
                BatcherConfig { workers, ..Default::default() },
            );
            assert_eq!(got, serial, "{workers} workers changed a decision");
        }
    }

    #[test]
    fn a_lone_request_is_answered_at_once() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 21, 5);
        let batcher = MicroBatcher::start(engine, BatcherConfig::default());
        let (tx, rx) = mpsc::channel();
        let mut waited: Vec<Duration> = reqs
            .iter()
            .map(|req| {
                assert!(batcher.submit(req.clone(), tx.clone()));
                let reply = rx.recv_timeout(Duration::from_secs(5)).expect("reply");
                assert_eq!((reply.id, reply.batch_size), (req.id, 1));
                reply.completed.duration_since(reply.submitted)
            })
            .collect();
        assert_eq!(batcher.dropped(), 0);
        batcher.shutdown();
        // One wake-up and one tiny decision: tens of microseconds.
        waited.sort_unstable();
        let median = waited[waited.len() / 2];
        assert!(median < Duration::from_millis(1), "median queue wait + decision {median:?}");
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 256, 1);
        let batcher = MicroBatcher::start(engine, BatcherConfig { queue_capacity: 2, ..Default::default() });
        // Submit faster than one decision takes: whatever does not fit
        // is refused at once, and every accepted request is answered.
        let (tx, rx) = mpsc::channel();
        let accepted = reqs.iter().filter(|req| batcher.submit((*req).clone(), tx.clone())).count();
        drop(tx);
        assert!(accepted >= 2, "an empty capacity-2 queue accepts the first two");
        assert_eq!(batcher.dropped() + accepted as u64, reqs.len() as u64);
        batcher.shutdown();
        assert_eq!(rx.iter().count(), accepted);
    }
}
