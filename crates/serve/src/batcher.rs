//! Bounded, work-conserving micro-batching queue with a worker pool.
//!
//! Requests land in a bounded queue. A worker that finds the queue
//! non-empty takes `min(len, max_batch)` requests **now** — it never
//! waits for a batch to fill. Batches still form, and exactly when
//! they can help: whatever arrives while every worker is busy deciding
//! is taken together by the next flush (natural batching under load).
//! A flush of one is [`DecisionEngine::decide_one`]; a deeper flush is
//! one [`DecisionEngine::decide_batch`] call.
//!
//! There is no flush deadline. Holding an idle worker back in the hope
//! of a deeper batch pays off only if a batch of `B` costs less than
//! `B` singles, and here it does not: one decision streams the weights
//! once (~28 µs) and a batch of 8 costs 8 × that (the benchmark's
//! `serve.decide_batch8_ns_per_req` vs `serve.decide_one_ns`), so a
//! deadline would add its whole length to every lightly-loaded
//! request's latency and buy no throughput.
//!
//! Because batched and single decisions are bit-identical (see
//! [`crate::engine`]), the *decisions* served are a pure function of
//! the requests: flush depth, arrival timing, and worker count only
//! move latency/throughput, never outputs. The
//! `flush_depth_never_changes_decisions` test locks this.
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

/// Micro-batching knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// The most requests one flush takes from the queue.
    pub max_batch: usize,
    /// Queue bound; submits beyond it are dropped (shed, not blocked).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            queue_capacity: 1024,
            workers: 1,
        }
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
    /// Size of the flush this request rode in (observability).
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

/// The micro-batching front end around a [`DecisionEngine`].
pub struct MicroBatcher {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawn the worker pool.
    pub fn start(engine: DecisionEngine, cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
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
        // Wait for work (or shutdown with an empty queue).
        while queue.is_empty() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            queue = inner.notify.wait(queue).unwrap();
        }
        // Work-conserving: take what is queued now, never wait for more.
        let take = queue.len().min(inner.cfg.max_batch);
        let batch: Vec<Pending> = queue.drain(..take).collect();
        drop(queue);

        let actions = match &batch[..] {
            [only] => vec![inner.engine.decide_one(&only.req)],
            many => inner.engine.decide_batch(&many.iter().map(|p| &p.req).collect::<Vec<_>>()),
        };
        let completed = Instant::now();
        for (pending, action) in batch.into_iter().zip(actions) {
            // A closed receiver just means the client went away.
            let _ = pending.tx.send(Reply {
                id: pending.req.id,
                action,
                submitted: pending.submitted,
                completed,
                batch_size: take,
            });
        }
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
    fn flush_depth_never_changes_decisions() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 24, 99);
        let serial: BTreeMap<u64, Option<usize>> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();
        for max_batch in [1usize, 4, 8] {
            let got = collect_decisions(
                &engine,
                &reqs,
                BatcherConfig { max_batch, ..Default::default() },
            );
            assert_eq!(got, serial, "flush depth {max_batch} changed a decision");
        }
    }

    #[test]
    fn a_lone_request_is_answered_at_once() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 21, 5);
        // Depth 64 can never fill from one request at a time: an idle
        // worker must not wait for it to.
        let batcher = MicroBatcher::start(engine, BatcherConfig { max_batch: 64, ..Default::default() });
        let (tx, rx) = mpsc::channel();
        let mut waited: Vec<Duration> = reqs
            .iter()
            .map(|req| {
                assert!(batcher.submit(req.clone(), tx.clone()));
                let reply = rx.recv_timeout(Duration::from_secs(5)).expect("no batch to wait for");
                assert_eq!((reply.id, reply.batch_size), (req.id, 1));
                reply.completed.duration_since(reply.submitted)
            })
            .collect();
        assert_eq!(batcher.dropped(), 0);
        batcher.shutdown();
        // One wake-up and one tiny decision: tens of microseconds. Any
        // flush timer worth having would be longer than this bound.
        waited.sort_unstable();
        let median = waited[waited.len() / 2];
        assert!(median < Duration::from_millis(1), "median queue wait + decision {median:?}");
    }

    #[test]
    fn requests_queued_behind_a_busy_worker_flush_together() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 11, 5);
        let batcher = MicroBatcher::start(engine, BatcherConfig { max_batch: 8, ..Default::default() });
        let (tx, rx) = mpsc::channel();
        // Holding the queue lock keeps the single worker from taking
        // anything, exactly as a decision in progress would, so the 11
        // arrivals below are all queued when it next looks.
        let mut queue = batcher.inner.queue.lock().unwrap();
        for req in &reqs {
            queue.push_back(Pending { req: req.clone(), submitted: Instant::now(), tx: tx.clone() });
        }
        drop(queue);
        batcher.inner.notify.notify_one();
        let sizes: Vec<usize> = reqs
            .iter()
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("reply").batch_size)
            .collect();
        assert_eq!(sizes, [[8; 8].as_slice(), &[3; 3]].concat(), "one full flush, then the rest");
        batcher.shutdown();
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
