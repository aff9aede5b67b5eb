//! Shims kept only because `benchmarks/e2e` imports them: a
//! [`MicroBatcher`] decides each submitted request at once, on the
//! caller's thread. The service itself decides each request on the
//! thread that read it ([`crate::server`]).

use crate::engine::DecisionEngine;
use crate::protocol::Request;
use std::sync::mpsc::Sender;
use std::time::Instant;

/// No settings. Kept only because `benchmarks/e2e` imports it.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatcherConfig;

/// One answered request, with the timing the histogram needs.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Echoed request id.
    pub id: u64,
    /// The decision (`None` when no action was valid).
    pub action: Option<usize>,
    /// When the request was submitted.
    pub submitted: Instant,
    /// When the decision was made.
    pub completed: Instant,
    /// Always 1: every request is decided alone.
    pub batch_size: usize,
}

/// Decides each submitted request at once on the caller's thread. Kept
/// only because `benchmarks/e2e` imports it.
pub struct MicroBatcher {
    engine: DecisionEngine,
}

impl MicroBatcher {
    /// Wrap `engine`; starts no thread.
    pub fn start(engine: DecisionEngine, _: BatcherConfig) -> Self {
        Self { engine }
    }

    /// Decide `req` now and send its [`Reply`] on `reply_tx` (a closed
    /// receiver is ignored). Never sheds: always returns `true`.
    pub fn submit(&self, req: Request, reply_tx: Sender<Reply>) -> bool {
        let submitted = Instant::now();
        let action = self.engine.decide_one(&req);
        let completed = Instant::now();
        let _ = reply_tx.send(Reply { id: req.id, action, submitted, completed, batch_size: 1 });
        true
    }

    /// Nothing to stop.
    pub fn shutdown(self) {}
}
