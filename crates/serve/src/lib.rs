//! **mrsch-serve** — production-latency decision serving for MRSch.
//!
//! The paper positions MRSch as an *online* scheduler: every scheduling
//! instance is one network inference, and §V reports decision overhead
//! as the practical deployment constraint. This crate turns the frozen
//! policy machinery ([`mrsch_dfp::PolicySnapshot`], the PR 4 registry)
//! into a long-running decision service:
//!
//! * [`protocol`] — a line-delimited request/response format
//!   (`id;state;meas;goal;valid` → `id;action`), transport-agnostic;
//! * [`engine`] — the [`engine::DecisionEngine`]: a frozen DFP network
//!   answering one request per fused-gemv forward pass;
//! * [`batcher`] — `MicroBatcher`, a shim that decides each submitted
//!   request at once, kept only for `benchmarks/e2e`;
//! * [`histogram`] — an HDR-style log-bucketed latency histogram
//!   (p50/p95/p99 at ≤ 1/16 relative error, fixed memory);
//! * [`loadgen`] — a seeded open-arrival load generator (Poisson
//!   arrival gaps from `mrsch_workload::stress`, scaled to a target
//!   QPS) for self-contained load tests;
//! * [`server`] — stdin and TCP serving: one thread per stream reads,
//!   decides and answers each request (replies leave as whole lines,
//!   one write per burst, `TCP_NODELAY` on), plus the
//!   [`server::run_loadtest`] harness used by CI.
//!
//! The `mrsch_cli serve` front door lives with the other subcommands in
//! `mrsch_experiments::cli`.
//!
//! Determinism: the decision path inherits the GEMM/gemv bit-exactness
//! contract, so the served action stream is a pure function of
//! `(weights, request)` — independent of arrival timing, connection
//! count, and transport.

pub mod batcher;
pub mod engine;
pub mod histogram;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use batcher::{BatcherConfig, MicroBatcher, Reply};
pub use engine::{build_engine, DecisionEngine, EngineSpec};
pub use histogram::LatencyHistogram;
pub use loadgen::{arrival_offsets, synth_requests, LoadgenConfig};
pub use protocol::{format_response, parse_request, parse_response, Request};
pub use server::{run_loadtest, LoadReport};
