//! Shared pieces of the benchmark harness: the `mrsch-bench/v2` report
//! schema every substrate bench (`benches/`) emits and the regression
//! gate (`bench_gate`) that compares a run against its committed
//! baseline.

pub mod report;
