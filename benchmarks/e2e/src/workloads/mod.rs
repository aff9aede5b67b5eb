//! The six workloads. Names are fixed: later issues cite them.

use crate::report::{peak_rss_mib, Report, RunArgs};
use mrsch_linalg::ParallelPolicy;

pub mod grid;
pub mod serve;
pub mod sim;
pub mod train;

pub const NAMES: &[&str] = &[
    "sim_mrsch_100k",
    "sim_fcfs_1m",
    "sim_backlog_100k",
    "train_curriculum",
    "grid_220",
    "serve_replay",
];

/// Why each workload exists, one line each (`/BENCHMARK.json` carries them).
pub const WHY: &[&str] = &[
    "100k-job disrupted trace under a trained MRSch policy: state encoding and the network forward pass do nearly all the work, the event engine nearly none",
    "1M-job disrupted trace at 70 % load under HeadOfQueue: shallow wait queue, so the event queue and handlers dominate and NN changes must not move it",
    "100k-job clean trace at 95 % load under HeadOfQueue: deep wait queue, so scheduling-instance and backfill scans dominate instead of the event queue",
    "48-episode disruption-hardening curriculum through the training engine: batch-32 GEMM forward/backward, Adam and replay sampling; inference-only changes barely move it",
    "the CI grid, 11 policies x 10 scenarios x 2 seeds, cold then warm cache: harness, cache, baselines and hundreds of 30-job episodes, the opposite of the long traces",
    "20k simulator-recorded requests through the line protocol, micro-batcher and socket of the decision service: real request distribution, open loop at 2000 qps and depth-1 round trips",
];

/// Run one workload in this process.
///
/// GEMM runs under `ParallelPolicy::Serial`. The crates' default, `Auto`,
/// spawns scoped threads per large matmul; on the 2-core host that is
/// both slower (training 1.8x) and the main source of run-to-run noise,
/// and every policy is bit-identical by the crates' own contract, so the
/// output checks are unaffected. What `Auto` costs is kept visible as the
/// per-layer metric `linalg.auto_policy_speedup` (`train_curriculum`).
pub fn run(args: &RunArgs) -> Report {
    mrsch_linalg::set_default_policy(ParallelPolicy::Serial);
    let mut report = Report::default();
    match args.workload.as_str() {
        "sim_mrsch_100k" | "sim_fcfs_1m" | "sim_backlog_100k" => sim::run(args, &mut report),
        "train_curriculum" => train::run(args, &mut report),
        "grid_220" => grid::run(args, &mut report),
        "serve_replay" => serve::run(args, &mut report),
        other => panic!("unknown workload '{other}'"),
    }
    if !args.traced {
        report.metric("peak_rss_mb", peak_rss_mib());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    /// The `--smoke` size exercises every workload and every output
    /// check, untraced and traced, in seconds (`cargo test --release`
    /// keeps it under 15 s; CI can wire `mrsch-e2e run --smoke` the same way).
    #[test]
    fn smoke_size_passes_every_check_of_every_workload() {
        for name in NAMES {
            for traced in [false, true] {
                let args = RunArgs {
                    workload: name.to_string(),
                    seed: 7,
                    seconds: 0.5,
                    traced,
                    smoke: true,
                };
                let report = run(&args);
                for check in &report.checks {
                    assert!(
                        check.ok,
                        "{name} traced={traced}: {} {}",
                        check.name, check.detail
                    );
                }
                assert_eq!(report.failed, 0, "{name} traced={traced}");
                assert!(report.attempted > 0);
                if traced {
                    let coverage = report.value("trace.coverage").expect("coverage reported");
                    assert!(coverage >= 0.95, "{name}: coverage {coverage}");
                    assert!(report.value("trace.overhead_pct").is_some());
                } else {
                    for def in metrics::END_TO_END {
                        let v = report.value(def.name).unwrap_or(0.0);
                        assert!(v > 0.0, "{name}: {} = {v}", def.name);
                    }
                }
            }
        }
    }
}
