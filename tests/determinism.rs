//! Integration test: the entire pipeline is bit-deterministic under a
//! fixed seed. The repository commits to this so that every figure
//! regenerates identically from its seed.

use mrsch::prelude::*;
use mrsch_experiments::{fig1, ExpScale};
use mrsch_workload::split::paper_split;

fn run_once(seed: u64) -> (Vec<f64>, f64, f64) {
    let system = SystemConfig::two_resource(40, 12);
    let cfg = ThetaConfig { machine_nodes: 40, ..ThetaConfig::scaled(300) };
    let trace = cfg.generate(seed);
    let split = paper_split(&trace);
    let spec = WorkloadSpec::s2();
    let train = spec.build(&split.train[..80.min(split.train.len())], &system, seed);
    let eval = spec.build(&split.test[..60.min(split.test.len())], &system, seed + 1);
    let mut mrsch = MrschBuilder::new(system, SimParams::new(5, true))
        .seed(seed)
        .batches_per_episode(4)
        .build();
    mrsch.train_episode(&train);
    let report = mrsch.evaluate(&eval);
    (
        report.resource_utilization.clone(),
        report.avg_wait,
        report.avg_slowdown,
    )
}

#[test]
fn trained_evaluation_is_bit_identical_across_runs() {
    let a = run_once(1234);
    let b = run_once(1234);
    assert_eq!(a, b, "same seed must give identical metrics");
}

#[test]
fn different_seeds_differ() {
    let a = run_once(1);
    let b = run_once(2);
    assert_ne!(a, b, "different seeds should explore different schedules");
}

#[test]
fn fig1_is_pure() {
    assert_eq!(fig1::run(), fig1::run());
}

/// Full disrupted pipeline: train briefly, then evaluate under a
/// cancellation + overrun + drain trace, returning the whole report.
fn run_disrupted(seed: u64) -> SimReport {
    use mrsch_workload::disruption::{DisruptionConfig, DrainSpec};
    let system = SystemConfig::two_resource(40, 12);
    let cfg = ThetaConfig { machine_nodes: 40, ..ThetaConfig::scaled(160) };
    let trace = cfg.generate(seed);
    let split = paper_split(&trace);
    let spec = WorkloadSpec::s2();
    let train = spec.build(&split.train[..50.min(split.train.len())], &system, seed);
    let eval = spec.build(&split.test[..45.min(split.test.len())], &system, seed + 1);
    let disruptions = DisruptionConfig {
        cancel_fraction: 0.15,
        overrun_fraction: 0.15,
        overrun_factor: 1.5,
        drains: vec![DrainSpec { resource: 0, fraction: 0.25, at: 1_500, duration: 4_000 }],
    };
    let disrupted = disruptions.synthesize(&eval, &system, seed + 2);
    let mut mrsch = MrschBuilder::new(
        system,
        SimParams { enforce_walltime: true, tick: Some(900), ..SimParams::new(5, true) },
    )
    .seed(seed)
    .batches_per_episode(4)
    .build();
    mrsch.train_episode(&train);
    mrsch.evaluate_disrupted(&disrupted.jobs, &disrupted.events).expect("valid disruption trace")
}

#[test]
fn disruption_replay_is_bit_identical_serial_vs_parallel_gemm() {
    // Identical seeds must reproduce the identical SimReport — including
    // the disruption counters — regardless of GEMM threading, because
    // the row-band split preserves each output element's reduction order.
    use mrsch_linalg::{set_default_policy, ParallelPolicy};
    set_default_policy(ParallelPolicy::Serial);
    let serial = run_disrupted(77);
    set_default_policy(ParallelPolicy::Threads { max_threads: 4 });
    let parallel = run_disrupted(77);
    set_default_policy(ParallelPolicy::Auto);
    assert_eq!(serial, parallel, "serial vs parallel GEMM must not diverge");
    // The disruption machinery actually fired and every job is accounted.
    assert!(serial.jobs_cancelled > 0, "cancels landed");
    assert!(serial.jobs_killed > 0, "walltime kills landed");
    assert!(serial.capacity_lost_unit_seconds[0] > 0.0, "drain registered");
    assert!(serial.event_counts.count(mrsim::EventKind::Tick) > 0, "ticks fired");
    assert!(serial.all_jobs_accounted(serial.records.len()));
}

#[test]
fn table3_statistics_are_deterministic() {
    use mrsch_experiments::table3;
    let s1 = table3::run(&ExpScale::quick(), 9);
    let s2 = table3::run(&ExpScale::quick(), 9);
    for (a, b) in s1.iter().zip(&s2) {
        assert_eq!(a.realized_participation, b.realized_participation);
        assert_eq!(a.node_seconds, b.node_seconds);
    }
}
