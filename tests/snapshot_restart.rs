//! Crash/restart drill: kill a disrupted run mid-drain, restore from
//! its last checkpoint, and finish with a **bit-identical** report.
//!
//! The `mrsch-snapshot` contract, locked here end to end:
//!
//! * Each of four independently seeded disrupted traces (cancels,
//!   walltime overruns, a node-drain episode, a tick chain) is stepped
//!   into the middle of its drain window, checkpointed with
//!   [`mrsim::write_shard_snapshot`], and dropped — the in-memory
//!   simulator is gone, exactly as after a `kill -9`.
//! * Restoring each `shard-NNNN.snap` and running to completion yields
//!   reports `==` (the whole [`SimReport`], every record and f64 bit)
//!   to the uninterrupted [`mrsim::run_shard`] reference, restored into
//!   **either** event-queue implementation — including the one the
//!   snapshot was not taken under.
//! * A run with periodic snapshots enabled produces the same report as
//!   one without (checkpointing never perturbs).
//!
//! Tier-1 drills 5 000 jobs; the 100 000-job version of the same checks
//! runs under `--ignored` (CI executes it in the bench job).

use mrsch_workload::disruption::{DisruptionConfig, DrainSpec};
use mrsch_workload::StressConfig;
use mrsim::policy::{HeadOfQueue, Policy};
use mrsim::{
    run_shard, shard_snapshot_name, write_shard_snapshot, BinaryHeapEventQueue, EventKind,
    EventQueue, IndexedEventQueue, ShardSpec, SimParams, SimReport, SimTime, Simulator,
    SnapshotConfig, SystemConfig,
};

const NODES: u64 = 256;
const BB: u64 = 32;
const SEED: u64 = 20_220_517; // MRSch camera-ready date

fn system() -> SystemConfig {
    SystemConfig::two_resource(NODES, BB)
}

fn params() -> SimParams {
    SimParams { enforce_walltime: true, tick: Some(900), ..SimParams::new(10, true) }
}

/// A disrupted `n`-job stress trace, same recipe as the large-trace
/// determinism suite: `stream` seeds both the trace and its
/// disruptions, so different streams are independent traces.
fn disrupted_trace(n: usize, stream: u64) -> ShardSpec {
    let jobs = StressConfig::engine(n, vec![NODES, BB]).generate(SEED + stream);
    let span = jobs.last().expect("nonempty trace").submit;
    let disruptions = DisruptionConfig {
        cancel_fraction: 0.08,
        overrun_fraction: 0.08,
        overrun_factor: 1.5,
        drains: vec![DrainSpec { resource: 0, fraction: 0.25, at: span / 4, duration: span / 4 }],
    };
    let trace = disruptions.synthesize(&jobs, &system(), SEED + 101 * stream);
    ShardSpec {
        config: system(),
        jobs: trace.jobs,
        params: params(),
        events: trace.events,
        relative_cancels: Vec::new(),
    }
}

fn fcfs() -> Box<dyn Policy + Send> {
    Box::new(HeadOfQueue)
}

/// The trace's drain window `[start, end)` from its injected events.
fn drain_window(spec: &ShardSpec) -> (SimTime, SimTime) {
    let mut start = SimTime::MAX;
    let mut end = 0;
    for ev in &spec.events {
        if let EventKind::CapacityChange { delta, .. } = ev.kind {
            if delta < 0 {
                start = start.min(ev.time);
            } else {
                end = end.max(ev.time);
            }
        }
    }
    assert!(start < end, "trace carries a drain episode");
    (start, end)
}

/// Step trace `index` into the middle of its drain window, checkpoint
/// it, and "crash" (drop the simulator).
fn crash_mid_drain<Q: EventQueue>(spec: &ShardSpec, index: usize, dir: &std::path::Path) {
    let (drain_start, drain_end) = drain_window(spec);
    let mut sim: Simulator<Q> =
        Simulator::with_queue(spec.config.clone(), spec.jobs.clone(), spec.params).unwrap();
    sim.inject_all(&spec.events).unwrap();
    let mut policy = HeadOfQueue;
    while sim.step(&mut policy) {
        if sim.now() > drain_start && sim.now() < drain_end {
            break;
        }
    }
    assert!(
        sim.now() > drain_start && sim.now() < drain_end,
        "trace {index} was killed mid-drain (t={})",
        sim.now()
    );
    assert!(
        sim.pools().capacity(0) < sim.pools().base_capacity(0) || sim.pools().draining(0) > 0,
        "trace {index} has capacity offline or drain debt outstanding at the kill point"
    );
    write_shard_snapshot(dir, index, &sim).unwrap();
    // The drop is the crash: only the snapshot file survives.
}

/// Restore trace `index` from its snapshot file into queue impl `Q`
/// and run it to completion.
fn restore_and_finish<Q: EventQueue>(dir: &std::path::Path, index: usize) -> SimReport {
    let bytes = std::fs::read(dir.join(shard_snapshot_name(index))).unwrap();
    let mut sim: Simulator<Q> = Simulator::restore(&bytes).unwrap();
    let mut policy = HeadOfQueue;
    while sim.step(&mut policy) {}
    sim.final_report()
}

fn drill(n: usize, traces: usize) {
    let dir = std::env::temp_dir().join(format!(
        "mrsch-crash-drill-{}-{}-{}",
        n,
        traces,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<ShardSpec> =
        (0..traces).map(|i| disrupted_trace(n / traces, i as u64 + 1)).collect();

    // Uninterrupted reference.
    let reference: Vec<SimReport> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| run_shard::<IndexedEventQueue>(spec, i, None, fcfs()).unwrap())
        .collect();
    // The disruptions actually fired: the drill must not vacuously pass.
    assert!(reference.iter().any(|r| r.jobs_cancelled > 0), "cancels landed");
    assert!(reference.iter().any(|r| r.jobs_killed > 0), "walltime kills landed");
    assert!(
        reference.iter().all(|r| r.capacity_lost_unit_seconds[0] > 0.0),
        "every trace lost capacity to its drain"
    );

    // A run checkpointing as it goes is unperturbed.
    let periodic = SnapshotConfig { every: 256, dir: dir.join("periodic") };
    for (i, (spec, expected)) in specs.iter().zip(&reference).enumerate() {
        let got = run_shard::<IndexedEventQueue>(spec, i, Some(&periodic), fcfs()).unwrap();
        assert_eq!(&got, expected, "trace {i}: periodic checkpointing perturbed the run");
    }

    // Kill every run mid-drain, then restore and finish — into the
    // same queue impl the snapshot was taken under and into the other.
    let kill_dir = dir.join("killed");
    for (i, spec) in specs.iter().enumerate() {
        crash_mid_drain::<IndexedEventQueue>(spec, i, &kill_dir);
    }
    for (i, expected) in reference.iter().enumerate() {
        let same_queue = restore_and_finish::<IndexedEventQueue>(&kill_dir, i);
        assert_eq!(&same_queue, expected, "trace {i}: indexed restore diverged");
        let cross_queue = restore_and_finish::<BinaryHeapEventQueue>(&kill_dir, i);
        assert_eq!(&cross_queue, expected, "trace {i}: heap restore diverged");
    }

    // And the mirror-image kill under the heap queue restores into both.
    let heap_dir = dir.join("killed-heap");
    crash_mid_drain::<BinaryHeapEventQueue>(&specs[0], 0, &heap_dir);
    assert_eq!(
        restore_and_finish::<IndexedEventQueue>(&heap_dir, 0),
        reference[0],
        "heap snapshot restored into the indexed queue diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_drill_five_thousand_jobs_restores_bit_identically() {
    drill(5_000, 4);
}

/// The full-size drill: 100k jobs over four disrupted traces, each
/// killed mid-drain. Run with
/// `cargo test --release --test snapshot_restart -- --ignored` (CI's
/// bench job does).
#[test]
#[ignore = "large trace: run explicitly or in the CI bench job"]
fn crash_drill_hundred_thousand_jobs_restores_bit_identically() {
    drill(100_000, 4);
}
