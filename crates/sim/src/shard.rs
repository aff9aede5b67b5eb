//! One simulation run, start to finish, with optional periodic
//! checkpoints.
//!
//! A [`ShardSpec`] bundles everything a run needs — the cluster, the
//! dense-id trace, the parameters and the disruptions injected before
//! the run — and [`run_shard`] simulates it on one thread, bit for bit
//! deterministically. With a [`SnapshotConfig`] the run is stepped and
//! rewrites its checkpoint every `every` event batches, which is what
//! `mrsch_cli simulate --snapshot-every N --snapshot-dir DIR`, `resume`
//! and the crash drill build on. The checkpoint file is named by the
//! run's index ([`shard_snapshot_name`], `shard-0000.snap` for the
//! CLI's single run).

use crate::event::{EventQueue, InjectedEvent};
use crate::job::{Job, JobId};
use crate::metrics::SimReport;
use crate::policy::Policy;
use crate::resources::SystemConfig;
use crate::simulator::{SimError, SimParams, Simulator};
use crate::SimTime;
use std::path::{Path, PathBuf};

/// Everything one run needs to simulate independently.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// The cluster configuration.
    pub config: SystemConfig,
    /// Dense-id trace.
    pub jobs: Vec<Job>,
    /// Simulation parameters.
    pub params: SimParams,
    /// Disruption events injected before the run.
    pub events: Vec<InjectedEvent>,
    /// Wait-aware relative cancels (`Simulator::schedule_cancel_after_start`).
    pub relative_cancels: Vec<(JobId, SimTime)>,
}

impl ShardSpec {
    /// A clean run (no disruptions).
    pub fn new(config: SystemConfig, jobs: Vec<Job>, params: SimParams) -> Self {
        Self { config, jobs, params, events: Vec::new(), relative_cancels: Vec::new() }
    }
}

/// Periodic checkpointing for a run: every `every` processed event
/// batches the run overwrites `dir/shard-NNNN.snap` with its current
/// [`Simulator::snapshot`] (written crash-safely via a temp file +
/// rename, so a kill mid-write never leaves a torn snapshot).
#[derive(Clone, Debug)]
pub struct SnapshotConfig {
    /// Event batches between snapshots (at least 1).
    pub every: u64,
    /// Directory receiving the `shard-NNNN.snap` checkpoint.
    pub dir: PathBuf,
}

/// Simulate one spec start to finish, optionally checkpointing (as
/// `shard_snapshot_name(index)` in the snapshot directory).
pub fn run_shard<Q: EventQueue>(
    spec: &ShardSpec,
    index: usize,
    snap: Option<&SnapshotConfig>,
    mut policy: Box<dyn Policy + Send>,
) -> Result<SimReport, SimError> {
    let mut sim: Simulator<Q> =
        Simulator::with_queue(spec.config.clone(), spec.jobs.clone(), spec.params)?;
    sim.inject_all(&spec.events)?;
    for &(id, delay) in &spec.relative_cancels {
        sim.schedule_cancel_after_start(id, delay)?;
    }
    let Some(cfg) = snap else {
        return Ok(sim.run(policy.as_mut()));
    };
    // Stepped run: snapshots land only at event-batch boundaries, where
    // restore-and-continue is bit-identical to never stopping.
    let mut batches = 0u64;
    while sim.step(policy.as_mut()) {
        batches += 1;
        if batches.is_multiple_of(cfg.every) {
            write_shard_snapshot(&cfg.dir, index, &sim)
                .map_err(|e| SimError::Snapshot(format!("shard {index}: {e}")))?;
        }
    }
    let report = sim.final_report();
    policy.episode_end(&report);
    Ok(report)
}

/// File name of shard `index`'s checkpoint inside a snapshot dir.
pub fn shard_snapshot_name(index: usize) -> String {
    format!("shard-{index:04}.snap")
}

/// Write one shard's checkpoint crash-safely (temp file in the same
/// directory, then an atomic rename over the previous snapshot) and
/// return its final path.
pub fn write_shard_snapshot<Q: EventQueue>(
    dir: &Path,
    index: usize,
    sim: &Simulator<Q>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = shard_snapshot_name(index);
    let path = dir.join(&name);
    let tmp = dir.join(format!(".{name}.tmp"));
    std::fs::write(&tmp, sim.snapshot())?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BinaryHeapEventQueue, IndexedEventQueue};
    use crate::policy::HeadOfQueue;

    fn spec() -> ShardSpec {
        let jobs: Vec<Job> = (0..60)
            .map(|i| {
                Job::new(
                    i,
                    (i as SimTime) * 7,
                    20 + (i as SimTime * 13) % 90,
                    150,
                    vec![1 + (i as u64 % 4), i as u64 % 3],
                )
            })
            .collect();
        ShardSpec::new(SystemConfig::two_resource(6, 6), jobs, SimParams::default())
    }

    fn fcfs() -> Box<dyn Policy + Send> {
        Box::new(HeadOfQueue)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mrsim-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn queue_implementation_does_not_change_any_report() {
        let indexed = run_shard::<IndexedEventQueue>(&spec(), 0, None, fcfs()).unwrap();
        let heap = run_shard::<BinaryHeapEventQueue>(&spec(), 0, None, fcfs()).unwrap();
        assert_eq!(indexed, heap);
    }

    #[test]
    fn periodic_snapshots_restore_to_the_uninterrupted_reports() {
        let dir = temp_dir("snap");
        let reference = run_shard::<IndexedEventQueue>(&spec(), 0, None, fcfs()).unwrap();
        let snap = SnapshotConfig { every: 3, dir: dir.clone() };
        let with_snaps = run_shard::<IndexedEventQueue>(&spec(), 2, Some(&snap), fcfs()).unwrap();
        assert_eq!(with_snaps, reference, "checkpointing must not perturb the run");
        let path = dir.join(shard_snapshot_name(2));
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("snapshot at {path:?}: {e}"));
        let mut sim = Simulator::<IndexedEventQueue>::restore(&bytes).unwrap();
        let mut policy = fcfs();
        while sim.step(policy.as_mut()) {}
        assert_eq!(sim.final_report(), reference, "restored from the last snapshot, diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_snapshot_dir_surfaces_a_snapshot_error() {
        let dir = temp_dir("ro");
        // A *file* where the directory should be makes create_dir_all fail.
        std::fs::write(&dir, b"not a directory").unwrap();
        let snap = SnapshotConfig { every: 1, dir: dir.clone() };
        let err = run_shard::<IndexedEventQueue>(&spec(), 0, Some(&snap), fcfs()).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn invalid_shard_surfaces_the_error() {
        let bad = ShardSpec::new(
            SystemConfig::two_resource(2, 2),
            vec![Job::new(0, 0, 10, 10, vec![5, 0])], // infeasible demand
            SimParams::default(),
        );
        let err = run_shard::<IndexedEventQueue>(&bad, 0, None, fcfs()).unwrap_err();
        assert!(matches!(err, SimError::InvalidJob(_)));
    }
}
