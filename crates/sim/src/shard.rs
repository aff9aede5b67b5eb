//! Sharded multi-cluster simulation with a deterministic merge.
//!
//! A million-job campaign rarely models one machine: it is a fleet of
//! clusters (or one cluster split into independent partitions), each an
//! independent DES. This module runs such a fleet across threads using
//! [`striped_map`]: worker `w` of `k` simulates shards `w, w + k,
//! w + 2k, ...` and the returned reports are in shard order
//! **regardless of worker count or completion timing**. Each
//! shard's simulation is single-threaded and bit-deterministic, which
//! makes the whole fleet deterministic: `workers(1)` and `workers(8)`
//! produce byte-identical report vectors (the large-trace determinism
//! suite pins exactly that).

use crate::event::{EventQueue, IndexedEventQueue, InjectedEvent};
use crate::job::{Job, JobId};
use crate::metrics::SimReport;
use crate::policy::Policy;
use crate::resources::SystemConfig;
use crate::simulator::{SimError, SimParams, Simulator};
use crate::striped::striped_map;
use crate::SimTime;
use std::path::{Path, PathBuf};

/// Everything one shard needs to simulate independently.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// The shard's cluster configuration.
    pub config: SystemConfig,
    /// Dense-id trace for this shard.
    pub jobs: Vec<Job>,
    /// Simulation parameters.
    pub params: SimParams,
    /// Disruption events injected before the run.
    pub events: Vec<InjectedEvent>,
    /// Wait-aware relative cancels (`Simulator::schedule_cancel_after_start`).
    pub relative_cancels: Vec<(JobId, SimTime)>,
}

impl ShardSpec {
    /// A clean shard (no disruptions).
    pub fn new(config: SystemConfig, jobs: Vec<Job>, params: SimParams) -> Self {
        Self { config, jobs, params, events: Vec::new(), relative_cancels: Vec::new() }
    }
}

/// Periodic checkpointing for a fleet run: every `every` processed
/// event batches each shard overwrites `dir/shard-NNNN.snap` with its
/// current [`Simulator::snapshot`] (written crash-safely via a temp
/// file + rename, so a kill mid-write never leaves a torn snapshot).
#[derive(Clone, Debug)]
pub struct SnapshotConfig {
    /// Event batches between snapshots (at least 1).
    pub every: u64,
    /// Directory receiving one `shard-NNNN.snap` per shard.
    pub dir: PathBuf,
}

/// A fleet of independent shards plus a worker count.
#[derive(Clone, Debug)]
pub struct ShardedSim {
    shards: Vec<ShardSpec>,
    workers: usize,
    snapshots: Option<SnapshotConfig>,
}

impl ShardedSim {
    /// A fleet over the given shards, serial by default.
    pub fn new(shards: Vec<ShardSpec>) -> Self {
        Self { shards, workers: 1, snapshots: None }
    }

    /// Set the worker-thread count (clamped to at least 1; more workers
    /// than shards is harmless). Returns `self` for chaining.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enable periodic checkpoints: every `every` event batches each
    /// shard rewrites its `shard-NNNN.snap` in `dir` (the CLI's
    /// `--snapshot-every N --snapshot-dir DIR`). Returns `self` for
    /// chaining.
    pub fn snapshots(mut self, every: u64, dir: impl Into<PathBuf>) -> Self {
        self.snapshots = Some(SnapshotConfig { every: every.max(1), dir: dir.into() });
        self
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Simulate every shard with the default indexed event queue.
    ///
    /// `make_policy(shard_index)` builds each shard's policy — shards
    /// never share policy state, which is what keeps the fleet
    /// embarrassingly parallel *and* deterministic.
    ///
    /// A failing shard does not stop the fleet: every shard runs to
    /// completion (or to its own error) for any worker count — one
    /// worker included — and the error returned is that of the
    /// lowest-indexed failing shard. The serial path used to stop at the
    /// first failure; it now behaves like the threaded one, so which
    /// snapshot files exist after a failed run does not depend on
    /// `workers`.
    pub fn run_with<F>(&self, make_policy: &F) -> Result<Vec<SimReport>, SimError>
    where
        F: Fn(usize) -> Box<dyn Policy + Send> + Sync,
    {
        self.run_with_queue::<IndexedEventQueue, F>(make_policy)
    }

    /// [`ShardedSim::run_with`] generic over the event-queue
    /// implementation (the determinism suite cross-checks both).
    pub fn run_with_queue<Q, F>(&self, make_policy: &F) -> Result<Vec<SimReport>, SimError>
    where
        Q: EventQueue,
        F: Fn(usize) -> Box<dyn Policy + Send> + Sync,
    {
        let snap = self.snapshots.as_ref();
        striped_map(self.workers, self.shards.len(), || (), |(), i| {
            run_shard::<Q>(&self.shards[i], i, snap, make_policy(i))
        })
        .into_iter()
        .collect()
    }
}

/// Simulate one shard start to finish, optionally checkpointing (as
/// shard `index` of the snapshot directory). Public for single-run
/// callers that already hold their policy (`mrsch_cli simulate`).
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

/// Deal a job stream round-robin into `shards` dense-id traces: job `i`
/// of the input becomes job `i / shards` of shard `i % shards`. Submit
/// order (and thus each shard's FCFS order) is preserved.
pub fn partition_round_robin(jobs: &[Job], shards: usize) -> Vec<Vec<Job>> {
    let shards = shards.max(1);
    let mut out: Vec<Vec<Job>> = (0..shards).map(|_| Vec::new()).collect();
    for (i, job) in jobs.iter().enumerate() {
        let mut j = job.clone();
        j.id = i / shards;
        out[i % shards].push(j);
    }
    out
}

/// Fleet-level aggregates with a deterministic episode-order merge: every
/// total folds over the reports in shard order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardTotals {
    /// Shards merged.
    pub shards: usize,
    /// Sum of completed jobs.
    pub jobs_completed: usize,
    /// Sum of cancelled jobs.
    pub jobs_cancelled: usize,
    /// Sum of walltime-killed jobs.
    pub jobs_killed: usize,
    /// Sum of jobs still waiting at the horizon.
    pub jobs_unfinished: usize,
    /// Total events processed across the fleet.
    pub events: u64,
    /// Total policy decisions.
    pub decisions: u64,
    /// Total scheduling instances.
    pub instances: u64,
    /// Earliest shard start time.
    pub start_time: SimTime,
    /// Latest shard end time.
    pub end_time: SimTime,
}

impl ShardTotals {
    /// Merge per-shard reports (in shard order).
    pub fn merge(reports: &[SimReport]) -> Self {
        let mut totals = Self { shards: reports.len(), ..Self::default() };
        totals.start_time = reports.iter().map(|r| r.start_time).min().unwrap_or(0);
        for r in reports {
            totals.jobs_completed += r.jobs_completed;
            totals.jobs_cancelled += r.jobs_cancelled;
            totals.jobs_killed += r.jobs_killed;
            totals.jobs_unfinished += r.jobs_unfinished;
            totals.events += r.event_counts.total();
            totals.decisions += r.decisions;
            totals.instances += r.instances;
            totals.end_time = totals.end_time.max(r.end_time);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BinaryHeapEventQueue;
    use crate::policy::HeadOfQueue;

    fn fleet(nshards: usize) -> ShardedSim {
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
        let shards = partition_round_robin(&jobs, nshards)
            .into_iter()
            .map(|js| ShardSpec::new(SystemConfig::two_resource(6, 6), js, SimParams::default()))
            .collect();
        ShardedSim::new(shards)
    }

    fn fcfs() -> Box<dyn Policy + Send> {
        Box::new(HeadOfQueue)
    }

    #[test]
    fn partition_deals_round_robin_with_dense_ids() {
        let jobs: Vec<Job> =
            (0..7).map(|i| Job::new(i, i as SimTime, 10, 10, vec![1])).collect();
        let parts = partition_round_robin(&jobs, 3);
        assert_eq!(parts.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 2, 2]);
        for part in &parts {
            for (idx, job) in part.iter().enumerate() {
                assert_eq!(job.id, idx, "shard ids re-densified");
            }
        }
        // Submit order inside each shard is preserved.
        assert_eq!(parts[1].iter().map(|j| j.submit).collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn worker_count_does_not_change_any_report() {
        let one = fleet(4).workers(1).run_with(&|_| fcfs()).unwrap();
        let two = fleet(4).workers(2).run_with(&|_| fcfs()).unwrap();
        let four = fleet(4).workers(4).run_with(&|_| fcfs()).unwrap();
        let eight = fleet(4).workers(8).run_with(&|_| fcfs()).unwrap();
        assert_eq!(one, two, "1 vs 2 workers");
        assert_eq!(one, four, "1 vs 4 workers");
        assert_eq!(one, eight, "more workers than shards is harmless");
    }

    #[test]
    fn queue_implementation_does_not_change_any_report() {
        let indexed = fleet(3).workers(3).run_with(&|_| fcfs()).unwrap();
        let heap =
            fleet(3).workers(3).run_with_queue::<BinaryHeapEventQueue, _>(&|_| fcfs()).unwrap();
        assert_eq!(indexed, heap);
    }

    #[test]
    fn totals_merge_accounts_every_job() {
        let reports = fleet(4).workers(2).run_with(&|_| fcfs()).unwrap();
        let totals = ShardTotals::merge(&reports);
        assert_eq!(totals.shards, 4);
        assert_eq!(
            totals.jobs_completed
                + totals.jobs_cancelled
                + totals.jobs_killed
                + totals.jobs_unfinished,
            60
        );
        assert!(totals.events > 0);
        assert!(totals.end_time > totals.start_time);
    }

    #[test]
    fn periodic_snapshots_restore_to_the_uninterrupted_reports() {
        let dir = std::env::temp_dir()
            .join(format!("mrsim-shard-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reference = fleet(3).workers(1).run_with(&|_| fcfs()).unwrap();
        let with_snaps =
            fleet(3).workers(2).snapshots(3, &dir).run_with(&|_| fcfs()).unwrap();
        assert_eq!(with_snaps, reference, "checkpointing must not perturb the run");
        for (i, expected) in reference.iter().enumerate() {
            let path = dir.join(shard_snapshot_name(i));
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("snapshot for shard {i} at {path:?}: {e}"));
            let mut sim = Simulator::<IndexedEventQueue>::restore(&bytes).unwrap();
            let mut policy = fcfs();
            while sim.step(policy.as_mut()) {}
            assert_eq!(
                &sim.final_report(),
                expected,
                "shard {i} restored from its last periodic snapshot diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_snapshot_dir_surfaces_a_snapshot_error() {
        let dir = std::env::temp_dir()
            .join(format!("mrsim-shard-snap-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A *file* where the directory should be makes create_dir_all fail.
        std::fs::write(&dir, b"not a directory").unwrap();
        let err = fleet(2).snapshots(1, &dir).run_with(&|_| fcfs()).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn empty_fleet_is_fine() {
        let reports = ShardedSim::new(Vec::new()).workers(4).run_with(&|_| fcfs()).unwrap();
        assert!(reports.is_empty());
        assert_eq!(ShardTotals::merge(&reports).shards, 0);
    }

    #[test]
    fn invalid_shard_surfaces_the_error() {
        let bad = ShardSpec::new(
            SystemConfig::two_resource(2, 2),
            vec![Job::new(0, 0, 10, 10, vec![5, 0])], // infeasible demand
            SimParams::default(),
        );
        let err = ShardedSim::new(vec![bad]).run_with(&|_| fcfs()).unwrap_err();
        assert!(matches!(err, SimError::InvalidJob(_)));
    }
}
