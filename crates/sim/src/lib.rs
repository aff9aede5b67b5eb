//! `mrsim` — a trace-driven, event-driven HPC job-scheduling simulator.
//!
//! This crate is the reproduction's stand-in for **CQSim**, the simulator
//! the MRSch paper evaluates against (§IV). Like CQSim it:
//!
//! * imports jobs from a trace (submit time, walltime estimate, actual
//!   runtime, per-resource demands),
//! * advances a simulation clock by discrete events — job submission,
//!   completion, user cancellation, walltime kill, capacity change
//!   (node drains and power-cap ramps), and a periodic tick — each
//!   batch of which triggers a *scheduling instance*; kinds dispatch to
//!   pluggable handlers ([`handlers`]) so new event kinds are additive
//!   (see the [`event`] module docs),
//! * at each instance asks a pluggable [`policy::Policy`] to select jobs
//!   from a fixed-size **window** at the front of the waiting queue,
//! * enforces the HPC-specific starvation protections of §III-C:
//!   **reservation** for the first non-fitting selected job and **EASY
//!   backfilling** behind that reservation,
//! * accumulates system-level (per-resource utilization) and user-level
//!   (wait, slowdown) metrics (§IV-B).
//!
//! Multi-resource support is first-class: a [`resources::SystemConfig`]
//! declares any number of unit-based schedulable resources (compute nodes,
//! burst-buffer capacity units, kilowatts of a power budget, ...) and jobs
//! carry one integer demand per resource.
//!
//! The simulator is deterministic: identical inputs and policy behavior
//! produce identical schedules, event orders, and metrics.
//!
//! # Quick example
//!
//! ```
//! use mrsim::job::Job;
//! use mrsim::policy::HeadOfQueue;
//! use mrsim::resources::SystemConfig;
//! use mrsim::simulator::{SimParams, Simulator};
//!
//! // 4-node machine with a 4-unit burst buffer.
//! let config = SystemConfig::two_resource(4, 4);
//! let jobs = vec![
//!     Job::new(0, 0, 100, 120, vec![2, 1]),
//!     Job::new(1, 10, 50, 60, vec![2, 3]),
//! ];
//! let mut sim = Simulator::new(config, jobs, SimParams::default()).unwrap();
//! let report = sim.run(&mut HeadOfQueue);
//! assert_eq!(report.jobs_completed, 2);
//! assert!(report.resource_utilization[0] > 0.0);
//! ```

pub mod backfill;
pub mod event;
pub mod handlers;
pub mod job;
pub mod metrics;
pub mod policy;
pub mod queue;
pub mod resources;
pub mod shard;
pub mod simulator;
pub mod snapshot;
pub mod striped;
pub mod timeline;

pub use event::{
    BinaryHeapEventQueue, Event, EventHandle, EventKind, EventQueue, IndexedEventQueue,
    InjectedEvent, SavedEvent,
};
pub use snapshot::SnapshotError;
pub use job::{Job, JobId, JobOutcome, JobRecord, JobSlab};
pub use metrics::{EventCounts, SimReport};
pub use policy::{Policy, SchedulerView};
pub use resources::{ResourceSpec, SystemConfig};
pub use shard::{
    partition_round_robin, run_shard, shard_snapshot_name, write_shard_snapshot, ShardSpec,
    ShardTotals, ShardedSim, SnapshotConfig,
};
pub use simulator::{SimParams, Simulator};
pub use striped::striped_map;
pub use timeline::Timeline;

/// Simulation time, in whole seconds since the start of the trace.
pub type SimTime = u64;
