//! **mrsch-eval** — the unified policy registry and scenario evaluation
//! harness: "run policy P on scenario S" as a first-class, one-call
//! operation.
//!
//! The MRSch paper's headline results are cross-policy comparisons
//! (MRSch vs FCFS vs GA vs scalar-RL across workloads, seeds and
//! disruptions). This crate gives that comparison a single API instead
//! of per-driver plumbing:
//!
//! * [`registry::PolicySpec`] — a string-addressable policy
//!   (`"fcfs"`, `"list:lpt"`, `"ga"`, `"scalar-rl"`, `"mrsch"`, ...)
//!   that knows how to build, optionally **train** (through the
//!   `mrsch::engine` curriculum machinery) and instantiate a boxed
//!   [`mrsim::Policy`] for evaluation;
//! * [`harness::EvalPlan`] — `policies × scenarios × seeds`, executed
//!   as a worker-threaded grid with a deterministic merge (worker count
//!   never changes results);
//! * [`harness::EvalGrid`] — per-cell `SimReport`s, the only result
//!   type; every table is a selection of named [`columns`] over its
//!   cells (per cell, or mean ± std over seeds), emitted as one
//!   [`table::Table`] (aligned text or CSV);
//! * [`scenario_registry::ScenarioSpec`] — a string-addressable
//!   scenario (`"clean"`, `"dag:fanout:3"`, `"bursty:diurnal:60"`,
//!   `"energy:drain"`, ...) spanning the disruption, workflow-DAG,
//!   bursty-arrival and energy families, with typed parse errors and a
//!   `Display` round trip (the scenario-side mirror of `PolicySpec`).
//!
//! ```
//! use mrsch_eval::{EvalPlan, PolicySpec};
//! use mrsch::prelude::*;
//!
//! let scenario = Scenario::new(
//!     "clean",
//!     JobSource::Theta(ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(15) }),
//!     WorkloadSpec::s1(),
//!     SimParams::new(4, true),
//! );
//! let grid = EvalPlan::new(
//!     SystemConfig::two_resource(16, 8),
//!     vec![PolicySpec::Fcfs, PolicySpec::Ga],
//!     vec![scenario],
//!     vec![1, 2],
//! )
//! .run();
//! assert_eq!(grid.cells.len(), 4);
//! let wait = grid.aggregate("fcfs", "clean", mrsch_eval::columns::AVG_WAIT_H).unwrap();
//! assert!(wait.mean >= 0.0 && wait.std >= 0.0);
//! ```

pub mod cache;
pub mod columns;
pub mod harness;
pub mod registry;
pub mod scenario_registry;
pub mod table;

pub use cache::{cache_key, CacheKey, KeyHasher, PolicyCache};
pub use columns::Column;
pub use harness::{
    default_training_curriculum, eval_episode, parse_seed_spec, Aggregate, EvalCell, EvalGrid,
    EvalPlan,
};
pub use registry::{trained_mrsch, untrained_mrsch, BuildContext, MrschSpec, PolicySpec};
pub use table::Table;
pub use scenario_registry::{build_scenarios, ScenarioParseError, ScenarioSpec};
