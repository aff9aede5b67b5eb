//! **MRSch** — an intelligent multi-resource scheduling agent for HPC,
//! reproducing *MRSch: Multi-Resource Scheduling for HPC* (IEEE CLUSTER
//! 2022).
//!
//! MRSch frames HPC batch scheduling as multi-objective reinforcement
//! learning and solves it with Direct Future Prediction
//! ([`mrsch_dfp`]): at every scheduling instance the agent observes a
//! vector-encoded state (waiting-window jobs + per-unit resource
//! availability, [`encoder`]), the current per-resource utilizations
//! (the *measurement*), and a *goal vector* that dynamically re-weights
//! resources by contention fierceness (Eq. 1, [`goal`]), then selects
//! jobs from the window. Reservation and EASY backfilling (provided by
//! the [`mrsim`] substrate) prevent starvation.
//!
//! # Crate layout
//!
//! * [`encoder`] — the vector state encoding of §III-A / §IV-C,
//! * [`goal`] — dynamic resource prioritizing (Eq. 1) and fixed-goal
//!   modes,
//! * [`agent`] — [`agent::MrschPolicy`], the [`mrsim::Policy`]
//!   implementation wrapping a [`mrsch_dfp::DfpAgent`],
//! * [`training`] — agent construction, single-episode training and
//!   evaluation,
//! * [`engine`] — the scenario-driven training engine: curriculum
//!   phases rolled out by parallel workers under frozen policy
//!   snapshots and merged deterministically (worker count never changes
//!   results, only wall-clock),
//! * [`explain`] — per-decision explanations (the paper's §VI
//!   interpretability future work).
//!
//! # Quickstart
//!
//! ```
//! use mrsch::prelude::*;
//!
//! // A small two-resource system and workload.
//! let system = SystemConfig::two_resource(32, 16);
//! let trace = ThetaConfig { machine_nodes: 32, ..ThetaConfig::scaled(60) }.generate(1);
//! let jobs = WorkloadSpec::s1().build(&trace, &system, 2);
//!
//! // Build and (briefly) train an MRSch agent, then evaluate it.
//! let params = SimParams::new(5, true);
//! let mut mrsch = MrschBuilder::new(system.clone(), params).seed(7).build();
//! let report = mrsch.evaluate(&jobs);
//! assert_eq!(report.jobs_completed, jobs.len());
//! ```

pub mod agent;
pub mod encoder;
pub mod engine;
pub mod explain;
pub mod goal;
pub mod training;

pub use agent::{Mode, MrschPolicy, TrainedMrschPolicy};
pub use engine::{EngineOutcome, PhaseOutcome, TrainerConfig, TrainingEngine};
pub use explain::{Explainer, Explanation};
pub use encoder::StateEncoder;
pub use goal::GoalMode;
pub use training::{Mrsch, MrschBuilder};

/// Convenient re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::agent::{Mode, MrschPolicy, TrainedMrschPolicy};
    pub use crate::encoder::StateEncoder;
    pub use crate::engine::{EngineOutcome, PhaseOutcome, TrainerConfig, TrainingEngine};
    pub use crate::goal::GoalMode;
    pub use crate::training::{Mrsch, MrschBuilder};
    pub use mrsch_dfp::{DfpAgent, DfpConfig, StateModuleKind};
    pub use mrsch_workload::disruption::{DisruptionConfig, DisruptionTrace, DrainSpec};
    pub use mrsch_workload::scenario::{
        Curriculum, CurriculumPhase, CurriculumProgress, DagConfig, EpisodeSpec, GoalSchedule,
        JobSource, PlateauRule, Scenario,
    };
    pub use mrsch_workload::suite::WorkloadSpec;
    pub use mrsch_workload::theta::ThetaConfig;
    pub use mrsim::event::{EventKind, InjectedEvent};
    pub use mrsim::job::{Job, JobOutcome};
    pub use mrsim::policy::{HeadOfQueue, Policy};
    pub use mrsim::resources::SystemConfig;
    pub use mrsim::simulator::{SimParams, Simulator};
    pub use mrsim::SimReport;
}
