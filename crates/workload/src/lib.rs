//! Workload synthesis for the MRSch reproduction.
//!
//! The paper evaluates on a five-month 2018 job trace from **Theta**
//! (ALCF), extended with burst-buffer requests derived from Darshan I/O
//! logs, and then derives five two-resource workloads S1–S5 (Table III)
//! and five three-resource workloads S6–S10 (§V-E). The original trace is
//! proprietary, so this crate substitutes a *statistical Theta-like
//! synthesizer* (its distributions are listed in [`theta`]) and
//! implements the published derivation rules exactly:
//!
//! * [`dist`] — the distributions the synthesizer needs (normal,
//!   log-normal, log-uniform, Poisson process), built on plain `rand`,
//! * [`theta`] — the base-trace synthesizer (node counts, runtimes,
//!   walltime estimates, diurnal Poisson arrivals),
//! * [`suite`] — the S1–S5 workload builders of Table III (which carry
//!   the Darshan-derived burst-buffer request assignment) and the
//!   S6–S10 power extension of §V-E,
//! * [`jobset`] — job-set construction for the three-phase training
//!   curriculum of §III-D (sampled / real / synthetic) and the six
//!   orderings compared in Fig. 4,
//! * [`split`] — chronological train/validation/test splitting (§IV-A
//!   splits five months into 3.5 months / 2 weeks / rest),
//! * [`disruption`] — seeded cancellation / walltime-overrun / node-drain
//!   trace synthesis on top of any job set, plus SWF status replay,
//! * [`stress`] — engine-scale synthetic stress traces (exponential
//!   runtimes, Poisson arrivals at a fixed offered load) for event-engine
//!   benchmarks and the large-trace determinism suite,
//! * [`scenario`] — named, seeded episode recipes ([`Scenario`]) and
//!   ordered training [`Curriculum`]s (clean → cancel-heavy →
//!   drain-heavy hardening) consumed by the training engine,
//! * [`swf`] — Standard Workload Format ingestion/export, so real
//!   production logs drive the identical pipeline.
//!
//! All generators take explicit seeds and are fully deterministic.

pub mod disruption;
pub mod dist;
pub mod jobset;
pub mod scenario;
pub mod split;
pub mod stress;
pub mod suite;
pub mod swf;
pub mod theta;

pub use disruption::{DisruptionConfig, DisruptionTrace, DrainSpec};
pub use scenario::{
    Curriculum, CurriculumPhase, CurriculumProgress, DagConfig, EpisodeSpec, GoalSchedule,
    JobSource, PlateauRule, Scenario,
};
pub use stress::{ArrivalProcess, StressConfig};
pub use suite::{WorkloadSpec, PowerSpec};
pub use theta::{SwfStatus, ThetaConfig, TraceJob};
