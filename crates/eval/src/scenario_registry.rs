//! String-addressable scenario registry, mirroring the policy registry
//! ([`crate::registry`]): every evaluation scenario is addressed by a
//! spec string (`clean`, `dag:fanout:3`, `bursty:diurnal:60`,
//! `energy:drain`, ...) that parses into a typed [`ScenarioSpec`],
//! prints back canonically via `Display`, and materializes into a
//! [`Scenario`] with [`ScenarioSpec::build`].
//!
//! Three scenario families live behind the registry:
//!
//! * **disruption** (the legacy five) — `clean`, `cancel-heavy`,
//!   `overrun-heavy`, `drain`, `mixed`: seeded cancellations, walltime
//!   overruns and node drains layered on the caller's job source;
//! * **dag** — `dag:chain:L` / `dag:fanout:W`: workflow graphs overlaid
//!   on the materialized trace, so the scheduler only ever sees the
//!   ready frontier and the critical-path bound becomes the regret
//!   baseline;
//! * **bursty** — `bursty:diurnal:A` / `bursty:spike:B`: open
//!   Poisson arrival streams from the stress generator with sinusoidal
//!   or storm-modulated rates (duration-driven, so the per-episode job
//!   count is seed-dependent);
//! * **energy** — `energy:drain`: the drain disruption with a per-node
//!   power model attached, so reports carry energy splits and goal
//!   vectors can trade power against wait.
//!
//! Parameter suffixes are integers so that `parse` → `Display` round
//! trips exactly; bare family names (`dag:chain`) pick documented
//! defaults.

use std::error::Error;
use std::fmt;

use mrsch::prelude::*;
use mrsch_workload::scenario::mix_seed;
use mrsch_workload::{ArrivalProcess, StressConfig};
use mrsim::simulator::PowerModel;

/// Default fan-out width for `dag:fanout`.
pub const DEFAULT_FANOUT_WIDTH: usize = 3;
/// Default chain length for `dag:chain`.
pub const DEFAULT_CHAIN_LENGTH: usize = 4;
/// Default diurnal amplitude for `bursty:diurnal`, in percent.
pub const DEFAULT_DIURNAL_AMPLITUDE_PCT: u32 = 60;
/// Default storm rate multiplier for `bursty:spike`.
pub const DEFAULT_SPIKE_BOOST: u32 = 6;

/// A parsed, typed scenario address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScenarioSpec {
    /// No disruptions.
    Clean,
    /// 20 % user cancellations + 10 % walltime overruns.
    CancelHeavy,
    /// 25 % overruns at 2× the estimate + 5 % cancels.
    OverrunHeavy,
    /// A 25 % node drain a third of the way into the trace.
    Drain,
    /// Cancels + overruns + the drain together.
    Mixed,
    /// Map-reduce workflows: root → `width` parallel tasks → join.
    DagFanout {
        /// Parallel middle tasks per workflow (≥ 1).
        width: usize,
    },
    /// Linear pipelines of `length` tasks each.
    DagChain {
        /// Tasks per workflow (≥ 2).
        length: usize,
    },
    /// Open arrival stream with sinusoidal (diurnal) rate modulation.
    BurstyDiurnal {
        /// Modulation amplitude in percent, `1..=99`.
        amplitude_pct: u32,
    },
    /// Open arrival stream with recurring FaaS-like request storms.
    BurstySpike {
        /// Rate multiplier inside the storm window (≥ 2).
        boost: u32,
    },
    /// The drain disruption with per-node power accounting attached.
    EnergyDrain,
}

/// Why a scenario spec string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioParseError {
    /// The family name matched nothing in the registry.
    UnknownScenario(String),
    /// The family was recognized but its parameter suffix was not.
    BadParameter {
        /// The full spec string as given.
        spec: String,
        /// What was wrong with the parameter.
        detail: String,
    },
    /// An empty spec (or empty list entry).
    Empty,
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioParseError::UnknownScenario(name) => write!(
                f,
                "unknown scenario '{name}' (registered: {})",
                ScenarioSpec::registered()
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            ScenarioParseError::BadParameter { spec, detail } => {
                write!(f, "bad parameter in scenario '{spec}': {detail}")
            }
            ScenarioParseError::Empty => write!(f, "no scenarios given"),
        }
    }
}

impl Error for ScenarioParseError {}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScenarioSpec::Clean => write!(f, "clean"),
            ScenarioSpec::CancelHeavy => write!(f, "cancel-heavy"),
            ScenarioSpec::OverrunHeavy => write!(f, "overrun-heavy"),
            ScenarioSpec::Drain => write!(f, "drain"),
            ScenarioSpec::Mixed => write!(f, "mixed"),
            ScenarioSpec::DagFanout { width } => write!(f, "dag:fanout:{width}"),
            ScenarioSpec::DagChain { length } => write!(f, "dag:chain:{length}"),
            ScenarioSpec::BurstyDiurnal { amplitude_pct } => {
                write!(f, "bursty:diurnal:{amplitude_pct}")
            }
            ScenarioSpec::BurstySpike { boost } => write!(f, "bursty:spike:{boost}"),
            ScenarioSpec::EnergyDrain => write!(f, "energy:drain"),
        }
    }
}

impl ScenarioSpec {
    /// Every registered spec at its default parameters, in canonical
    /// order (the order grids iterate in).
    pub fn registered() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::Clean,
            ScenarioSpec::CancelHeavy,
            ScenarioSpec::OverrunHeavy,
            ScenarioSpec::Drain,
            ScenarioSpec::Mixed,
            ScenarioSpec::DagFanout { width: DEFAULT_FANOUT_WIDTH },
            ScenarioSpec::DagChain { length: DEFAULT_CHAIN_LENGTH },
            ScenarioSpec::BurstyDiurnal { amplitude_pct: DEFAULT_DIURNAL_AMPLITUDE_PCT },
            ScenarioSpec::BurstySpike { boost: DEFAULT_SPIKE_BOOST },
            ScenarioSpec::EnergyDrain,
        ]
    }

    /// The canonical spec string (`Display` as a `String`).
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Parse one spec string. Underscores normalize to hyphens in
    /// family names; parameter suffixes are optional (`dag:chain` →
    /// `dag:chain:4`) and must be integers in the documented range.
    pub fn parse(spec: &str) -> Result<ScenarioSpec, ScenarioParseError> {
        let trimmed = spec.trim();
        if trimmed.is_empty() {
            return Err(ScenarioParseError::Empty);
        }
        let norm = trimmed.to_lowercase().replace('_', "-");
        let bad = |detail: String| ScenarioParseError::BadParameter {
            spec: trimmed.to_string(),
            detail,
        };
        let mut parts = norm.splitn(3, ':');
        let family = parts.next().unwrap_or("");
        let kind = parts.next();
        let param = parts.next();
        match (family, kind) {
            ("clean", None) => Ok(ScenarioSpec::Clean),
            ("cancel-heavy", None) => Ok(ScenarioSpec::CancelHeavy),
            ("overrun-heavy", None) => Ok(ScenarioSpec::OverrunHeavy),
            ("drain", None) => Ok(ScenarioSpec::Drain),
            ("mixed", None) => Ok(ScenarioSpec::Mixed),
            ("dag", Some("fanout")) => {
                let width = match param {
                    None => DEFAULT_FANOUT_WIDTH,
                    Some(p) => p
                        .parse::<usize>()
                        .ok()
                        .filter(|&w| (1..=64).contains(&w))
                        .ok_or_else(|| bad(format!("width '{p}' must be an integer in 1..=64")))?,
                };
                Ok(ScenarioSpec::DagFanout { width })
            }
            ("dag", Some("chain")) => {
                let length = match param {
                    None => DEFAULT_CHAIN_LENGTH,
                    Some(p) => p
                        .parse::<usize>()
                        .ok()
                        .filter(|&l| (2..=64).contains(&l))
                        .ok_or_else(|| bad(format!("length '{p}' must be an integer in 2..=64")))?,
                };
                Ok(ScenarioSpec::DagChain { length })
            }
            ("bursty", Some("diurnal")) => {
                let amplitude_pct = match param {
                    None => DEFAULT_DIURNAL_AMPLITUDE_PCT,
                    Some(p) => p
                        .parse::<u32>()
                        .ok()
                        .filter(|&a| (1..=99).contains(&a))
                        .ok_or_else(|| {
                            bad(format!("amplitude '{p}' must be an integer percent in 1..=99"))
                        })?,
                };
                Ok(ScenarioSpec::BurstyDiurnal { amplitude_pct })
            }
            ("bursty", Some("spike")) => {
                let boost = match param {
                    None => DEFAULT_SPIKE_BOOST,
                    Some(p) => p
                        .parse::<u32>()
                        .ok()
                        .filter(|&b| (2..=50).contains(&b))
                        .ok_or_else(|| bad(format!("boost '{p}' must be an integer in 2..=50")))?,
                };
                Ok(ScenarioSpec::BurstySpike { boost })
            }
            ("energy", Some("drain")) => match param {
                None => Ok(ScenarioSpec::EnergyDrain),
                Some(p) => Err(bad(format!("'energy:drain' takes no parameter, got '{p}'"))),
            },
            ("dag" | "bursty" | "energy", Some(other)) => Err(bad(format!(
                "unknown {family} kind '{other}'"
            ))),
            ("dag" | "bursty" | "energy", None) => {
                Err(bad(format!("family '{family}' needs a kind, e.g. '{}'", match family {
                    "dag" => "dag:chain",
                    "bursty" => "bursty:diurnal",
                    _ => "energy:drain",
                })))
            }
            _ => Err(ScenarioParseError::UnknownScenario(norm)),
        }
    }

    /// Parse a comma-separated spec list; `all` expands to the full
    /// registry at default parameters.
    pub fn parse_list(specs: &str) -> Result<Vec<ScenarioSpec>, ScenarioParseError> {
        if specs.trim().eq_ignore_ascii_case("all") {
            return Ok(ScenarioSpec::registered());
        }
        let parsed: Vec<ScenarioSpec> = specs
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(ScenarioSpec::parse)
            .collect::<Result<_, _>>()?;
        if parsed.is_empty() {
            return Err(ScenarioParseError::Empty);
        }
        Ok(parsed)
    }

    /// Materialize this spec into a [`Scenario`] over the caller's job
    /// source. Bursty families replace the source with an open stress
    /// stream sized to the source's scale; every other family layers on
    /// top of `source` unchanged.
    pub fn build(
        &self,
        source: JobSource,
        spec: WorkloadSpec,
        params: SimParams,
        seed: u64,
    ) -> Scenario {
        let name = self.name();
        let clean = Scenario::new(name.clone(), source, spec, params).with_seed(seed);
        match *self {
            ScenarioSpec::Clean => clean,
            ScenarioSpec::CancelHeavy => clean.with_disruption(
                name,
                DisruptionConfig {
                    cancel_fraction: 0.2,
                    overrun_fraction: 0.1,
                    overrun_factor: 1.5,
                    drains: Vec::new(),
                },
            ),
            ScenarioSpec::OverrunHeavy => clean.with_disruption(
                name,
                DisruptionConfig {
                    cancel_fraction: 0.05,
                    overrun_fraction: 0.25,
                    overrun_factor: 2.0,
                    drains: Vec::new(),
                },
            ),
            ScenarioSpec::Drain => {
                let horizon = submit_horizon(&clean.source, seed);
                clean.with_disruption(
                    name,
                    DisruptionConfig {
                        drains: vec![drain_spec(horizon)],
                        ..Default::default()
                    },
                )
            }
            ScenarioSpec::Mixed => {
                let horizon = submit_horizon(&clean.source, seed);
                clean.with_disruption(
                    name,
                    DisruptionConfig {
                        cancel_fraction: 0.15,
                        overrun_fraction: 0.1,
                        overrun_factor: 1.5,
                        drains: vec![drain_spec(horizon)],
                    },
                )
            }
            ScenarioSpec::DagFanout { width } => {
                clean.with_dag(name, DagConfig::Fanout { width })
            }
            ScenarioSpec::DagChain { length } => {
                clean.with_dag(name, DagConfig::Chain { length })
            }
            ScenarioSpec::BurstyDiurnal { amplitude_pct } => {
                let mut s = clean;
                let (stress, period) = bursty_stress(&s.source);
                s.source = JobSource::Stress(stress.with_arrivals(ArrivalProcess::Diurnal {
                    period_secs: period,
                    amplitude: f64::from(amplitude_pct) / 100.0,
                }));
                s
            }
            ScenarioSpec::BurstySpike { boost } => {
                let mut s = clean;
                let (stress, period) = bursty_stress(&s.source);
                s.source = JobSource::Stress(stress.with_arrivals(ArrivalProcess::Spike {
                    period_secs: period,
                    burst_fraction: 0.1,
                    boost: f64::from(boost),
                }));
                s
            }
            ScenarioSpec::EnergyDrain => {
                let horizon = submit_horizon(&clean.source, seed);
                let mut s = clean.with_disruption(
                    name,
                    DisruptionConfig {
                        drains: vec![drain_spec(horizon)],
                        ..Default::default()
                    },
                );
                s.params.power = Some(PowerModel::hpc_default());
                s
            }
        }
    }
}

/// Build a list of scenarios from a spec string over one shared source.
pub fn build_scenarios(
    specs: &str,
    source: &JobSource,
    spec: &WorkloadSpec,
    params: SimParams,
    seed: u64,
) -> Result<Vec<Scenario>, ScenarioParseError> {
    Ok(ScenarioSpec::parse_list(specs)?
        .into_iter()
        .map(|s| s.build(source.clone(), spec.clone(), params, seed))
        .collect())
}

/// Max submit time of a probe trace of the source — the horizon used to
/// place drains proportionally.
pub(crate) fn submit_horizon(source: &JobSource, seed: u64) -> u64 {
    source.trace(mix_seed(seed, 1)).iter().map(|t| t.submit).max().unwrap_or(0)
}

/// A 25 % node drain a third of the way into the horizon, lasting a
/// third of the horizon (at least one simulated hour).
pub(crate) fn drain_spec(horizon: u64) -> DrainSpec {
    DrainSpec {
        resource: 0,
        fraction: 0.25,
        at: horizon / 3,
        duration: (horizon / 3).max(3600),
    }
}

/// Derive an open-stream stress config at roughly the same scale as the
/// caller's source: same node pool, ~0.7 offered load, duration-driven
/// over a horizon sized so the mean arrival count matches the source's
/// trace length (the hard cap sits at 3× that to keep outlier seeds
/// bounded). Returns the config plus the rate-modulation period — a
/// quarter of the horizon, so every episode sees several full waves or
/// storm cycles regardless of the source's scale.
fn bursty_stress(source: &JobSource) -> (StressConfig, f64) {
    let (nodes, count) = match source {
        JobSource::Theta(cfg) => (cfg.machine_nodes, cfg.num_jobs.max(1)),
        JobSource::Trace(jobs) => (
            jobs.iter().map(|j| j.nodes).max().unwrap_or(1).max(1),
            jobs.len().max(1),
        ),
        JobSource::Stress(cfg) => (
            cfg.capacities.first().copied().unwrap_or(1).max(1),
            cfg.num_jobs.max(1),
        ),
    };
    let mut cfg = StressConfig::engine(count.saturating_mul(3), vec![nodes]);
    cfg.mean_runtime = 600.0;
    cfg.estimate_slack = 1.0;
    // Mean interarrival mirrors StressConfig::generate's derivation, so
    // `horizon = mean_interarrival · count` lands near `count` arrivals.
    let mean_d0 = (1.0 + (nodes / 8).max(1) as f64) / 2.0;
    let mean_interarrival = mean_d0 * cfg.mean_runtime / (nodes as f64 * cfg.utilization);
    let horizon = (mean_interarrival * count as f64).ceil().max(4.0);
    (cfg.with_horizon(horizon as u64), horizon / 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_specs_cover_all_three_new_families() {
        let reg = ScenarioSpec::registered();
        assert_eq!(reg.len(), 10);
        assert!(reg.iter().any(|s| matches!(s, ScenarioSpec::DagFanout { .. })));
        assert!(reg.iter().any(|s| matches!(s, ScenarioSpec::BurstyDiurnal { .. })));
        assert!(reg.iter().any(|s| matches!(s, ScenarioSpec::EnergyDrain)));
    }

    #[test]
    fn parse_accepts_bare_families_with_defaults() {
        assert_eq!(
            ScenarioSpec::parse("dag:chain").unwrap(),
            ScenarioSpec::DagChain { length: DEFAULT_CHAIN_LENGTH }
        );
        assert_eq!(
            ScenarioSpec::parse("bursty:spike").unwrap(),
            ScenarioSpec::BurstySpike { boost: DEFAULT_SPIKE_BOOST }
        );
        assert_eq!(
            ScenarioSpec::parse("DAG:Fanout:8").unwrap(),
            ScenarioSpec::DagFanout { width: 8 }
        );
        assert_eq!(
            ScenarioSpec::parse("cancel_heavy").unwrap(),
            ScenarioSpec::CancelHeavy,
            "underscores normalize"
        );
    }

    #[test]
    fn malformed_parameters_are_typed_errors() {
        for bad in ["dag:fanout:x", "dag:fanout:0", "dag:chain:1", "bursty:diurnal:150",
                    "bursty:spike:1", "energy:drain:5", "dag", "bursty:tidal"] {
            match ScenarioSpec::parse(bad) {
                Err(ScenarioParseError::BadParameter { spec, .. }) => {
                    assert_eq!(spec, bad);
                }
                other => panic!("{bad} should be BadParameter, got {other:?}"),
            }
        }
        assert!(matches!(
            ScenarioSpec::parse("bogus"),
            Err(ScenarioParseError::UnknownScenario(_))
        ));
        assert!(matches!(ScenarioSpec::parse("  "), Err(ScenarioParseError::Empty)));
    }

    fn build(spec: &str) -> Scenario {
        let source = JobSource::Theta(ThetaConfig { machine_nodes: 32, ..ThetaConfig::scaled(30) });
        ScenarioSpec::parse(spec).unwrap().build(source, WorkloadSpec::s1(), SimParams::new(4, true), 7)
    }

    #[test]
    fn drain_scenario_emits_capacity_events() {
        let ep = build("drain").materialize(&SystemConfig::two_resource(32, 12), 0);
        assert!(ep
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CapacityChange { .. })));
    }

    #[test]
    fn overruns_switch_on_walltime_enforcement() {
        let s = build("overrun_heavy");
        assert!(s.params.enforce_walltime);
        assert_eq!(s.name, "overrun-heavy", "underscores normalize to hyphens");
    }

    #[test]
    fn all_expands_to_the_full_registry() {
        let all = ScenarioSpec::parse_list("all").unwrap();
        assert_eq!(all, ScenarioSpec::registered());
        let two = ScenarioSpec::parse_list("clean, dag:chain:3").unwrap();
        assert_eq!(two.len(), 2);
        assert!(ScenarioSpec::parse_list(" , ").is_err());
    }
}
