//! Scenarios and training curricula: reusable, seeded episode specs.
//!
//! Before this module, every experiment passed `(job set, workload spec,
//! disruption config, sim params, seed)` tuples around by hand. A
//! [`Scenario`] bundles those into one named, reusable recipe:
//! *where jobs come from* ([`JobSource`]), *how they are extended into
//! multi-resource demands* ([`WorkloadSpec`]), *what goes wrong*
//! ([`DisruptionConfig`]) and *how the simulator runs*
//! ([`SimParams`]). [`Scenario::materialize`] turns the recipe plus an
//! episode index into a concrete [`EpisodeSpec`] — a job list and the
//! events to inject — fully deterministically: the same scenario and
//! episode index always yield the same episode, regardless of who
//! materializes it (the serial trainer, a rollout worker thread, or an
//! evaluation harness).
//!
//! A [`Curriculum`] is an ordered list of [`CurriculumPhase`]s (a
//! scenario, an episode count and an optional goal-vector override) with
//! progress tracking — the structure the paper's clean-first training extends
//! into disruption hardening: train on clean traffic, then on
//! cancel/overrun-heavy traffic, then on drain-heavy traffic
//! ([`Curriculum::disruption_hardening`]).

use crate::disruption::DisruptionConfig;
use crate::stress::StressConfig;
use crate::suite::WorkloadSpec;
use crate::theta::{SwfStatus, ThetaConfig, TraceJob};
use mrsim::event::{EventQueue, InjectedEvent};
use mrsim::job::Job;
use mrsim::resources::SystemConfig;
use mrsim::simulator::{SimError, SimParams, Simulator};
use mrsim::SimTime;
use serde::{Deserialize, Serialize};

/// Where a scenario's base jobs come from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobSource {
    /// Synthesize a fresh Theta-like trace per episode (each episode
    /// sees different jobs, seeded by the episode index).
    Theta(ThetaConfig),
    /// A fixed base trace replayed every episode (resource extension
    /// and disruptions still vary per episode).
    Trace(Vec<TraceJob>),
    /// Synthesize an open arrival stream per episode from the stress
    /// generator (Poisson / diurnal / spike arrivals; optionally
    /// duration-driven, in which case the **job count varies per
    /// episode** — see [`Scenario::materialize`]).
    Stress(StressConfig),
}

impl JobSource {
    /// The base trace for one episode.
    pub fn trace(&self, seed: u64) -> Vec<TraceJob> {
        match self {
            JobSource::Theta(cfg) => cfg.generate(seed),
            JobSource::Trace(jobs) => jobs.clone(),
            JobSource::Stress(cfg) => cfg
                .generate(seed)
                .into_iter()
                .map(|j| TraceJob {
                    submit: j.submit,
                    runtime: j.runtime,
                    estimate: j.estimate,
                    nodes: j.demands[0],
                    status: SwfStatus::Completed,
                })
                .collect(),
        }
    }
}

/// Structural workflow-DAG overlay applied to a materialized job list:
/// consecutive jobs are grouped into workflows whose tasks gate on their
/// predecessors. Synthesis is purely structural (no RNG) so the same
/// episode always carries the same graph. Grouped tasks share their
/// head's submit time — a workflow is submitted as a unit, and only its
/// ready frontier is visible to the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DagConfig {
    /// Linear pipelines: consecutive groups of `length` jobs where each
    /// task depends on the previous one.
    Chain {
        /// Tasks per workflow (≥ 2; a trailing shorter group is still
        /// chained when it has at least two tasks).
        length: usize,
    },
    /// Map-reduce shapes: a root task, `width` parallel middle tasks
    /// depending on the root, and a join task depending on all middles
    /// (`width + 2` jobs per workflow; a trailing partial group stays
    /// independent).
    Fanout {
        /// Parallel middle tasks per workflow (≥ 1).
        width: usize,
    },
}

impl DagConfig {
    /// Build the predecessor lists for `jobs` and align each workflow's
    /// submit times to its head job (mutating `jobs` in place).
    pub fn synthesize(&self, jobs: &mut [Job]) -> Vec<Vec<usize>> {
        let n = jobs.len();
        let mut deps = vec![Vec::new(); n];
        match *self {
            DagConfig::Chain { length } => {
                let len = length.max(2);
                let mut g = 0;
                while g < n {
                    let end = (g + len).min(n);
                    for i in g + 1..end {
                        jobs[i].submit = jobs[g].submit;
                        deps[i] = vec![i - 1];
                    }
                    g = end;
                }
            }
            DagConfig::Fanout { width } => {
                let w = width.max(1);
                let group = w + 2;
                let mut g = 0;
                while g + group <= n {
                    let join = g + group - 1;
                    for i in g + 1..join {
                        jobs[i].submit = jobs[g].submit;
                        deps[i] = vec![g];
                    }
                    jobs[join].submit = jobs[g].submit;
                    deps[join] = (g + 1..join).collect();
                    g += group;
                }
            }
        }
        deps
    }
}

/// One materialized training/evaluation episode: feed `jobs` to
/// `Simulator::new` (or `load_trace`) under `params`, apply `deps`,
/// inject `events`, run — or let [`EpisodeSpec::install`] /
/// [`EpisodeSpec::simulator`] do all of that in the right order.
#[derive(Clone, Debug, PartialEq)]
pub struct EpisodeSpec {
    /// The job list (overrunners' runtimes already inflated).
    pub jobs: Vec<Job>,
    /// Disruption events to inject before running.
    pub events: Vec<InjectedEvent>,
    /// Simulator parameters for this episode.
    pub params: SimParams,
    /// Workflow-DAG predecessor lists (empty = independent jobs).
    pub deps: Vec<Vec<usize>>,
}

impl EpisodeSpec {
    /// Load this episode into an existing simulator (the reuse path:
    /// jobs + params, then the dependency graph, then injected events).
    /// Every consumer must go through this (or [`EpisodeSpec::simulator`])
    /// so DAG episodes behave identically in the trainer, the rollout
    /// workers and the evaluation harness.
    pub fn install<Q: EventQueue>(&self, sim: &mut Simulator<Q>) -> Result<(), SimError> {
        sim.load(self.jobs.clone(), self.params)?;
        if !self.deps.is_empty() {
            sim.set_dependencies(self.deps.clone())?;
        }
        sim.inject_all(&self.events)
    }

    /// Build a fresh simulator for this episode on `system`.
    pub fn simulator(&self, system: SystemConfig) -> Result<Simulator, SimError> {
        let mut sim = Simulator::new(system, self.jobs.clone(), self.params)?;
        if !self.deps.is_empty() {
            sim.set_dependencies(self.deps.clone())?;
        }
        sim.inject_all(&self.events)?;
        Ok(sim)
    }

    /// A policy-independent lower bound on the episode's makespan: the
    /// maximum of the dependency-aware critical path (earliest completion
    /// over `deps`, measured from the first submit) and the per-resource
    /// area bound `⌈Σ demand_r · runtime / capacity_r⌉`.
    ///
    /// Effective runtimes are capped at the walltime estimate when
    /// enforcement is on (an overrunner is killed there). Injected
    /// *cancellations* can still undercut the bound — it is exact only
    /// for episodes that run their jobs to completion (the DAG and clean
    /// scenario families), which is where the evaluation harness uses it
    /// as the regret baseline.
    pub fn makespan_lower_bound(&self, system: &SystemConfig) -> SimTime {
        if self.jobs.is_empty() {
            return 0;
        }
        let n = self.jobs.len();
        let eff = |j: &Job| {
            if self.params.enforce_walltime {
                j.runtime.min(j.estimate)
            } else {
                j.runtime
            }
        };
        // Earliest completion times in topological order (Kahn).
        let mut ect = vec![0u64; n];
        if self.deps.is_empty() {
            for (i, j) in self.jobs.iter().enumerate() {
                ect[i] = j.submit + eff(j);
            }
        } else {
            let mut pending: Vec<usize> = self.deps.iter().map(Vec::len).collect();
            let mut succs = vec![Vec::new(); n];
            for (i, preds) in self.deps.iter().enumerate() {
                for &p in preds {
                    succs[p].push(i);
                }
            }
            let mut ready: Vec<usize> =
                (0..n).filter(|&i| pending[i] == 0).collect();
            while let Some(i) = ready.pop() {
                let gate = self.deps[i]
                    .iter()
                    .map(|&p| ect[p])
                    .max()
                    .unwrap_or(0)
                    .max(self.jobs[i].submit);
                ect[i] = gate + eff(&self.jobs[i]);
                for &s in &succs[i] {
                    pending[s] -= 1;
                    if pending[s] == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        let t0 = self.jobs.iter().map(|j| j.submit).min().unwrap_or(0);
        let critical_path =
            ect.iter().max().copied().unwrap_or(0).saturating_sub(t0);
        let area_bound = system
            .resources
            .iter()
            .enumerate()
            .map(|(r, res)| {
                let work: u64 = self
                    .jobs
                    .iter()
                    .map(|j| j.demands.get(r).copied().unwrap_or(0) * eff(j))
                    .sum();
                if res.capacity == 0 { 0 } else { work.div_ceil(res.capacity) }
            })
            .max()
            .unwrap_or(0);
        critical_path.max(area_bound)
    }
}

/// A named, seeded, reusable episode recipe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name ("clean", "cancel_heavy", ...).
    pub name: String,
    /// Base-job synthesis.
    pub source: JobSource,
    /// Resource-extension rules (BB participation, power, ...).
    pub spec: WorkloadSpec,
    /// Disruptions layered on each episode.
    pub disruption: DisruptionConfig,
    /// Simulator parameters.
    pub params: SimParams,
    /// Scenario-level seed, mixed with the episode index.
    pub seed: u64,
    /// Optional workflow-DAG overlay (chains / fan-outs over the
    /// materialized job list).
    #[serde(default)]
    pub dag: Option<DagConfig>,
}

impl Scenario {
    /// A clean (disruption-free) scenario.
    pub fn new(
        name: impl Into<String>,
        source: JobSource,
        spec: WorkloadSpec,
        params: SimParams,
    ) -> Self {
        Self {
            name: name.into(),
            source,
            spec,
            disruption: DisruptionConfig::default(),
            params,
            seed: 0,
            dag: None,
        }
    }

    /// Overlay a workflow DAG on every episode (returns a renamed copy,
    /// like [`Scenario::with_disruption`]).
    pub fn with_dag(mut self, name: impl Into<String>, dag: DagConfig) -> Self {
        self.name = name.into();
        self.dag = Some(dag);
        self
    }

    /// Attach a disruption layer (returns a renamed copy so curricula
    /// read naturally). Walltime enforcement switches on automatically
    /// when the disruption synthesizes overruns — they are inert
    /// otherwise.
    pub fn with_disruption(mut self, name: impl Into<String>, d: DisruptionConfig) -> Self {
        self.name = name.into();
        if d.overrun_fraction > 0.0 {
            self.params.enforce_walltime = true;
        }
        self.disruption = d;
        self
    }

    /// Set the scenario-level seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Materialize episode `episode` for `system`, deterministically.
    ///
    /// Sub-seeds for trace synthesis, resource extension and disruption
    /// placement are derived by mixing the scenario seed with the
    /// episode index, so distinct episodes differ while any two
    /// materializations of the same `(scenario, system, episode)` are
    /// identical.
    ///
    /// The job count is **not** fixed across episodes: a duration-driven
    /// source ([`JobSource::Stress`] with a horizon) stops at a virtual
    /// deadline rather than a job quota, so two episodes of the same
    /// scenario may legitimately differ in length. Consumers must size
    /// everything off `spec.jobs.len()`, never off a configured count.
    pub fn materialize(&self, system: &SystemConfig, episode: u64) -> EpisodeSpec {
        let base = mix_seed(self.seed, episode);
        let trace = self.source.trace(mix_seed(base, 1));
        let mut jobs = self.spec.build(&trace, system, mix_seed(base, 2));
        // The DAG overlay runs *before* disruption synthesis so cancel /
        // overrun placement sees the workflow-aligned submit times.
        let deps = match &self.dag {
            Some(dag) => dag.synthesize(&mut jobs),
            None => Vec::new(),
        };
        let disrupted = self.disruption.synthesize(&jobs, system, mix_seed(base, 3));
        EpisodeSpec {
            jobs: disrupted.jobs,
            events: disrupted.events,
            params: self.params,
            deps,
        }
    }
}

/// SplitMix64-style seed mixing: decorrelates derived seeds even for
/// adjacent inputs (scenario sub-seeds, per-episode rollout RNGs).
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Early phase advancement on a training-loss plateau: once the last
/// `window` round losses are all finite and span at most `tol`, the
/// phase ends even if its episode budget is not exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlateauRule {
    /// Consecutive round losses inspected (at least 2 to be meaningful).
    pub window: usize,
    /// Maximum spread (`max − min`) across the window that still counts
    /// as a plateau.
    pub tol: f32,
}

/// How a phase drives the agent's goal vector, per episode. Replaces
/// the old all-or-nothing goal override: a schedule can hold one vector
/// for the whole phase or anneal between two — e.g. ramping the power
/// weight in while an energy-aware phase progresses — without splitting
/// the phase.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GoalSchedule {
    /// The same goal vector for every episode of the phase.
    Fixed(Vec<f64>),
    /// Linear interpolation from `from` (first episode) to `to` (last
    /// episode of the phase). Both vectors must have the same length.
    Anneal {
        /// Goal vector at the phase's first episode.
        from: Vec<f64>,
        /// Goal vector at the phase's last episode.
        to: Vec<f64>,
    },
}

impl GoalSchedule {
    /// The goal vector for episode `episode` of a phase with
    /// `phase_episodes` episodes (clamped at the phase's end so plateau
    /// overshoot never extrapolates).
    pub fn goal_at(&self, episode: usize, phase_episodes: usize) -> Vec<f64> {
        match self {
            GoalSchedule::Fixed(g) => g.clone(),
            GoalSchedule::Anneal { from, to } => {
                let t = if phase_episodes <= 1 {
                    1.0
                } else {
                    (episode as f64 / (phase_episodes - 1) as f64).min(1.0)
                };
                from.iter().zip(to).map(|(a, b)| a + (b - a) * t).collect()
            }
        }
    }

    /// Does every episode of the phase see the same vector?
    pub fn is_fixed(&self) -> bool {
        matches!(self, GoalSchedule::Fixed(_))
    }
}

/// One phase of a curriculum: a scenario trained for a number of
/// episodes, optionally under a forced goal schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CurriculumPhase {
    /// The episode recipe.
    pub scenario: Scenario,
    /// How many episodes this phase trains (an upper bound when a
    /// [`PlateauRule`] is attached).
    pub episodes: usize,
    /// Goal schedule forced during this phase (`None` keeps the agent's
    /// configured goal mode — MRSch's dynamic Eq. 1 weights).
    pub goal: Option<GoalSchedule>,
    /// Optional loss-plateau early advancement (off by default: a phase
    /// runs its full episode budget).
    pub plateau: Option<PlateauRule>,
}

impl CurriculumPhase {
    /// Phase with the agent's own goal mode.
    pub fn new(scenario: Scenario, episodes: usize) -> Self {
        Self { scenario, episodes, goal: None, plateau: None }
    }

    /// Force a fixed goal vector for the phase.
    pub fn with_goal(mut self, goal: Vec<f64>) -> Self {
        self.goal = Some(GoalSchedule::Fixed(goal));
        self
    }

    /// Anneal the forced goal vector linearly across the phase — the
    /// per-phase goal schedule energy-aware curricula use to ramp the
    /// power weight in.
    pub fn with_goal_anneal(mut self, from: Vec<f64>, to: Vec<f64>) -> Self {
        assert_eq!(from.len(), to.len(), "anneal endpoints must match in length");
        self.goal = Some(GoalSchedule::Anneal { from, to });
        self
    }

    /// Advance to the next phase early once the round loss plateaus:
    /// the last `window` round losses must all be finite and differ by
    /// at most `tol`. `episodes` becomes an upper bound.
    pub fn advance_on_plateau(mut self, window: usize, tol: f32) -> Self {
        assert!(window >= 2, "a plateau needs at least two rounds");
        assert!(tol >= 0.0, "plateau tolerance must be non-negative");
        self.plateau = Some(PlateauRule { window, tol });
        self
    }

    /// Has this phase's plateau rule fired for the given per-round loss
    /// history? Always `false` without a rule, with fewer than `window`
    /// rounds, or while any inspected loss is non-finite (replay still
    /// warming up).
    pub fn plateau_reached(&self, round_losses: &[f32]) -> bool {
        let Some(rule) = self.plateau else { return false };
        if round_losses.len() < rule.window {
            return false;
        }
        let tail = &round_losses[round_losses.len() - rule.window..];
        if tail.iter().any(|l| !l.is_finite()) {
            return false;
        }
        let max = tail.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let min = tail.iter().cloned().fold(f32::INFINITY, f32::min);
        max - min <= rule.tol
    }
}

/// Where a training run currently stands inside a curriculum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CurriculumProgress {
    /// Index of the active phase.
    pub phase: usize,
    /// Name of the active phase's scenario.
    pub phase_name: String,
    /// Episodes completed within the active phase.
    pub episode_in_phase: usize,
    /// Episodes completed overall.
    pub completed: usize,
    /// Total episodes across all phases.
    pub total: usize,
}

impl std::fmt::Display for CurriculumProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase {} ({}) episode {} — {}/{} overall",
            self.phase, self.phase_name, self.episode_in_phase, self.completed, self.total
        )
    }
}

/// An ordered list of training phases.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Curriculum {
    phases: Vec<CurriculumPhase>,
}

impl Curriculum {
    /// Empty curriculum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a phase (builder style).
    pub fn phase(mut self, phase: CurriculumPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// The phases in training order.
    pub fn phases(&self) -> &[CurriculumPhase] {
        &self.phases
    }

    /// Total episodes across all phases.
    pub fn total_episodes(&self) -> usize {
        self.phases.iter().map(|p| p.episodes).sum()
    }

    /// Map a global episode index to `(phase index, phase, episode
    /// within phase)`; `None` past the end.
    pub fn locate(&self, episode: usize) -> Option<(usize, &CurriculumPhase, usize)> {
        let mut offset = episode;
        for (i, p) in self.phases.iter().enumerate() {
            if offset < p.episodes {
                return Some((i, p, offset));
            }
            offset -= p.episodes;
        }
        None
    }

    /// Progress after `completed` episodes (clamped to the curriculum's
    /// end; a finished curriculum reports its last phase).
    pub fn progress(&self, completed: usize) -> CurriculumProgress {
        let total = self.total_episodes();
        let done = completed.min(total);
        let (phase, name, in_phase) = self
            .locate(done.min(total.saturating_sub(1)))
            .map(|(i, p, e)| (i, p.scenario.name.clone(), e))
            .unwrap_or((0, String::new(), 0));
        CurriculumProgress {
            phase,
            phase_name: name,
            episode_in_phase: in_phase,
            completed: done,
            total,
        }
    }

    /// The canonical disruption-hardening curriculum: the clean scenario
    /// first, then a cancel/overrun-heavy variant, then a drain-heavy
    /// variant, `episodes` each. The disrupted phases reuse the clean
    /// scenario's source, spec, params and seed, so the *only*
    /// difference between phases is the disruption layer.
    pub fn disruption_hardening(
        clean: Scenario,
        cancel_heavy: DisruptionConfig,
        drain_heavy: DisruptionConfig,
        episodes: usize,
    ) -> Self {
        let cancel = clean.clone().with_disruption("cancel_heavy", cancel_heavy);
        let drain = clean.clone().with_disruption("drain_heavy", drain_heavy);
        Self::new()
            .phase(CurriculumPhase::new(clean, episodes))
            .phase(CurriculumPhase::new(cancel, episodes))
            .phase(CurriculumPhase::new(drain, episodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disruption::DrainSpec;
    use mrsim::event::EventKind;

    fn system() -> SystemConfig {
        SystemConfig::two_resource(32, 12)
    }

    fn theta_source(n: usize) -> JobSource {
        JobSource::Theta(ThetaConfig { machine_nodes: 32, ..ThetaConfig::scaled(n) })
    }

    fn clean_scenario() -> Scenario {
        Scenario::new("clean", theta_source(30), WorkloadSpec::s1(), SimParams::new(5, true))
            .with_seed(7)
    }

    #[test]
    fn materialize_is_deterministic_per_episode() {
        let s = clean_scenario();
        let a = s.materialize(&system(), 3);
        let b = s.materialize(&system(), 3);
        assert_eq!(a, b, "same (scenario, episode) must be identical");
        let c = s.materialize(&system(), 4);
        assert_ne!(a.jobs, c.jobs, "episodes see different jobs");
    }

    #[test]
    fn fixed_trace_source_repeats_base_jobs() {
        let trace = ThetaConfig { machine_nodes: 32, ..ThetaConfig::scaled(20) }.generate(1);
        let s = Scenario::new(
            "replay",
            JobSource::Trace(trace.clone()),
            WorkloadSpec::s1(),
            SimParams::new(5, true),
        );
        let a = s.materialize(&system(), 0);
        let b = s.materialize(&system(), 5);
        // Same base submits/runtimes; only the BB extension differs.
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.submit, y.submit);
            assert_eq!(x.runtime, y.runtime);
        }
    }

    #[test]
    fn with_disruption_enables_walltime_for_overruns() {
        let d = DisruptionConfig { overrun_fraction: 0.3, ..Default::default() };
        let s = clean_scenario().with_disruption("overruns", d);
        assert!(s.params.enforce_walltime);
        assert_eq!(s.name, "overruns");
        let cancel_only =
            clean_scenario().with_disruption("cancels", DisruptionConfig {
                cancel_fraction: 0.3,
                ..Default::default()
            });
        assert!(!cancel_only.params.enforce_walltime, "cancels alone need no enforcement");
    }

    #[test]
    fn disrupted_scenario_emits_events() {
        let d = DisruptionConfig {
            cancel_fraction: 0.5,
            drains: vec![DrainSpec { resource: 0, fraction: 0.25, at: 100, duration: 500 }],
            ..Default::default()
        };
        let ep = clean_scenario()
            .with_disruption("mixed", d)
            .materialize(&system(), 0);
        assert!(ep.events.iter().any(|e| matches!(e.kind, EventKind::Cancel(_))));
        assert!(ep
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CapacityChange { .. })));
    }

    #[test]
    fn dag_chain_groups_align_submits_and_link_predecessors() {
        let ep = clean_scenario()
            .with_dag("dag_chain", DagConfig::Chain { length: 3 })
            .materialize(&system(), 0);
        assert_eq!(ep.deps.len(), ep.jobs.len());
        for g in (0..ep.jobs.len()).step_by(3) {
            let end = (g + 3).min(ep.jobs.len());
            for i in g..end {
                assert_eq!(ep.jobs[i].submit, ep.jobs[g].submit, "workflow submits align");
                if i == g {
                    assert!(ep.deps[i].is_empty(), "head has no preds");
                } else {
                    assert_eq!(ep.deps[i], vec![i - 1], "chain link");
                }
            }
        }
    }

    #[test]
    fn dag_fanout_builds_root_middles_join() {
        let ep = clean_scenario()
            .with_dag("dag_fanout", DagConfig::Fanout { width: 3 })
            .materialize(&system(), 0);
        // Groups of 5: root, 3 middles, join; 30 jobs = 6 full groups.
        for g in (0..30).step_by(5) {
            assert!(ep.deps[g].is_empty());
            for i in g + 1..g + 4 {
                assert_eq!(ep.deps[i], vec![g]);
            }
            assert_eq!(ep.deps[g + 4], vec![g + 1, g + 2, g + 3]);
        }
    }

    #[test]
    fn dag_episode_installs_and_respects_ordering() {
        use mrsim::policy::HeadOfQueue;
        let ep = clean_scenario()
            .with_dag("dag_chain", DagConfig::Chain { length: 5 })
            .materialize(&system(), 1);
        let mut sim = ep.simulator(system()).expect("episode installs");
        let report = sim.run(&mut HeadOfQueue);
        let end_of = |id: usize| report.records.iter().find(|r| r.id == id).map(|r| r.end);
        for rec in &report.records {
            for &p in &ep.deps[rec.id] {
                let pe = end_of(p).expect("pred settled");
                assert!(rec.start >= pe, "task {} started before pred {p}", rec.id);
            }
        }
        // Reuse path materializes the same report bit for bit.
        let mut reused = ep.simulator(system()).expect("fresh");
        ep.install(&mut reused).expect("reinstall");
        assert_eq!(reused.run(&mut HeadOfQueue), report);
    }

    #[test]
    fn critical_path_bound_never_exceeds_actual_makespan() {
        use mrsim::policy::HeadOfQueue;
        for (name, dag) in [
            ("chain", Some(DagConfig::Chain { length: 4 })),
            ("fanout", Some(DagConfig::Fanout { width: 2 })),
            ("flat", None),
        ] {
            for episode in 0..3 {
                let mut s = clean_scenario();
                s.dag = dag;
                let ep = s.materialize(&system(), episode);
                let bound = ep.makespan_lower_bound(&system());
                let report = ep.simulator(system()).unwrap().run(&mut HeadOfQueue);
                assert!(
                    bound <= report.makespan,
                    "{name} ep {episode}: bound {bound} > makespan {}",
                    report.makespan
                );
                assert!(bound > 0, "{name}: bound must be informative");
            }
        }
    }

    #[test]
    fn chain_bound_is_at_least_the_sum_of_one_workflow() {
        // A single 3-chain of known runtimes pins the recurrence:
        // ect = submit + r0 + r1 + r2.
        let jobs = vec![
            Job::new(0, 5, 10, 10, vec![1, 0]),
            Job::new(1, 5, 20, 20, vec![1, 0]),
            Job::new(2, 5, 30, 30, vec![1, 0]),
        ];
        let ep = EpisodeSpec {
            jobs,
            events: Vec::new(),
            params: SimParams::new(4, true),
            deps: vec![vec![], vec![0], vec![1]],
        };
        assert_eq!(ep.makespan_lower_bound(&system()), 60);
    }

    #[test]
    fn stress_source_feeds_open_arrival_streams() {
        let cfg = crate::stress::StressConfig::engine(500, vec![32, 12])
            .with_arrivals(crate::stress::ArrivalProcess::Diurnal {
                period_secs: 10_000.0,
                amplitude: 0.8,
            })
            .with_horizon(40_000);
        let s = Scenario::new(
            "bursty",
            JobSource::Stress(cfg),
            WorkloadSpec::s1(),
            SimParams::new(5, true),
        )
        .with_seed(3);
        let a = s.materialize(&system(), 0);
        let b = s.materialize(&system(), 1);
        assert_eq!(a, s.materialize(&system(), 0), "deterministic per episode");
        // Duration-driven: different episodes may carry different counts.
        assert!(!a.jobs.is_empty() && !b.jobs.is_empty());
        assert!(a.jobs.iter().all(|j| j.submit <= 40_000));
    }

    #[test]
    fn goal_schedule_anneals_linearly_and_clamps() {
        let s = GoalSchedule::Anneal { from: vec![1.0, 0.0], to: vec![0.0, 1.0] };
        assert_eq!(s.goal_at(0, 5), vec![1.0, 0.0]);
        assert_eq!(s.goal_at(4, 5), vec![0.0, 1.0]);
        assert_eq!(s.goal_at(2, 5), vec![0.5, 0.5]);
        assert_eq!(s.goal_at(9, 5), vec![0.0, 1.0], "overshoot clamps");
        let f = GoalSchedule::Fixed(vec![0.3, 0.7]);
        assert!(f.is_fixed());
        assert_eq!(f.goal_at(3, 10), vec![0.3, 0.7]);
    }

    #[test]
    fn plateau_rule_fires_only_on_flat_finite_tails() {
        let phase = CurriculumPhase::new(clean_scenario(), 10).advance_on_plateau(3, 0.05);
        assert!(!phase.plateau_reached(&[]), "no history");
        assert!(!phase.plateau_reached(&[0.5, 0.5]), "window not filled");
        assert!(!phase.plateau_reached(&[f32::NAN, 0.5, 0.5]), "warm-up NaN blocks");
        assert!(!phase.plateau_reached(&[0.9, 0.5, 0.3]), "still descending");
        assert!(phase.plateau_reached(&[0.9, 0.31, 0.30, 0.28]), "flat tail fires");
        let off = CurriculumPhase::new(clean_scenario(), 10);
        assert!(!off.plateau_reached(&[0.3, 0.3, 0.3]), "off by default");
    }

    #[test]
    #[should_panic(expected = "at least two rounds")]
    fn plateau_window_of_one_rejected() {
        let _ = CurriculumPhase::new(clean_scenario(), 4).advance_on_plateau(1, 0.1);
    }

    #[test]
    fn curriculum_locates_episodes_and_tracks_progress() {
        let cur = Curriculum::disruption_hardening(
            clean_scenario(),
            DisruptionConfig { cancel_fraction: 0.3, ..Default::default() },
            DisruptionConfig::node_drain(0.25, 500, 2000),
            4,
        );
        assert_eq!(cur.phases().len(), 3);
        assert_eq!(cur.total_episodes(), 12);
        let (p0, ph0, e0) = cur.locate(0).unwrap();
        assert_eq!((p0, e0), (0, 0));
        assert_eq!(ph0.scenario.name, "clean");
        let (p1, ph1, e1) = cur.locate(5).unwrap();
        assert_eq!((p1, e1), (1, 1));
        assert_eq!(ph1.scenario.name, "cancel_heavy");
        let (p2, ph2, e2) = cur.locate(11).unwrap();
        assert_eq!((p2, e2), (2, 3));
        assert_eq!(ph2.scenario.name, "drain_heavy");
        assert!(cur.locate(12).is_none());
        let prog = cur.progress(5);
        assert_eq!(prog.phase, 1);
        assert_eq!(prog.completed, 5);
        assert_eq!(prog.total, 12);
        assert!(prog.to_string().contains("cancel_heavy"));
    }

    #[test]
    fn hardening_phases_share_everything_but_disruptions() {
        let cur = Curriculum::disruption_hardening(
            clean_scenario(),
            DisruptionConfig { cancel_fraction: 0.3, ..Default::default() },
            DisruptionConfig::node_drain(0.25, 500, 2000),
            2,
        );
        let phases = cur.phases();
        for p in &phases[1..] {
            assert_eq!(p.scenario.source, phases[0].scenario.source);
            assert_eq!(p.scenario.spec, phases[0].scenario.spec);
            assert_eq!(p.scenario.seed, phases[0].scenario.seed);
            assert_ne!(p.scenario.disruption, phases[0].scenario.disruption);
        }
    }
}
