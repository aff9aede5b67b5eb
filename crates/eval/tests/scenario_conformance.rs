//! Scenario-registry conformance, mirroring `registry_conformance`:
//! every registered [`ScenarioSpec`] must round-trip through
//! `parse`/`Display`, materialize deterministically, actually run, and
//! honour its family's structural contract — DAG episodes never start a
//! task before its predecessors are terminal and never beat the
//! critical-path bound, bursty episodes vary their job counts across
//! episodes, and energy scenarios report nonzero energy.

use mrsch::prelude::*;
use mrsch_eval::{EvalPlan, PolicySpec, ScenarioParseError, ScenarioSpec};

fn tiny_source() -> JobSource {
    JobSource::Theta(ThetaConfig {
        machine_nodes: 16,
        mean_interarrival: 120.0,
        ..ThetaConfig::scaled(16)
    })
}

fn build(spec: &ScenarioSpec) -> Scenario {
    spec.build(tiny_source(), WorkloadSpec::s1(), SimParams::new(4, true), 11)
}

#[test]
fn every_registered_spec_round_trips_and_materializes_deterministically() {
    for spec in ScenarioSpec::registered() {
        let name = spec.name();
        assert_eq!(
            ScenarioSpec::parse(&name).unwrap(),
            spec,
            "{name}: Display must parse back to the same spec"
        );
        let scenario = build(&spec);
        assert_eq!(scenario.name, name, "scenario takes the spec string as its name");
        let system = scenario.spec.system_for(&SystemConfig::two_resource(16, 8));
        let a = scenario.materialize(&system, 23);
        let b = scenario.materialize(&system, 23);
        assert_eq!(a, b, "{name}: same (scenario, system, episode) must be bit-identical");
        assert!(!a.jobs.is_empty(), "{name}: episode must carry jobs");
        let mut sim = a.simulator(system.clone()).expect("episode fits the system");
        let report = sim.run(&mut HeadOfQueue);
        assert!(
            report.all_jobs_accounted(a.jobs.len()),
            "{name}: every job must reach a terminal state"
        );
        // The bound is exact only for cancellation-free episodes (a
        // cancelled job's "runtime" vanishes); check it where it holds.
        if scenario.disruption == DisruptionConfig::default() {
            assert!(
                report.makespan >= a.makespan_lower_bound(&system),
                "{name}: makespan beat the lower bound on a disruption-free episode"
            );
        }
    }
}

#[test]
fn malformed_suffixes_are_typed_errors() {
    for bad in ["dag:fanout:wide", "dag:chain:-2", "bursty:diurnal:0", "bursty:spike:999"] {
        assert!(
            matches!(ScenarioSpec::parse(bad), Err(ScenarioParseError::BadParameter { .. })),
            "{bad} must be a BadParameter error"
        );
    }
    assert!(matches!(
        ScenarioSpec::parse("quantum"),
        Err(ScenarioParseError::UnknownScenario(_))
    ));
    assert!(matches!(ScenarioSpec::parse(""), Err(ScenarioParseError::Empty)));
    // Error text doubles as CLI help: it must list the registry.
    let msg = ScenarioSpec::parse("quantum").unwrap_err().to_string();
    for listed in ["clean", "dag:fanout:3", "bursty:diurnal:60", "energy:drain"] {
        assert!(msg.contains(listed), "error should list '{listed}': {msg}");
    }
}

#[test]
fn dag_scenarios_respect_dependencies_and_the_cp_bound_for_every_policy() {
    // Conservation across the policy axis: under any registered
    // non-learnable policy and several seeds, no DAG task starts before
    // all its predecessors are terminal, and the makespan never beats
    // the critical-path/area lower bound (cells carry it as cp_bound).
    let specs = [
        ScenarioSpec::DagChain { length: 3 },
        ScenarioSpec::DagFanout { width: 4 },
    ];
    let scenarios: Vec<Scenario> = specs.iter().map(build).collect();
    let policies: Vec<PolicySpec> = [
        "fcfs",
        "list:sjf",
        "list:lpt",
        "ga",
    ]
    .iter()
    .map(|s| PolicySpec::parse(s).unwrap())
    .collect();
    let grid = EvalPlan::new(
        SystemConfig::two_resource(16, 8),
        policies,
        scenarios.clone(),
        vec![1, 2, 3],
    )
    .run();
    for cell in &grid.cells {
        assert!(cell.cp_bound > 0, "{}/{}: DAG episodes have a bound", cell.policy, cell.scenario);
        assert!(
            cell.report.makespan >= cell.cp_bound,
            "{}/{} seed {}: makespan {} beat the lower bound {}",
            cell.policy,
            cell.scenario,
            cell.seed,
            cell.report.makespan,
            cell.cp_bound
        );
        assert!(cell.cp_regret() >= 0.0);
    }
    // Replay one episode per scenario and check precedence on the
    // recorded start times directly.
    for scenario in &scenarios {
        let system = scenario.spec.system_for(&SystemConfig::two_resource(16, 8));
        let episode = scenario.materialize(&system, 7);
        assert!(episode.deps.iter().any(|d| !d.is_empty()), "DAG episodes carry deps");
        let mut sim = episode.simulator(system).expect("episode fits");
        let report = sim.run(&mut HeadOfQueue);
        for (i, preds) in episode.deps.iter().enumerate() {
            let rec = report.records.iter().find(|r| r.id == i).expect("record per job");
            for &p in preds {
                let pred = report.records.iter().find(|r| r.id == p).expect("pred record");
                assert!(
                    rec.start >= pred.end,
                    "{}: task {i} started at {} before predecessor {p} ended at {}",
                    scenario.name,
                    rec.start,
                    pred.end
                );
            }
        }
    }
}

#[test]
fn bursty_scenarios_are_open_streams_with_episode_dependent_lengths() {
    for spec in [
        ScenarioSpec::BurstyDiurnal { amplitude_pct: 60 },
        ScenarioSpec::BurstySpike { boost: 6 },
    ] {
        let scenario = build(&spec);
        assert!(
            matches!(scenario.source, JobSource::Stress(_)),
            "{spec}: bursty families synthesize open stress streams"
        );
        let system = scenario.spec.system_for(&SystemConfig::two_resource(16, 8));
        let counts: Vec<usize> =
            (0..6).map(|e| scenario.materialize(&system, e).jobs.len()).collect();
        assert!(
            counts.windows(2).any(|w| w[0] != w[1]),
            "{spec}: duration-driven generation should vary job counts, got {counts:?}"
        );
    }
}

#[test]
fn energy_drain_reports_nonzero_energy_and_plain_drain_does_not() {
    let system = SystemConfig::two_resource(16, 8);
    let run = |spec: ScenarioSpec| {
        let scenario = build(&spec);
        let system = scenario.spec.system_for(&system);
        let episode = scenario.materialize(&system, 3);
        episode.simulator(system).expect("fits").run(&mut HeadOfQueue)
    };
    let energy = run(ScenarioSpec::EnergyDrain);
    assert!(energy.energy_kwh() > 0.0, "energy:drain must meter energy");
    assert!(energy.energy_active_joules > 0.0 && energy.energy_idle_joules > 0.0);
    let plain = run(ScenarioSpec::Drain);
    assert_eq!(plain.energy_kwh(), 0.0, "plain drain carries no power model");
}

/// Picks a pseudo-random window slot per decision (an LCG).
struct RandomWindow(u64);

impl Policy for RandomWindow {
    fn select(&mut self, view: &mrsim::SchedulerView<'_>) -> Option<usize> {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (!view.window.is_empty()).then(|| (self.0 >> 33) as usize % view.window.len())
    }
}

#[test]
fn units_are_conserved_after_every_step_of_every_registered_scenario() {
    // `free + held == capacity` per pool is what the backfill pass's
    // "free only shrinks" argument stands on. Inside the simulator it
    // is a `debug_assert!`; this checks it with `assert!`, so a
    // `cargo test --release` run (CI does one) checks it too.
    for spec in ScenarioSpec::registered() {
        let scenario = build(&spec);
        let system = scenario.spec.system_for(&SystemConfig::two_resource(16, 8));
        for episode in [3, 4] {
            let episode = scenario.materialize(&system, episode);
            let policies: [Box<dyn Policy>; 2] =
                [Box::new(HeadOfQueue), Box::new(RandomWindow(episode.jobs.len() as u64))];
            for mut policy in policies {
                let mut sim = episode.simulator(system.clone()).expect("episode fits the system");
                let mut steps = 0;
                while sim.step(policy.as_mut()) {
                    steps += 1;
                    assert!(
                        sim.pools().check_conservation(),
                        "{spec}: units leaked by step {steps} (t = {})",
                        sim.now()
                    );
                }
                assert!(steps > 0, "{spec}: episode ran");
            }
        }
    }
}
