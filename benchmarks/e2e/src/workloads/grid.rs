//! `grid_220`: the CI evaluation grid — 11 registered policies × 10
//! registered scenarios × 2 seeds on a 16-node system — through
//! `EvalPlan::run`, cold (empty policy cache, 60 learnable cells train)
//! and warm (every learnable cell served from the cache).
//!
//! This is the harness, cache, scenario materialisation, the GA / list /
//! scalar-RL baselines, and the simulator through `load`/`reset` on
//! hundreds of 30-job episodes across the DAG, bursty and energy
//! families: the opposite regime from the 100k–1M-job traces.

use crate::report::{timed_reps, timed_setup, Report, RunArgs};
use crate::stats::median;
use crate::trace::{self, Span};
use mrsch::TrainerConfig;
use mrsch_eval::{
    build_scenarios, cache_key, default_training_curriculum, table, BuildContext, EvalCell,
    EvalGrid, EvalPlan, PolicyCache, PolicySpec,
};
use mrsch_workload::scenario::{mix_seed, JobSource, Scenario};
use mrsch_workload::{ThetaConfig, WorkloadSpec};
use mrsim::{Policy, SimParams, Simulator, SystemConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of the measuring time given to cold passes.
const COLD_SHARE: f64 = 0.75;
/// Warm passes after the cold ones (the `response_ms` sample).
const WARM_REPS: usize = 8;
const TRAIN_EPISODES: usize = 2;

// `mrsch_eval::harness` keeps these private; the bench-side cell loop
// needs the same episode and build seeds to reproduce `EvalPlan`'s cells,
// and the `cells_equal_evalplan` check fails loudly if they ever drift.
const EVAL_EPISODE_SALT: u64 = 0xE7A1_0001;
const POLICY_BUILD_SALT: u64 = 0xB01D_0003;

struct Case {
    base: SystemConfig,
    policies: Vec<PolicySpec>,
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    /// Scratch space for the policy caches, inside the benchmark's `out/`.
    scratch: PathBuf,
}

fn setup(args: &RunArgs) -> Case {
    let source = JobSource::Theta(ThetaConfig {
        machine_nodes: 16,
        ..ThetaConfig::scaled(30)
    });
    let params = SimParams::new(4, true);
    let (policies, scenarios, seeds) = if args.smoke {
        let policies = ["fcfs", "ga", "scalar-rl", "mrsch"]
            .iter()
            .map(|p| PolicySpec::parse(p).expect("registered policy"))
            .collect();
        (policies, "clean,dag:chain,bursty:spike", vec![0])
    } else {
        (PolicySpec::registered(), "all", vec![0, 1])
    };
    let scenarios = build_scenarios(scenarios, &source, &WorkloadSpec::s1(), params, args.seed)
        .expect("registered scenario specs");
    let scratch = crate::out_dir().join(format!("tmp-grid-{}", std::process::id()));
    let case = Case {
        base: SystemConfig::two_resource(16, 8),
        policies,
        scenarios,
        seeds,
        scratch,
    };
    // One reduced-size warm-up of the timed body: one heuristic and one
    // learnable policy on the first scenario, one seed, no cache.
    EvalPlan::new(
        case.base.clone(),
        vec![PolicySpec::Fcfs, PolicySpec::mrsch()],
        case.scenarios[..1].to_vec(),
        case.seeds[..1].to_vec(),
    )
    .train_episodes(TRAIN_EPISODES)
    .workers(1)
    .run();
    case
}

impl Case {
    fn plan(&self, cache: &Arc<PolicyCache>) -> EvalPlan {
        EvalPlan::new(
            self.base.clone(),
            self.policies.clone(),
            self.scenarios.clone(),
            self.seeds.clone(),
        )
        .train_episodes(TRAIN_EPISODES)
        .trainer(TrainerConfig::default())
        .workers(1)
        .policy_cache(Arc::clone(cache))
    }

    fn cells(&self) -> usize {
        self.policies.len() * self.scenarios.len() * self.seeds.len()
    }

    fn learnable_cells(&self) -> usize {
        self.policies.iter().filter(|p| p.is_learnable()).count()
            * self.scenarios.len()
            * self.seeds.len()
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

fn csv_of(grid: &EvalGrid) -> String {
    let (header, rows) = grid.cell_csv();
    table::to_csv(&header, &rows)
}

/// Cells that ended with jobs stuck in the queue.
fn bad_cells(grid: &EvalGrid) -> u64 {
    grid.cells
        .iter()
        .filter(|c| c.report.jobs_unfinished > 0)
        .count() as u64
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let case = timed_setup(report, || setup(args));
    let (cells, learnable) = (case.cells(), case.learnable_cells());
    let budget = Duration::from_secs_f64(args.seconds).mul_f64(COLD_SHARE);

    // Cold passes: a fresh cache directory each, every learnable cell trains.
    let mut cold_csv = String::new();
    let mut cold_ok = true;
    let mut cold_grid = EvalGrid::default();
    let cold_dir = case.scratch.join("cold");
    let cold_walls = timed_reps(if args.traced { Duration::ZERO } else { budget }, 1, |_| {
        let cache = Arc::new(PolicyCache::new(case.fresh_dir("cold")));
        let grid = case.plan(&cache).run();
        cold_ok &= cache.misses() == learnable && cache.hits() == 0 && cache.stores() == learnable;
        report.attempted += cells as u64;
        report.failed += bad_cells(&grid);
        cold_csv = csv_of(&grid);
        cold_grid = grid;
    });
    report.check(
        "cold_trains_every_learnable_cell",
        cold_ok,
        format!("{learnable} misses"),
    );

    // Warm passes over the last cold pass's directory.
    let mut warm_ok = true;
    let mut csv_equal = true;
    let warm_reps = if args.traced { 1 } else { WARM_REPS };
    let warm_walls = timed_reps(Duration::ZERO, warm_reps, |_| {
        let cache = Arc::new(PolicyCache::new(&cold_dir));
        let grid = case.plan(&cache).run();
        warm_ok &= cache.misses() == 0 && cache.hits() == learnable;
        csv_equal &= csv_of(&grid) == cold_csv;
        report.attempted += cells as u64;
        report.failed += bad_cells(&grid);
    });
    report.check(
        "warm_serves_every_learnable_cell",
        warm_ok,
        format!("{learnable} hits, 0 misses"),
    );
    report.check(
        "warm_csv_equals_cold",
        csv_equal,
        format!("{} bytes", cold_csv.len()),
    );

    if !args.traced {
        let rates: Vec<f64> = cold_walls.iter().map(|w| cells as f64 / w).collect();
        report.metric_of("throughput", &rates);
        // Per 1000 scheduling decisions: how many the 220 episodes take
        // depends on the jobs the seed generated, and the warm pass's
        // cost (GA planning above all) follows it.
        let decisions: u64 = cold_grid.cells.iter().map(|c| c.report.decisions).sum();
        let warm_ms: Vec<f64> = warm_walls
            .iter()
            .map(|w| w * 1e3 / (decisions as f64 / 1e3))
            .collect();
        report.metric_of("response_ms", &warm_ms);
        let _ = std::fs::remove_dir_all(&case.scratch);
        return;
    }

    // Traced run: `EvalPlan::run_cell` is private, so the same cells are
    // re-composed here from public pieces — cold once with tracing off
    // (what the spans cost), then cold and warm with it on.
    let loop_dir = case.fresh_dir("loop");
    let t = Instant::now();
    cell_loop(&case, &PolicyCache::new(case.fresh_dir("loop-untraced")), 0);
    let untraced_loop_wall = t.elapsed().as_secs_f64();
    trace::start();
    let cold_cache = PolicyCache::new(&loop_dir);
    let loop_cold = cell_loop(&case, &cold_cache, 0);
    let cold = trace::finish();
    trace::start();
    let warm_cache = PolicyCache::new(&loop_dir);
    let loop_warm = cell_loop(&case, &warm_cache, 1);
    let loop_csv = trace::span(Span::EvalCsv, 0, || csv_of(&loop_warm));
    read_every_entry(&case, &warm_cache);
    let warm = trace::finish();
    report.attempted += 3 * cells as u64;
    report.failed += bad_cells(&loop_cold) + bad_cells(&loop_warm);

    let same = |a: &EvalGrid, b: &EvalGrid| {
        a.cells.len() == b.cells.len()
            && a.cells.iter().zip(&b.cells).all(|(x, y)| {
                (x.policy == y.policy && x.scenario == y.scenario && x.seed == y.seed)
                    && (x.cp_bound == y.cp_bound && x.report == y.report)
            })
    };
    report.check(
        "cells_equal_evalplan",
        same(&loop_cold, &cold_grid) && same(&loop_warm, &cold_grid) && loop_csv == cold_csv,
        format!("{cells} cells"),
    );
    report.check(
        "bench_loop_cache_counters",
        cold_cache.misses() == learnable && warm_cache.hits() == learnable,
        "",
    );

    let cold_wall = median(&cold_walls);
    let warm_wall = median(&warm_walls);
    let loop_cold_wall = cold.total_s(Span::Body);
    report.metric(
        "trace.overhead_pct",
        (loop_cold_wall / untraced_loop_wall - 1.0) * 100.0,
    );
    report.trace_summary(&cold, 1.0);
    report.metric("eval.grid_cold_s", cold_wall);
    report.metric("eval.grid_warm_s", warm_wall);
    let build = |t: &trace::Tracer| {
        t.total_s(Span::EvalBuildMrsch)
            + t.total_s(Span::EvalBuildScalarRl)
            + t.total_s(Span::EvalBuildOther)
    };
    // Cold pass: where training time goes.
    report.metric("eval.build_policy_s", build(&cold));
    report.metric("eval.build_mrsch_s", cold.total_s(Span::EvalBuildMrsch));
    report.metric(
        "eval.build_scalar_rl_s",
        cold.total_s(Span::EvalBuildScalarRl),
    );
    report.metric("eval.cache_misses", cold_cache.misses() as f64);
    report.metric("eval.cache_stores", cold_cache.stores() as f64);
    report.metric("eval.harness_overhead_s", cold_wall - untraced_loop_wall);
    // Warm pass: what is left once nothing trains.
    report.metric(
        "workload.materialize_s",
        warm.total_s(Span::WorkloadMaterialize),
    );
    report.metric("sim.construct_s", warm.total_s(Span::SimLoad));
    report.metric("core.mrsch_run_s", warm.total_s(Span::CoreMrschRun));
    report.metric("baselines.ga_run_s", warm.total_s(Span::BaselinesGaRun));
    report.metric("baselines.list_run_s", warm.total_s(Span::BaselinesListRun));
    report.metric(
        "baselines.scalar_rl_run_s",
        warm.total_s(Span::BaselinesScalarRlRun),
    );
    report.metric("eval.cache_hits", warm_cache.hits() as f64);
    report.metric("eval.cache_read_s", warm.total_s(Span::EvalCacheRead));
    report.metric("eval.cache_bytes", dir_bytes(&loop_dir) as f64);
    report.metric("eval.csv_s", warm.total_s(Span::EvalCsv));
    crate::write_trace(args, "", &cold);
    crate::write_trace(args, "-warm", &warm);
    let _ = std::fs::remove_dir_all(&case.scratch);
}

fn is_ga(spec: &PolicySpec) -> bool {
    matches!(spec, PolicySpec::Ga | PolicySpec::GaReseed)
}

/// `EvalPlan::run` at one worker, re-composed: per cell `materialize`,
/// build (cached for learnable specs, reused for the rest), `install`,
/// `run` — a span around each, bucketed by policy family.
fn cell_loop(case: &Case, cache: &PolicyCache, pass: u64) -> EvalGrid {
    let mut grid = EvalGrid::default();
    let mut reusable: HashMap<(usize, usize), Box<dyn Policy + Send>> = HashMap::new();
    let mut sims: HashMap<usize, Simulator> = HashMap::new();
    trace::span(Span::Body, pass, || {
        for (pi, spec) in case.policies.iter().enumerate() {
            for (si, scenario) in case.scenarios.iter().enumerate() {
                for &seed in &case.seeds {
                    let id = grid.cells.len() as u64;
                    let system = scenario.spec.system_for(&case.base);
                    let episode = trace::span(Span::WorkloadMaterialize, id, || {
                        scenario.materialize(&system, mix_seed(seed, EVAL_EPISODE_SALT))
                    });
                    let cp_bound = episode.makespan_lower_bound(&system);
                    let curriculum;
                    let mut built: Option<Box<dyn Policy + Send>> = None;
                    let (policy, run_span): (&mut (dyn Policy + Send), Span) = if spec
                        .is_learnable()
                    {
                        curriculum = default_training_curriculum(scenario, TRAIN_EPISODES);
                        let ctx = BuildContext {
                            system: &system,
                            params: scenario.params,
                            seed,
                            train: Some(&curriculum),
                            trainer: TrainerConfig::default(),
                            dfp_config: None,
                        };
                        let (build_span, run_span) = match spec {
                            PolicySpec::ScalarRl => {
                                (Span::EvalBuildScalarRl, Span::BaselinesScalarRlRun)
                            }
                            _ => (Span::EvalBuildMrsch, Span::CoreMrschRun),
                        };
                        let policy =
                            trace::span(build_span, id, || spec.build_cached(&ctx, Some(cache)));
                        (built.insert(policy).as_mut(), run_span)
                    } else {
                        let run_span = if is_ga(spec) {
                            Span::BaselinesGaRun
                        } else {
                            Span::BaselinesListRun
                        };
                        if spec.reuses_instances() {
                            let build_seed = mix_seed(scenario.seed, POLICY_BUILD_SALT ^ pi as u64);
                            let ctx = BuildContext::new(&system, scenario.params, build_seed);
                            let policy = reusable.entry((pi, si)).or_insert_with(|| {
                                trace::span(Span::EvalBuildOther, id, || spec.build(&ctx))
                            });
                            policy.reset();
                            (policy.as_mut(), run_span)
                        } else {
                            let ctx = BuildContext::new(&system, scenario.params, seed);
                            let policy = trace::span(Span::EvalBuildOther, id, || spec.build(&ctx));
                            (built.insert(policy).as_mut(), run_span)
                        }
                    };
                    let sim = trace::span(Span::SimLoad, id, || match sims.entry(si) {
                        std::collections::hash_map::Entry::Occupied(slot) => {
                            let sim = slot.into_mut();
                            episode.install(sim).expect("episode fits the system");
                            sim
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => slot.insert(
                            episode
                                .simulator(system.clone())
                                .expect("episode fits the system"),
                        ),
                    });
                    let report = trace::span(run_span, id, || sim.run(policy));
                    grid.cells.push(EvalCell {
                        policy: spec.name(),
                        scenario: scenario.name.clone(),
                        seed,
                        cp_bound,
                        report,
                    });
                }
            }
        }
    });
    grid
}

/// One `PolicyCache::read` per learnable cell, a span around each.
fn read_every_entry(case: &Case, cache: &PolicyCache) {
    for spec in case.policies.iter().filter(|p| p.is_learnable()) {
        for scenario in &case.scenarios {
            for &seed in &case.seeds {
                let system = scenario.spec.system_for(&case.base);
                let curriculum = default_training_curriculum(scenario, TRAIN_EPISODES);
                let trainer = TrainerConfig::default();
                let key = cache_key(
                    spec,
                    &system,
                    scenario.params,
                    seed,
                    &curriculum,
                    &trainer,
                    None,
                );
                let payload = trace::span(Span::EvalCacheRead, seed, || cache.read(key));
                assert!(payload.is_some(), "warm cache holds every learnable cell");
            }
        }
    }
}
