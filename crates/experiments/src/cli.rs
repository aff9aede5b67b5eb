//! Command-line interface (`mrsch_cli`): train, evaluate and compare
//! schedulers on SWF traces without writing Rust.
//!
//! ```text
//! mrsch_cli simulate --swf trace.swf --workload S4 --nodes 256 --bb 75 \
//!           --policy fcfs|sjf|ljf|ga|mrsch [--window 10] [--seed 1] \
//!           [--train-episodes 4] [--model out.ckpt | --load model.ckpt] \
//!           [--curriculum clean|harden] [--workers N] \
//!           [--cancel-frac F] [--overrun-frac F] [--drain-frac F] \
//!           [--replay-swf-cancels | --replay-swf-cancels-faithful] \
//!           [--snapshot-every N --snapshot-dir DIR]
//!
//! mrsch_cli resume --from DIR/shard-0000.snap [--policy fcfs|sjf|ljf|ga]
//!
//! mrsch_cli evaluate --policy fcfs,mrsch[,all,...] \
//!           --scenario clean|cancel-heavy|overrun-heavy|drain|mixed \
//!                      |dag:chain[:L]|dag:fanout[:W] \
//!                      |bursty:diurnal[:PCT]|bursty:spike[:BOOST] \
//!                      |energy:drain[,...] \
//!           --seeds 0..4 [--workload S1] [--nodes N] [--bb B] [--window W] \
//!           [--jobs N | --swf FILE] [--train-episodes K] [--workers N] \
//!           [--policy-cache DIR [--require-warm-cache]] [--csv grid.csv]
//! ```
//!
//! `evaluate` runs the full registry-driven evaluation grid
//! (`policies × scenarios × seeds`) through `mrsch_eval::EvalPlan` and
//! prints the **seed-aggregated CSV** to stdout (`--csv` additionally
//! writes the per-cell grid). `--scenario` takes scenario-registry
//! spec strings (`mrsch_eval::ScenarioSpec`): the disruption presets,
//! workflow-DAG families (`dag:chain:4`, `dag:fanout:3`), bursty open
//! arrival streams (`bursty:diurnal:60`, `bursty:spike:6`) and
//! `energy:drain`; `all` expands to the whole registry. Grid CSVs carry
//! the per-episode critical-path lower bound (`cp_bound_s`), the
//! relative regret against it, and metered energy (`energy_kwh`). `--curriculum harden` trains MRSch
//! through the clean → cancel-heavy → drain-heavy scenario curriculum
//! (episodes per phase = `--train-episodes`) with `--workers` parallel
//! rollout threads; worker count never changes the result, only the
//! wall-clock.
//! `--policy-cache DIR` memoizes trained policies content-addressed by
//! their full training configuration, so repeated grids skip training;
//! `--require-warm-cache` fails the run if any cell had to retrain.
//!
//! Argument parsing is hand-rolled (the offline dependency policy has no
//! clap) and lives here, separately from the thin binary, so it is unit
//! tested.

use crate::csv;
use mrsch::prelude::*;
use mrsch_eval::{BuildContext, EvalPlan, PolicySpec};
use mrsch_workload::disruption::{
    swf_cancel_events, swf_relative_cancels, DisruptionConfig, DrainSpec,
};
use mrsch_workload::swf::parse_swf;
use mrsch_workload::theta::TraceJob;
use mrsim::{InjectedEvent, SimTime};

/// Parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct CliArgs {
    /// Path to the SWF trace.
    pub swf: String,
    /// Workload name, "S1"…"S10".
    pub workload: String,
    /// Machine nodes.
    pub nodes: u64,
    /// Burst-buffer units.
    pub bb: u64,
    /// Scheduler to run: any registry name or alias
    /// ([`PolicySpec::parse`]) except `scalar-rl`, which only trains
    /// through `evaluate`'s curriculum.
    pub policy: PolicySpec,
    /// Window size.
    pub window: usize,
    /// RNG seed.
    pub seed: u64,
    /// Training episodes before evaluation (MRSch only).
    pub train_episodes: usize,
    /// Write the trained model checkpoint here (MRSch only).
    pub model_out: Option<String>,
    /// Load a checkpoint instead of training (MRSch only).
    pub model_in: Option<String>,
    /// Fraction of evaluation jobs cancelled by synthetic users.
    pub cancel_frac: f64,
    /// Fraction of evaluation jobs whose runtime overruns the estimate.
    pub overrun_frac: f64,
    /// Runtime multiplier for overrunners (on the estimate).
    pub overrun_factor: f64,
    /// Fraction of nodes drained mid-trace (0 disables the drain).
    pub drain_frac: f64,
    /// Drain start time in seconds.
    pub drain_start: SimTime,
    /// Drain duration in seconds (0 = permanent).
    pub drain_duration: SimTime,
    /// Kill jobs at their walltime estimate (required for overruns).
    pub enforce_walltime: bool,
    /// Periodic tick interval for time-driven policies (seconds).
    pub tick: Option<SimTime>,
    /// Replay the SWF trace's own cancelled-status jobs as cancels at
    /// `submit + recorded_runtime` (the absolute-time proxy — the
    /// pre-existing behavior, kept behind this pre-existing flag).
    pub replay_swf_cancels: bool,
    /// Replay SWF cancels wait-time-aware: each fires at
    /// `start + recorded_runtime` of the *simulated* run.
    pub replay_swf_cancels_faithful: bool,
    /// Train MRSch through a scenario curriculum ("harden" = clean →
    /// cancel-heavy → drain-heavy) instead of plain repeated episodes.
    pub curriculum: Option<String>,
    /// Parallel rollout worker threads for curriculum training.
    pub workers: usize,
    /// Write a checkpoint every N event batches (baseline policies).
    pub snapshot_every: Option<u64>,
    /// Directory receiving the periodic `shard-0000.snap` checkpoint.
    pub snapshot_dir: Option<String>,
}

impl CliArgs {
    /// True when any disruption mechanism is enabled.
    pub fn disruptions_enabled(&self) -> bool {
        self.cancel_frac > 0.0
            || self.overrun_frac > 0.0
            || self.drain_frac > 0.0
            || self.replay_swf_cancels
            || self.replay_swf_cancels_faithful
    }
}

/// Parse `simulate`-style arguments (everything after the subcommand).
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut out = CliArgs {
        swf: String::new(),
        workload: "S1".into(),
        nodes: 256,
        bb: 75,
        policy: PolicySpec::Fcfs,
        window: 10,
        seed: 1,
        train_episodes: 4,
        model_out: None,
        model_in: None,
        cancel_frac: 0.0,
        overrun_frac: 0.0,
        overrun_factor: 1.5,
        drain_frac: 0.0,
        drain_start: 0,
        drain_duration: 0,
        enforce_walltime: false,
        tick: None,
        replay_swf_cancels: false,
        replay_swf_cancels_faithful: false,
        curriculum: None,
        workers: 1,
        snapshot_every: None,
        snapshot_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--swf" => out.swf = value("--swf")?,
            "--workload" => out.workload = value("--workload")?.to_uppercase(),
            "--nodes" => {
                out.nodes = value("--nodes")?.parse().map_err(|_| "--nodes: not a number")?
            }
            "--bb" => out.bb = value("--bb")?.parse().map_err(|_| "--bb: not a number")?,
            "--policy" => out.policy = PolicySpec::parse(&value("--policy")?)?,
            "--window" => {
                out.window =
                    value("--window")?.parse().map_err(|_| "--window: not a number")?
            }
            "--seed" => {
                out.seed = value("--seed")?.parse().map_err(|_| "--seed: not a number")?
            }
            "--train-episodes" => {
                out.train_episodes = value("--train-episodes")?
                    .parse()
                    .map_err(|_| "--train-episodes: not a number")?
            }
            "--model" => out.model_out = Some(value("--model")?),
            "--load" => out.model_in = Some(value("--load")?),
            "--cancel-frac" => {
                out.cancel_frac =
                    value("--cancel-frac")?.parse().map_err(|_| "--cancel-frac: not a number")?
            }
            "--overrun-frac" => {
                out.overrun_frac = value("--overrun-frac")?
                    .parse()
                    .map_err(|_| "--overrun-frac: not a number")?;
                out.enforce_walltime = true; // overruns are pointless otherwise
            }
            "--overrun-factor" => {
                out.overrun_factor = value("--overrun-factor")?
                    .parse()
                    .map_err(|_| "--overrun-factor: not a number")?
            }
            "--drain-frac" => {
                out.drain_frac =
                    value("--drain-frac")?.parse().map_err(|_| "--drain-frac: not a number")?
            }
            "--drain-start" => {
                out.drain_start =
                    value("--drain-start")?.parse().map_err(|_| "--drain-start: not a number")?
            }
            "--drain-duration" => {
                out.drain_duration = value("--drain-duration")?
                    .parse()
                    .map_err(|_| "--drain-duration: not a number")?
            }
            "--enforce-walltime" => out.enforce_walltime = true,
            "--tick" => {
                out.tick =
                    Some(value("--tick")?.parse().map_err(|_| "--tick: not a number")?)
            }
            "--replay-swf-cancels" => out.replay_swf_cancels = true,
            "--replay-swf-cancels-faithful" => out.replay_swf_cancels_faithful = true,
            "--curriculum" => out.curriculum = Some(value("--curriculum")?.to_lowercase()),
            "--workers" => {
                out.workers =
                    value("--workers")?.parse().map_err(|_| "--workers: not a number")?
            }
            "--snapshot-every" => {
                out.snapshot_every = Some(
                    value("--snapshot-every")?
                        .parse()
                        .map_err(|_| "--snapshot-every: not a number")?,
                )
            }
            "--snapshot-dir" => out.snapshot_dir = Some(value("--snapshot-dir")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if out.snapshot_every.is_some() != out.snapshot_dir.is_some() {
        return Err("--snapshot-every and --snapshot-dir must be given together".into());
    }
    if out.snapshot_every == Some(0) {
        return Err("--snapshot-every must be positive".into());
    }
    if out.policy == PolicySpec::ScalarRl {
        return Err("scalar-rl trains on a scenario curriculum; run it through `evaluate`".into());
    }
    if out.snapshot_every.is_some() && out.policy.is_learnable() {
        return Err(
            "--snapshot-every checkpoints the simulator, not a learning agent; \
             use it with fcfs|sjf|ljf|ga"
                .into(),
        );
    }
    if out.swf.is_empty() {
        return Err("--swf <file> is required".into());
    }
    if out.window == 0 {
        return Err("--window must be positive".into());
    }
    if out.workers == 0 {
        return Err("--workers must be positive".into());
    }
    if let Some(c) = &out.curriculum {
        if !["clean", "harden"].contains(&c.as_str()) {
            return Err(format!("unknown curriculum '{c}' (expected clean|harden)"));
        }
    }
    for (flag, v) in [
        ("--cancel-frac", out.cancel_frac),
        ("--overrun-frac", out.overrun_frac),
        ("--drain-frac", out.drain_frac),
    ] {
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{flag} must be in [0, 1]"));
        }
    }
    if out.overrun_factor <= 1.0 {
        return Err("--overrun-factor must exceed 1".into());
    }
    find_spec(&out.workload)?;
    Ok(out)
}

/// Resolve a workload name to its spec.
pub fn find_spec(name: &str) -> Result<WorkloadSpec, String> {
    let mut all = WorkloadSpec::two_resource_suite();
    all.extend(WorkloadSpec::three_resource_suite());
    all.into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload '{name}' (expected S1..S10)"))
}

/// Build the evaluation disruption set for a parsed invocation: the
/// (possibly overrun-modified) jobs, the events to inject, and any
/// wait-time-aware relative cancels (faithful SWF replay).
fn disruptions_for(
    args: &CliArgs,
    jobs: Vec<Job>,
    system: &SystemConfig,
    trace: &[TraceJob],
) -> (Vec<Job>, Vec<InjectedEvent>, Vec<(usize, SimTime)>) {
    if !args.disruptions_enabled() {
        return (jobs, Vec::new(), Vec::new());
    }
    let mut drains = Vec::new();
    if args.drain_frac > 0.0 {
        drains.push(DrainSpec {
            resource: 0,
            fraction: args.drain_frac,
            at: args.drain_start,
            duration: args.drain_duration,
        });
    }
    let cfg = DisruptionConfig {
        cancel_fraction: args.cancel_frac,
        overrun_fraction: args.overrun_frac,
        overrun_factor: args.overrun_factor,
        drains,
    };
    let mut disrupted = cfg.synthesize(&jobs, system, args.seed ^ 0x5eed);
    let mut relative = Vec::new();
    if args.replay_swf_cancels_faithful {
        relative = swf_relative_cancels(&disrupted.jobs, trace);
    } else if args.replay_swf_cancels {
        disrupted.events.extend(swf_cancel_events(&disrupted.jobs, trace));
    }
    (disrupted.jobs, disrupted.events, relative)
}

/// The disruption-hardening curriculum a `--curriculum harden` run
/// trains on: the CLI's own disruption knobs define the disrupted
/// phases (falling back to a representative default when a knob is
/// unset), layered on the training slice of the trace.
fn cli_curriculum(args: &CliArgs, train_trace: &[TraceJob], spec: &WorkloadSpec) -> Curriculum {
    let clean = Scenario::new(
        "clean",
        JobSource::Trace(train_trace.to_vec()),
        spec.clone(),
        SimParams {
            enforce_walltime: args.enforce_walltime,
            tick: args.tick,
            ..SimParams::new(args.window, true)
        },
    )
    .with_seed(args.seed ^ 0xc0a1);
    if args.curriculum.as_deref() == Some("clean") {
        return Curriculum::new().phase(CurriculumPhase::new(clean, args.train_episodes.max(1)));
    }
    let cancel_heavy = DisruptionConfig {
        cancel_fraction: if args.cancel_frac > 0.0 { args.cancel_frac } else { 0.2 },
        overrun_fraction: if args.overrun_frac > 0.0 { args.overrun_frac } else { 0.1 },
        overrun_factor: args.overrun_factor,
        drains: Vec::new(),
    };
    let last_submit = train_trace.iter().map(|t| t.submit).max().unwrap_or(0);
    let drain_heavy = DisruptionConfig {
        drains: vec![DrainSpec {
            resource: 0,
            fraction: if args.drain_frac > 0.0 { args.drain_frac } else { 0.25 },
            at: if args.drain_start > 0 { args.drain_start } else { last_submit / 3 },
            duration: if args.drain_duration > 0 { args.drain_duration } else { 3600 },
        }],
        ..DisruptionConfig::default()
    };
    Curriculum::disruption_hardening(
        clean,
        cancel_heavy,
        drain_heavy,
        args.train_episodes.max(1),
    )
}

/// Run a parsed invocation over an already-loaded trace, returning the
/// simulator report (separated from I/O for testability).
pub fn run_on_trace(args: &CliArgs, trace: &[TraceJob]) -> Result<SimReport, String> {
    let spec = find_spec(&args.workload)?;
    let base = SystemConfig::two_resource(args.nodes, args.bb);
    let system = spec.system_for(&base);
    let jobs = spec.build(trace, &system, args.seed);
    let (jobs, events, relative_cancels) = disruptions_for(args, jobs, &system, trace);
    let params = SimParams {
        enforce_walltime: args.enforce_walltime,
        tick: args.tick,
        ..SimParams::new(args.window, true)
    };
    let run_baseline = |policy: &mut dyn Policy| -> Result<SimReport, String> {
        let mut sim =
            Simulator::new(system.clone(), jobs.clone(), params).map_err(|e| e.to_string())?;
        sim.inject_all(&events).map_err(|e| e.to_string())?;
        for &(id, delay) in &relative_cancels {
            sim.schedule_cancel_after_start(id, delay).map_err(|e| e.to_string())?;
        }
        let (Some(every), Some(dir)) = (args.snapshot_every, &args.snapshot_dir) else {
            return Ok(sim.run(policy));
        };
        // Checkpointed run: step batch-by-batch, rewriting the single-
        // shard snapshot every `every` batches (resume with
        // `mrsch_cli resume --from DIR/shard-0000.snap`).
        let dir = std::path::Path::new(dir);
        let mut batches = 0u64;
        while sim.step(policy) {
            batches += 1;
            if batches % every == 0 {
                mrsim::write_shard_snapshot(dir, 0, &sim)
                    .map_err(|e| format!("--snapshot-dir {}: {e}", dir.display()))?;
            }
        }
        let report = sim.final_report();
        policy.episode_end(&report);
        Ok(report)
    };
    let report = match &args.policy {
        PolicySpec::Mrsch(spec) => {
            let mut agent = MrschBuilder::new(system.clone(), params)
                .seed(args.seed)
                .state_module(spec.state_module)
                .trainer(TrainerConfig::default().workers(args.workers))
                .build();
            if let Some(path) = &args.model_in {
                let data = std::fs::read(path).map_err(|e| format!("--load: {e}"))?;
                agent
                    .agent_mut()
                    .network_mut()
                    .load_checkpoint(&data)
                    .map_err(|e| format!("--load: {e}"))?;
            } else {
                // Train on the first 60% of the trace, evaluate on all of it.
                let cut = trace.len() * 3 / 5;
                let train_spec = find_spec(&args.workload)?;
                if args.curriculum.is_some() {
                    let curriculum =
                        cli_curriculum(args, &trace[..cut.max(1)], &train_spec);
                    agent.train_with_curriculum(&curriculum);
                } else {
                    let train_jobs = train_spec.build(
                        &trace[..cut.max(1)],
                        agent.system(),
                        args.seed + 1,
                    );
                    for _ in 0..args.train_episodes {
                        agent.train_episode(&train_jobs);
                    }
                }
            }
            if let Some(path) = &args.model_out {
                let ckpt = agent.agent_mut().network_mut().save_checkpoint();
                std::fs::write(path, &ckpt).map_err(|e| format!("--model: {e}"))?;
            }
            agent
                .evaluate_disrupted_replay(&jobs, &events, &relative_cancels)
                .map_err(|e| e.to_string())?
        }
        baseline => run_baseline(
            baseline.build(&BuildContext::new(&system, params, args.seed)).as_mut(),
        )?,
    };
    Ok(report)
}

/// Full entry point: load the SWF, run, and render the report.
pub fn main_with_args(args: &[String]) -> Result<String, String> {
    let parsed = parse_args(args)?;
    let text = std::fs::read_to_string(&parsed.swf)
        .map_err(|e| format!("reading {}: {e}", parsed.swf))?;
    let trace = parse_swf(&text).map_err(|e| e.to_string())?;
    if trace.is_empty() {
        return Err("trace contains no usable jobs".into());
    }
    let report = run_on_trace(&parsed, &trace)?;
    Ok(render_report(&parsed, &report))
}

/// Render a report as the CLI's output table.
pub fn render_report(args: &CliArgs, report: &SimReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "policy={} workload={} jobs={} makespan={}s\n",
        args.policy.name(), args.workload, report.jobs_completed, report.makespan
    ));
    for (name, util) in report.resource_names.iter().zip(&report.resource_utilization) {
        out.push_str(&format!("  {name:<18} utilization {}\n", csv::f(*util)));
    }
    out.push_str(&format!(
        "  avg wait {} h | max wait {} h | avg slowdown {} | backfilled {}\n",
        csv::f(report.avg_wait_hours()),
        csv::f(report.max_wait as f64 / 3600.0),
        csv::f(report.avg_slowdown),
        report.backfilled_jobs
    ));
    if report.jobs_cancelled + report.jobs_killed > 0
        || report.capacity_lost_unit_seconds.iter().any(|&l| l > 0.0)
    {
        let lost: Vec<String> = report
            .resource_names
            .iter()
            .zip(&report.capacity_lost_unit_seconds)
            .map(|(n, l)| format!("{n}={}", csv::f(*l)))
            .collect();
        out.push_str(&format!(
            "  disruptions: cancelled {} | killed {} | lost unit-seconds {}\n",
            report.jobs_cancelled,
            report.jobs_killed,
            lost.join(" ")
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// The `resume` subcommand: continue a run from a checkpoint file.
// ---------------------------------------------------------------------------

/// Parsed `resume` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeArgs {
    /// Checkpoint file (an `MRSS` frame, e.g. `DIR/shard-0000.snap`).
    pub from: String,
    /// Scheduler driving the continued run. The snapshot stores
    /// simulator state only, so stateless policies (fcfs/sjf/ljf)
    /// continue **bit-identically**; `ga` restarts its optimizer from
    /// `--seed` over the restored queue.
    pub policy: PolicySpec,
    /// RNG seed for `--policy ga`.
    pub seed: u64,
}

/// Parse `resume`-style arguments (everything after the subcommand).
pub fn parse_resume_args(args: &[String]) -> Result<ResumeArgs, String> {
    let mut out = ResumeArgs { from: String::new(), policy: PolicySpec::Fcfs, seed: 1 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--from" => out.from = value("--from")?,
            "--policy" => out.policy = PolicySpec::parse(&value("--policy")?)?,
            "--seed" => {
                out.seed = value("--seed")?.parse().map_err(|_| "--seed: not a number")?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if out.from.is_empty() {
        return Err("--from <snapshot file> is required".into());
    }
    if out.policy.is_learnable() {
        return Err(format!(
            "resume does not support {} (agent weights are not part of a simulator \
             snapshot); use fcfs|sjf|ljf|ga",
            out.policy.name()
        ));
    }
    Ok(out)
}

/// Restore the checkpoint and run it to completion.
pub fn resume_run(args: &ResumeArgs) -> Result<SimReport, String> {
    let bytes =
        std::fs::read(&args.from).map_err(|e| format!("reading {}: {e}", args.from))?;
    let mut sim: Simulator =
        Simulator::restore(&bytes).map_err(|e| format!("{}: {e}", args.from))?;
    // Learnable specs were rejected at parse time; the baselines left
    // read nothing but the seed from the context.
    let mut policy =
        args.policy.build(&BuildContext::new(sim.config(), SimParams::default(), args.seed));
    Ok(sim.run(policy.as_mut()))
}

/// Full `resume` entry point: restore, finish the run, render.
pub fn resume_main(args: &[String]) -> Result<String, String> {
    let parsed = parse_resume_args(args)?;
    let report = resume_run(&parsed)?;
    let mut out = format!(
        "resumed {} policy={} jobs={} makespan={}s\n",
        parsed.from, parsed.policy.name(), report.jobs_completed, report.makespan
    );
    for (name, util) in report.resource_names.iter().zip(&report.resource_utilization) {
        out.push_str(&format!("  {name:<18} utilization {}\n", csv::f(*util)));
    }
    out.push_str(&format!(
        "  avg wait {} h | avg slowdown {} | cancelled {} | killed {} | unfinished {}\n",
        csv::f(report.avg_wait_hours()),
        csv::f(report.avg_slowdown),
        report.jobs_cancelled,
        report.jobs_killed,
        report.jobs_unfinished
    ));
    Ok(out)
}

// ---------------------------------------------------------------------------
// The `evaluate` subcommand: registry-driven policy × scenario × seed grids.
// ---------------------------------------------------------------------------

/// Parsed `evaluate` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalCliArgs {
    /// Policies to evaluate (from [`PolicySpec::parse_list`]).
    pub policies: Vec<PolicySpec>,
    /// Scenario spec strings (comma list or `all`), raw — parsed by the
    /// scenario registry (`mrsch_eval::ScenarioSpec`).
    pub scenarios: String,
    /// Grid seeds.
    pub seeds: Vec<u64>,
    /// Workload spec name ("S1"…"S10").
    pub workload: String,
    /// Machine nodes.
    pub nodes: u64,
    /// Burst-buffer units.
    pub bb: u64,
    /// Window size.
    pub window: usize,
    /// Synthetic trace length (ignored with `--swf`).
    pub jobs: usize,
    /// Scenario-level seed (job synthesis / disruption placement).
    pub seed: u64,
    /// Training episodes for learnable policies.
    pub train_episodes: usize,
    /// Rollout worker threads for MRSch training.
    pub workers: usize,
    /// Optional SWF trace as the shared job source.
    pub swf: Option<String>,
    /// Optional path for the per-cell grid CSV.
    pub csv_out: Option<String>,
    /// Directory of the content-addressed trained-policy cache.
    pub policy_cache: Option<String>,
    /// Fail unless every learnable cell was served from the cache.
    pub require_warm_cache: bool,
}

/// Parse `evaluate`-style arguments (everything after the subcommand).
pub fn parse_eval_args(args: &[String]) -> Result<EvalCliArgs, String> {
    let mut out = EvalCliArgs {
        policies: vec![PolicySpec::Fcfs],
        scenarios: "clean".into(),
        seeds: vec![1],
        workload: "S1".into(),
        nodes: 64,
        bb: 20,
        window: 5,
        jobs: 80,
        seed: 1,
        train_episodes: 3,
        workers: 1,
        swf: None,
        csv_out: None,
        policy_cache: None,
        require_warm_cache: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--policy" => out.policies = PolicySpec::parse_list(&value("--policy")?)?,
            "--scenario" => out.scenarios = value("--scenario")?,
            "--seeds" => out.seeds = mrsch_eval::parse_seed_spec(&value("--seeds")?)?,
            "--workload" => out.workload = value("--workload")?.to_uppercase(),
            "--nodes" => {
                out.nodes = value("--nodes")?.parse().map_err(|_| "--nodes: not a number")?
            }
            "--bb" => out.bb = value("--bb")?.parse().map_err(|_| "--bb: not a number")?,
            "--window" => {
                out.window = value("--window")?.parse().map_err(|_| "--window: not a number")?
            }
            "--jobs" => {
                out.jobs = value("--jobs")?.parse().map_err(|_| "--jobs: not a number")?
            }
            "--seed" => {
                out.seed = value("--seed")?.parse().map_err(|_| "--seed: not a number")?
            }
            "--train-episodes" => {
                out.train_episodes = value("--train-episodes")?
                    .parse()
                    .map_err(|_| "--train-episodes: not a number")?
            }
            "--workers" => {
                out.workers =
                    value("--workers")?.parse().map_err(|_| "--workers: not a number")?
            }
            "--swf" => out.swf = Some(value("--swf")?),
            "--csv" => out.csv_out = Some(value("--csv")?),
            "--policy-cache" => out.policy_cache = Some(value("--policy-cache")?),
            "--require-warm-cache" => out.require_warm_cache = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if out.require_warm_cache && out.policy_cache.is_none() {
        return Err("--require-warm-cache requires --policy-cache".into());
    }
    if out.policies.is_empty() {
        return Err("--policy needs at least one policy".into());
    }
    if out.window == 0 {
        return Err("--window must be positive".into());
    }
    if out.jobs == 0 {
        return Err("--jobs must be positive".into());
    }
    if out.workers == 0 {
        return Err("--workers must be positive".into());
    }
    find_spec(&out.workload)?;
    Ok(out)
}

/// Build the [`EvalPlan`] of a parsed `evaluate` invocation over an
/// explicit job source (separated from I/O for testability).
pub fn build_eval_plan(args: &EvalCliArgs, source: JobSource) -> Result<EvalPlan, String> {
    let spec = find_spec(&args.workload)?;
    let params = SimParams::new(args.window, true);
    let scenarios =
        mrsch_eval::build_scenarios(&args.scenarios, &source, &spec, params, args.seed)
            .map_err(|e| e.to_string())?;
    // Names are the grid's coordinates; report duplicates (easy to hit
    // through aliases like `fcfs,heuristic`) as clean CLI errors rather
    // than tripping the plan's assertion.
    reject_duplicates("--policy", args.policies.iter().map(|p| p.name()))?;
    reject_duplicates("--scenario", scenarios.iter().map(|s| s.name.clone()))?;
    reject_duplicates("--seeds", args.seeds.iter().map(|s| s.to_string()))?;
    Ok(EvalPlan::new(
        SystemConfig::two_resource(args.nodes, args.bb),
        args.policies.clone(),
        scenarios,
        args.seeds.clone(),
    )
    .train_episodes(args.train_episodes)
    .trainer(TrainerConfig::default().workers(args.workers)))
}

/// Error when a name appears more than once (after alias resolution).
fn reject_duplicates(flag: &str, names: impl Iterator<Item = String>) -> Result<(), String> {
    let mut seen = Vec::new();
    for name in names {
        if seen.contains(&name) {
            return Err(format!("{flag}: '{name}' given more than once"));
        }
        seen.push(name);
    }
    Ok(())
}

/// Full `evaluate` entry point: build the grid, run it, emit CSV.
/// Returns the seed-aggregated CSV (stdout); `--csv` additionally
/// writes the per-cell grid to disk.
pub fn evaluate_main(args: &[String]) -> Result<String, String> {
    let parsed = parse_eval_args(args)?;
    let source = match &parsed.swf {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {path}: {e}"))?;
            let trace = parse_swf(&text).map_err(|e| e.to_string())?;
            if trace.is_empty() {
                return Err("trace contains no usable jobs".into());
            }
            JobSource::Trace(trace)
        }
        None => JobSource::Theta(ThetaConfig {
            machine_nodes: parsed.nodes,
            ..ThetaConfig::scaled(parsed.jobs)
        }),
    };
    let cache = parsed
        .policy_cache
        .as_ref()
        .map(|dir| std::sync::Arc::new(mrsch_eval::PolicyCache::new(dir)));
    let mut plan = build_eval_plan(&parsed, source)?;
    if let Some(c) = &cache {
        plan = plan.policy_cache(c.clone());
    }
    let grid = plan.run();
    if let Some(c) = &cache {
        eprintln!(
            "policy cache: {} hit(s), {} retrain(s), {} stored ({})",
            c.hits(),
            c.misses(),
            c.stores(),
            c.dir().display()
        );
        if parsed.require_warm_cache && c.misses() > 0 {
            return Err(format!(
                "--require-warm-cache: {} cell(s) retrained instead of hitting the cache",
                c.misses()
            ));
        }
    }
    if let Some(path) = &parsed.csv_out {
        let (header, rows) = grid.cell_csv();
        csv::write_csv_to(path, &header, &rows).map_err(|e| format!("--csv {path}: {e}"))?;
        eprintln!("wrote per-cell grid ({} cells) to {path}", grid.cells.len());
    }
    let (header, rows) = grid.aggregate_csv();
    Ok(csv::to_csv(&header, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsch_workload::theta::{SwfStatus, ThetaConfig};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_args(&args(&[
            "--swf", "t.swf", "--workload", "s4", "--nodes", "64", "--bb", "20",
            "--policy", "mrsch", "--window", "5", "--seed", "9",
            "--train-episodes", "2", "--model", "out.ckpt",
        ]))
        .unwrap();
        assert_eq!(a.workload, "S4");
        assert_eq!(a.nodes, 64);
        assert_eq!(a.policy, PolicySpec::mrsch());
        assert_eq!(a.window, 5);
        assert_eq!(a.model_out.as_deref(), Some("out.ckpt"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&["--workload", "S1"])).is_err(), "missing swf");
        assert!(parse_args(&args(&["--swf", "t", "--policy", "bogus"])).is_err());
        assert!(parse_args(&args(&["--swf", "t", "--workload", "S99"])).is_err());
        assert!(parse_args(&args(&["--swf", "t", "--nodes"])).is_err(), "dangling flag");
        assert!(parse_args(&args(&["--swf", "t", "--frobnicate", "1"])).is_err());
    }

    #[test]
    fn runs_every_policy_on_a_synthetic_trace() {
        let trace = ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(40) }.generate(3);
        // `list:demanding` has no short alias: only the registry knows it.
        for policy in ["fcfs", "sjf", "ljf", "ga", "list:demanding"] {
            let a = parse_args(&args(&[
                "--swf", "unused.swf", "--workload", "S1", "--nodes", "16", "--bb", "8",
                "--policy", policy, "--window", "4",
            ]))
            .unwrap();
            let report = run_on_trace(&a, &trace).unwrap();
            assert_eq!(report.jobs_completed, 40, "{policy}");
        }
    }

    #[test]
    fn mrsch_policy_trains_and_checkpoints() {
        let dir = std::env::temp_dir().join("mrsch_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.ckpt");
        let trace = ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(40) }.generate(4);
        let a = parse_args(&args(&[
            "--swf", "unused.swf", "--workload", "S2", "--nodes", "16", "--bb", "8",
            "--policy", "mrsch", "--window", "4", "--train-episodes", "1",
            "--model", model.to_str().unwrap(),
        ]))
        .unwrap();
        let r1 = run_on_trace(&a, &trace).unwrap();
        assert_eq!(r1.jobs_completed, 40);
        assert!(model.exists(), "checkpoint written");
        // Reload: must reproduce the identical schedule.
        let b = parse_args(&args(&[
            "--swf", "unused.swf", "--workload", "S2", "--nodes", "16", "--bb", "8",
            "--policy", "mrsch", "--window", "4",
            "--load", model.to_str().unwrap(),
        ]))
        .unwrap();
        let r2 = run_on_trace(&b, &trace).unwrap();
        assert_eq!(r1.records, r2.records, "checkpoint roundtrip via CLI");
    }

    #[test]
    fn parses_disruption_flags() {
        let a = parse_args(&args(&[
            "--swf", "t.swf", "--cancel-frac", "0.1", "--overrun-frac", "0.05",
            "--overrun-factor", "2.0", "--drain-frac", "0.25", "--drain-start", "5000",
            "--drain-duration", "3000", "--tick", "600",
        ]))
        .unwrap();
        assert_eq!(a.cancel_frac, 0.1);
        assert_eq!(a.overrun_frac, 0.05);
        assert!(a.enforce_walltime, "--overrun-frac implies walltime enforcement");
        assert_eq!(a.drain_frac, 0.25);
        assert_eq!(a.tick, Some(600));
        assert!(a.disruptions_enabled());
        assert!(parse_args(&args(&["--swf", "t", "--cancel-frac", "1.5"])).is_err());
        assert!(parse_args(&args(&["--swf", "t", "--overrun-factor", "0.5"])).is_err());
    }

    #[test]
    fn disrupted_run_accounts_for_every_job() {
        let trace = ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(60) }.generate(6);
        let a = parse_args(&args(&[
            "--swf", "unused.swf", "--workload", "S1", "--nodes", "16", "--bb", "8",
            "--policy", "fcfs", "--window", "4", "--cancel-frac", "0.15",
            "--overrun-frac", "0.15", "--drain-frac", "0.25",
            "--drain-start", "2000", "--drain-duration", "4000",
        ]))
        .unwrap();
        let report = run_on_trace(&a, &trace).unwrap();
        assert!(report.all_jobs_accounted(60), "finished+cancelled+killed == trace");
        assert!(report.jobs_cancelled > 0);
        assert!(report.jobs_killed > 0);
        assert!(report.capacity_lost_unit_seconds[0] > 0.0);
        let text = render_report(&a, &report);
        assert!(text.contains("disruptions:"), "render shows the disruption line");
    }

    #[test]
    fn parses_curriculum_and_worker_flags() {
        let a = parse_args(&args(&[
            "--swf", "t.swf", "--curriculum", "HARDEN", "--workers", "4",
            "--replay-swf-cancels-faithful",
        ]))
        .unwrap();
        assert_eq!(a.curriculum.as_deref(), Some("harden"));
        assert_eq!(a.workers, 4);
        assert!(a.replay_swf_cancels_faithful);
        assert!(a.disruptions_enabled());
        assert!(parse_args(&args(&["--swf", "t", "--curriculum", "bogus"])).is_err());
        assert!(parse_args(&args(&["--swf", "t", "--workers", "0"])).is_err());
    }

    #[test]
    #[ignore = "experiment-scale (trains two curriculum agents); run with --ignored / in CI"]
    fn curriculum_training_runs_and_is_worker_invariant() {
        let trace = ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(40) }.generate(8);
        let run = |workers: &str| {
            let a = parse_args(&args(&[
                "--swf", "unused.swf", "--workload", "S1", "--nodes", "16", "--bb", "8",
                "--policy", "mrsch", "--window", "4", "--train-episodes", "1",
                "--curriculum", "harden", "--workers", workers,
            ]))
            .unwrap();
            run_on_trace(&a, &trace).unwrap()
        };
        let serial = run("1");
        let parallel = run("2");
        assert_eq!(serial.jobs_completed, 40);
        assert_eq!(serial.records, parallel.records, "worker count is wall-clock only");
    }

    #[test]
    fn faithful_swf_replay_cancels_at_simulated_start() {
        // A trace whose cancelled job waits: under the faithful replay
        // its end is start + recorded lifetime, not submit + lifetime.
        let mut trace = ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(30) }.generate(9);
        for t in trace.iter_mut().take(10) {
            t.status = SwfStatus::Cancelled;
        }
        let a = parse_args(&args(&[
            "--swf", "unused.swf", "--workload", "S1", "--nodes", "16", "--bb", "8",
            "--policy", "fcfs", "--window", "4", "--replay-swf-cancels-faithful",
        ]))
        .unwrap();
        let report = run_on_trace(&a, &trace).unwrap();
        // Started-then-cancelled jobs end exactly at start + recorded runtime.
        let cancelled: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Cancelled)
            .collect();
        assert!(!cancelled.is_empty(), "some replayed cancels landed");
        for r in &cancelled {
            assert_eq!(r.end, r.start + trace[r.id].runtime);
        }
        assert!(report.all_jobs_accounted(30));
    }

    #[test]
    fn parses_snapshot_flags() {
        let a = parse_args(&args(&[
            "--swf", "t.swf", "--snapshot-every", "100", "--snapshot-dir", "snaps",
        ]))
        .unwrap();
        assert_eq!(a.snapshot_every, Some(100));
        assert_eq!(a.snapshot_dir.as_deref(), Some("snaps"));
        assert!(
            parse_args(&args(&["--swf", "t", "--snapshot-every", "10"])).is_err(),
            "--snapshot-dir required"
        );
        assert!(
            parse_args(&args(&["--swf", "t", "--snapshot-dir", "d"])).is_err(),
            "--snapshot-every required"
        );
        assert!(parse_args(&args(&[
            "--swf", "t", "--snapshot-every", "0", "--snapshot-dir", "d",
        ]))
        .is_err());
        assert!(
            parse_args(&args(&[
                "--swf", "t", "--policy", "mrsch", "--snapshot-every", "5",
                "--snapshot-dir", "d",
            ]))
            .is_err(),
            "simulator snapshots do not capture agent weights"
        );
    }

    #[test]
    fn parses_resume_args() {
        let a = parse_resume_args(&args(&["--from", "d/shard-0000.snap", "--policy", "sjf"]))
            .unwrap();
        assert_eq!(a.from, "d/shard-0000.snap");
        assert_eq!(a.policy.name(), "list:sjf");
        assert!(parse_resume_args(&args(&[])).is_err(), "--from required");
        let err =
            parse_resume_args(&args(&["--from", "x", "--policy", "mrsch"])).unwrap_err();
        assert!(err.contains("mrsch"), "{err}");
    }

    #[test]
    fn resume_continues_a_checkpointed_cli_run_bit_identically() {
        let dir = std::env::temp_dir()
            .join(format!("mrsch_cli_snapshots_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(60) }.generate(11);
        let base = vec![
            "--swf", "unused.swf", "--workload", "S1", "--nodes", "16", "--bb", "8",
            "--policy", "fcfs", "--window", "4", "--cancel-frac", "0.1",
            "--overrun-frac", "0.1", "--drain-frac", "0.25", "--drain-start", "2000",
            "--drain-duration", "4000",
        ];
        let reference = run_on_trace(&parse_args(&args(&base)).unwrap(), &trace).unwrap();
        let mut snapped_args = base.clone();
        let dir_str = dir.to_str().unwrap();
        snapped_args.extend_from_slice(&["--snapshot-every", "7", "--snapshot-dir", dir_str]);
        let snapped =
            run_on_trace(&parse_args(&args(&snapped_args)).unwrap(), &trace).unwrap();
        assert_eq!(snapped, reference, "checkpointing must not perturb the run");
        let snap = dir.join(mrsim::shard_snapshot_name(0));
        assert!(snap.exists(), "periodic snapshot written");
        let resumed = resume_run(&ResumeArgs {
            from: snap.to_str().unwrap().into(),
            policy: PolicySpec::Fcfs,
            seed: 1,
        })
        .unwrap();
        assert_eq!(resumed, reference, "resume finishes the interrupted run bit-identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_evaluate_args() {
        let a = parse_eval_args(&args(&[
            "--policy", "fcfs,mrsch", "--scenario", "clean,drain", "--seeds", "0..4",
            "--nodes", "16", "--bb", "8", "--window", "4", "--jobs", "30",
            "--train-episodes", "2", "--workers", "2", "--csv", "grid.csv",
        ]))
        .unwrap();
        assert_eq!(a.policies.len(), 2);
        assert_eq!(a.policies[1].name(), "mrsch");
        assert_eq!(a.seeds, vec![0, 1, 2, 3]);
        assert_eq!(a.csv_out.as_deref(), Some("grid.csv"));
        assert!(parse_eval_args(&args(&["--policy", "bogus"])).is_err());
        assert!(parse_eval_args(&args(&["--seeds", "9..3"])).is_err());
        assert!(parse_eval_args(&args(&["--frobnicate", "1"])).is_err());
    }

    #[test]
    fn evaluate_rejects_alias_duplicates_cleanly() {
        // `fcfs` and `heuristic` are the same registry entry; the CLI
        // must return an error, not trip the plan's internal assertion.
        let source =
            JobSource::Theta(ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(10) });
        let dup_policy =
            parse_eval_args(&args(&["--policy", "fcfs,heuristic"])).unwrap();
        let err = build_eval_plan(&dup_policy, source.clone()).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let dup_scenario = parse_eval_args(&args(&["--scenario", "clean,clean"])).unwrap();
        let err = build_eval_plan(&dup_scenario, source.clone()).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        // Duplicate seeds would silently double-count a replication.
        let dup_seed = parse_eval_args(&args(&["--seeds", "3,3"])).unwrap();
        let err = build_eval_plan(&dup_seed, source).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn evaluate_accepts_registry_scenario_specs() {
        let source =
            JobSource::Theta(ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(12) });
        let a = parse_eval_args(&args(&[
            "--policy", "fcfs", "--scenario", "dag:chain:3,bursty:spike,energy:drain",
            "--seeds", "1", "--nodes", "16", "--bb", "8", "--jobs", "12",
        ]))
        .unwrap();
        let plan = build_eval_plan(&a, source.clone()).unwrap();
        let names: Vec<&str> = plan.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["dag:chain:3", "bursty:spike:6", "energy:drain"]);
        // Unknown specs fail with the registry listing, so --scenario
        // errors double as discovery.
        let bad = parse_eval_args(&args(&["--scenario", "dag:fanout:x"])).unwrap();
        let err = build_eval_plan(&bad, source).unwrap_err();
        assert!(err.contains("bad parameter"), "{err}");
    }

    #[test]
    fn evaluate_plan_covers_the_full_grid() {
        let a = parse_eval_args(&args(&[
            "--policy", "fcfs,list:lpt,ga", "--scenario", "clean,drain", "--seeds", "0..2",
            "--nodes", "16", "--bb", "8", "--window", "4", "--jobs", "20",
        ]))
        .unwrap();
        let source = JobSource::Theta(ThetaConfig {
            machine_nodes: 16,
            ..ThetaConfig::scaled(20)
        });
        let plan = build_eval_plan(&a, source).unwrap();
        assert_eq!(plan.cell_count(), 3 * 2 * 2);
        let grid = plan.run();
        assert_eq!(grid.cells.len(), 12, "every cell of the grid ran");
        let (header, rows) = grid.cell_csv();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0].len(), header.len());
        // The drain scenario actually drained capacity for some cell.
        assert!(grid
            .cells
            .iter()
            .filter(|c| c.scenario == "drain")
            .any(|c| c.report.capacity_lost_unit_seconds[0] > 0.0));
        let agg = grid.aggregate_csv();
        assert_eq!(agg.1.len(), 3 * 2, "one aggregate row per (policy, scenario)");
        assert!(agg.1.iter().all(|r| r[2] == "2"), "each aggregates two seeds");
    }

    #[test]
    fn parses_policy_cache_flags() {
        let a = parse_eval_args(&args(&[
            "--policy", "mrsch", "--policy-cache", "cache_dir", "--require-warm-cache",
        ]))
        .unwrap();
        assert_eq!(a.policy_cache.as_deref(), Some("cache_dir"));
        assert!(a.require_warm_cache);
        let err = parse_eval_args(&args(&["--require-warm-cache"])).unwrap_err();
        assert!(err.contains("--policy-cache"), "{err}");
    }

    #[test]
    fn evaluate_policy_cache_warms_across_runs() {
        let dir = std::env::temp_dir()
            .join(format!("mrsch_cli_policy_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = [
            "--policy", "mrsch", "--scenario", "clean", "--seeds", "1",
            "--nodes", "16", "--bb", "8", "--window", "4", "--jobs", "20",
            "--train-episodes", "1", "--policy-cache", dir.to_str().unwrap(),
        ];
        let cold = evaluate_main(&args(&base)).unwrap();
        // Second run must be served entirely from the cache (zero
        // retrains — enforced by --require-warm-cache) and reproduce the
        // cold run's aggregate CSV byte for byte.
        let mut warm_args = base.to_vec();
        warm_args.push("--require-warm-cache");
        let warm = evaluate_main(&args(&warm_args)).unwrap();
        assert_eq!(cold, warm, "cache hit replays the trained policy exactly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_includes_all_metrics() {
        let trace = ThetaConfig { machine_nodes: 16, ..ThetaConfig::scaled(20) }.generate(5);
        let a = parse_args(&args(&[
            "--swf", "x.swf", "--workload", "S1", "--nodes", "16", "--bb", "8",
        ]))
        .unwrap();
        let report = run_on_trace(&a, &trace).unwrap();
        let text = render_report(&a, &report);
        assert!(text.contains("utilization"));
        assert!(text.contains("avg wait"));
        assert!(text.contains("workload=S1"));
    }
}
