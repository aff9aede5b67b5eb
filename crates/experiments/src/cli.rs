//! Command-line interface (`mrsch_cli`): train, evaluate, compare and
//! serve schedulers without writing Rust.
//!
//! ```text
//! mrsch_cli simulate --swf trace.swf --workload S4 --nodes 256 --bb 75 --policy mrsch
//! mrsch_cli resume --from snaps/shard-0000.snap --policy fcfs
//! mrsch_cli evaluate --policy fcfs,mrsch --scenario drain --seeds 0..4
//! mrsch_cli serve --mode tcp --addr 127.0.0.1:7077 --batch 8
//! mrsch_cli fig fig5
//! ```
//!
//! Every subcommand is one entry of [`SUBCOMMANDS`]: a [`Flag`] table
//! and an entry point. The table is what [`parse_flags`] matches argv
//! against *and* what [`usage`] prints (`mrsch_cli <sub> --help`), so a
//! flag cannot be accepted but undocumented, or documented but
//! rejected; malformed input is a typed [`CliError`]. (No clap: the
//! workspace vendors its dependencies.) A bare `mrsch_cli --swf …` is
//! `simulate`.
//!
//! `evaluate` runs the registry-driven grid (`policies × scenarios ×
//! seeds`) through `mrsch_eval::EvalPlan` and prints the
//! **seed-aggregated CSV** to stdout (`--csv` additionally writes the
//! per-cell grid, which carries the per-episode critical-path lower
//! bound `cp_bound_s`, the regret against it, and metered `energy_kwh`).
//! `--scenario` takes scenario-registry spec strings
//! (`mrsch_eval::ScenarioSpec`); `all` expands to the whole registry.
//! `--policy-cache DIR` memoizes trained policies content-addressed by
//! their full training configuration, so repeated grids skip training.
//! `simulate --curriculum harden` trains MRSch through the clean →
//! cancel-heavy → drain-heavy scenario curriculum (episodes per phase =
//! `--train-episodes`); `--workers` never changes a result, only the
//! wall-clock.

use crate::figures;
use mrsch::prelude::*;
use mrsch_eval::table::{self, Table};
use mrsch_eval::{BuildContext, EvalPlan, PolicySpec};
use mrsch_serve::{server, BatcherConfig, EngineSpec, LoadgenConfig};
use mrsch_workload::disruption::{swf_cancel_events, swf_relative_cancels};
use mrsch_workload::swf::parse_swf;
use mrsch_workload::theta::TraceJob;
use mrsim::event::IndexedEventQueue;
use mrsim::{ShardSpec, SimTime, SnapshotConfig};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

// ---------------------------------------------------------------------------
// Flag tables, the parser that reads them, and the usage text they print.
// ---------------------------------------------------------------------------

/// One flag of a subcommand.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed (`--nodes`).
    pub name: &'static str,
    /// Name of its value in the usage text; `None` for a switch.
    pub value: Option<&'static str>,
    /// The value used when the flag is not given (shown in the usage).
    pub default: Option<&'static str>,
    /// One-line description.
    pub help: &'static str,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag { name, value: Some(value), default: Some(default), help }
}

const fn optional(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value: Some(value), default: None, help }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, value: None, default: None, help }
}

/// One `mrsch_cli` subcommand: its flags and its entry point.
pub struct Subcommand {
    /// Name on the command line.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Every flag it accepts.
    pub flags: &'static [Flag],
    /// Entry point over the arguments after the name.
    pub run: fn(&[String]) -> Result<String, String>,
}

/// The four flag-driven subcommands (`fig <name>` takes no flags).
pub const SUBCOMMANDS: [Subcommand; 4] = [
    Subcommand {
        name: "simulate",
        about: "schedule an SWF trace under one policy and print the report",
        flags: SIMULATE_FLAGS,
        run: main_with_args,
    },
    Subcommand {
        name: "resume",
        about: "finish a run from a simulator checkpoint",
        flags: RESUME_FLAGS,
        run: resume_main,
    },
    Subcommand {
        name: "evaluate",
        about: "run a policy x scenario x seed grid; seed-aggregated CSV on stdout",
        flags: EVALUATE_FLAGS,
        run: evaluate_main,
    },
    Subcommand {
        name: "serve",
        about: "serve scheduling decisions over the line protocol",
        flags: SERVE_FLAGS,
        run: serve_main,
    },
];

const POLICY_HELP: &str = "registry policy: fcfs, list:sjf|lpt|smallest|largest|demanding, ga, \
                           ga:reseed, mrsch, mrsch:cnn (+ aliases sjf, ljf, heuristic, ...)";

/// Flags of `simulate`.
pub const SIMULATE_FLAGS: &[Flag] = &[
    optional("--swf", "FILE", "SWF trace to schedule (required)"),
    flag("--workload", "S1..S10", "S1", "workload spec extending the trace's jobs"),
    flag("--nodes", "N", "256", "compute nodes"),
    flag("--bb", "N", "75", "burst-buffer units"),
    flag("--policy", "SPEC", "fcfs", POLICY_HELP),
    flag("--window", "W", "10", "scheduling-window size"),
    flag("--seed", "S", "1", "RNG seed"),
    flag("--train-episodes", "K", "4", "mrsch: training episodes (per phase with --curriculum)"),
    optional("--model", "OUT.ckpt", "mrsch: write the trained weights here"),
    optional("--load", "IN.ckpt", "mrsch: load weights instead of training"),
    optional("--curriculum", "clean|harden", "mrsch: train through a scenario curriculum"),
    flag("--workers", "N", "1", "rollout threads for --curriculum (never changes results)"),
    flag("--cancel-frac", "F", "0", "fraction of jobs cancelled by synthetic users"),
    flag("--overrun-frac", "F", "0", "fraction overrunning their estimate (implies --enforce-walltime)"),
    flag("--overrun-factor", "X", "1.5", "runtime multiplier of an overrunner, > 1"),
    flag("--drain-frac", "F", "0", "fraction of nodes drained mid-trace"),
    flag("--drain-start", "SECS", "0", "drain start time"),
    flag("--drain-duration", "SECS", "0", "drain length (0 = permanent)"),
    switch("--enforce-walltime", "kill jobs at their walltime estimate"),
    optional("--tick", "SECS", "periodic tick for time-driven policies"),
    switch("--replay-swf-cancels", "replay the trace's cancelled jobs at submit + recorded runtime"),
    switch("--replay-swf-cancels-faithful", "... at simulated start + recorded runtime"),
    optional("--snapshot-every", "N", "checkpoint every N event batches (with --snapshot-dir)"),
    optional("--snapshot-dir", "DIR", "directory receiving shard-0000.snap"),
];

/// Flags of `resume`.
pub const RESUME_FLAGS: &[Flag] = &[
    optional("--from", "FILE", "checkpoint to continue, e.g. DIR/shard-0000.snap (required)"),
    flag("--policy", "SPEC", "fcfs", "non-learning registry policy driving the rest of the run"),
    flag("--seed", "S", "1", "RNG seed of --policy ga"),
];

/// Flags of `evaluate`.
pub const EVALUATE_FLAGS: &[Flag] = &[
    flag("--policy", "P1,P2|all", "fcfs", POLICY_HELP),
    flag("--scenario", "S1,S2|all", "clean", "scenario-registry specs: clean, drain, dag:chain:4, ..."),
    flag("--seeds", "A..B|S1,S2", "1", "grid seeds"),
    flag("--workload", "S1..S10", "S1", "workload spec extending the jobs"),
    flag("--nodes", "N", "64", "compute nodes"),
    flag("--bb", "N", "20", "burst-buffer units"),
    flag("--window", "W", "5", "scheduling-window size"),
    flag("--jobs", "N", "80", "synthetic trace length (ignored with --swf)"),
    flag("--seed", "S", "1", "scenario seed (job synthesis, disruption placement)"),
    flag("--train-episodes", "K", "3", "training episodes of learnable policies"),
    flag("--workers", "N", "1", "rollout threads of mrsch training (never changes results)"),
    optional("--swf", "FILE", "SWF trace as the shared job source"),
    optional("--csv", "GRID.csv", "also write the per-cell grid here"),
    optional("--policy-cache", "DIR", "content-addressed cache of trained policies"),
    switch("--require-warm-cache", "fail if any cell retrained (needs --policy-cache)"),
];

/// Flags of `serve`.
pub const SERVE_FLAGS: &[Flag] = &[
    flag("--mode", "stdin|tcp|loadtest", "stdin", "protocol lines on stdin/stdout, a TCP listener, or a seeded self-test"),
    flag("--addr", "HOST:PORT", "127.0.0.1:7077", "tcp: listen address"),
    flag("--policy", "SPEC", "mrsch", "DFP policy to serve: mrsch, mrsch:cnn"),
    flag("--batch", "N", "8", "most requests a free worker takes from the queue at once"),
    flag("--queue-capacity", "N", "1024", "queue bound before shedding"),
    flag("--workers", "N", "1", "batch worker threads"),
    flag("--window", "W", "10", "engine: actions / scheduling window"),
    flag("--nodes", "N", "256", "engine: compute nodes"),
    flag("--bb", "N", "75", "engine: burst-buffer units"),
    flag("--seed", "S", "1", "engine: init/training seed (and the load test's)"),
    flag("--train-episodes", "E", "0", "engine: curriculum episodes (0 = untrained)"),
    flag("--requests", "N", "200", "loadtest: requests to issue"),
    flag("--qps", "Q", "500", "loadtest: mean open-arrival rate"),
];

/// Malformed command-line input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A flag the subcommand's table does not list.
    UnknownFlag(String),
    /// A value-taking flag at the end of the arguments.
    MissingValue(&'static str),
    /// A required flag that was not given.
    MissingFlag(&'static str),
    /// A value that does not parse or is out of range.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What was given.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Flags that contradict or need each other.
    Conflict(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            CliError::MissingFlag(flag) => write!(f, "{flag} is required"),
            CliError::BadValue { flag, value, reason } => write!(f, "{flag} '{value}': {reason}"),
            CliError::Conflict(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for CliError {}

impl From<CliError> for String {
    fn from(e: CliError) -> String {
        e.to_string()
    }
}

/// Arguments matched against a flag table.
#[derive(Debug)]
pub struct Matches<'a> {
    flags: &'static [Flag],
    given: Vec<(&'static Flag, &'a str)>,
}

/// Match `args` against `flags`: every argument must be a listed flag,
/// followed by its value unless it is a switch. A repeated flag's last
/// value wins.
pub fn parse_flags<'a>(flags: &'static [Flag], args: &'a [String]) -> Result<Matches<'a>, CliError> {
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| CliError::UnknownFlag(arg.clone()))?;
        let value = match flag.value {
            Some(_) => it.next().ok_or(CliError::MissingValue(flag.name))?,
            None => "",
        };
        given.push((flag, value));
    }
    Ok(Matches { flags, given })
}

impl Matches<'_> {
    /// Was the flag given?
    pub fn is_set(&self, name: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == name)
    }

    /// The flag's value — as given, else the table default — through
    /// `parse`; `None` when it has neither.
    pub fn value<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        let flag = self.flags.iter().find(|f| f.name == name).expect("flag is in the table");
        let given = self.given.iter().rev().find(|(f, _)| f.name == name).map(|(_, v)| *v);
        let Some(raw) = given.or(flag.default) else { return Ok(None) };
        parse(raw).map(Some).map_err(|reason| CliError::BadValue {
            flag: flag.name,
            value: raw.to_string(),
            reason,
        })
    }

    /// [`Matches::value`] of a flag that must be given or defaulted.
    pub fn required<T>(
        &self,
        name: &'static str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, CliError> {
        self.value(name, parse)?.ok_or(CliError::MissingFlag(name))
    }

}

/// Any [`FromStr`] value.
fn from_str<T: FromStr>(s: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    s.parse().map_err(|e: T::Err| e.to_string())
}

/// A count that must be at least 1 (machine sizes, windows, worker and
/// batch counts: zero would panic deep inside the run).
fn positive(s: &str) -> Result<u64, String> {
    match from_str(s)? {
        0 => Err("must be positive".into()),
        n => Ok(n),
    }
}

/// A fraction in `[0, 1]`.
fn fraction(s: &str) -> Result<f64, String> {
    match from_str(s)? {
        x if (0.0..=1.0).contains(&x) => Ok(x),
        _ => Err("must be in [0, 1]".into()),
    }
}

/// A workload name ("s4" or "S4") resolved to its spec.
fn workload(s: &str) -> Result<WorkloadSpec, String> {
    let name = s.to_uppercase();
    let mut all = WorkloadSpec::two_resource_suite();
    all.extend(WorkloadSpec::three_resource_suite());
    all.into_iter()
        .find(|spec| spec.name == name)
        .ok_or_else(|| format!("unknown workload '{name}' (expected S1..S10)"))
}

/// The usage text of one subcommand, generated from its flag table.
pub fn usage_of(sub: &Subcommand) -> String {
    let mut out = format!("mrsch_cli {} [flags] — {}\n", sub.name, sub.about);
    for f in sub.flags {
        let left = f.value.map_or(f.name.to_string(), |v| format!("{} {v}", f.name));
        let default = f.default.map(|d| format!(" [{d}]")).unwrap_or_default();
        out.push_str(&format!("  {left:<32} {}{default}\n", f.help));
    }
    out
}

/// The whole usage text: every subcommand, then the figure list.
pub fn usage() -> String {
    let mut out: String = SUBCOMMANDS.iter().map(|sub| usage_of(sub) + "\n").collect();
    let figures: Vec<&str> = figures::FIGURES.iter().map(|(name, _)| *name).collect();
    out.push_str(&format!(
        "mrsch_cli fig <name> — regenerate a paper figure into results/<name>.csv\n  {}\n",
        figures.join("|")
    ));
    out
}

/// The `mrsch_cli` entry point over everything after the program name:
/// dispatch to a subcommand (a bare flag list is `simulate`), or print
/// the usage for `--help` / `-h`.
pub fn run(args: &[String]) -> Result<String, String> {
    let sub = args.first().and_then(|a| SUBCOMMANDS.iter().find(|s| s.name == a));
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(sub.map_or_else(usage, usage_of));
    }
    if let Some(sub) = sub {
        return (sub.run)(&args[1..]);
    }
    match args {
        [fig, name] if fig == "fig" => figures::run(name, Path::new("results"))
            .map(|()| String::new())
            .map_err(|e| e.to_string()),
        [fig, ..] if fig == "fig" => Err("usage: mrsch_cli fig <name>".into()),
        _ => main_with_args(args),
    }
}

// ---------------------------------------------------------------------------
// The `simulate` subcommand: one policy on one SWF trace.
// ---------------------------------------------------------------------------

/// Parsed `simulate` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct CliArgs {
    /// Path to the SWF trace.
    pub swf: String,
    /// Workload spec, "S1"…"S10".
    pub workload: WorkloadSpec,
    /// Machine nodes.
    pub nodes: u64,
    /// Burst-buffer units.
    pub bb: u64,
    /// Scheduler to run: any registry name or alias
    /// ([`PolicySpec::parse`]) except `scalar-rl`, which only trains
    /// through `evaluate`'s curriculum.
    pub policy: PolicySpec,
    /// Simulator parameters: the window size, walltime enforcement
    /// (required for overruns) and the periodic tick of time-driven
    /// policies, with backfilling on.
    pub params: SimParams,
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
    /// Replay the SWF trace's own cancelled-status jobs as cancels at
    /// `submit + recorded_runtime` (the absolute-time proxy).
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
pub fn parse_args(args: &[String]) -> Result<CliArgs, CliError> {
    let m = parse_flags(SIMULATE_FLAGS, args)?;
    let out = CliArgs {
        swf: m.required("--swf", from_str)?,
        workload: m.required("--workload", workload)?,
        nodes: m.required("--nodes", positive)?,
        bb: m.required("--bb", positive)?,
        policy: m.required("--policy", PolicySpec::parse)?,
        params: SimParams {
            // Overruns are pointless unless the walltime is enforced.
            enforce_walltime: m.is_set("--enforce-walltime") || m.is_set("--overrun-frac"),
            tick: m.value("--tick", from_str)?,
            ..SimParams::new(m.required("--window", positive)? as usize, true)
        },
        seed: m.required("--seed", from_str)?,
        train_episodes: m.required("--train-episodes", from_str)?,
        model_out: m.value("--model", from_str)?,
        model_in: m.value("--load", from_str)?,
        cancel_frac: m.required("--cancel-frac", fraction)?,
        overrun_frac: m.required("--overrun-frac", fraction)?,
        overrun_factor: m.required("--overrun-factor", |s| match from_str(s)? {
            x if x > 1.0 => Ok(x),
            _ => Err("must exceed 1".into()),
        })?,
        drain_frac: m.required("--drain-frac", fraction)?,
        drain_start: m.required("--drain-start", from_str)?,
        drain_duration: m.required("--drain-duration", from_str)?,
        replay_swf_cancels: m.is_set("--replay-swf-cancels"),
        replay_swf_cancels_faithful: m.is_set("--replay-swf-cancels-faithful"),
        curriculum: m.value("--curriculum", |s| match s.to_lowercase().as_str() {
            c @ ("clean" | "harden") => Ok(c.to_string()),
            _ => Err("expected clean|harden".into()),
        })?,
        workers: m.required("--workers", positive)? as usize,
        snapshot_every: m.value("--snapshot-every", positive)?,
        snapshot_dir: m.value("--snapshot-dir", from_str)?,
    };
    if out.snapshot_every.is_some() != out.snapshot_dir.is_some() {
        return Err(CliError::Conflict(
            "--snapshot-every and --snapshot-dir must be given together".into(),
        ));
    }
    if out.policy == PolicySpec::ScalarRl {
        return Err(CliError::Conflict(
            "scalar-rl trains on a scenario curriculum; run it through `evaluate`".into(),
        ));
    }
    if out.snapshot_every.is_some() && out.policy.is_learnable() {
        return Err(CliError::Conflict(
            "--snapshot-every checkpoints the simulator, not a learning agent; \
             use it with fcfs|sjf|ljf|ga"
                .into(),
        ));
    }
    Ok(out)
}

/// The evaluation run of a parsed invocation as one shard: the
/// workload's jobs on the resolved system, with the disruption set the
/// flags ask for (overrun-inflated runtimes, injected events, and
/// wait-time-aware relative cancels for the faithful SWF replay).
fn shard_for(args: &CliArgs, trace: &[TraceJob]) -> ShardSpec {
    let system = args.workload.system_for(&SystemConfig::two_resource(args.nodes, args.bb));
    let jobs = args.workload.build(trace, &system, args.seed);
    let mut shard = ShardSpec::new(system, jobs, args.params);
    if !args.disruptions_enabled() {
        return shard;
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
    let disrupted = cfg.synthesize(&shard.jobs, &shard.config, args.seed ^ 0x5eed);
    (shard.jobs, shard.events) = (disrupted.jobs, disrupted.events);
    if args.replay_swf_cancels_faithful {
        shard.relative_cancels = swf_relative_cancels(&shard.jobs, trace);
    } else if args.replay_swf_cancels {
        shard.events.extend(swf_cancel_events(&shard.jobs, trace));
    }
    shard
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
        args.params,
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

/// The MRSch agent of a `simulate` run: weights from `--load`, else
/// trained on the first 60 % of the trace (the run evaluates all of it);
/// saved to `--model` either way.
fn cli_agent(
    args: &CliArgs,
    state_module: StateModuleKind,
    system: &SystemConfig,
    trace: &[TraceJob],
) -> Result<Mrsch, String> {
    let mut agent = MrschBuilder::new(system.clone(), args.params)
        .seed(args.seed)
        .state_module(state_module)
        .trainer(TrainerConfig::default().workers(args.workers))
        .build();
    let train_trace = &trace[..(trace.len() * 3 / 5).max(1)];
    if let Some(path) = &args.model_in {
        let data = std::fs::read(path).map_err(|e| format!("--load: {e}"))?;
        agent
            .agent_mut()
            .network_mut()
            .load_checkpoint(&data)
            .map_err(|e| format!("--load: {e}"))?;
    } else if args.curriculum.is_some() {
        agent.train_with_curriculum(&cli_curriculum(args, train_trace, &args.workload));
    } else {
        let train_jobs = args.workload.build(train_trace, system, args.seed + 1);
        for _ in 0..args.train_episodes {
            agent.train_episode(&train_jobs);
        }
    }
    if let Some(path) = &args.model_out {
        let ckpt = agent.agent_mut().network_mut().save_checkpoint();
        std::fs::write(path, &ckpt).map_err(|e| format!("--model: {e}"))?;
    }
    Ok(agent)
}

/// Run a parsed invocation over an already-loaded trace, returning the
/// simulator report (separated from I/O for testability).
pub fn run_on_trace(args: &CliArgs, trace: &[TraceJob]) -> Result<SimReport, String> {
    let shard = shard_for(args, trace);
    let policy: Box<dyn Policy + Send> = match &args.policy {
        PolicySpec::Mrsch(spec) => {
            Box::new(cli_agent(args, spec.state_module, &shard.config, trace)?.into_eval_policy())
        }
        baseline => baseline.build(&BuildContext::new(&shard.config, args.params, args.seed)),
    };
    // With `--snapshot-every`, the run rewrites the single-shard
    // checkpoint every N event batches (resume with
    // `mrsch_cli resume --from DIR/shard-0000.snap`).
    let snapshots = args.snapshot_every.zip(args.snapshot_dir.as_ref());
    let snapshots = snapshots.map(|(every, dir)| SnapshotConfig { every, dir: dir.into() });
    mrsim::run_shard::<IndexedEventQueue>(&shard, 0, snapshots.as_ref(), policy)
        .map_err(|e| e.to_string())
}

/// Load an SWF trace, rejecting an unreadable or empty one.
fn load_swf(path: &str) -> Result<Vec<TraceJob>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = parse_swf(&text).map_err(|e| e.to_string())?;
    if trace.is_empty() {
        return Err("trace contains no usable jobs".into());
    }
    Ok(trace)
}

/// Full entry point: load the SWF, run, and render the report.
pub fn main_with_args(args: &[String]) -> Result<String, String> {
    let parsed = parse_args(args)?;
    let report = run_on_trace(&parsed, &load_swf(&parsed.swf)?)?;
    let headline = format!("policy={} workload={}", parsed.policy.name(), parsed.workload.name);
    Ok(render_report(&headline, &report))
}

/// Render a report under `headline` — the output of both `simulate` and
/// `resume`. The disruption line appears only when something was
/// cancelled, killed, left unfinished or drained.
pub fn render_report(headline: &str, report: &SimReport) -> String {
    let mut out =
        format!("{headline} jobs={} makespan={}s\n", report.jobs_completed, report.makespan);
    for (name, util) in report.resource_names.iter().zip(&report.resource_utilization) {
        out.push_str(&format!("  {name:<18} utilization {}\n", table::f(*util)));
    }
    out.push_str(&format!(
        "  avg wait {} h | max wait {} h | avg slowdown {} | backfilled {}\n",
        table::f(report.avg_wait_hours()),
        table::f(report.max_wait as f64 / 3600.0),
        table::f(report.avg_slowdown),
        report.backfilled_jobs
    ));
    if report.jobs_cancelled + report.jobs_killed + report.jobs_unfinished > 0
        || report.capacity_lost_unit_seconds.iter().any(|&l| l > 0.0)
    {
        let lost: Vec<String> = report
            .resource_names
            .iter()
            .zip(&report.capacity_lost_unit_seconds)
            .map(|(n, l)| format!("{n}={}", table::f(*l)))
            .collect();
        out.push_str(&format!(
            "  disruptions: cancelled {} | killed {} | unfinished {} | lost unit-seconds {}\n",
            report.jobs_cancelled,
            report.jobs_killed,
            report.jobs_unfinished,
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
pub fn parse_resume_args(args: &[String]) -> Result<ResumeArgs, CliError> {
    let m = parse_flags(RESUME_FLAGS, args)?;
    let out = ResumeArgs {
        from: m.required("--from", from_str)?,
        policy: m.required("--policy", PolicySpec::parse)?,
        seed: m.required("--seed", from_str)?,
    };
    if out.policy.is_learnable() {
        return Err(CliError::Conflict(format!(
            "resume does not support {} (agent weights are not part of a simulator \
             snapshot); use fcfs|sjf|ljf|ga",
            out.policy.name()
        )));
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
    let headline = format!("resumed {} policy={}", parsed.from, parsed.policy.name());
    Ok(render_report(&headline, &resume_run(&parsed)?))
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
    /// Workload spec ("S1"…"S10").
    pub workload: WorkloadSpec,
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
pub fn parse_eval_args(args: &[String]) -> Result<EvalCliArgs, CliError> {
    let m = parse_flags(EVALUATE_FLAGS, args)?;
    let out = EvalCliArgs {
        policies: m.required("--policy", |s| match PolicySpec::parse_list(s)? {
            list if list.is_empty() => Err("needs at least one policy".into()),
            list => Ok(list),
        })?,
        scenarios: m.required("--scenario", from_str)?,
        seeds: m.required("--seeds", mrsch_eval::parse_seed_spec)?,
        workload: m.required("--workload", workload)?,
        nodes: m.required("--nodes", positive)?,
        bb: m.required("--bb", positive)?,
        window: m.required("--window", positive)? as usize,
        jobs: m.required("--jobs", positive)? as usize,
        seed: m.required("--seed", from_str)?,
        train_episodes: m.required("--train-episodes", from_str)?,
        workers: m.required("--workers", positive)? as usize,
        swf: m.value("--swf", from_str)?,
        csv_out: m.value("--csv", from_str)?,
        policy_cache: m.value("--policy-cache", from_str)?,
        require_warm_cache: m.is_set("--require-warm-cache"),
    };
    if out.require_warm_cache && out.policy_cache.is_none() {
        return Err(CliError::Conflict("--require-warm-cache requires --policy-cache".into()));
    }
    Ok(out)
}

/// Build the [`EvalPlan`] of a parsed `evaluate` invocation over an
/// explicit job source (separated from I/O for testability).
pub fn build_eval_plan(args: &EvalCliArgs, source: JobSource) -> Result<EvalPlan, String> {
    let params = SimParams::new(args.window, true);
    let scenarios =
        mrsch_eval::build_scenarios(&args.scenarios, &source, &args.workload, params, args.seed)
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
        Some(path) => JobSource::Trace(load_swf(path)?),
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
        Table::new("", header, rows)
            .write_csv(Path::new(path))
            .map_err(|e| format!("--csv {path}: {e}"))?;
        eprintln!("wrote per-cell grid ({} cells) to {path}", grid.cells.len());
    }
    let (header, rows) = grid.aggregate_csv();
    Ok(table::to_csv(&header, &rows))
}

// ---------------------------------------------------------------------------
// The `serve` subcommand: the decision service of `mrsch-serve`.
// ---------------------------------------------------------------------------

/// How `serve` receives requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// Protocol lines on stdin, replies on stdout.
    Stdin,
    /// Connections accepted on `--addr`.
    Tcp,
    /// The seeded open-arrival self-test.
    Loadtest,
}

/// Parsed `serve` invocation.
#[derive(Clone, Debug)]
pub struct ServeArgs {
    /// Transport.
    pub mode: ServeMode,
    /// TCP listen address.
    pub addr: String,
    /// Micro-batching knobs.
    pub batcher: BatcherConfig,
    /// What network to build (and optionally train) — the policy is
    /// resolved through the registry, so `serve` and `evaluate` can
    /// never disagree about a spec string.
    pub engine: EngineSpec,
    /// Load-test shape.
    pub load: LoadgenConfig,
}

/// Parse `serve`-style arguments (everything after the subcommand).
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let m = parse_flags(SERVE_FLAGS, args)?;
    let seed = m.required("--seed", from_str)?;
    Ok(ServeArgs {
        mode: m.required("--mode", |s| match s {
            "stdin" => Ok(ServeMode::Stdin),
            "tcp" => Ok(ServeMode::Tcp),
            "loadtest" => Ok(ServeMode::Loadtest),
            _ => Err("unknown mode (expected stdin|tcp|loadtest)".into()),
        })?,
        addr: m.required("--addr", from_str)?,
        batcher: BatcherConfig {
            max_batch: m.required("--batch", positive)? as usize,
            queue_capacity: m.required("--queue-capacity", from_str)?,
            workers: m.required("--workers", positive)? as usize,
        },
        engine: EngineSpec {
            window: m.required("--window", positive)? as usize,
            nodes: m.required("--nodes", positive)?,
            bb: m.required("--bb", positive)?,
            seed,
            train_episodes: m.required("--train-episodes", from_str)?,
            state_module: m.required("--policy", |s| match PolicySpec::parse(s)? {
                PolicySpec::Mrsch(spec) => Ok(spec.state_module),
                other => Err(format!(
                    "'{}' is not a servable network (serve a DFP policy: mrsch, mrsch:cnn)",
                    other.name()
                )),
            })?,
            ..EngineSpec::default()
        },
        load: LoadgenConfig {
            requests: m.required("--requests", from_str)?,
            target_qps: m.required("--qps", from_str)?,
            seed,
        },
    })
}

/// Full `serve` entry point: build the engine, run the requested mode,
/// return its summary line.
pub fn serve_main(args: &[String]) -> Result<String, String> {
    let ServeArgs { mode, addr, batcher, engine, load } = parse_serve_args(args)?;
    let engine = mrsch_serve::build_engine(&engine);
    let summary = match mode {
        ServeMode::Stdin => server::run_stdin(engine, batcher)?,
        ServeMode::Tcp => server::run_tcp(engine, batcher, &addr)?,
        ServeMode::Loadtest => {
            let report = server::run_loadtest(engine, batcher, &load);
            format!(
                "loadtest: {} requests at {:.0} qps target -> {} answered, {} dropped | \
                 latency p50={}us p95={}us p99={}us mean={}us max={}us | \
                 achieved {:.0} qps, mean batch {:.2}",
                load.requests,
                load.target_qps,
                report.total,
                report.dropped,
                report.p50_ns / 1_000,
                report.p95_ns / 1_000,
                report.p99_ns / 1_000,
                report.mean_ns / 1_000,
                report.max_ns / 1_000,
                report.qps,
                report.mean_batch,
            )
        }
    };
    Ok(summary + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsch_workload::theta::SwfStatus;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_args(&args(&[
            "--swf", "t.swf", "--workload", "s4", "--nodes", "64", "--bb", "20",
            "--policy", "mrsch", "--window", "5", "--seed", "9",
            "--train-episodes", "2", "--model", "out.ckpt",
        ]))
        .unwrap();
        assert_eq!(a.workload, WorkloadSpec::s4());
        assert_eq!(a.nodes, 64);
        assert_eq!(a.policy, PolicySpec::mrsch());
        assert_eq!(a.params.window, 5);
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
        assert!(a.params.enforce_walltime, "--overrun-frac implies walltime enforcement");
        assert_eq!(a.drain_frac, 0.25);
        assert_eq!(a.params.tick, Some(600));
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
        let text = render_report("policy=fcfs workload=S1", &report);
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
        assert!(matches!(&err, CliError::Conflict(why) if why.contains("mrsch")), "{err}");
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
        assert!(err.to_string().contains("--policy-cache"), "{err}");
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
        let text = render_report("policy=fcfs workload=S1", &report);
        for part in ["workload=S1", "utilization", "avg wait", "max wait", "backfilled"] {
            assert!(text.contains(part), "{part} missing from:\n{text}");
        }
        assert!(!text.contains("disruptions:"), "clean run has no disruption line");
        // A run that leaves jobs unfinished says so, under either headline.
        let stuck = SimReport { jobs_unfinished: 2, ..report };
        assert!(render_report("resumed x.snap policy=fcfs", &stuck).contains("unfinished 2"));
    }

    #[test]
    fn loadtest_mode_end_to_end() {
        let out = serve_main(&argv(
            "--mode loadtest --window 4 --nodes 16 --bb 8 --requests 32 --qps 2000 \
             --batch 4",
        ))
        .expect("loadtest runs");
        assert!(out.contains("32 answered, 0 dropped"), "report: {out}");
        assert!(out.contains("p99="), "report: {out}");
    }

    #[test]
    fn bad_flags_are_reported() {
        let err = |s: &str| serve_main(&argv(s)).unwrap_err();
        assert!(err("--mode warp").contains("unknown mode"));
        assert!(err("--frobnicate 3").contains("unknown flag"));
        assert!(err("--batch").contains("requires a value"));
        assert!(err("--batch 0").contains("must be positive"));
        assert!(err("--policy fcfs").contains("not a servable"));
        assert!(run(&argv("serve --help")).unwrap().contains("mrsch_cli serve"));
    }

    #[test]
    fn zero_sized_machines_are_rejected_at_parse_time() {
        // `--nodes 0` / `--bb 0` used to reach `WorkloadSpec::build` and
        // panic there (`clamp(1, 0)`).
        for zero in ["--nodes", "--bb"] {
            let bad = |e: CliError| matches!(e, CliError::BadValue { flag, .. } if flag == zero);
            assert!(bad(parse_args(&args(&["--swf", "t.swf", zero, "0"])).unwrap_err()));
            assert!(bad(parse_eval_args(&args(&[zero, "0"])).unwrap_err()));
        }
        let err = run(&argv("evaluate --nodes 0")).unwrap_err();
        assert_eq!(err, "--nodes '0': must be positive");
    }

    /// A value each flag's parser accepts, for flags without a default.
    fn sample_value(flag: &Flag) -> &'static str {
        match flag.name {
            "--curriculum" => "harden",
            "--tick" | "--snapshot-every" => "60",
            _ => "x",
        }
    }

    #[test]
    fn every_table_entry_is_documented_and_parses() {
        for sub in &SUBCOMMANDS {
            let text = usage_of(sub);
            assert!(usage().contains(&text), "{} missing from the full usage", sub.name);
            for flag in sub.flags {
                let line = text.lines().find(|l| l.split_whitespace().next() == Some(flag.name));
                let line = line.unwrap_or_else(|| panic!("{} {} undocumented", sub.name, flag.name));
                assert!(line.contains(flag.help), "{line}");
                if let (Some(value), Some(default)) = (flag.value, flag.default) {
                    assert!(line.contains(value) && line.contains(&format!("[{default}]")), "{line}");
                }
                // Given alone (with its default, or a sample value), the
                // flag is accepted by the table's parser...
                let mut argv = vec![flag.name.to_string()];
                if flag.value.is_some() {
                    argv.push(flag.default.unwrap_or_else(|| sample_value(flag)).to_string());
                }
                let matched = parse_flags(sub.flags, &argv).expect("listed flags match");
                assert!(matched.is_set(flag.name));
            }
        }
        // ...and by the typed parsers: every default in the tables is a
        // value its own parser accepts.
        parse_args(&args(&["--swf", "t.swf"])).unwrap();
        parse_resume_args(&args(&["--from", "x.snap"])).unwrap();
        parse_eval_args(&[]).unwrap();
        parse_serve_args(&[]).unwrap();
    }

    #[test]
    fn each_cli_error_variant_is_reachable() {
        let sim = |v: &[&str]| parse_args(&args(v)).unwrap_err();
        assert_eq!(sim(&["--frobnicate"]), CliError::UnknownFlag("--frobnicate".into()));
        assert_eq!(sim(&["--swf", "t", "--nodes"]), CliError::MissingValue("--nodes"));
        assert_eq!(sim(&["--nodes", "4"]), CliError::MissingFlag("--swf"));
        assert!(matches!(sim(&["--swf", "t", "--seed", "-1"]), CliError::BadValue { .. }));
        assert!(matches!(
            sim(&["--swf", "t", "--snapshot-every", "5"]),
            CliError::Conflict(_)
        ));
        // The same variants from the other three parsers.
        assert_eq!(parse_resume_args(&[]).unwrap_err(), CliError::MissingFlag("--from"));
        assert!(matches!(
            parse_eval_args(&args(&["--seeds", "9..3"])).unwrap_err(),
            CliError::BadValue { flag: "--seeds", .. }
        ));
        assert!(matches!(
            parse_serve_args(&args(&["--qps", "fast"])).unwrap_err(),
            CliError::BadValue { flag: "--qps", .. }
        ));
    }

    #[test]
    fn dispatch_defaults_to_simulate_and_checks_fig_arguments() {
        assert_eq!(run(&argv("--nodes 4")).unwrap_err(), "--swf is required");
        assert_eq!(run(&argv("simulate --nodes 4")).unwrap_err(), "--swf is required");
        assert!(run(&argv("fig")).unwrap_err().contains("fig <name>"));
        assert!(run(&argv("fig fig1 4")).unwrap_err().contains("fig <name>"), "no positionals");
        assert!(run(&argv("fig fig2")).unwrap_err().contains("unknown figure"));
        assert!(run(&argv("--help")).unwrap().contains("mrsch_cli evaluate"));
        assert!(!run(&argv("resume -h")).unwrap().contains("mrsch_cli evaluate"));
    }
}
