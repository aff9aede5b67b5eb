//! `mrsch-e2e`: the repo's end-to-end benchmark. See `README.md` beside
//! this package and `/BENCHMARK.json`.
//!
//! ```text
//! mrsch-e2e run [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--json PATH] [--smoke]
//! mrsch-e2e compare A.json B.json
//! ```
//!
//! `run --workload NAME` measures one workload in this process and prints
//! the result object as the last line of standard output. Without
//! `--workload`, every workload runs in a fresh child process of this
//! binary (clean `peak_rss_mb`, no allocator carry-over).

mod compare;
mod host;
mod json;
mod loadgen;
mod metrics;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;
mod wrappers;

use json::Value;
use report::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed of the committed baselines.
const DEFAULT_SEED: u64 = 20_220_517;
/// `run_seconds` of `/BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

/// Where trace files and scratch directories go: `out/` beside the
/// package's manifest, which is inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

pub fn write_trace(args: &RunArgs, suffix: &str, tracer: &trace::Tracer) {
    let path = out_dir().join(format!("trace-{}{suffix}.json", args.workload));
    std::fs::write(&path, tracer.to_json(&args.workload, args.seed).render())
        .expect("write the trace file");
    println!("  trace written to {}", path.display());
}

struct Cli {
    run: RunArgs,
    all: bool,
    json: Option<String>,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
        },
        all: true,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                cli.run.workload = value()?.clone();
                cli.all = false;
                if !workloads::NAMES.contains(&cli.run.workload.as_str()) {
                    return Err(format!(
                        "unknown workload '{}' (expected one of: {})",
                        cli.run.workload,
                        workloads::NAMES.join(", ")
                    ));
                }
            }
            "--seed" => cli.run.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                cli.run.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(cli.run.seconds > 0.0 && cli.run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => cli.run.traced = true,
            "--smoke" => cli.run.smoke = true,
            "--json" => cli.json = Some(value()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(cli)
}

fn write_json(path: &str, value: &Value) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    std::fs::write(path, value.render_pretty()).map_err(|e| format!("{path}: {e}"))
}

/// One workload, in this process. The result object is the last line.
fn run_one(cli: &Cli) -> Result<bool, String> {
    let report = workloads::run(&cli.run);
    report.print(&cli.run);
    if let Some(path) = &cli.json {
        write_json(path, &report.to_json(&cli.run))?;
    }
    println!("{}", report.result_line(cli.run.traced).render());
    Ok(report.correct())
}

/// Every workload, each in a fresh child process; collects the children's
/// full reports into one result set.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let part = out_dir().join(format!("result-{name}-{}.json", std::process::id()));
        let mut child = std::process::Command::new(&exe);
        child.args(["run", "--workload", name]);
        child.args(["--seed", &cli.run.seed.to_string()]);
        child.args(["--seconds", &cli.run.seconds.to_string()]);
        child.args(["--trace", if cli.run.traced { "1" } else { "0" }]);
        child.arg("--json").arg(&part);
        if cli.run.smoke {
            child.arg("--smoke");
        }
        let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{name}: no result ({e})"))?;
        let _ = std::fs::remove_file(&part);
        let result = Value::parse(&text)?;
        all_correct &= status.success() && result.get("correct") == Some(&Value::Bool(true));
        results.push(result);
    }
    if let Some(path) = &cli.json {
        let set = Value::obj([
            ("schema", Value::str("mrsch-e2e/v1")),
            ("seed", Value::Num(cli.run.seed as f64)),
            ("seconds", Value::Num(cli.run.seconds)),
            ("traced", Value::Bool(cli.run.traced)),
            ("host", host::describe()),
            ("results", Value::Arr(results)),
        ]);
        write_json(path, &set)?;
        println!("result set written to {path}");
    }
    Ok(all_correct)
}

/// `/BENCHMARK.json`, generated from the registry so the two cannot drift
/// (`mrsch-e2e manifest > BENCHMARK.json`; a test compares them).
fn manifest() -> Value {
    use metrics::Better;
    let metric = |d: &metrics::MetricDef, bounded: bool| {
        let better = if d.better == Better::Higher {
            "higher"
        } else {
            "lower"
        };
        let mut fields = vec![
            ("name", Value::str(d.name)),
            ("unit", Value::str(d.unit)),
            ("better", Value::str(better)),
        ];
        if bounded {
            fields.push(("bound", Value::Num(metrics::bound(d.name))));
        }
        Value::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
    ]
    .into_iter()
    .chain(["benchmarks/e2e/Cargo.toml", "--", "run"]);
    Value::obj([
        ("command", Value::Arr(command.map(Value::str).collect())),
        ("paths", Value::Arr(vec![Value::str("benchmarks")])),
        ("run_seconds", Value::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                workloads::NAMES
                    .iter()
                    .zip(workloads::WHY)
                    .map(|(n, w)| Value::obj([("name", Value::str(*n)), ("why", Value::str(*w))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|d| metric(d, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|d| metric(d, false))
                    .collect(),
            ),
        ),
    ])
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mrsch-e2e run [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] \
         [--json PATH] [--smoke]\n       mrsch-e2e compare A.json B.json\nworkloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|cli| {
            if cli.all {
                run_all(&cli)
            } else {
                run_one(&cli)
            }
        }),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", manifest().render_pretty());
            return ExitCode::SUCCESS;
        }
        Some((cmd, [a, b])) if cmd == "compare" => compare::run(a, b),
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
