//! `mrsch_cli` — run MRSch and the baseline schedulers on SWF traces,
//! or evaluate whole policy × scenario × seed grids.
//!
//! ```text
//! mrsch_cli simulate --swf trace.swf --workload S4 --nodes 256 --bb 75 --policy mrsch
//! mrsch_cli resume --from snaps/shard-0000.snap --policy fcfs
//! mrsch_cli evaluate --policy fcfs,mrsch --scenario drain --seeds 0..4
//! mrsch_cli serve --mode tcp --addr 127.0.0.1:7077 --batch 8 --delay-us 2000
//! mrsch_cli fig fig5
//! ```
use mrsch_experiments::{cli, figures};

fn usage() -> ! {
    eprintln!(
        "usage: mrsch_cli [simulate] --swf FILE [--workload S1..S10] [--nodes N] [--bb B] \
         [--policy fcfs|sjf|ljf|ga|mrsch] [--window W] [--seed S] \
         [--train-episodes K] [--model OUT.ckpt] [--load IN.ckpt] \
         [--workers N] \
         [--snapshot-every N --snapshot-dir DIR]\n\
         \n\
         mrsch_cli resume --from DIR/shard-0000.snap [--policy fcfs|sjf|ljf|ga] [--seed S]\n\
         \n\
         mrsch_cli evaluate --policy P1,P2|all --scenario clean,cancel-heavy,overrun-heavy,\
         drain,mixed,dag:chain[:L],dag:fanout[:W],bursty:diurnal[:PCT],bursty:spike[:BOOST],\
         energy:drain|all --seeds A..B [--workload S1..S10] [--nodes N] [--bb B] [--window W] \
         [--jobs N | --swf FILE] [--train-episodes K] [--workers N] \
         [--policy-cache DIR [--require-warm-cache]] [--csv GRID.csv]\n\
         \n\
         mrsch_cli serve [--mode stdin|tcp|loadtest] [--addr HOST:PORT] [--policy mrsch] \
         [--batch N] [--delay-us T] [--workers N] [--requests N] [--qps Q] (serve --help for all)\n\
         \n\
         mrsch_cli fig {}",
        figures::FIGURES.iter().map(|(name, _)| *name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `serve` owns its own --help; everything else shares the top-level usage.
    if args.first().map(String::as_str) != Some("serve")
        && (args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h"))
    {
        usage();
    }
    let result = match args[0].as_str() {
        "evaluate" => cli::evaluate_main(&args[1..]),
        "resume" => cli::resume_main(&args[1..]),
        "serve" => mrsch_serve::cli::serve_main(&args[1..]).map(|s| format!("{s}\n")),
        "simulate" => cli::main_with_args(&args[1..]),
        "fig" => match args.get(1) {
            Some(name) => figures::run(name, &args[2..])
                .map(|()| String::new())
                .map_err(|e| e.to_string()),
            None => usage(),
        },
        _ => cli::main_with_args(&args),
    };
    match result {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
