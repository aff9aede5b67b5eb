//! `mrsch_cli` — run MRSch and the baseline schedulers on SWF traces,
//! evaluate whole policy × scenario × seed grids, serve decisions, or
//! regenerate a paper figure. `mrsch_cli --help` lists every subcommand
//! and flag (see `mrsch_experiments::cli`).
use mrsch_experiments::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{}", cli::usage());
        std::process::exit(2);
    }
    match cli::run(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
