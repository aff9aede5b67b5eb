//! The name → function table behind `mrsch_cli fig <name>`: every paper
//! artifact (and the extra studies) regenerated at full scale, rows
//! printed to stdout and written to `results/<name>.csv`.

use crate::comparison::run_suite;
use crate::{
    ablation, csv, disruption_curriculum, fig1, fig10, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
    multi_seed, overhead, table3, Comparison, ExpScale,
};
use mrsch_workload::suite::WorkloadSpec;
use std::fmt;

/// Seed every figure is regenerated under.
const SEED: u64 = 2022;

/// One figure driver; `args` is whatever followed the figure name.
type FigureFn = fn(args: &[String]);

/// Every figure `mrsch_cli fig` can regenerate, in paper order.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("fig1", |_| fig1::print(&fig1::run())),
    ("table3", |_| {
        let stats = table3::run(&ExpScale::full(), SEED);
        table3::print(&stats);
        write("table3", table3::csv_rows(&stats));
    }),
    ("fig3", |_| {
        let rows = fig3::run(&ExpScale::full(), SEED);
        fig3::print(&rows);
        write("fig3", fig3::csv_rows(&rows));
    }),
    ("fig4", |_| {
        let curves = fig4::run(&ExpScale::full(), SEED);
        fig4::print(&curves);
        write("fig4", fig4::csv_rows(&curves));
    }),
    ("fig5", |_| {
        let results = two_resource_comparison();
        fig5::print(&results);
        write("fig5", fig5::csv_rows(&results));
    }),
    ("fig6", |_| {
        let results = two_resource_comparison();
        fig6::print(&results);
        let (wait_pct, sd_pct) = fig6::mrsch_improvements(&results);
        println!(
            "MRSch best wait reduction: {wait_pct:.1}% ; best slowdown reduction: {sd_pct:.1}%"
        );
        write("fig6", fig6::csv_rows(&results));
    }),
    ("fig7", |_| {
        let charts = fig7::run(&two_resource_comparison());
        fig7::print(&charts);
        println!(
            "MRSch largest area on every workload: {}",
            fig7::mrsch_wins_everywhere(&charts)
        );
        write("fig7", fig7::csv_rows(&charts));
    }),
    ("fig8", |_| {
        let series = fig8::run(&ExpScale::full(), SEED);
        fig8::print(&series);
        write("fig8", fig8::csv_rows(&series));
    }),
    ("fig9", |_| {
        let boxes = fig9::run(&ExpScale::full(), SEED);
        fig9::print(&boxes);
        write("fig9", fig9::csv_rows(&boxes));
    }),
    ("fig10", |_| {
        let charts = fig10::run(&ExpScale::full(), SEED);
        fig10::print(&charts);
        write("fig10", fig10::csv_rows(&charts));
    }),
    ("overhead", |_| overhead::print(&overhead::run(10))),
    ("ablation", |_| {
        let scale = ExpScale::full();
        let goal = ablation::goal_mode(&scale, SEED);
        ablation::print("dynamic vs fixed goal (S5)", &goal);
        let guards = ablation::starvation_guards(&scale, SEED);
        ablation::print("starvation guards on/off (S4)", &guards);
        let windows = ablation::window_size(&scale, SEED, &[1, 5, 10, 20]);
        ablation::print("window size (S4)", &windows);
        let mut all = goal;
        all.extend(guards);
        all.extend(windows);
        write("ablation", ablation::csv_rows(&all));
    }),
    ("multi_seed", |_| {
        let scale = ExpScale::full();
        let mut all = Vec::new();
        for spec in [WorkloadSpec::s4(), WorkloadSpec::s5()] {
            let rows =
                multi_seed::run_workload_multi_seed(&spec, &scale, &[SEED, SEED + 1, SEED + 2]);
            multi_seed::print(&rows);
            all.extend(rows);
        }
        write("multi_seed", multi_seed::csv_rows(&all));
    }),
    // `mrsch_cli fig disruption_curriculum [workers]`
    ("disruption_curriculum", |args| {
        let workers = args.first().and_then(|a| a.parse().ok()).unwrap_or(4);
        let rows = disruption_curriculum::run(&ExpScale::full(), 1, workers);
        disruption_curriculum::print(&rows);
        write(
            "disruption_curriculum",
            disruption_curriculum::csv_rows(&rows),
        );
    }),
];

/// The four-method comparison on S1–S5 that Figs. 5–7 all plot.
fn two_resource_comparison() -> Vec<Comparison> {
    run_suite(&WorkloadSpec::two_resource_suite(), &ExpScale::full(), SEED)
}

fn write(name: &str, (header, rows): (Vec<&'static str>, Vec<Vec<String>>)) {
    if let Ok(path) = csv::write_results(name, &header, &rows) {
        println!("wrote {path}");
    }
}

/// `mrsch_cli fig` was given a name that is not in [`FIGURES`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownFigure(pub String);

impl fmt::Display for UnknownFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        write!(
            f,
            "unknown figure '{}' (registered: {})",
            self.0,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownFigure {}

/// Regenerate the figure called `name`, passing it `args`.
pub fn run(name: &str, args: &[String]) -> Result<(), UnknownFigure> {
    let (_, figure) = FIGURES
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| UnknownFigure(name.to_string()))?;
    figure(args);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_a_typed_error_listing_the_table() {
        let err = run("fig2", &[]).unwrap_err();
        assert_eq!(err, UnknownFigure("fig2".into()));
        let msg = err.to_string();
        for (name, _) in FIGURES {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
    }

    #[test]
    fn fig1_runs_through_the_table() {
        assert_eq!(run("fig1", &[]), Ok(()));
    }
}
