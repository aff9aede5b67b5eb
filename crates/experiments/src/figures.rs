//! The name → plan table behind `mrsch_cli fig <name>`: every paper
//! artifact (and the extra studies) is a function from a scale and a
//! seed to [`Table`]s, regenerated at full scale by one print-and-write
//! loop.

use crate::{
    ablation, disruption_curriculum, fig1, fig10, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
    multi_seed, overhead, table3, ExpScale,
};
use mrsch_eval::Table;
use std::fmt;
use std::path::{Path, PathBuf};

/// Seed every figure is regenerated under.
pub const SEED: u64 = 2022;

/// One figure: its tables at a scale and seed. The first table is the
/// figure's data (what `results/<name>.csv` holds); any further tables
/// are summaries derived from it.
pub type FigureFn = fn(&ExpScale, u64) -> Vec<Table>;

/// Every figure `mrsch_cli fig` can regenerate, in paper order.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("fig1", |_, _| vec![fig1::table(&fig1::run())]),
    ("table3", |scale, seed| vec![table3::table(&table3::run(scale, seed))]),
    ("fig3", fig3::tables),
    ("fig4", fig4::tables),
    ("fig5", fig5::tables),
    ("fig6", fig6::tables),
    ("fig7", fig7::tables),
    ("fig8", fig8::tables),
    ("fig9", fig9::tables),
    ("fig10", fig10::tables),
    ("overhead", |_, _| vec![overhead::table(&overhead::run(10))]),
    ("ablation", ablation::tables),
    ("multi_seed", multi_seed::tables),
    ("disruption_curriculum", disruption_curriculum::tables),
];

/// Why `mrsch_cli fig` failed.
#[derive(Debug)]
pub enum FigureError {
    /// The name is not in [`FIGURES`].
    Unknown(String),
    /// The figure ran but its CSV could not be written.
    Write(PathBuf, std::io::Error),
}

impl fmt::Display for FigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FigureError::Unknown(name) => {
                let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
                write!(f, "unknown figure '{name}' (registered: {})", names.join(", "))
            }
            FigureError::Write(path, e) => write!(f, "writing {}: {e}", path.display()),
        }
    }
}

impl std::error::Error for FigureError {}

/// Regenerate the figure called `name` at full scale under [`SEED`]:
/// print every table, write the first as `<out_dir>/<name>.csv`.
pub fn run(name: &str, out_dir: &Path) -> Result<(), FigureError> {
    let (_, figure) = FIGURES
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| FigureError::Unknown(name.to_string()))?;
    let tables = figure(&ExpScale::full(), SEED);
    for table in &tables {
        println!("{}", table.render());
    }
    if let Some(data) = tables.first() {
        let path = out_dir.join(format!("{name}.csv"));
        if let Err(e) = data.write_csv(&path) {
            return Err(FigureError::Write(path, e));
        }
        println!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mrsch_figures_{tag}_{}", std::process::id()))
    }

    #[test]
    fn unknown_figure_is_a_typed_error_listing_the_table() {
        let err = run("fig2", &scratch("unknown")).unwrap_err();
        assert!(matches!(&err, FigureError::Unknown(name) if name == "fig2"));
        let msg = err.to_string();
        for (name, _) in FIGURES {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
    }

    #[test]
    fn fig1_runs_through_the_table() {
        let dir = scratch("fig1");
        run("fig1", &dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("fig1.csv")).unwrap();
        assert_eq!(
            csv,
            "schedule,makespan_h,j1_start_h,j2_start_h,j3_start_h,j4_start_h\n\
             fixed_weight_greedy,3,1,0,0,2\n\
             ideal_order,2,0,1,0,1\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_csv_write_is_an_error() {
        // The output "directory" is a file, so the CSV cannot be created.
        let blocker = scratch("blocked");
        std::fs::write(&blocker, b"").unwrap();
        let err = run("fig1", &blocker).unwrap_err();
        assert!(matches!(err, FigureError::Write(..)), "{err}");
        let _ = std::fs::remove_file(&blocker);
    }

    /// FNV-1a over the CSV text.
    fn digest(csv: &str) -> u64 {
        csv.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    #[ignore = "experiment-scale (every figure at quick scale); run with --ignored / in CI"]
    fn figure_csvs_are_pinned() {
        // FNV-1a digests of each figure's CSV at `ExpScale::quick()`,
        // seed 11. The first seven were computed at the commit before
        // figures became plans (from `csv_rows` of the old per-figure
        // structs) and must never move: those figures were already
        // plan-based or deterministic. The rest were pinned when their
        // figures moved onto `suite_plan` / `eval_scenario`. `overhead`
        // measures wall time and has no stable digest.
        let pinned: [(&str, u64); 13] = [
            ("table3", 0xc0c5_b4fa_193e_dece),
            ("fig5", 0xab26_c769_8fbc_0ce7),
            ("fig6", 0x68b1_b83f_0c03_6976),
            ("fig7", 0x0759_e44c_1b1e_b7b5),
            ("fig10", 0x9c56_227c_e268_fcfe),
            ("multi_seed", 0xde30_7a11_2202_0871),
            ("disruption_curriculum", 0xeaf1_adec_66f6_460b),
            ("fig1", 0x6b88_6dbb_e0df_3cad),
            ("fig3", 0x3cca_dd9d_5271_fc99),
            ("fig4", 0x7411_432e_f777_d9e6),
            ("fig8", 0xa84f_323f_3ab6_f897),
            ("fig9", 0xd94b_905a_bac8_194e),
            ("ablation", 0x3171_b92b_d2f6_9b2c),
        ];
        assert_eq!(pinned.len() + 1, FIGURES.len(), "every figure but `overhead` is pinned");
        let mut moved = Vec::new();
        for (name, expected) in pinned {
            let (_, figure) = FIGURES.iter().find(|(n, _)| *n == name).expect("registered");
            let got = digest(&figure(&ExpScale::quick(), 11)[0].to_csv());
            if got != expected {
                moved.push(format!("{name}: {got:#018x} (pinned {expected:#018x})"));
            }
        }
        assert!(moved.is_empty(), "figure CSVs changed:\n{}", moved.join("\n"));
    }
}
