//! CSV emission helpers — re-exported from the shared emitter in
//! `mrsch_eval::table` so the figure drivers and the evaluation
//! harness keep one set of quoting rules.

pub use mrsch_eval::table::{f, to_csv, write_csv_to, write_results};
