//! Experiment harness: one module per table/figure of the MRSch paper.
//!
//! Every module exposes a `run(scale, seed)` function returning plain data
//! structures plus a `print_*` helper that emits the same rows/series the
//! paper plots. [`figures`] maps each artifact's name to its full-scale
//! driver; `mrsch_cli fig <name>` runs one.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — motivating example (fixed weights vs ideal order) |
//! | [`table3`] | Table III — workload suite definitions |
//! | [`fig3`] | Fig. 3 — MLP vs CNN state module |
//! | [`fig4`] | Fig. 4 — training-curriculum orderings |
//! | [`comparison`] (+[`fig5`], [`fig6`], [`fig7`]) | Figs. 5–7 — method comparison on S1–S5 |
//! | [`fig8`], [`fig9`] | Figs. 8–9 — dynamic goal vector `rBB` |
//! | [`fig10`] | Fig. 10 — three-resource case study S6–S10 |
//! | [`overhead`] | §V-F — decision latency |
//! | [`ablation`] | extra ablations: goal mode, starvation guards, window size |
//! | [`disruption_curriculum`] | clean-trained vs disruption-hardened MRSch on a disrupted trace |
//!
//! The [`scale`] module defines the experiment sizes: `quick()` for tests
//! (seconds), `full()` for `mrsch_cli fig` (minutes). All runs are
//! deterministic in the provided seed.
//!
//! Policy construction and training are **not** done here: the
//! comparison drivers map the paper's experimental design onto
//! `mrsch_eval::EvalPlan`s and let the registry
//! (`mrsch_eval::PolicySpec`) build every scheduler. The CLI ([`cli`])
//! exposes the same grid as the `mrsch_cli evaluate` subcommand.

pub mod ablation;
pub mod cli;
pub mod comparison;
pub mod csv;
pub mod disruption_curriculum;
pub mod fig1;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figures;
pub mod kiviat;
pub mod multi_seed;
pub mod overhead;
pub mod scale;
pub mod table3;

pub use comparison::{Comparison, MethodName};
pub use scale::ExpScale;
