//! Experiment harness: one module per table/figure of the MRSch paper.
//!
//! A figure is a *plan that yields tables*: `tables(scale, seed)` runs
//! the artifact's [`mrsch_eval::EvalPlan`] (or its stand-alone
//! experiment) and returns [`mrsch_eval::Table`]s — one result type
//! (`EvalGrid`), one output type (`Table`: aligned text on the terminal,
//! CSV under `results/`). [`figures`] maps each artifact's name to that
//! function; `mrsch_cli fig <name>` runs one at full scale.
//!
//! | Module | Paper artifact | Plan |
//! |---|---|---|
//! | [`fig1`] | Fig. 1 — motivating example (fixed weights vs ideal order) | two 4-job simulations |
//! | [`table3`] | Table III — workload suite definitions | materialized S1–S5 statistics |
//! | [`fig3`] | Fig. 3 — MLP vs CNN state module | `suite_plan`, policies `mrsch`, `mrsch:cnn` |
//! | [`fig4`] | Fig. 4 — training-curriculum orderings | six `jobset_curriculum`s through the training engine |
//! | [`fig5`], [`fig6`], [`fig7`] | Figs. 5–7 — method comparison on S1–S5 | `suite_plan`, the four [`comparison::LEGEND`] methods |
//! | [`fig8`], [`fig9`] | Figs. 8–9 — dynamic goal vector `rBB` | a live agent's goal log on the plan's evaluation episode |
//! | [`fig10`] | Fig. 10 — three-resource case study S6–S10 | `suite_plan` on the three-resource suite |
//! | [`overhead`] | §V-F — decision latency | timed `DfpAgent::act` |
//! | [`ablation`] | extra ablations: goal mode, starvation guards, window size | hand-built cells on the plan's evaluation episode |
//! | [`multi_seed`] | mean ± std of the comparison over seeds | one `suite_plan` per seed, merged |
//! | [`disruption_curriculum`] | clean-trained vs disruption-hardened MRSch on a disrupted trace | one plan, per-policy curricula |
//!
//! [`comparison`] holds the experimental design all of them share (the
//! train/test split, the §III-D curriculum, the legend) and [`kiviat`]
//! the normalization behind Figs. 7 and 10. The [`scale`] module defines
//! the experiment sizes: `quick()` for tests (seconds), `full()` for
//! `mrsch_cli fig` (minutes). All runs are deterministic in the provided
//! seed.
//!
//! Policy construction and training are **not** done here: the registry
//! (`mrsch_eval::PolicySpec`) builds every scheduler. The CLI ([`cli`])
//! exposes the same harness as `mrsch_cli evaluate`, next to `simulate`,
//! `resume`, `serve` and `fig`.

pub mod ablation;
pub mod cli;
pub mod comparison;
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

pub use scale::ExpScale;
