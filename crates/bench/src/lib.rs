//! `ulba-bench` — the benchmark harness regenerating every table and figure
//! of Boulmier et al. (IEEE CLUSTER 2019), plus ablation studies and the CI
//! gates. One binary, `ulba-bench <study>`, runs them:
//!
//! | artifact | study | library entry |
//! |---|---|---|
//! | Table II | `table2` | [`figures::table2::run`] |
//! | Fig. 2 | `fig2` | [`figures::fig2::run`] |
//! | Fig. 3 | `fig3` | [`figures::fig3::run`] |
//! | Fig. 4a | `fig4a` | [`figures::fig4::run_4a`] |
//! | Fig. 4b | `fig4b` | [`figures::fig4::run_4b`] |
//! | Fig. 5 | `fig5` | [`figures::fig5::run`] |
//! | E-A1…E-A4 | `ablation_*` | [`figures::ablations`] |
//! | weak scaling, P ≤ 2^20 | `weak_scaling` | [`figures::weak_scaling::run`] |
//! | adversarial-scenario sweep | `scenarios` | [`figures::scenarios::run`] |
//! | every paper artifact and ablation | `all` | — |
//! | CI gates; `drift`, `wall` against the committed `BENCH_*.json` | `gate` | [`gates::run`] |
//!
//! The erosion-driven studies emit a schema-3 [`report::Report`]
//! (`results/BENCH_<study>.json`); [`gates`] holds every check CI runs on
//! one. Only the binary reads argv and the environment, once, through
//! [`cli::Cli`]: `--smoke` shrinks instance counts and seeds;
//! `ULBA_RESULTS=<dir>` redirects the output; `ULBA_SEEDS` sets how many
//! median seeds an erosion study runs. The runs themselves read the
//! runtime's `ULBA_BACKEND` and `ULBA_WORKERS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod gates;
pub mod output;
pub mod report;
pub mod stats;
